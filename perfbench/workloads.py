"""Seeded inputs and the operations of each benchmark workload.

A workload is a list of operations that one worker process runs in order,
one pass after another. Each operation is either a command line for
``redistrib.cli.main`` or a library call on the custom rule, and carries
what the oracle needs to check its output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracle

APPLY_AGENTS = 200_000
COMPARE_AGENTS = 100_000
SAMPLES = 1000
TOL = 1e-9
GRID_SPEC = "-2:2:0.5"
GRID = [-2.0 + 0.5 * k for k in range(9)]

AB_POLY = "ab:A=poly:0.2,0.1,-0.05,B=poly:0.1,0.3,0.02"
APPLY_RULE = "prop"
COMPARE_RULES = (
    "lf",
    "prop",
    "nafr",
    "lin:0.3,0.2",
    "convex(lf;prop;0.3)",
    f"dual({AB_POLY})",
)
VERDICT_RULES = (
    "lf",
    "full",
    "prop",
    "nafr",
    "lin:0.3,0.2",
    "lindual:0.3,0.2",
    "afam:A=affine:0.2,0.4",
    "bfam:B=poly:0.5,0.3,0.1",
    AB_POLY,
    "convex(lf;prop;0.3)",
    f"dual({AB_POLY})",
    oracle.SQNEED,
)

WORKLOADS = ("apply-csv", "compare-json", "verdicts")


def households(seed: int, n: int, stream: int):
    """Ids, incomes and needs of n seeded households.

    Ids are a random permutation, so order is not sorted order. Incomes are
    log-normal in cents with 5% negative (losses); 3% of needs are zero.
    Total income stays far from zero, so the program's balance check is
    well conditioned.
    """
    rng = np.random.default_rng([seed, stream])
    ids = [f"h{k:07d}" for k in rng.permutation(n)]
    incomes = np.round(rng.lognormal(10.0, 0.8, n), 2)
    losses = rng.random(n) < 0.05
    incomes[losses] = np.round(rng.uniform(-20000.0, 0.0, int(losses.sum())), 2)
    needs = np.round(rng.uniform(200.0, 30000.0, n), 2)
    needs[rng.random(n) < 0.03] = 0.0
    return ids, incomes, needs


def csv_bytes(ids, incomes, needs) -> bytes:
    lines = ["id,income,need"]
    lines += [f"{i},{y!r},{z!r}" for i, y, z in zip(ids, incomes.tolist(), needs.tolist())]
    return ("\n".join(lines) + "\n").encode("utf-8")


def json_bytes(ids, incomes, needs) -> bytes:
    agents = [
        {"id": i, "income": y, "need": z}
        for i, y, z in zip(ids, incomes.tolist(), needs.tolist())
    ]
    return json.dumps({"agents": agents}, separators=(",", ":")).encode("utf-8")


def _cli_op(argv: list[str], output: Path, check, expect_rc: int = 0, items: int = 0) -> dict:
    return {
        "kind": "cli",
        "argv": argv + ["--output", str(output), "--no-timestamp"],
        "output": str(output),
        "expect_rc": expect_rc,
        "items": items,
        "check": check,
    }


def build(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the seeded inputs under work and return the operations.

    Each operation's "check" is a function of the parsed report returning
    a list of errors; the worker never sees it.
    """
    if workload == "apply-csv":
        ids, incomes, needs = households(seed, APPLY_AGENTS, 1)
        data = work / "households.csv"
        data.write_bytes(csv_bytes(ids, incomes, needs))
        return [
            _cli_op(
                ["apply", "--rule", APPLY_RULE, "--input", str(data)],
                work / "apply.json",
                lambda r: oracle.check_apply_report(r, APPLY_RULE, ids, incomes, needs),
                items=APPLY_AGENTS,
            )
        ]
    if workload == "compare-json":
        ids, incomes, needs = households(seed, COMPARE_AGENTS, 2)
        data = work / "households.json"
        data.write_bytes(json_bytes(ids, incomes, needs))
        argv = ["compare", "--input", str(data)]
        for spec in COMPARE_RULES:
            argv += ["--rules", spec]
        return [
            _cli_op(
                argv,
                work / "compare.json",
                lambda r: oracle.check_compare_report(r, COMPARE_RULES, ids, incomes, needs),
                items=COMPARE_AGENTS * len(COMPARE_RULES),
            )
        ]
    if workload == "verdicts":
        return _verdict_ops(seed, work)
    raise ValueError(f"unknown workload {workload!r}")


def _verdict_ops(seed: int, work: Path) -> list[dict]:
    sampling = ["--seed", str(seed), "--samples", str(SAMPLES), "--tol", repr(TOL)]
    ops = []
    for k, spec in enumerate(VERDICT_RULES):
        checks = {
            "check": lambda r, s=spec: oracle.check_check_report(r, s, seed, SAMPLES, TOL),
            "classify": lambda r, s=spec: oracle.check_classify_report(r, s, GRID, seed, SAMPLES, TOL),
            "dual": lambda r, s=spec: oracle.check_dual_report(r, s, seed, SAMPLES, TOL),
        }
        for command, check in checks.items():
            output = work / f"{command}-{k:02d}.json"
            if spec == oracle.SQNEED:
                ops.append({
                    "kind": "library",
                    "call": command,
                    "axioms": list(oracle.checked_axioms(spec)),
                    "seed": seed,
                    "samples": SAMPLES,
                    "tol": TOL,
                    "grid": GRID,
                    "output": str(output),
                    "expect_rc": 0,
                    "check": check,
                })
                continue
            argv = [command, "--rule", spec] + sampling
            if command == "check":
                argv.append("--axioms=" + ",".join(oracle.checked_axioms(spec)))
            if command == "classify":
                argv.append(f"--grid={GRID_SPEC}")
            expect = oracle.expected_check_exit(spec) if command == "check" else 0
            ops.append(_cli_op(argv, output, check, expect_rc=expect))
    return ops


def trials_in(report: dict) -> int:
    """Sampled trials a verdict report says it ran."""
    if report.get("command") == "check":
        return sum(item["trials_run"] for item in report["axioms"])
    return report["samples"]
