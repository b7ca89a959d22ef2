"""Tests of the benchmark's own checker, on tiny inputs.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from redistrib import cli  # noqa: E402

SEED = 7
SAMPLES = 60


def run_cli(argv: list[str], output: Path) -> tuple[int, dict]:
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv + ["--output", str(output), "--no-timestamp"])
    return rc, json.loads(output.read_text())


def sampling(seed: int = SEED) -> list[str]:
    return ["--seed", str(seed), "--samples", str(SAMPLES), "--tol", repr(workloads.TOL)]


def test_generators_repeat_byte_for_byte():
    first = workloads.households(SEED, 300, 1)
    again = workloads.households(SEED, 300, 1)
    other = workloads.households(SEED + 1, 300, 1)
    assert workloads.csv_bytes(*first) == workloads.csv_bytes(*again)
    assert workloads.json_bytes(*first) == workloads.json_bytes(*again)
    assert workloads.csv_bytes(*first) != workloads.csv_bytes(*other)
    assert workloads.households(SEED, 300, 2)[0] != first[0]


def test_generated_inputs_have_losses_and_zero_needs():
    _, incomes, needs = workloads.households(SEED, 5000, 1)
    assert (incomes < 0).any() and (needs == 0).any()
    assert incomes.sum() > 0.5 * np.abs(incomes).sum()


@pytest.fixture
def households(tmp_path):
    ids, incomes, needs = workloads.households(SEED, 40, 1)
    csv_path = tmp_path / "h.csv"
    csv_path.write_bytes(workloads.csv_bytes(ids, incomes, needs))
    json_path = tmp_path / "h.json"
    json_path.write_bytes(workloads.json_bytes(ids, incomes, needs))
    return ids, incomes, needs, csv_path, json_path


def _largest_row(values) -> int:
    return int(np.argmax(np.abs(np.asarray(values))))


def test_apply_report_accepted_and_perturbation_caught(households, tmp_path):
    ids, incomes, needs, csv_path, _ = households
    rc, report = run_cli(["apply", "--rule", "prop", "--input", str(csv_path)], tmp_path / "o.json")
    assert rc == 0
    assert oracle.check_apply_report(report, "prop", ids, incomes, needs) == []
    k = _largest_row([row["allocation"] for row in report["agents"]])
    report["agents"][k]["allocation"] *= 1 + 1e-6
    assert oracle.check_apply_report(report, "prop", ids, incomes, needs)


def test_apply_report_with_reordered_rows_is_rejected(households, tmp_path):
    ids, incomes, needs, csv_path, _ = households
    _, report = run_cli(["apply", "--rule", "prop", "--input", str(csv_path)], tmp_path / "o.json")
    report["agents"][0], report["agents"][1] = report["agents"][1], report["agents"][0]
    assert oracle.check_apply_report(report, "prop", ids, incomes, needs)


@pytest.mark.parametrize("spec", workloads.COMPARE_RULES)
def test_compare_report_accepted_and_perturbation_caught(households, tmp_path, spec):
    ids, incomes, needs, _, json_path = households
    argv = ["compare", "--input", str(json_path)]
    for rule in workloads.COMPARE_RULES:
        argv += ["--rules", rule]
    rc, report = run_cli(argv, tmp_path / "o.json")
    assert rc == 0
    assert oracle.check_compare_report(report, workloads.COMPARE_RULES, ids, incomes, needs) == []
    k = _largest_row([row["allocations"][spec] for row in report["agents"]])
    report["agents"][k]["allocations"][spec] *= 1 + 1e-6
    assert oracle.check_compare_report(report, workloads.COMPARE_RULES, ids, incomes, needs)


GRAMMAR_RULES = [spec for spec in workloads.VERDICT_RULES if spec != oracle.SQNEED]


@pytest.mark.parametrize("spec", GRAMMAR_RULES)
def test_check_report_accepted_and_flipped_verdict_caught(tmp_path, spec):
    axioms = "--axioms=" + ",".join(oracle.checked_axioms(spec))
    rc, report = run_cli(["check", "--rule", spec, axioms] + sampling(), tmp_path / "o.json")
    assert rc == oracle.expected_check_exit(spec)
    assert oracle.check_check_report(report, spec, SEED, SAMPLES, workloads.TOL) == []
    for k in range(len(report["axioms"])):
        flipped = json.loads(json.dumps(report))
        flipped["axioms"][k]["passed"] = not flipped["axioms"][k]["passed"]
        assert oracle.check_check_report(flipped, spec, SEED, SAMPLES, workloads.TOL)


def test_fail_without_a_real_violation_is_rejected(tmp_path):
    _, report = run_cli(["check", "--rule", "full", "--axioms", "all"] + sampling(), tmp_path / "o.json")
    failing = next(item for item in report["axioms"] if not item["passed"])
    failing["counterexample"]["deviation"] = failing["counterexample"]["threshold"] / 2
    assert oracle.check_check_report(report, "full", SEED, SAMPLES, workloads.TOL)


@pytest.mark.parametrize("spec", GRAMMAR_RULES)
def test_classify_and_dual_reports_accepted_and_flips_caught(tmp_path, spec):
    argv = ["classify", "--rule", spec, f"--grid={workloads.GRID_SPEC}"] + sampling()
    rc, report = run_cli(argv, tmp_path / "c.json")
    assert rc == 0
    assert oracle.check_classify_report(report, spec, workloads.GRID, SEED, SAMPLES, workloads.TOL) == []
    report["label"] = "non-AB" if report["label"] != "non-AB" else "generic-AB"
    assert oracle.check_classify_report(report, spec, workloads.GRID, SEED, SAMPLES, workloads.TOL)

    rc, report = run_cli(["dual", "--rule", spec] + sampling(), tmp_path / "d.json")
    assert rc == 0
    assert oracle.check_dual_report(report, spec, SEED, SAMPLES, workloads.TOL) == []
    flipped = json.loads(json.dumps(report))
    flipped["self_dual"]["passed"] = not flipped["self_dual"]["passed"]
    assert oracle.check_dual_report(flipped, spec, SEED, SAMPLES, workloads.TOL)
    if report["dual_rule"] not in (None, spec):
        report["dual_rule"] = spec
        assert oracle.check_dual_report(report, spec, SEED, SAMPLES, workloads.TOL)


@pytest.mark.parametrize("call", ["check", "classify", "dual"])
def test_custom_rule_reports_accepted_and_flips_caught(call):
    from worker import LibraryOps

    op = {"call": call, "axioms": oracle.checked_axioms(oracle.SQNEED), "seed": SEED, "samples": SAMPLES, "tol": workloads.TOL, "grid": workloads.GRID}
    report = json.loads(json.dumps(LibraryOps().run(op)()))
    check = {
        "check": lambda r: oracle.check_check_report(r, oracle.SQNEED, SEED, SAMPLES, workloads.TOL),
        "classify": lambda r: oracle.check_classify_report(
            r, oracle.SQNEED, workloads.GRID, SEED, SAMPLES, workloads.TOL),
        "dual": lambda r: oracle.check_dual_report(r, oracle.SQNEED, SEED, SAMPLES, workloads.TOL),
    }[call]
    assert check(report) == []
    if call == "check":
        nat = next(item for item in report["axioms"] if item["axiom"] == "nat")
        nat["passed"] = True
    elif call == "classify":
        report["label"] = "generic-AB"
    else:
        report["self_dual"]["passed"] = True
    assert check(report)


def test_closed_forms_match_the_catalog():
    t = oracle.T
    cases = {
        "lf": (1.0, 0.0 * t),
        "prop": (0.0, t),
        "nafr": (0.0, 1.0 + 0.0 * t),
        "lindual:0.3,0.2": (0.3, 0.2 * t + 0.5),
        "afam:A=const:0.4": (0.4, 0.6 * t),
        "dual(full)": (0.0, 1.0 + 0.0 * t),
        "dual(dual(lin:0.3,0.2))": (0.3, 0.2 * t),
    }
    for spec, (a, b) in cases.items():
        got_a, got_b = oracle.rule_ab(spec)
        assert oracle.same(got_a, oracle.Polynomial([a])), spec
        assert oracle.same(got_b, b), spec


def test_tracer_restores_the_program_and_records_layers(households, tmp_path):
    from tracing import Tracer

    _, _, _, csv_path, _ = households
    original = cli.load_dataset
    tracer = Tracer()
    tracer.begin_pass(0)
    tracer.install()
    try:
        run_cli(["apply", "--rule", "prop", "--input", str(csv_path)], tmp_path / "o.json")
    finally:
        tracer.uninstall()
    assert cli.load_dataset is original
    totals = tracer.pass_totals()
    assert totals["cli.load_dataset"]["bytes"] == csv_path.stat().st_size
    assert totals["core.make_problem"]["calls"] == 1
    assert totals["rules.payoffs"]["outer_calls"] == 1
    names = {span["name"] for span in tracer.spans}
    assert {"cli.command", "cli.load_dataset", "rules.evaluate", "cli.emit"} <= names
