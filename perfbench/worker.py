"""Run one workload's operations in a fresh interpreter and time them.

Usage: python3 worker.py PLAN RESULTS

PLAN is a JSON file written by run.py: the repository root, the run length,
whether to trace, and the operations. The worker imports redistrib from the
root's ``src`` directory, runs whole passes over the operations until the
next pass would end past the run length, and writes RESULTS: per-operation
seconds, exit codes, tracebacks and output digests per pass, its own peak
RSS, and the trace. It keeps the first output file of each distinct digest
of each operation so run.py can check it; later outputs with the same
digest are byte-identical and are deleted.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import oracle


# One host-speed sample: build records, encode them as indented JSON, and
# parse numbers back through csv, the stdlib work that dominates redistrib's
# runs, in chunks small enough to add little to the peak RSS. It takes 90 to
# 170 ms on this host.
CALIBRATION_CHUNKS = 3
CALIBRATION_ROWS = 5000
# Sample the host's speed after an operation once this much operation time
# has passed since the last sample, and at the end of every pass.
CALIBRATION_EVERY_S = 1.0


def calibrate() -> float:
    """Seconds this process now takes for a fixed stdlib workload."""
    t0 = time.perf_counter()
    for chunk in range(CALIBRATION_CHUNKS):
        rows = [
            {"id": f"h{i:07d}", "income": i * 1.25, "need": None if i % 30 == 0 else i * 0.5}
            for i in range(chunk, chunk + CALIBRATION_ROWS)
        ]
        json.dumps({"agents": rows}, indent=2)
        lines = (f"h{i},{i * 0.37!r}" for i in range(chunk, chunk + CALIBRATION_ROWS))
        [(row[0], float(row[1])) for row in csv.reader(lines)]
    return time.perf_counter() - t0


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class LibraryOps:
    """The custom rule, run through the library API instead of the CLI."""

    def __init__(self):
        from redistrib import CustomRule

        def allocate(problem):
            return oracle.sqneed_payoffs(problem.total_income, problem.needs)

        self.rule = CustomRule("sqneed", allocate)

    def run(self, op: dict):
        """Call the library; returns a function that builds the report."""
        from redistrib import SampleConfig, analysis, axioms, duality

        cfg = SampleConfig(seed=op["seed"], trials=op["samples"])
        tol = op["tol"]
        head = {"schema_version": "1", "command": op["call"], "rule": oracle.SQNEED,
                "seed": op["seed"], "samples": op["samples"]}
        if op["call"] == "check":
            reports = axioms.axiom_suite(self.rule, op["axioms"], cfg, tol)
            return lambda: dict(head, tolerance=tol, **_check_body(reports))
        if op["call"] == "classify":
            result = analysis.classify(self.rule, op["grid"], cfg, tol)
            return lambda: dict(head, **_classify_body(result))
        closed = duality.dual_closed_form(self.rule)
        verdict = duality.check_self_dual(self.rule, cfg, tol)
        return lambda: dict(head, **_dual_body(closed, verdict))


def _json_safe(value):
    from redistrib import Problem

    if isinstance(value, Problem):
        return {"ids": [str(a) for a in value.agents],
                "incomes": list(value.incomes), "needs": list(value.needs)}
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return value


def _check_body(reports) -> dict:
    items = []
    for r in reports:
        cx = r.counterexample
        items.append({
            "axiom": r.axiom,
            "passed": r.passed,
            "trials_run": r.trials_run,
            "counterexample": None if cx is None else {
                "instance": _json_safe(cx.instance),
                "deviation": cx.deviation,
                "threshold": cx.threshold,
            },
        })
    return {"axioms": items, "all_passed": all(r.passed for r in reports)}


def _classify_body(result) -> dict:
    return {
        "label": result.label,
        "a_shape": result.a_shape, "a_value": result.a_value,
        "b_shape": result.b_shape, "b_value": result.b_value,
        "max_residual": result.max_residual,
        "profile": {"grid": list(result.profile.grid),
                    "a_values": list(result.profile.a_values),
                    "b_values": list(result.profile.b_values)},
    }


def _dual_body(closed, verdict) -> dict:
    from redistrib import format_rule

    return {
        "dual_rule": None if closed is None else format_rule(closed),
        "dual_label": None,
        "self_dual": {"passed": verdict.is_self_dual,
                      "max_deviation": verdict.max_deviation,
                      "witness": _json_safe(verdict.witness)},
    }


def main(plan_path: str, results_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    root = Path(plan["root"])
    sys.path.insert(0, str(root / "src"))
    import redistrib
    from redistrib import cli

    if not Path(redistrib.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"redistrib imported from {redistrib.__file__}, not from {root}/src", file=sys.stderr)
        return 2

    ops = plan["ops"]
    library = LibraryOps() if any(op["kind"] == "library" for op in ops) else None
    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    keep_dir = Path(plan["keep_dir"])
    kept: dict[str, dict[str, str]] = {}
    passes: list[dict] = []
    layer_totals: list[dict] = []
    seconds = plan["seconds"]
    min_passes = 2 if tracer else 1
    start = time.perf_counter()

    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.begin_pass(len(passes))
            tracer.install()
        records = []
        pass_start = time.perf_counter()
        calibration = [calibrate()]
        since_sample = 0.0
        for index, op in enumerate(ops):
            rc, error, write = 0, None, None
            frame = None
            if traced:
                tracer.op_index = index
                frame = tracer.open("op")
            t0 = time.perf_counter()
            try:
                if op["kind"] == "cli":
                    rc = cli.main(op["argv"])
                else:
                    write = library.run(op)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
            if frame is not None:
                tracer.close(frame)
            digest = None
            if error is None:
                if write is not None:
                    Path(op["output"]).write_text(json.dumps(write(), allow_nan=False))
                if os.path.exists(op["output"]):
                    digest = _digest(op["output"])
                    seen = kept.setdefault(str(index), {})
                    if digest not in seen:
                        target = keep_dir / f"op{index:03d}-{len(seen)}.json"
                        os.replace(op["output"], target)
                        seen[digest] = str(target)
                    else:
                        os.remove(op["output"])
            records.append({"s": elapsed, "rc": rc, "error": error, "digest": digest,
                            "sample": len(calibration) - 1})
            since_sample += elapsed
            if since_sample >= CALIBRATION_EVERY_S or index == len(ops) - 1:
                calibration.append(calibrate())
                since_sample = 0.0
        pass_s = time.perf_counter() - pass_start
        if traced:
            tracer.uninstall()
            layer_totals.append(tracer.pass_totals())
        passes.append({"traced": traced, "s": pass_s, "ops": records, "calibration": calibration})
        done = time.perf_counter() - start
        longest = max(p["s"] for p in passes)
        if len(passes) >= min_passes and done + longest > seconds:
            break

    result = {
        "passes": passes,
        "kept": kept,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layer_totals": layer_totals,
    }
    Path(results_path).write_text(json.dumps(result))
    if tracer is not None:
        Path(plan["trace_path"]).write_text(json.dumps({"spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
