"""Benchmark for redistrib: time whole CLI runs and each layer, check every output.

Usage (from the repository root):

    python3 perfbench/run.py --workload apply-csv --seed 1 --seconds 30 --trace 0

Workloads: apply-csv, compare-json, verdicts (see README.md). The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from a run
that alternates untraced and traced passes, plus the tracing overhead.

The program is imported from ``src/`` next to this directory; generated
inputs, reports and traces go to ``perfbench/work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 8
# Reference speed: worker.calibrate takes this long on this host at its
# fastest, and a fresh interpreter importing REFERENCE_IMPORTS this long.
CALIBRATION_REF_S = 0.090
SETUP_REF_S = 0.160
SPEED_WINDOW = 3
REFERENCE_IMPORTS = "import argparse, csv, dataclasses, json, math, zlib, numpy"
# Whole-run limit; a run normally ends within --seconds plus one pass.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _start(code: str, src: Path) -> tuple[float, str]:
    """Wall seconds of a fresh interpreter running code, and its stdout.

    Bytecode caching is on whatever the environment says, as it is for an
    installed package, so starts after the first do not recompile.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            cwd=src, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"python3 -c {code!r} took over 60 s") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"python3 -c {code!r} failed:\n{proc.stderr}")
    return wall, proc.stdout


def measure_setup(src: Path) -> tuple[list[float], list[float]]:
    """Fresh interpreters importing redistrib.cli: wall per start, import time.

    Starts of redistrib alternate with reference starts that import only
    numpy and the stdlib modules redistrib uses; each redistrib start is
    scaled by SETUP_REF_S over the mean of the two reference starts around
    it. The first redistrib start also writes bytecode caches and is not
    counted.
    """
    code = (
        "import json, time\n"
        "t = time.perf_counter()\n"
        "import redistrib.cli\n"
        "print(json.dumps([time.perf_counter() - t, redistrib.cli.__file__]))\n"
    )
    starts, imports = [], []
    before, _ = _start(REFERENCE_IMPORTS, src)
    for k in range(SETUP_REPEATS + 1):
        wall, out = _start(code, src)
        after, _ = _start(REFERENCE_IMPORTS, src)
        seconds, path = json.loads(out)
        if not Path(path).resolve().is_relative_to(src.resolve()):
            raise BenchError(f"redistrib.cli came from {path}, not {src}")
        if k:
            factor = SETUP_REF_S * 2.0 / (before + after)
            starts.append(wall * factor)
            imports.append(seconds * factor)
        before = after
    return starts, imports


def scaled_ops(passes: list[dict]) -> list[list[float]]:
    """Seconds of every operation of every pass, at reference host speed.

    An operation's speed factor is the mean of the SPEED_WINDOW calibration
    samples on each side of it, taken in run order across passes. A single
    sample is a short snapshot of a speed that changes within seconds;
    averaging neighbours tracks the drift without that noise.
    """
    samples = [c for p in passes for c in p["calibration"]]
    out, base = [], 0
    for p in passes:
        row = []
        for op in p["ops"]:
            i = base + op["sample"]
            window = samples[max(0, i - SPEED_WINDOW + 1): i + SPEED_WINDOW + 1]
            row.append(op["s"] * CALIBRATION_REF_S / statistics.fmean(window))
        out.append(row)
        base += len(p["calibration"])
    return out


def run_worker(plan: dict, work: Path, budget: float) -> dict:
    plan_path, results_path = work / "plan.json", work / "results.json"
    plan_path.write_text(json.dumps(plan))
    with open(work / "worker.log", "wb") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(plan_path), str(results_path)],
                cwd=ROOT, stdout=log, stderr=log, timeout=budget,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not finish within {budget:.0f} s") from None
    if proc.returncode != 0:
        tail = (work / "worker.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(results_path.read_text())


def verify_outputs(ops: list[dict], kept: dict) -> tuple[dict, dict, list[str]]:
    """Check every distinct output; returns ok and trial counts per (op, digest)."""
    ok, trials, errors = {}, {}, []
    for index, by_digest in kept.items():
        op = ops[int(index)]
        for digest, path in by_digest.items():
            try:
                report = json.loads(Path(path).read_text())
                problems = op["check"](report)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                report, problems = {}, [f"unreadable report: {exc!r}"]
            ok[(index, digest)] = not problems
            if not problems and report.get("command") in ("check", "classify", "dual"):
                trials[(index, digest)] = workloads.trials_in(report)
            errors += [f"op {index} ({path}): {p}" for p in problems[:3]]
    return ok, trials, errors


def end_to_end(passes, ops, trials) -> dict:
    seconds = [row for row, p in zip(scaled_ops(passes), passes) if not p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    wall = sum(statistics.median(row[k] for row in seconds) for k in range(len(ops)))
    raw = sum(statistics.median(p["ops"][k]["s"] for p in untraced) for k in range(len(ops)))
    calibration = statistics.median(c for p in untraced for c in p["calibration"])
    print(f"unscaled wall_s {raw!r}, median calibration {calibration!r} s, "
          f"{len(untraced)} passes", file=sys.stderr)
    items = 0
    for k, op in enumerate(ops):
        digest = untraced[0]["ops"][k]["digest"]
        items += op.get("items") or trials.get((str(k), digest), 0)
    return {"wall_s": (wall, "s"), "items_per_s": (items / wall, "1/s")}


def per_layer(passes, layer_totals, imports) -> dict:
    traced = [p for p in passes if p["traced"]]
    factors = [CALIBRATION_REF_S / statistics.median(p["calibration"]) for p in traced]

    def med(layer, field):
        scale = field in ("s", "self_s")
        return statistics.median(
            t.get(layer, {}).get(field, 0.0) * (f if scale else 1.0)
            for t, f in zip(layer_totals, factors)
        )

    m = {
        "cli.import.s": (statistics.median(imports), "s"),
        "cli.load_dataset.s": (med("cli.load_dataset", "s"), "s"),
        "cli.load_dataset.bytes": (med("cli.load_dataset", "bytes"), "B"),
        "cli.report.s": (med("cli.command", "self_s"), "s"),
        "cli.emit.s": (med("cli.emit", "s"), "s"),
        "cli.emit.bytes": (med("cli.emit", "bytes"), "B"),
        "core.make_problem.s": (med("core.make_problem", "s"), "s"),
        "core.make_problem.calls": (med("core.make_problem", "calls"), "count"),
        "core.allocation.s": (med("core.allocation", "s"), "s"),
        "rules.evaluate.s": (med("rules.evaluate", "s"), "s"),
        "rules.payoffs.s": (med("rules.payoffs", "s"), "s"),
        "rules.payoffs.calls": (med("rules.payoffs", "outer_calls"), "count"),
    }
    all_trials = all_payoffs = 0.0
    for axiom in oracle.AXIOMS:
        trials, payoffs = med(f"axioms.{axiom}", "units"), med(f"axioms.{axiom}", "payoffs")
        m[f"axioms.{axiom}.s"] = (med(f"axioms.{axiom}", "s"), "s")
        m[f"axioms.{axiom}.trials"] = (trials, "count")
        m[f"axioms.{axiom}.payoffs_per_trial"] = (payoffs / trials if trials else 0.0, "1/trial")
        all_trials += trials
        all_payoffs += payoffs
    m["axioms.payoffs_per_trial"] = (all_payoffs / all_trials if all_trials else 0.0, "1/trial")
    m["duality.check_self_dual.s"] = (med("duality.check_self_dual", "s"), "s")
    m["analysis.classify.s"] = (med("analysis.classify", "s"), "s")
    m["analysis.extract_ab.calls"] = (med("analysis.extract_ab", "calls"), "count")

    def pass_seconds(is_traced):
        return statistics.median(
            sum(row) for row, p in zip(scaled_ops(passes), passes) if p["traced"] is is_traced
        )

    m["trace.overhead_pct"] = (100.0 * (pass_seconds(True) / pass_seconds(False) - 1.0), "%")
    return m


def run(args) -> dict:
    src = ROOT / "src"
    if not (src / "redistrib" / "__init__.py").is_file():
        raise BenchError(f"no redistrib package under {src}")
    started = time.perf_counter()
    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "keep").mkdir(parents=True)

    setup_starts, imports = measure_setup(src)
    ops = workloads.build(args.workload, args.seed, work)
    plan = {
        "root": str(ROOT),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "keep_dir": str(work / "keep"),
        "trace_path": str(work / "trace.json"),
        "ops": [{k: v for k, v in op.items() if k != "check"} for op in ops],
    }
    budget = DEADLINE_S - (time.perf_counter() - started)
    results = run_worker(plan, work, budget)

    ok, trials, errors = verify_outputs(ops, results["kept"])
    attempted = failed = wrong = 0
    for p in results["passes"]:
        for k, (op, record) in enumerate(zip(ops, p["ops"])):
            attempted += 1
            good_output = ok.get((str(k), record["digest"]), False)
            if record["error"] is not None:
                errors.append(f"op {k}: {record['error'].strip().splitlines()[-1]}")
            elif record["rc"] != op["expect_rc"]:
                errors.append(f"op {k}: exit code {record['rc']}, expected {op['expect_rc']}")
            elif good_output:
                continue
            failed += 1
            wrong += record["digest"] is not None and not good_output
    for line in errors[:20]:
        print(line, file=sys.stderr)

    if args.trace:
        metrics = per_layer(results["passes"], results["layer_totals"], imports)
    else:
        metrics = end_to_end(results["passes"], ops, trials)
        metrics["peak_rss_mb"] = (results["maxrss_kb"] / 1024.0, "MB")
        metrics["setup_s"] = (statistics.median(setup_starts), "s")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
