"""Reports, byte for byte, against reports recorded before a change.

The files under data/golden are --no-timestamp reports. Those of check
--axioms all, classify and dual at --seed 7 --samples 300 pin every
verdict, trial count, counterexample and float that sampling gives, so a
change to how trials are drawn, batched or screened that moves any of them
shows here; those at --samples 1000, the benchmark's sample count, span
the first screened block and a full batch after it. Those of apply and compare on the small dataset under
data/datasets, as CSV and as JSON, pin every allocation, coverage and
summary float, so a change to how a dataset is loaded, checked, totalled
or summarised that moves any of them shows here. To record them again, run
each command below with --output - (the dataset ones from data/). The
needs-squared custom rule, which the grammar cannot spell, is pinned
through the library instead: see custom_reports. The verdicts of every
sampled golden are also checked against perfbench's oracle, so recording
them again may move sampled numbers but never a verdict.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import hex_bits, needs_squared_rule
from redistrib import SampleConfig, analysis, axioms, duality
from redistrib.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

RULES = {
    "lf": "lf",
    "nafr": "nafr",
    # FAILs stability, so its report carries a shrunk counterexample.
    "afam": "afam:A=const:0.5",
    "dual_ab": "dual(ab:A=poly:0.2,0.1,-0.05,B=poly:0.1,0.3,0.02)",
}
COMMANDS = {"check": ["--axioms", "all"], "classify": [], "dual": []}


def _sampled_report(capsys, command, name, samples):
    argv = [command, "--rule", RULES[name], *COMMANDS[command]]
    main(argv + ["--seed", "7", "--samples", str(samples), "--no-timestamp"])
    return capsys.readouterr().out


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", RULES)
def test_report_matches_the_recorded_bytes(capsys, command, name):
    report = _sampled_report(capsys, command, name, 300)
    assert report == (GOLDEN / f"{command}-{name}.json").read_text(encoding="utf-8")


# Continuity of lf passes all 1000 trials; afam's stability FAIL is shrunk.
SAMPLES_1000 = [("check", "lf"), ("check", "afam"), ("classify", "dual_ab"), ("dual", "dual_ab")]


@pytest.mark.parametrize("command,name", SAMPLES_1000)
def test_report_at_1000_samples_matches_the_recorded_bytes(capsys, command, name):
    report = _sampled_report(capsys, command, name, 1000)
    golden = GOLDEN / f"{command}-{name}-1000.json"
    assert report == golden.read_text(encoding="utf-8")


def _benchmark_oracle():
    """perfbench/oracle.py, which predicts every verdict of a grammar rule
    from its (A, B) polynomials and shares no code with redistrib."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


SAMPLED_GOLDENS = {
    **{f"{command}-{name}": (command, name, 300) for command in COMMANDS for name in RULES},
    **{f"{command}-{name}-1000": (command, name, 1000) for command, name in SAMPLES_1000},
}


@pytest.mark.parametrize("golden", SAMPLED_GOLDENS)
def test_recorded_verdicts_are_the_oracles(golden):
    # Recording the goldens again may move their sampled numbers, never a
    # verdict: each axiom's pass, the label and weight shapes, the dual
    # and the self-dual verdict are those the oracle predicts.
    oracle = _benchmark_oracle()
    command, name, samples = SAMPLED_GOLDENS[golden]
    report = json.loads((GOLDEN / f"{golden}.json").read_text(encoding="utf-8"))
    spec = RULES[name]
    if command == "check":
        passed = {item["axiom"]: item["passed"] for item in report["axioms"]}
        assert passed == oracle.expected_verdicts(spec)["axioms"]
    elif command == "classify":
        grid = report["profile"]["grid"]
        assert oracle.check_classify_report(report, spec, grid, 7, samples, 1e-9) == []
    else:
        assert oracle.check_dual_report(report, spec, 7, samples, 1e-9) == []


# Negative incomes, a zero need (coverage null), a +0.0/-0.0 income tie and
# incomes of +1e16 and -1e16 that cancel in the total.
DATASET_COMMANDS = {
    "apply-prop-csv": ["apply", "--rule", "prop", "--input", "datasets/households.csv"],
    "apply-prop-json": ["apply", "--rule", "prop", "--input", "datasets/households.json"],
    # The rules of the compare-json benchmark workload, a dual among them.
    "compare-json": [
        "compare",
        "--rules", "lf,prop,nafr,lin:0.3,0.2",
        "--rules", "convex(lf;prop;0.3)",
        "--rules", "dual(ab:A=poly:0.2,0.1,-0.05,B=poly:0.1,0.3,0.02)",
        "--input", "datasets/households.json",
    ],
}


@pytest.mark.parametrize("name", DATASET_COMMANDS)
def test_dataset_report_matches_the_recorded_bytes(capsys, monkeypatch, name):
    # The report names its input path, so it is given relative to data/.
    monkeypatch.chdir(DATA)
    assert main(DATASET_COMMANDS[name] + ["--no-timestamp"]) == 0
    report = capsys.readouterr().out
    assert report == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


CUSTOM_GOLDEN = GOLDEN / "custom-needs-squared-1000.json"
# Continuity's probe is left out, as the benchmark leaves it out of its
# checks of nonlinear rules; the grid is the benchmark's classify grid.
CUSTOM_AXIOMS = [name for name in axioms.ALL_AXIOMS if name != "continuity"]
CUSTOM_GRID = [-2.0 + 0.5 * k for k in range(9)]


def custom_reports():
    """The needs-squared custom rule's check, classify and dual at seed 1 and 1000 samples.

    Each float is its hex bits and each Problem is given by column. To
    record the golden again, run from tests/:
    python -c "import json, test_golden as t; print(json.dumps(t.custom_reports(), indent=1))"
    """
    rule, cfg = needs_squared_rule(), SampleConfig(seed=1, trials=1000)
    checks = {
        report.axiom: {
            "passed": report.passed,
            "trials_run": report.trials_run,
            "counterexample": None if report.counterexample is None else hex_bits(
                {f: getattr(report.counterexample, f) for f in
                 ("instance", "expected", "observed", "deviation", "threshold")}
            ),
        }
        for report in axioms.axiom_suite(rule, CUSTOM_AXIOMS, cfg)
    }
    result = analysis.classify(rule, CUSTOM_GRID, cfg)
    classified = {f: getattr(result, f) for f in
                  ("label", "a_shape", "a_value", "b_shape", "b_value", "max_residual", "witness")}
    profile = result.profile
    classified["profile"] = [profile.grid, profile.a_values, profile.b_values]
    dual = duality.check_self_dual(rule, cfg)
    dual = {f: getattr(dual, f) for f in ("is_self_dual", "max_deviation", "tolerance", "witness")}
    return hex_bits({"check": checks, "classify": classified, "dual": dual})


def test_custom_rule_reports_match_the_recorded_bits():
    assert custom_reports() == json.loads(CUSTOM_GOLDEN.read_text(encoding="utf-8"))
