import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from redistrib import (
    ALL_AXIOMS,
    CORE_AXIOMS,
    Counterexample,
    CustomRule,
    DualRule,
    FULL,
    LF,
    NAFR,
    PROP,
    Problem,
    RuleError,
    SampleConfig,
    ScalarFn,
    UnknownAxiom,
    axiom_suite,
    check_axiom,
    check_self_dual,
    expand_axiom_names,
    format_rule,
    make_problem,
    parse_rule,
    recheck_counterexample,
    rng_for,
)
from redistrib import axioms
from redistrib.rules import ConvexCombination, WeightedRule
from conftest import AXIOM_MESSAGES, NAN_RULES, hex_bits, needs_squared_rule, nested_rules
from scalar_measures import MEASURES
from test_golden import _benchmark_oracle


def _bit_noise_rule():
    """Balanced but discontinuous: a unit transfer keyed to one mantissa bit."""

    def allocate(problem):
        y, n = problem.total_income, len(problem)
        base = [y / n] * n
        bits = struct.unpack("<Q", struct.pack("<d", problem.incomes[0]))[0]
        if bits & 1:
            base[0] += 1.0
            base[1] -= 1.0
        return tuple(base)

    return CustomRule("bit-noise", allocate)


def _transfer_rule():
    """Moves a unit from the second listed agent to the first, ignoring ids."""

    def allocate(problem):
        y, n = problem.total_income, len(problem)
        base = [y / n] * n
        if n >= 2:
            base[0] += 1.0
            base[1] -= 1.0
        return tuple(base)

    return CustomRule("positional-transfer", allocate)


def _wavy_rule():
    """Balanced but not scale covariant: deviation weight sin(total income)."""

    def allocate(problem):
        y, n = problem.total_income, len(problem)
        w = math.sin(y)
        return tuple(y / n + w * (v - y / n) for v in problem.incomes)

    return CustomRule("wavy", allocate)


def test_sample_config_defaults():
    cfg = SampleConfig()
    assert cfg.seed == 0
    assert cfg.trials == 100


@pytest.mark.parametrize("kwargs", [{"trials": 0}])
def test_sample_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SampleConfig(**kwargs)


def test_rng_for_streams():
    first = rng_for(7, "alpha").uniform(size=4).tolist()
    again = rng_for(7, "alpha").uniform(size=4).tolist()
    other_label = rng_for(7, "beta").uniform(size=4).tolist()
    other_seed = rng_for(8, "alpha").uniform(size=4).tolist()
    assert first == again
    assert first != other_label
    assert first != other_seed


def test_expand_axiom_names():
    assert expand_axiom_names("core") == CORE_AXIOMS
    assert expand_axiom_names("all") == ALL_AXIOMS
    assert expand_axiom_names("dummy") == ("dummy",)
    assert expand_axiom_names(["dummy", "core", "dummy"]) == (
        "dummy",
        "homogeneity",
        "equal_treatment",
        "continuity",
    )
    with pytest.raises(UnknownAxiom):
        expand_axiom_names(["core", "monotonicity"])
    with pytest.raises(UnknownAxiom):
        expand_axiom_names([])


@pytest.mark.parametrize("rule", [LF, PROP], ids=["lf", "prop"])
def test_reference_rules_satisfy_every_axiom(rule):
    cfg = SampleConfig(seed=101, trials=300)
    for report in axiom_suite(rule, "all", cfg):
        assert report.passed, report.axiom
        assert report.trials_run == 300
        assert report.counterexample is None


NEGATIVE_CONTROLS = [
    ("dummy", FULL),
    ("dummy", NAFR),
    ("stability", parse_rule("afam:A=const:0.5")),
    ("nat", needs_squared_rule()),
    ("income_additivity", NAFR),
    ("dual_income_additivity", FULL),
    ("dual_income_additivity", parse_rule("lin:0.3,0.2")),
    ("continuity", _bit_noise_rule()),
    ("equal_treatment", _transfer_rule()),
    ("homogeneity", _wavy_rule()),
]


@pytest.mark.parametrize(
    "axiom,rule", NEGATIVE_CONTROLS, ids=[f"{a}" for a, _ in NEGATIVE_CONTROLS]
)
def test_negative_controls_fail_and_recheck(axiom, rule):
    cfg = SampleConfig(seed=33, trials=60)
    report = check_axiom(axiom, rule, cfg)
    assert not report.passed
    assert report.trials_run <= 60
    cex = report.counterexample
    assert cex is not None
    assert cex.deviation > cex.threshold
    deviation, scale = recheck_counterexample(axiom, rule, cex)
    assert deviation == pytest.approx(cex.deviation)
    assert deviation > report.tolerance * scale
    # The scalar measure, which shares no code with the screen, re-fails it
    # and reports the same values.
    deviation, scale, expected, observed = MEASURES[axiom](rule, cex.instance)
    assert deviation > report.tolerance * scale
    assert (deviation, report.tolerance * scale, expected, observed) == (
        cex.deviation,
        cex.threshold,
        cex.expected,
        cex.observed,
    )
    assert all(isinstance(p, Problem) for p in cex.problems)
    assert len(cex.problems) >= 1


PINNED_SEEDS = (33, 1, 7)
PINNED = Path(__file__).parent / "data" / "golden" / "negative-controls.json"


def _pinned_report(axiom, rule, seed):
    report = check_axiom(axiom, rule, SampleConfig(seed=seed, trials=300))
    cex = report.counterexample
    fields = ("instance", "expected", "observed", "deviation", "threshold")
    return {"trials_run": report.trials_run, **{f: hex_bits(getattr(cex, f)) for f in fields}}


def pinned_reports():
    """Every negative control's report at each pinned seed, as the golden holds it.

    To record the golden again, run from tests/:
    python -c "import json, test_axioms as t; print(json.dumps(t.pinned_reports(), indent=1))"
    """
    return {
        f"{axiom} {format_rule(rule)} seed {seed}": _pinned_report(axiom, rule, seed)
        for axiom, rule in NEGATIVE_CONTROLS
        for seed in PINNED_SEEDS
    }


@pytest.mark.parametrize("seed", PINNED_SEEDS)
@pytest.mark.parametrize(
    "axiom,rule", NEGATIVE_CONTROLS, ids=[f"{a}" for a, _ in NEGATIVE_CONTROLS]
)
def test_negative_control_reports_match_the_pinned_bits(axiom, rule, seed):
    # Covers both shrinks: halving a factor, a reallocation or extra incomes,
    # and dropping agents the instance does not name.
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    key = f"{axiom} {format_rule(rule)} seed {seed}"
    assert _pinned_report(axiom, rule, seed) == pinned[key]


@pytest.mark.parametrize("spec", ["lf", "afam:A=const:0.5", "dual(lin:0.3,0.2)"])
def test_grammar_rules_are_checked_without_scalar_payoffs(spec, monkeypatch):
    # Screening, confirming, shrinking and re-checking all go through
    # payoffs_batch, failing axioms included.
    def scalar(self, problem):
        raise AssertionError(f"scalar payoffs of {spec}")

    for cls in (WeightedRule, ConvexCombination, DualRule):
        monkeypatch.setattr(cls, "payoffs", scalar)
    rule = parse_rule(spec)
    reports = axiom_suite(rule, "all", SampleConfig(seed=33, trials=300))
    failed = [report for report in reports if not report.passed]
    assert bool(failed) == (spec != "lf")
    for report in failed:
        recheck_counterexample(report.axiom, rule, report.counterexample)


def test_dummy_counterexample_shrinks_to_two_agents():
    report = check_axiom("dummy", FULL, SampleConfig(seed=33, trials=60))
    problem = report.counterexample.instance["problem"]
    agent = report.counterexample.instance["agent"]
    assert len(problem) == 2
    k = problem.agents.index(agent)
    assert problem.incomes[k] == 0.0
    assert problem.needs[k] == 0.0


def test_equal_treatment_counterexample_keeps_only_the_twins():
    report = check_axiom("equal_treatment", _transfer_rule(), SampleConfig(seed=33))
    instance = report.counterexample.instance
    problem = instance["problem"]
    assert set(problem.agents) == {instance["first"], instance["second"]}


def test_magnitude_shrinking_tightens_homogeneity_factor():
    report = check_axiom("homogeneity", _wavy_rule(), SampleConfig(seed=33))
    factor = report.counterexample.instance["factor"]
    # shrinking walks the factor toward 1 while the violation persists
    assert 0.1 <= factor <= 10.0
    assert abs(factor - 1.0) < 9.0


def test_needs_squared_group_total_drifts_by_known_amount():
    problem = make_problem((1, 2, 3), (1.0, 1.0, 1.0), (1.0, 1.0, 2.0))
    modified = make_problem((1, 2, 3), (1.0, 1.0, 1.0), (0.5, 1.5, 2.0))
    cex = Counterexample(
        instance={"problem": problem, "modified": modified, "members": (0, 1)},
        expected=None,
        observed=None,
        deviation=0.0,
        threshold=0.0,
    )
    deviation, scale = recheck_counterexample("nat", needs_squared_rule(), cex)
    assert deviation == pytest.approx(2.0 / 13.0)
    assert scale == 4.0


@pytest.mark.parametrize(
    "spec,seed", [("lin:0.3,0.2", 443), ("afam:A=affine:0.2,0.4", 53)]
)
def test_continuity_allows_gap_growth_at_large_steps(spec, seed, monkeypatch):
    # These seeds, the first from 0 up to do so, draw a trial whose gap grows
    # at the first halvings and then shrinks to rounding noise: the rule is
    # continuous.
    cfg = SampleConfig(seed=seed, trials=1000)
    report = check_axiom("continuity", parse_rule(spec), cfg)
    assert report.passed
    # Judged on every halving instead of the tail, that trial fails.
    monkeypatch.setattr(axioms, "CONTINUITY_TAIL", axioms.CONTINUITY_STEPS)
    assert not check_axiom("continuity", parse_rule(spec), cfg).passed


def test_continuity_probe_records_gap_sequence():
    report = check_axiom("continuity", _bit_noise_rule(), SampleConfig(seed=5))
    cex = report.counterexample
    assert cex is not None
    assert cex.observed is not None
    assert len(cex.observed) == 41
    assert max(cex.observed) > 0.5


def test_a_continuity_fail_screens_no_empty_shrink_round(monkeypatch):
    # Continuity has no shrink: the FAIL screens only its confirmed trial.
    sizes = []
    rows = axioms._rows

    def spying(instances):
        sizes.append(len(instances))
        return rows(instances)

    monkeypatch.setattr(axioms, "_rows", spying)
    report = check_axiom("continuity", _bit_noise_rule(), SampleConfig(seed=1, trials=200))
    assert not report.passed
    assert sizes == [1]


class _BuildFault(Exception):
    """Raised by a broken _rows, not by any rule."""


@pytest.mark.parametrize("axiom,rule", [NEGATIVE_CONTROLS[2], NEGATIVE_CONTROLS[-1]])
def test_a_fault_building_a_shrink_round_is_raised(monkeypatch, axiom, rule):
    # Only the round's screen falls back to one candidate at a time: a
    # fault in building the round's batch, here on every batch of more than
    # one instance, surfaces instead of sending the round through the
    # fallback, whose one-instance batches would hide it.
    rows = axioms._rows

    def broken(instances):
        if len(instances) > 1:
            raise _BuildFault(len(instances))
        return rows(instances)

    monkeypatch.setattr(axioms, "_rows", broken)
    with pytest.raises(_BuildFault):
        check_axiom(axiom, rule, SampleConfig(seed=33, trials=60))


def test_violates_gives_a_block_the_answer_of_each_trial():
    tol = 1e-9
    at = tol * 2.0
    deviation = np.array([math.nan, math.inf, -math.inf, at, np.nextafter(at, 1.0), 0.0])
    scale = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 1.0])
    expected = [True, True, False, False, True, False]
    block = axioms._violates(deviation, tol, scale)
    assert block.tolist() == expected
    trials = [axioms._violates(d, tol, s) for d, s in zip(deviation.tolist(), scale.tolist())]
    assert trials == expected


def test_reports_are_deterministic():
    cfg = SampleConfig(seed=9, trials=40)
    assert check_axiom("dummy", FULL, cfg) == check_axiom("dummy", FULL, cfg)
    assert check_axiom("nat", LF, cfg) == check_axiom("nat", LF, cfg)


def test_axiom_streams_do_not_interact():
    cfg = SampleConfig(seed=9, trials=40)
    full_suite = axiom_suite(FULL, "all", cfg)
    names = [r.axiom for r in full_suite]
    assert names == list(ALL_AXIOMS)
    solo = check_axiom("stability", FULL, cfg)
    assert full_suite[names.index("stability")] == solo


def test_check_axiom_input_validation():
    with pytest.raises(UnknownAxiom):
        check_axiom("symmetry", LF, SampleConfig())
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            check_axiom("homogeneity", LF, SampleConfig(), tol=tol)


@pytest.mark.parametrize("name", NAN_RULES)
@pytest.mark.parametrize("axiom", [a for a in ALL_AXIOMS if a != "stability"])
def test_nan_payoffs_violate_the_axiom(axiom, name):
    report = check_axiom(axiom, NAN_RULES[name], SampleConfig(seed=0, trials=20))
    assert not report.passed
    cex = report.counterexample
    assert math.isnan(cex.deviation)
    # A NaN payoff stays out of the threshold, as in the scalar measure.
    _, scale, expected, observed = MEASURES[axiom](NAN_RULES[name], cex.instance)
    assert math.isfinite(cex.threshold)
    assert cex.threshold == report.tolerance * scale
    assert repr((cex.expected, cex.observed)) == repr((expected, observed))


@pytest.mark.parametrize("name", NAN_RULES)
def test_nan_payoffs_cannot_be_reapplied_for_stability(name):
    # Reapplied, NaN payoffs are NaN incomes: the rule cannot pay a drawn
    # problem, so it is at fault, not the sampled data.
    message = f"rule 'custom:{name}' does not allocate a sampled problem: NonFinite: "
    with pytest.raises(RuleError, match=message):
        check_axiom("stability", NAN_RULES[name], SampleConfig(seed=0, trials=20))


def test_a_flagged_trial_that_passes_when_screened_again_raises_rule_error():
    # The rule pays prop, but its third call, the third row of the first
    # screened block, moves a unit between two agents: it pays that
    # problem two ways, and no FAIL can hold a counterexample that passes.
    calls = itertools.count(1)

    def allocate(problem):
        values = PROP.payoffs(problem).tolist()
        if next(calls) == 3:
            values[0] += 1.0
            values[1] -= 1.0
        return values

    message = (
        "rule 'custom:moves-once' pays a sampled problem two ways: homogeneity "
        "trial 3 violates in its batch and not when screened again"
    )
    with pytest.raises(RuleError, match=f"^{message}$"):
        check_axiom("homogeneity", CustomRule("moves-once", allocate), SampleConfig(1, 200))


def test_recheck_rejects_unknown_axiom():
    cex = Counterexample({}, None, None, 0.0, 0.0)
    with pytest.raises(UnknownAxiom):
        recheck_counterexample("symmetry", LF, cex)


@pytest.mark.parametrize("name,message", AXIOM_MESSAGES.values(), ids=list(AXIOM_MESSAGES))
def test_an_unknown_axiom_is_quoted_in_short(name, message):
    cex = Counterexample({}, None, None, 0.0, 0.0)
    for refuse in (
        lambda: expand_axiom_names([name]),
        lambda: check_axiom(name, LF, SampleConfig()),
        lambda: recheck_counterexample(name, LF, cex),
    ):
        with pytest.raises(UnknownAxiom) as excinfo:
            refuse()
        assert str(excinfo.value) == message


SELF_DUAL_AXIOMS = (
    "homogeneity",
    "equal_treatment",
    "continuity",
    "nat",
    "stability",
    "dummy",
)

DUALITY_RULES = [FULL, NAFR, parse_rule("afam:A=const:0.5"), parse_rule("lin:0.3,0.2")]


@pytest.mark.parametrize("rule", DUALITY_RULES, ids=["full", "nafr", "afam", "lin"])
def test_dual_rule_verdicts_mirror_the_original(rule):
    cfg = SampleConfig(seed=77, trials=60)
    mirrored = DualRule(rule)
    for axiom in SELF_DUAL_AXIOMS:
        direct = check_axiom(axiom, rule, cfg).passed
        reflected = check_axiom(axiom, mirrored, cfg).passed
        assert direct == reflected, axiom
    # the two additivity checks swap roles under reflection
    assert (
        check_axiom("income_additivity", rule, cfg).passed
        == check_axiom("dual_income_additivity", mirrored, cfg).passed
    )
    assert (
        check_axiom("dual_income_additivity", rule, cfg).passed
        == check_axiom("income_additivity", mirrored, cfg).passed
    )


ORACLE = _benchmark_oracle()
# Identity residuals the sampler at tol 1e-9 may miss but the oracle sees:
# a coefficient past the oracle's COEF_TOL and below this is a near miss.
NEAR_MISS = 1e-6


def _near_miss(a, b):
    """Whether a residual coefficient of an axiom's or self-duality's identity
    lies between the oracle's COEF_TOL and NEAR_MISS."""
    one, t = ORACLE.ONE, ORACLE.T
    a_dual, b_dual = ORACLE.reflect(a, b)
    residuals = [
        (a * a - a).coef,
        (a * b).coef,
        (b - (one - a) * t).coef,
        a.coef[1:],
        [b(0.0)],
        [b(1.0) + a(0.0) - 1.0],
        b.coef[2:],
        (a - a_dual).coef,
        (b - b_dual).coef,
    ]
    size = np.abs(np.concatenate(residuals))
    return bool(((ORACLE.COEF_TOL < size) & (size < NEAR_MISS)).any())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rule=nested_rules(2))
def test_sampled_verdicts_agree_with_the_oracle(rule):
    # perfbench's oracle decides each axiom and self-duality from the
    # rule's (A, B) polynomials, read from its spec; the sampler must agree
    # wherever no identity misses by a hair.
    a, b = ORACLE.rule_ab(format_rule(rule))
    if _near_miss(a, b):
        return
    cfg = SampleConfig(seed=1, trials=300)
    sampled = {axiom: check_axiom(axiom, rule, cfg, 1e-9).passed for axiom in ALL_AXIOMS}
    assert sampled == ORACLE.predict_axioms(a, b), format_rule(rule)
    dual = check_self_dual(rule, cfg, 1e-9).is_self_dual
    assert dual == ORACLE.predict_self_dual(a, b), format_rule(rule)
