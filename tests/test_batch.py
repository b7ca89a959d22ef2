"""The block screen against the scalar measures it stands in for.

The sampled checkers draw and screen trials as numpy blocks; the scalar
measures, extract_ab and the reflection definitions stay the reference.
Every comparison here runs both on the same materialized trials.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redistrib import (
    ALL_AXIOMS,
    CustomRule,
    EmptyAgentSet,
    LF,
    LengthMismatch,
    NegativeNeed,
    NonFinite,
    PROP,
    AFamilyRule,
    SampleConfig,
    ScalarFn,
    ValidationError,
    ZeroTotalNeed,
    ab_payoffs,
    check_axiom,
    check_self_dual,
    classify,
    dual_payoffs,
    extract_ab,
    make_problem,
    parse_rule,
    problem_scale,
    rng_for,
)
from redistrib import axioms
from redistrib.core import block_totals
from conftest import needs_squared_rule, nested_rules
from test_axioms import NEGATIVE_CONTROLS

TOL = 1e-9
# Screen and scalar measure do the same float64 operations; allow a few
# rounding steps of the instance's scale in case the order ever differs.
AGREE = 1e-12
# Trials per block at the default agent counts.
BLOCK = axioms.block_trials(SampleConfig())


def _assert_screen_matches_measure(axiom, rule, seed, n, m=12):
    checker = axioms._CHECKERS[axiom]
    block = checker.draw(rng_for(seed, "differential"), SampleConfig(), n, m)
    deviation, scale = checker.screen(rule, block)
    assert deviation.shape == scale.shape == (m,)
    for k in range(m):
        dev_k, scale_k, _, _ = checker.measure(rule, axioms._trial(block, k))
        assert (deviation[k] > TOL * scale[k]) == (dev_k > TOL * scale_k), (axiom, k)
        assert abs(deviation[k] - dev_k) <= AGREE * scale_k, (axiom, k)
        assert abs(scale[k] - scale_k) <= AGREE * scale_k, (axiom, k)


@settings(max_examples=40, deadline=None)
@given(rule=nested_rules(2), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_screen_matches_scalar_measure_for_random_polynomial_rules(rule, seed, n):
    for axiom in ALL_AXIOMS:
        _assert_screen_matches_measure(axiom, rule, seed, n)


def _through_fallback(rule):
    """The same payoffs as a custom rule, so blocks are evaluated row by row."""
    return rule if isinstance(rule, CustomRule) else CustomRule("wrapped", rule.payoffs)


@pytest.mark.parametrize(
    "rule", [rule for _, rule in NEGATIVE_CONTROLS], ids=[a for a, _ in NEGATIVE_CONTROLS]
)
def test_screen_matches_scalar_measure_through_the_custom_fallback(rule):
    for n in (2, 3, 6):
        for axiom in ALL_AXIOMS:
            _assert_screen_matches_measure(axiom, _through_fallback(rule), 40 + n, n)


@settings(max_examples=40, deadline=None)
@given(rule=nested_rules(2), seed=st.integers(0, 2**32 - 1))
def test_kernel_block_equals_scalar_payoffs_bit_for_bit(rule, seed):
    incomes, needs = axioms.draw_profiles(rng_for(seed, "bits"), SampleConfig(), 4, 20)
    block = rule.payoffs_batch(incomes, needs)
    for k in range(len(block)):
        problem = axioms.block_problem(incomes, needs, k)
        assert tuple(block[k].tolist()) == rule.payoffs(problem)


def _trials_in_order(label, cfg, min_agents=1):
    """The problems worst_trial draws for one label, in trial order."""
    rng = rng_for(cfg.seed, label)
    problems = {}
    for start, groups in axioms.trial_blocks(rng, cfg, min_agents):
        for n, rows in groups:
            incomes, needs = axioms.draw_profiles(rng, cfg, n, len(rows))
            for k, row in enumerate(rows):
                problems[start + int(row)] = axioms.block_problem(incomes, needs, k)
    return [problems[k] for k in sorted(problems)]


def _worst(values_and_problems):
    worst, witness = 0.0, None
    for value, problem in values_and_problems:
        if value > worst:
            worst, witness = value, problem
    return worst, witness


DUAL_CASES = ["lf", "full", "lin:0.3,0.2", "dual(ab:A=poly:0.2,0.1,B=id)"]


@pytest.mark.parametrize("spec", DUAL_CASES)
def test_self_dual_matches_scalar_loop(spec):
    rule = parse_rule(spec)
    cfg = SampleConfig(seed=5, trials=2 * BLOCK + 7)
    report = check_self_dual(rule, cfg, TOL)
    worst, witness = _worst(
        (
            max(abs(u - v) for u, v in zip(rule.payoffs(p), dual_payoffs(rule, p)))
            / problem_scale(p),
            p,
        )
        for p in _trials_in_order("self_dual", cfg)
    )
    assert abs(report.max_deviation - worst) <= AGREE
    assert report.is_self_dual == (worst <= TOL)
    assert report.witness == (None if worst <= TOL else witness)


@pytest.mark.parametrize("rule", [parse_rule("lin:0.3,0.2"), needs_squared_rule()])
def test_classify_residual_matches_scalar_loop(rule):
    cfg = SampleConfig(seed=6, trials=BLOCK + 30)
    result = classify(rule, (-2.0, -1.0, 0.0, 1.0, 2.0), cfg, TOL)

    def residual(p):
        t = p.total_income / p.total_need
        a, b = extract_ab(rule, t, scale=(p.total_income, p.total_need), agents=len(p))
        predicted = ab_payoffs(p, a, b)
        return max(abs(u - v) for u, v in zip(predicted, rule.payoffs(p))) / problem_scale(p)

    worst, witness = _worst(
        (residual(p), p) for p in _trials_in_order("classify", cfg, min_agents=2)
    )
    assert abs(result.max_residual - worst) <= AGREE
    assert result.witness == (None if worst <= TOL else witness)


def _scalar_outcome(axiom, rule, cfg):
    """check_axiom's verdict from the scalar measure over the same trials."""
    checker = axioms._CHECKERS[axiom]
    rng = rng_for(cfg.seed, axiom)
    try:
        for start, groups in axioms.trial_blocks(rng, cfg, checker.min_agents):
            trials = {}
            for n, rows in groups:
                block = checker.draw(rng, cfg, n, len(rows))
                trials.update((start + int(row), (block, k)) for k, row in enumerate(rows))
            for index in sorted(trials):
                instance = axioms._trial(*trials[index])
                deviation, scale, _, _ = checker.measure(rule, instance)
                if deviation > TOL * scale:
                    return False, index + 1
    except ValidationError as exc:
        return type(exc)
    return True, cfg.trials


def _block_outcome(axiom, rule, cfg):
    try:
        report = check_axiom(axiom, rule, cfg, TOL)
    except ValidationError as exc:
        return type(exc)
    return report.passed, report.trials_run


def _unstable_or_overflowing(problem):
    """Stable (pays incomes) in the middle, afam:A=const:0.5 (not stable) at low
    total income, and infinite payoffs, which no Problem accepts, at high."""
    if problem.total_income > 15.0:
        return [math.inf] * len(problem)
    if problem.total_income < -15.0:
        return AFamilyRule(ScalarFn.constant(0.5)).payoffs(problem)
    return problem.incomes


CHECK_CASES = {
    "stability-afam": ("stability", parse_rule("afam:A=const:0.5")),
    "dummy-full": ("dummy", parse_rule("full")),
    "nat-sqneed": ("nat", needs_squared_rule()),
    "income_additivity-lin": ("income_additivity", parse_rule("lin:0.3,0.2")),
    "homogeneity-lf": ("homogeneity", LF),
    "stability-mixed": ("stability", CustomRule("mixed", _unstable_or_overflowing)),
}


@pytest.mark.parametrize("case", CHECK_CASES)
@pytest.mark.parametrize("seed", [3, 4])
def test_check_axiom_matches_scalar_loop(case, seed):
    axiom, rule = CHECK_CASES[case]
    cfg = SampleConfig(seed=seed, trials=2 * BLOCK + 5)
    assert _block_outcome(axiom, rule, cfg) == _scalar_outcome(axiom, rule, cfg)


def test_an_invalid_block_keeps_trial_order():
    # A block whose screen raises goes to the scalar measure trial by trial:
    # the earlier of a violation and an invalid trial decides, as it would
    # without blocks. Both kinds of outcome occur over these seeds.
    rule = CustomRule("mixed", _unstable_or_overflowing)
    outcomes = set()
    for seed in range(12):
        cfg = SampleConfig(seed=seed, trials=40)
        outcome = _block_outcome("stability", rule, cfg)
        assert outcome == _scalar_outcome("stability", rule, cfg)
        outcomes.add(outcome if isinstance(outcome, type) else outcome[0])
    assert outcomes == {NonFinite, False}


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "incomes,needs,error",
    [
        ([[1.0, 2.0]], [[1.0]], LengthMismatch),
        ([[1.0, 2.0]], [[1.0, 2.0], [1.0, 2.0]], LengthMismatch),
        ([1.0, 2.0], [1.0, 2.0], LengthMismatch),
        (np.zeros((2, 0)), np.zeros((2, 0)), EmptyAgentSet),
        ([[1.0, NAN]], [[1.0, 1.0]], NonFinite),
        ([[1.0, 1.0]], [[INF, 1.0]], NonFinite),
        ([[1.0, 1.0]], [[NAN, -1.0]], NonFinite),
        ([[1.0, 1.0]], [[2.0, -0.5]], NegativeNeed),
        ([[1.0, 1.0]], [[-0.5, NAN]], NegativeNeed),
        ([[INF, 1.0]], [[-1.0, 1.0]], NonFinite),
        ([[1e308, 1e308]], [[1.0, 1.0]], NonFinite),
        ([[1.0, 1.0]], [[1e308, 1e308]], NonFinite),
        ([[1.0, 1.0]], [[0.0, 0.0]], ZeroTotalNeed),
        ([[1.0]], [[1e-12]], ZeroTotalNeed),
        # The first invalid row decides, as it would trial by trial.
        (
            [[1.0, 1.0], [1.0, 1.0], [NAN, 1.0]],
            [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]],
            NegativeNeed,
        ),
        (
            [[1.0, 1.0], [NAN, 1.0], [1.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]],
            NonFinite,
        ),
    ],
)
def test_invalid_blocks_raise_the_problem_error(incomes, needs, error):
    incomes, needs = np.asarray(incomes, dtype=float), np.asarray(needs, dtype=float)
    with pytest.raises(error):
        block_totals(incomes, needs)
    for rule in (PROP, needs_squared_rule()):
        with pytest.raises(error):
            rule.payoffs_batch(incomes, needs)


SPECIAL = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e-12, 1e308, -1e308, 5e-324, NAN, INF, -INF]
)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.lists(SPECIAL | st.floats(-10.0, 10.0), min_size=n, max_size=n),
                st.lists(SPECIAL | st.floats(0.0, 10.0), min_size=n, max_size=n),
            ),
            min_size=1,
            max_size=4,
        )
    )
)
def test_block_validation_agrees_with_problem(rows):
    incomes = np.array([y for y, _ in rows], dtype=float)
    needs = np.array([z for _, z in rows], dtype=float)
    expected = None
    problems = []
    for y, z in rows:
        try:
            problems.append(make_problem(range(len(y)), y, z))
        except ValidationError as exc:
            expected = type(exc)
            break
    if expected is not None:
        with pytest.raises(expected):
            block_totals(incomes, needs)
        return
    total_income, total_need = block_totals(incomes, needs)
    assert total_income.tolist() == [p.total_income for p in problems]
    assert total_need.tolist() == [p.total_need for p in problems]


def _continuity_peak(trials, n_range=(2, 6)):
    cfg = SampleConfig(seed=2, trials=trials, n_range=n_range)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert check_axiom("continuity", LF, cfg, TOL).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_screen_memory_does_not_grow_with_trials():
    _continuity_peak(BLOCK)  # warm numpy's and the module's caches
    one = _continuity_peak(BLOCK)
    eight = _continuity_peak(8 * BLOCK)
    assert eight <= 1.5 * one, (one, eight)


def test_screen_memory_does_not_grow_with_problem_size():
    # Blocks hold fewer trials of larger problems.
    assert axioms.block_trials(SampleConfig(n_range=(500, 500))) == 1
    small = _continuity_peak(128, n_range=(6, 6))
    large = _continuity_peak(16, n_range=(500, 500))
    assert large <= 1.5 * small, (small, large)
