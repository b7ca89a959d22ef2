"""The block kernel and screens against independent scalar references.

Payoffs and the sampled checkers are computed on numpy blocks, and the
screen is each axiom's only measure: a flagged trial is re-screened as a
one-row block, then shrunk and reported. The scalar kernel and measures in
scalar_measures.py, the extraction probe and the reflection definitions
stay the reference. Every comparison here runs both on the same
materialized trials.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redistrib import (
    ABRule,
    ALL_AXIOMS,
    BFamilyRule,
    ConvexCombination,
    CustomRule,
    DualRule,
    EmptyAgentSet,
    LF,
    LengthMismatch,
    NegativeNeed,
    NonFinite,
    PROP,
    RuleError,
    AFamilyRule,
    Block,
    SampleConfig,
    ScalarFn,
    ValidationError,
    ZeroTotalNeed,
    check_axiom,
    check_self_dual,
    classify,
    dual_payoffs,
    evaluate,
    format_rule,
    make_problem,
    parse_rule,
    problem_scale,
    rng_for,
)
from redistrib import analysis, axioms, cli, core, duality, rules
from conftest import NAN_RULES, needs_squared_rule, nested_rules
from scalar_measures import MEASURES, ab_payoffs_reference
from test_axioms import NEGATIVE_CONTROLS
from test_duality import KERNEL_CASES

TOL = 1e-9
# The self-dual and classify comparisons allow a few rounding steps of the
# instance's scale.
AGREE = 1e-12
BLOCK = axioms.BLOCK_TRIALS


def _bits(values):
    """Floats as hex strings, so that NaN, -0.0 and every last bit compare."""
    return None if values is None else [float.hex(float(v)) for v in np.ravel(values)]


# The bits of 0.0, which a padded column holds and is paid.
ZERO = float.hex(0.0)


def _assert_padded_row(padded, unpadded, where):
    """A padded row holds the unpadded row's bits, then exact 0.0s."""
    padded, unpadded = _bits(padded), _bits(unpadded)
    if unpadded is None:
        assert padded is None, where
        return
    assert padded[: len(unpadded)] == unpadded, where
    assert padded[len(unpadded) :] == [ZERO] * (len(padded) - len(unpadded)), where


def _assert_screen_matches_measure(axiom, rule, seed, counts):
    # Each row of a batch padded to its largest agent count, the same trial
    # screened as its own unpadded one-row batch, and the scalar measure
    # agree bit for bit: deviation, scale, expected, observed.
    checker = axioms._CHECKERS[axiom]
    rng = rng_for(seed, "differential")
    trials = axioms.draw_trials(rng, np.asarray(counts), checker.draw)
    deviation, scale, expected, observed = checker.screen(rule, trials)
    assert deviation.shape == scale.shape == (len(counts),)
    for k in range(len(counts)):
        instance = axioms._trial(trials, k)
        assert len(instance["problem"]) == counts[k]
        row_expected = None if expected is None else expected[k]
        row = (deviation[k], scale[k], row_expected, observed[k])
        one_row = axioms._measure(checker, rule, instance)
        scalar = MEASURES[axiom](rule, instance)
        for padded, unpadded in zip(row, one_row):
            _assert_padded_row(padded, unpadded, (axiom, k))
        assert list(map(_bits, one_row)) == list(map(_bits, scalar)), (axiom, k)


# Agent counts of a batch of 12 trials, mixed as a block of trials mixes them.
COUNTS = st.lists(st.integers(*axioms.N_RANGE), min_size=12, max_size=12)


@settings(max_examples=40, deadline=None)
@given(
    rule=nested_rules(2),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(*axioms.N_RANGE),
    counts=COUNTS,
)
def test_screen_matches_scalar_measure_for_random_polynomial_rules(rule, seed, n, counts):
    # 12 trials of n agents, then 12 of mixed counts.
    for axiom in ALL_AXIOMS:
        _assert_screen_matches_measure(axiom, rule, seed, [n] * 12)
        _assert_screen_matches_measure(axiom, rule, seed, counts)


def _through_fallback(rule):
    """The same payoffs as a custom rule, so blocks are evaluated row by row."""
    return rule if isinstance(rule, CustomRule) else CustomRule("wrapped", rule.payoffs)


@pytest.mark.parametrize(
    "rule", [rule for _, rule in NEGATIVE_CONTROLS], ids=[a for a, _ in NEGATIVE_CONTROLS]
)
def test_screen_matches_scalar_measure_through_the_custom_fallback(rule):
    mixed = [2, 6, 3, 5, 4, 6, 2, 2, 5, 3, 4, 6]
    for seed, counts in [(40 + n, [n] * 12) for n in (2, 3, 6)] + [(47, mixed)]:
        for axiom in ALL_AXIOMS:
            _assert_screen_matches_measure(axiom, _through_fallback(rule), seed, counts)


def test_a_custom_rule_paying_the_wrong_number_of_values_is_rejected():
    # One value for n agents would fill the whole row of a block; it is a
    # LengthMismatch, in a padded block, an unpadded one and a sampled check.
    rule = CustomRule("one value", lambda problem: (problem.total_income,))
    padded = axioms.draw_trials(
        rng_for(5, "wrong length"), np.array([2, 4, 3]), axioms._draw_problems
    )["problem"]
    unpadded = Block(np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 1.0, 1.0]]))
    for block in (padded, unpadded):
        with pytest.raises(LengthMismatch, match="1 values for [234] agents"):
            rule.payoffs_batch(block)
    with pytest.raises(LengthMismatch):
        check_axiom("homogeneity", rule, SampleConfig(seed=1, trials=20), TOL)


def _step(t):
    return 1.0 if t > 0.5 else 0.0


def _one(t):
    return 1


# Rules with plain-callable weights, which take one float at a time.
CALLABLE_RULES = [
    AFamilyRule(_step),
    BFamilyRule(_step),
    ABRule(_one, ScalarFn.identity()),
    ABRule(_step, _one),
]
_WITH_CALLABLES = st.one_of(
    st.sampled_from(CALLABLE_RULES),
    st.builds(DualRule, st.sampled_from(CALLABLE_RULES)),
    st.builds(
        ConvexCombination,
        st.sampled_from(CALLABLE_RULES),
        nested_rules(1),
        st.floats(0.0, 1.0),
    ),
)


def _assert_array_weights_match_scalar(rule, ts):
    """weights_at on an array of ratios, broadcast, equals it ratio by ratio."""
    at_array = rule.weights_at(np.array(ts))
    at_each = [rule.weights_at(t) for t in ts]
    for k in range(2):
        broadcast = np.broadcast_to(np.asarray(at_array[k], dtype=float), len(ts))
        scalar = np.array([weights[k] for weights in at_each], dtype=float)
        assert broadcast.tobytes() == scalar.tobytes(), (k, broadcast, scalar)


RATIOS = [-2.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 3.0]


@pytest.mark.parametrize("rule", KERNEL_CASES + CALLABLE_RULES, ids=format_rule)
def test_weights_at_an_array_equal_weights_at_each_ratio(rule):
    _assert_array_weights_match_scalar(rule, RATIOS)


@settings(max_examples=40, deadline=None)
@given(
    rule=st.one_of(nested_rules(2), _WITH_CALLABLES),
    ts=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8),
)
def test_weights_at_an_array_equal_weights_at_each_ratio_for_nested_rules(rule, ts):
    _assert_array_weights_match_scalar(rule, ts)


def test_payoffs_batch_takes_weights_once_per_block(monkeypatch):
    calls = []
    weights_at = ABRule.weights_at

    def counting(self, t):
        calls.append(np.shape(t))
        return weights_at(self, t)

    monkeypatch.setattr(ABRule, "weights_at", counting)
    rule = parse_rule("dual(convex(ab:A=id,B=const:0.5;dual(ab:A=const:0.2,B=id);0.3))")
    rule.payoffs_batch(Block(*axioms.draw_profiles(rng_for(3, "count"), 4, 50)))
    # One call per ab rule inside, each on the block's 50 ratios.
    assert calls == [(50,), (50,)]


# Rules whose income weight exceeds 1 in size on most sampled ratios, so the
# kernel pays those rows in its deviation form.
_LARGE_INCOME_WEIGHTS = st.sampled_from(
    [
        parse_rule(spec)
        for spec in (
            "lin:2.0,0.0",
            "lin:-1.5,0.5",
            "ab:A=scale:3,B=id",
            "dual(lin:1e+300,0.0)",
            "convex(lin:4.0,0.0;lf;0.5)",
        )
    ]
)


@settings(max_examples=60, deadline=None)
@given(
    rule=st.one_of(nested_rules(2), _WITH_CALLABLES, _LARGE_INCOME_WEIGHTS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
)
def test_kernel_block_equals_scalar_payoffs_bit_for_bit(rule, seed, n):
    # Block rows and rule.payoffs, the problem's one-row block, against the
    # kernel computed on Python floats.
    block = Block(*axioms.draw_profiles(rng_for(seed, "bits"), n, 20))
    payoffs = rule.payoffs_batch(block)
    for k in range(len(payoffs)):
        problem = block.problem(k)
        a, b = rule.weights_at(problem.total_income / problem.total_need)
        reference = _bits(ab_payoffs_reference(problem, a, b))
        assert _bits(payoffs[k]) == reference
        assert _bits(rule.payoffs(problem)) == reference


def _recording_rule(seen):
    """needs_squared_rule, noting the agents of each problem it is given."""
    inner = needs_squared_rule()

    def allocate(problem):
        seen.append(problem.agents)
        return inner.allocate(problem)

    return CustomRule("recording", allocate)


@pytest.mark.parametrize("n", [1, 2, 6, 2 * core._SUM_BLOCK + 3])
def test_one_problem_is_paid_as_its_one_row_block(n):
    # Composites around a custom rule pay one problem through its one-row
    # Block: the custom rule sees the problem's own ids, and the payoffs
    # are the per-problem definitions' bits. 2·_SUM_BLOCK + 3 agents are
    # totalled in three chunks.
    rng = np.random.default_rng(n)
    p = make_problem(
        [f"h{k}" for k in range(n)], rng.uniform(-10.0, 10.0, n), rng.uniform(0.1, 10.0, n)
    )
    block = Block.of(p)
    assert block.incomes.base is p.incomes and block.agents is p.agents
    assert (block.total_income.tolist(), block.total_need.tolist()) == (
        [p.total_income],
        [p.total_need],
    )
    assert block.problem(0) == p and block.problem(0).agents is p.agents
    seen = []
    custom = _recording_rule(seen)
    mixed = ConvexCombination(custom, LF, 0.3)
    x, seen_mixed = mixed.payoffs(p), list(seen)
    dual = DualRule(custom)
    seen.clear()
    y, seen_dual = dual.payoffs(p), list(seen)
    assert seen_mixed == seen_dual == [p.agents]
    assert not x.flags.writeable and not y.flags.writeable
    u, v = list(map(float, custom.allocate(p))), ab_payoffs_reference(p, 1.0, 0.0)
    assert _bits(x) == _bits([0.3 * a + (1.0 - 0.3) * b for a, b in zip(u, v)])
    needs = p.needs.tolist()
    reflected = make_problem(p.agents, [z - w for z, w in zip(needs, p.incomes.tolist())], needs)
    mirrored = map(float, custom.allocate(reflected))
    assert _bits(y) == _bits([z - a for z, a in zip(needs, mirrored)])
    assert _bits(evaluate(dual, p).values) == _bits(y)


def test_one_problem_keeps_the_errors_of_its_definition():
    # A short custom vector is a LengthMismatch, and an overflowing
    # reflection NonFinite, which evaluate blames on the rule.
    short = CustomRule("first-only", lambda q: q.incomes[:1])
    p = make_problem(("a", "b"), (5.0, 1.0), (1.0, 3.0))
    for rule in (ConvexCombination(short, LF, 0.5), DualRule(short)):
        with pytest.raises(LengthMismatch, match="^1 values for 2 agents$"):
            rule.payoffs(p)
        with pytest.raises(RuleError, match="LengthMismatch: 1 values for 2 agents"):
            evaluate(rule, p)
    huge = make_problem(("a", "b"), (-1.7e308, 1.0), (1.7e308, 1.0))
    with pytest.raises(NonFinite, match="income inf is not finite"):
        DualRule(needs_squared_rule()).payoffs(huge)
    with pytest.raises(RuleError, match="NonFinite"):
        evaluate(DualRule(needs_squared_rule()), huge)


# Rules of every kind a padded block meets: grammar rules nested in convex
# and dual, plain-callable weights, custom rules, and the grammar's payoffs
# through the custom fallback, which evaluates a block row by row.
_PADDED_RULES = st.one_of(
    nested_rules(2),
    _WITH_CALLABLES,
    st.sampled_from([needs_squared_rule(), *NAN_RULES.values()]),
    nested_rules(1).map(_through_fallback),
)


@settings(max_examples=60, deadline=None)
@given(rule=_PADDED_RULES, seed=st.integers(0, 2**32 - 1), counts=COUNTS)
def test_padded_rows_equal_their_own_unpadded_blocks(rule, seed, counts):
    # payoffs_batch, classify's residual and the self-dual gap give each row
    # of a padded block the bits of that row's own one-row block, and pay
    # the padded columns exactly 0.0.
    rng = rng_for(seed, "padded")
    block = axioms.draw_trials(rng, np.asarray(counts), axioms._draw_problems)["problem"]
    measures = (rules.RuleSpec.payoffs_batch, analysis._residual, duality._self_dual_gap)
    with np.errstate(over="ignore", invalid="ignore"):
        padded = [measure(rule, block) for measure in measures]
        for k in range(len(counts)):
            problem = block.problem(k)
            alone = Block(np.array([problem.incomes]), np.array([problem.needs]))
            for values, measure in zip(padded, measures):
                _assert_padded_row(values[k], measure(rule, alone)[0], (measure, k))


def _draws_by_count(rng, cfg, draw):
    """Each trial's number and its draw, drawn as trial_blocks draws them.

    The reference for the padded batches: per block, the agent counts, then
    each count's trials as one unpadded batch, counts ascending. Yields
    (trial number, batch, row of the trial in the batch), in draw order.
    """
    for start in range(0, cfg.trials, BLOCK):
        size = min(BLOCK, cfg.trials - start)
        counts = rng.integers(axioms.N_RANGE[0], axioms.N_RANGE[1] + 1, size)
        for n in sorted(set(counts.tolist())):
            rows = np.flatnonzero(counts == n)
            batch = axioms.draw_trials(rng, np.full(len(rows), n), draw)
            for k, row in enumerate(rows.tolist()):
                yield start + row, batch, k


def _trials_in_order(label, cfg):
    """The problems worst_trial draws for one label, in trial order."""
    problems = {}
    for trial, batch, k in _draws_by_count(rng_for(cfg.seed, label), cfg, axioms._draw_problems):
        incomes, needs = batch["problem"].incomes[k], batch["problem"].needs[k]
        problems[trial] = make_problem(range(1, len(incomes) + 1), incomes, needs)
    return [problems[k] for k in sorted(problems)]


@pytest.mark.parametrize("axiom", ALL_AXIOMS)
def test_padded_blocks_hold_the_draws_of_each_agent_count(axiom):
    # The same rng calls as one draw per agent count, scattered so that row
    # k of a block is its trial k: every trial's instance is unchanged.
    cfg = SampleConfig(seed=9, trials=BLOCK + 40)
    draw = axioms._CHECKERS[axiom].draw
    expected = {
        trial: axioms._trial(batch, k)
        for trial, batch, k in _draws_by_count(rng_for(cfg.seed, axiom), cfg, draw)
    }
    got = {}
    for start, trials in axioms.trial_blocks(rng_for(cfg.seed, axiom), cfg, draw):
        counts = trials["problem"].counts
        assert len(counts) == min(BLOCK, cfg.trials - start)
        assert trials["problem"].incomes.shape == (len(counts), counts.max())
        for k in range(len(counts)):
            got[start + k] = axioms._trial(trials, k)
    assert list(got) == list(range(cfg.trials))
    assert got == expected


def _worst(values_and_problems):
    worst, witness = 0.0, None
    for value, problem in values_and_problems:
        if value > worst:
            worst, witness = value, problem
    return worst, witness


def test_worst_trial_ranks_nan_above_every_number():
    cfg = SampleConfig(seed=8, trials=4 * BLOCK)

    def measure(block):
        first = block.incomes[:, 0]
        return np.where(first > 9.9, np.nan, first)

    worst, witness = axioms.worst_trial(rng_for(cfg.seed, "nan"), cfg, measure)
    trials = _trials_in_order("nan", cfg)
    first_nan = next(k for k, p in enumerate(trials) if p.incomes[0] > 9.9)
    # Positive values come before it, some in earlier blocks.
    assert first_nan >= BLOCK and max(p.incomes[0] for p in trials[:first_nan]) > 0
    assert math.isnan(worst)
    assert witness == trials[first_nan]


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
        a, b = analysis._extract_ab_batch(
            rule, np.array([p.total_income]), np.array([p.total_need]), len(p)
        )
        predicted = ab_payoffs_reference(p, a.item(), b.item())
        return max(abs(u - v) for u, v in zip(predicted, rule.payoffs(p))) / problem_scale(p)

    worst, witness = _worst(
        (residual(p), p) for p in _trials_in_order("classify", cfg)
    )
    assert abs(result.max_residual - worst) <= AGREE
    assert result.witness == (None if worst <= TOL else witness)


def _scalar_outcome(axiom, rule, cfg):
    """check_axiom's verdict from the scalar measure over the same trials."""
    checker = axioms._CHECKERS[axiom]
    draws = _draws_by_count(rng_for(cfg.seed, axiom), cfg, checker.draw)
    try:
        for trial, batch, k in sorted(draws, key=lambda draw: draw[0]):
            deviation, scale, _, _ = MEASURES[axiom](rule, axioms._trial(batch, k))
            if not deviation <= TOL * scale:
                return False, trial + 1
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
    # A block whose screen raises is re-screened trial by trial as one-row
    # blocks: the earlier of a violation and an invalid trial decides, as it
    # would without blocks. Both kinds of outcome occur over these seeds.
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
        Block(incomes, needs)


SPECIAL = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e-12, 1e308, -1e308, 5e-324, NAN, INF, -INF]
)


def _fields(problem):
    """Every field of a Problem, totals included, with numbers as their bits."""
    return {f.name: _bits(getattr(problem, f.name)) for f in dataclasses.fields(problem)}


def _assert_block_agrees_with_problems(rows, counts=None):
    # The rows as one Block, padded with zeros to the longest, raise the
    # first invalid row's Problem error or hold each row's totals, scale and
    # every field of its Problem, bit for bit.
    width = max(len(y) for y, _ in rows)
    incomes, needs = np.zeros((2, len(rows), width))
    for k, (y, z) in enumerate(rows):
        incomes[k, : len(y)], needs[k, : len(z)] = y, z
    problems = []
    for y, z in rows:
        try:
            problems.append(make_problem(range(1, len(y) + 1), y, z))
        except ValidationError as exc:
            with pytest.raises(type(exc)):
                Block(incomes, needs, counts)
            return
    block = Block(incomes, needs, counts)
    assert block.counts.tolist() == [len(y) for y, _ in rows]
    assert _bits(block.total_income) == [_bits(p.total_income)[0] for p in problems]
    assert _bits(block.total_need) == [_bits(p.total_need)[0] for p in problems]
    assert block.scales.tolist() == [problem_scale(p) for p in problems]
    assert [block.problem(k) for k in range(len(rows))] == problems
    assert [_fields(block.problem(k)) for k in range(len(rows))] == [
        _fields(p) for p in problems
    ]


def _rows(n):
    return st.tuples(
        st.lists(SPECIAL | st.floats(-10.0, 10.0), min_size=n, max_size=n),
        st.lists(SPECIAL | st.floats(0.0, 10.0), min_size=n, max_size=n),
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(_rows(n), min_size=1, max_size=4)))
def test_block_validation_agrees_with_problem(rows):
    # Rows of one length as an unpadded Block, whose counts default to n.
    _assert_block_agrees_with_problems(rows)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 3).flatmap(_rows), min_size=1, max_size=4))
def test_padded_block_validation_agrees_with_problem(rows):
    # Rows of mixed lengths as one padded Block, and the rows of each length
    # as their own unpadded Block.
    _assert_block_agrees_with_problems(rows, np.array([len(y) for y, _ in rows]))
    for n in sorted({len(y) for y, _ in rows}):
        _assert_block_agrees_with_problems([row for row in rows if len(row[0]) == n])


def _count_row_sums(monkeypatch):
    """Count Blocks built, nat screens, and the row_sums calls made in each.

    A Problem's totals and an allocation's balance check are row_sums calls
    too; the counts take only those made while a Block is built, and those
    a nat screen makes outside building one.
    """
    counts = {"blocks": 0, "block_sums": 0, "nat_screens": 0, "nat_sums": 0}
    inside = []
    post_init, row_sums = Block.__post_init__, core.row_sums
    nat = axioms._CHECKERS["nat"]

    def counting_post_init(self):
        counts["blocks"] += 1
        inside.append("block")
        try:
            post_init(self)
        finally:
            inside.pop()

    def counting_row_sums(values):
        if inside:
            counts[f"{inside[-1]}_sums"] += 1
        return row_sums(values)

    def counting_nat_screen(rule, trials):
        counts["nat_screens"] += 1
        inside.append("nat")
        try:
            return nat.screen(rule, trials)
        finally:
            inside.pop()

    monkeypatch.setattr(Block, "__post_init__", counting_post_init)
    for module in (core, rules, axioms, duality, analysis, cli):
        if hasattr(module, "row_sums"):
            monkeypatch.setattr(module, "row_sums", counting_row_sums)
    monkeypatch.setitem(
        axioms._CHECKERS, "nat", dataclasses.replace(nat, screen=counting_nat_screen)
    )
    return counts


def _assert_each_block_is_summed_once(counts):
    # Two row_sums per Block, its incomes and its needs, and two per nat
    # screen, the group's payoffs before and after.
    assert counts["blocks"] > 0
    assert counts["block_sums"] == 2 * counts["blocks"]
    assert counts["nat_sums"] == 2 * counts["nat_screens"]


# Blocks built per batch of trials: the draw's problems, then the screen's.
BLOCKS_PER_BATCH = {
    "homogeneity": 1 + 1,
    "equal_treatment": 1,
    # One Block per slice of the probe's steps.
    "continuity": 1 + math.ceil((axioms.CONTINUITY_STEPS + 1) / axioms.CONTINUITY_SLICE),
    "nat": 2,
    "stability": 1 + 1,
    "dummy": 1,
    "income_additivity": 1 + 2,
    "dual_income_additivity": 1 + 2,
}


@pytest.mark.parametrize("axiom", ALL_AXIOMS)
def test_check_axiom_sums_each_block_once(monkeypatch, axiom):
    # A passing rule, and a failing one whose counterexample is confirmed,
    # shrunk and re-checked through one-row Blocks.
    failing = [rule for name, rule in NEGATIVE_CONTROLS if name == axiom]
    counts = _count_row_sums(monkeypatch)
    cfg = SampleConfig(seed=3, trials=BLOCK + 5)
    assert check_axiom(axiom, PROP, cfg, TOL).passed
    # Two batches, each of its trials' agent counts at once.
    assert counts["blocks"] == 2 * BLOCKS_PER_BATCH[axiom]
    reports = [check_axiom(axiom, rule, cfg, TOL) for rule in failing]
    assert [report.passed for report in reports] == [False] * len(failing)
    _assert_each_block_is_summed_once(counts)
    assert (counts["nat_screens"] > 0) == (axiom == "nat")


@pytest.mark.parametrize(
    "rule", [PROP, parse_rule("lin:0.3,0.2"), needs_squared_rule()], ids=format_rule
)
def test_self_dual_and_classify_sum_each_block_once(monkeypatch, rule):
    counts = _count_row_sums(monkeypatch)
    cfg = SampleConfig(seed=4, trials=BLOCK + 5)
    check_self_dual(rule, cfg, TOL)
    # Two batches, each a drawn block and its reflection.
    assert counts["blocks"] == 2 * 2
    classify(rule, (-2.0, -1.0, 0.0, 1.0, 2.0), cfg, TOL)
    # The grid's two probe blocks, then per batch a drawn block and its two.
    assert counts["blocks"] == 2 * 2 + 2 + 2 * 3
    _assert_each_block_is_summed_once(counts)
    assert counts["nat_screens"] == 0


def _continuity_peak(trials):
    cfg = SampleConfig(seed=2, trials=trials)
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
