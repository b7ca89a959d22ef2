"""The block kernel and screens against independent scalar references.

Payoffs and the sampled checkers are computed on numpy blocks, and the
screen is each axiom's only measure: a flagged trial is re-screened as a
one-row block, then shrunk and reported. Trials are drawn in blocks of
BLOCK_TRIALS, whatever the screen unit, and screened in batches: the first
block alone, then up to SCREEN_ROWS trials at a time; the batch size moves
no bit of a report. A rule that cannot pay a drawn trial raises RuleError,
whichever trial of its screened batch it is, where the scalar loop would
report an earlier violation. The scalar kernel and measures in
scalar_measures.py, the extraction probe and the reflection definitions
stay the reference. Every comparison here runs both on the same
materialized trials. Shrinking screens each round of candidates as one
block; a step-by-step shrink written here, one candidate at a time, is its
reference.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redistrib import (
    ALL_AXIOMS,
    ConvexCombination,
    CustomRule,
    DualRule,
    EmptyAgentSet,
    LF,
    LengthMismatch,
    NegativeNeed,
    NonFinite,
    PROP,
    Problem,
    RuleError,
    Block,
    SampleConfig,
    ScalarFn,
    ValidationError,
    WeightedRule,
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
SCREEN = axioms.SCREEN_ROWS


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
        one_row = axioms._measures(checker, rule, [instance])[0]
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
    # LengthMismatch, in a padded block and an unpadded one.
    rule = CustomRule("one value", lambda problem: (problem.total_income,))
    padded = axioms.draw_trials(
        rng_for(5, "wrong length"), np.array([2, 4, 3]), axioms._draw_problems
    )["problem"]
    unpadded = Block(np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 1.0, 1.0]]))
    for block in (padded, unpadded):
        with pytest.raises(LengthMismatch, match="1 values for [234] agents"):
            rule.payoffs_batch(block)


def test_a_wrong_length_rule_is_a_rule_error_in_every_sampled_check():
    # Drawn trials are valid problems, so the LengthMismatch is the rule's.
    rule = CustomRule("one", lambda problem: (problem.total_income,))
    cfg = SampleConfig(seed=1, trials=20)
    message = r"rule 'custom:one' does not allocate a sampled problem: LengthMismatch: 1 values"
    for check in (
        lambda: check_axiom("homogeneity", rule, cfg, TOL),
        lambda: check_self_dual(rule, cfg, TOL),
        lambda: classify(rule, (-2.0, -1.0, 0.0, 1.0, 2.0), cfg, TOL),
    ):
        with pytest.raises(RuleError, match=message):
            check()


def _step(t):
    return 1.0 if t > 0.5 else 0.0


def _one(t):
    return 1


# Rules with plain-callable weights, which take one float at a time.
CALLABLE_RULES = [
    WeightedRule("afam", (_step,)),
    WeightedRule("bfam", (_step,)),
    WeightedRule("ab", (_one, ScalarFn.identity())),
    WeightedRule("ab", (_step, _one)),
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
    weights_at = WeightedRule.weights_at

    def counting(self, t):
        calls.append(np.shape(t))
        return weights_at(self, t)

    monkeypatch.setattr(WeightedRule, "weights_at", counting)
    rule = parse_rule("dual(convex(ab:A=id,B=const:0.5;dual(ab:A=const:0.2,B=id);0.3))")
    rule.payoffs_batch(Block(*axioms.draw_profiles(rng_for(3, "count"), (50, 4))))
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
    block = Block(*axioms.draw_profiles(rng_for(seed, "bits"), (20, n)))
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


@pytest.mark.parametrize("n", [1, 2, 6, 131_075])
def test_one_problem_is_paid_as_its_one_row_block(n):
    # Composites around a custom rule pay one problem through its one-row
    # Block: the custom rule sees the problem's own ids, and the payoffs
    # are the per-problem definitions' bits. 131,075 agents, more than
    # 2**16, are totalled by one cumsum.
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


@settings(max_examples=40, deadline=None)
@given(
    rule=st.one_of(
        nested_rules(1),
        st.sampled_from([needs_squared_rule(), ConvexCombination(needs_squared_rule(), LF, 0.3)]),
    ),
    seed=st.integers(0, 2**32 - 1),
    counts=COUNTS,
)
def test_a_block_pays_the_same_bits_whatever_the_layout_it_is_given(rule, seed, counts):
    # A Block stores its columns column-major, copying a row-major input
    # once, so payoffs never depend on the layout its arrays came in. Its
    # rows are Problems whose columns may be strided views.
    rng = rng_for(seed, "layout")
    drawn = axioms.draw_trials(rng, np.asarray(counts), axioms._draw_problems)["problem"]
    given_arrays = {
        order: (np.array(drawn.incomes, order=order), np.array(drawn.needs, order=order))
        for order in "CF"
    }
    blocks = {order: Block(*arrays, drawn.counts) for order, arrays in given_arrays.items()}
    for order, block in blocks.items():
        for column, given_column in zip((block.incomes, block.needs), given_arrays[order]):
            assert column.flags.f_contiguous and not column.flags.writeable
            assert np.shares_memory(column, given_column) is (order == "F")
    with np.errstate(over="ignore", invalid="ignore"):
        payoffs = [rule.payoffs_batch(block).tobytes() for block in blocks.values()]
    assert payoffs[0] == payoffs[1]
    block = blocks["C"]
    incomes, needs = given_arrays["C"]
    for k, (row, n) in enumerate(zip(block.problems(), counts)):
        source = make_problem(range(1, n + 1), incomes[k, :n], needs[k, :n])
        assert row == source
        assert (row.total_income, row.total_need) == (source.total_income, source.total_need)
        assert not row.incomes.flags.writeable and not row.needs.flags.writeable
        assert np.shares_memory(Block.of(source).incomes, source.incomes)
        assert np.shares_memory(Block.of(row).incomes, row.incomes)


@pytest.mark.parametrize(
    "rule", [parse_rule("afam:A=const:0.5"), needs_squared_rule()], ids=format_rule
)
@pytest.mark.parametrize("axiom", ALL_AXIOMS)
def test_instances_of_different_trials_screen_as_one_batch(axiom, rule):
    # Trials 0 and 2 of a draw, both of 3 agents, rebuilt as instances and
    # screened together, as a shrinking round screens its candidates: each
    # row gives the bits of its instance screened alone.
    checker = axioms._CHECKERS[axiom]
    trials = axioms.draw_trials(rng_for(1, "x"), np.array([3, 4, 3]), checker.draw)
    instances = [axioms._trial(trials, k) for k in (0, 2)]
    with np.errstate(over="ignore", invalid="ignore"):
        together = axioms._measures(checker, rule, instances)
        for instance, row in zip(instances, together):
            alone = axioms._measures(checker, rule, [instance])[0]
            assert list(map(_bits, row)) == list(map(_bits, alone)), axiom


def _drawn_by_block(rng, cfg, draw):
    """Each trial's number and its draw, drawn as trial_blocks draws them.

    The reference for the screen batches: per block of BLOCK trials, however
    few a check runs, the agent counts, then the block as draw_trials draws
    it alone. Yields (trial number, block, row of the trial in the block),
    in trial order.
    """
    for start in range(0, cfg.trials, BLOCK):
        counts = rng.integers(axioms.N_RANGE[0], axioms.N_RANGE[1] + 1, BLOCK)
        block = axioms.draw_trials(rng, counts, draw)
        for k in range(min(BLOCK, cfg.trials - start)):
            yield start + k, block, k


def _trials_in_order(label, cfg):
    """The problems worst_trial draws for one label, in trial order."""
    return [
        batch["problem"].problem(k)
        for _, batch, k in _drawn_by_block(rng_for(cfg.seed, label), cfg, axioms._draw_problems)
    ]


@pytest.mark.parametrize("axiom", ALL_AXIOMS)
def test_padded_blocks_hold_the_draws_of_each_agent_count(axiom):
    # Each block's trials of every agent count, as the block drawn alone
    # holds them: a batch of several blocks, cut to its trials and to its
    # widest one, changes no trial's instance. The first block is screened
    # alone, the next SCREEN_ROWS trials, eight draw blocks, as one batch,
    # and the last 40 trials, of a block drawn whole, as a batch of their own.
    cfg = SampleConfig(seed=9, trials=BLOCK + SCREEN + 40)
    draw = axioms._CHECKERS[axiom].draw
    expected = {
        trial: axioms._trial(batch, k)
        for trial, batch, k in _drawn_by_block(rng_for(cfg.seed, axiom), cfg, draw)
    }
    got, starts = {}, []
    for start, trials in axioms.trial_blocks(rng_for(cfg.seed, axiom), cfg, draw):
        starts.append(start)
        counts = trials["problem"].counts
        assert len(counts) == min(SCREEN if start else BLOCK, cfg.trials - start)
        assert trials["problem"].incomes.shape == (len(counts), counts.max())
        # Every value of the batch holds one row per trial, none a scalar.
        for value in trials.values():
            rows = value.incomes if isinstance(value, Block) else value
            assert np.ndim(rows) >= 1 and len(rows) == len(counts), axiom
        for k in range(len(counts)):
            got[start + k] = axioms._trial(trials, k)
    assert starts == [0, BLOCK, BLOCK + SCREEN]
    assert list(got) == list(range(cfg.trials))
    assert got == expected


@pytest.mark.parametrize("axiom", ALL_AXIOMS)
def test_a_trial_draws_the_same_bits_whatever_the_trial_count(monkeypatch, axiom):
    # A trial's draw depends only on its block: the first k trials of a
    # check of k trials are those of a check of 2100, screened in batches of
    # SCREEN_ROWS trials or a block at a time.
    draw = axioms._CHECKERS[axiom].draw

    def trials(count):
        cfg = SampleConfig(seed=13, trials=count)
        return [
            _instance_bits(axioms._trial(batch, k))
            for _, batch in axioms.trial_blocks(rng_for(cfg.seed, axiom), cfg, draw)
            for k in range(len(batch["problem"].counts))
        ]

    longest = trials(2100)
    for count in (1, BLOCK - 1, BLOCK, BLOCK + 1, 1000):
        assert trials(count) == longest[:count], count
    monkeypatch.setattr(axioms, "SCREEN_ROWS", BLOCK)
    assert trials(2100) == longest


def _block_draw(axiom, seed):
    """One block's agent counts, its agents' mask and its draw, as trial_blocks
    draws its first block; the counts reach N_RANGE[1]."""
    rng = rng_for(seed, axiom)
    counts = rng.integers(axioms.N_RANGE[0], axioms.N_RANGE[1] + 1, BLOCK)
    trials = axioms.draw_trials(rng, counts, axioms._CHECKERS[axiom].draw)
    assert trials["problem"].incomes.shape == (BLOCK, axioms.N_RANGE[1])
    return counts, trials["problem"].agent_mask, trials


@pytest.mark.parametrize("axiom", ALL_AXIOMS)
def test_every_padded_entry_is_positive_zero_or_false(axiom):
    # Each variate is drawn for the whole block and set to +0.0 past each
    # trial's agents, not -0.0, which a product with the mask could give;
    # a mask, such as NAT's members, is False there.
    for seed in range(4):
        _, mask, trials = _block_draw(axiom, seed)
        arrays = []
        for value in trials.values():
            arrays += [value.incomes, value.needs] if isinstance(value, Block) else [value]
        padded = [array[~mask] for array in arrays if np.ndim(array) == 2]
        assert padded and all(len(values) == (~mask).sum() for values in padded)
        for values in padded:
            if values.dtype == bool:
                assert not values.any(), axiom
            else:
                assert (values.view(np.uint64) == 0).all(), axiom


def test_drawn_agents_and_groups_fit_their_trials():
    # Equal treatment's twins are two agents of the trial, dummy's agent is
    # one, and NAT's group is as large as the size drawn for it: the agents
    # of the lowest keys among the trial's own.
    counts, mask, twins = _block_draw("equal_treatment", 1)
    first, second = twins["first"], twins["second"]
    assert (first != second).all()
    assert ((1 <= first) & (first <= counts) & (1 <= second) & (second <= counts)).all()
    rows = np.arange(BLOCK)
    for column in (twins["problem"].incomes, twins["problem"].needs):
        assert (column[rows, first - 1] == column[rows, second - 1]).all()
    counts, mask, dummy = _block_draw("dummy", 2)
    agent = dummy["agent"]
    assert ((1 <= agent) & (agent <= counts)).all()
    for column in (dummy["problem"].incomes, dummy["problem"].needs):
        assert (column[rows, agent - 1] == 0.0).all()
    counts, mask, nat = _block_draw("nat", 3)
    # The stream again: counts, incomes, needs, group sizes, then keys.
    rng = rng_for(3, "nat")
    assert (rng.integers(axioms.N_RANGE[0], axioms.N_RANGE[1] + 1, BLOCK) == counts).all()
    axioms.draw_profiles(rng, (BLOCK, axioms.N_RANGE[1]))
    size = rng.integers(2, counts + 1)
    keys = rng.random(mask.shape)
    members = nat["members"]
    assert (members.sum(axis=1) == size).all()
    assert set(size.tolist()) == set(range(2, axioms.N_RANGE[1] + 1))
    for k in range(BLOCK):
        lowest = np.argsort(keys[k, : counts[k]])[: size[k]]
        assert np.flatnonzero(members[k]).tolist() == sorted(lowest.tolist())


def _worst(values_and_problems):
    worst, witness = 0.0, None
    for value, problem in values_and_problems:
        if value > worst:
            worst, witness = value, problem
    return worst, witness


def test_worst_trial_ranks_nan_above_every_number():
    cfg = SampleConfig(seed=8, trials=4 * BLOCK)

    def measure(rule, block):
        first = rule.payoffs_batch(block)[:, 0]
        return np.where(first > 9.9, np.nan, first)

    worst, witness = axioms.worst_trial(rng_for(cfg.seed, "nan"), cfg, LF, measure)
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
    for trial, batch, k in _drawn_by_block(rng_for(cfg.seed, axiom), cfg, checker.draw):
        deviation, scale, _, _ = MEASURES[axiom](rule, axioms._trial(batch, k))
        if not deviation <= TOL * scale:
            return False, trial + 1
    return True, cfg.trials


def _block_outcome(axiom, rule, cfg):
    report = check_axiom(axiom, rule, cfg, TOL)
    return report.passed, report.trials_run


def _unstable_or_overflowing(problem):
    """Stable (pays incomes) in the middle, afam:A=const:0.5 (not stable) at low
    total income, and infinite payoffs, which no Problem accepts, at high."""
    if problem.total_income > 15.0:
        return [math.inf] * len(problem)
    if problem.total_income < -15.0:
        return parse_rule("afam:A=const:0.5").payoffs(problem)
    return problem.incomes


CHECK_CASES = {
    "stability-afam": ("stability", parse_rule("afam:A=const:0.5")),
    "dummy-full": ("dummy", parse_rule("full")),
    "nat-sqneed": ("nat", needs_squared_rule()),
    "income_additivity-lin": ("income_additivity", parse_rule("lin:0.3,0.2")),
    "homogeneity-lf": ("homogeneity", LF),
}


@pytest.mark.parametrize("case", CHECK_CASES)
@pytest.mark.parametrize("seed", [3, 4])
def test_check_axiom_matches_scalar_loop(case, seed):
    axiom, rule = CHECK_CASES[case]
    cfg = SampleConfig(seed=seed, trials=2 * BLOCK + 5)
    assert _block_outcome(axiom, rule, cfg) == _scalar_outcome(axiom, rule, cfg)


def test_a_rule_that_cannot_pay_a_trial_gives_a_verdict_or_a_rule_error():
    # A rule that pays some drawn trials infinite payoffs raises RuleError,
    # never a ValidationError; when every trial screened is paid, the
    # verdict is the scalar loop's. At ten trials a check, some seeds draw no
    # trial it cannot pay: a pass, a fail and a RuleError all occur.
    rule = CustomRule("mixed", _unstable_or_overflowing)
    message = "rule 'custom:mixed' does not allocate a sampled problem: NonFinite: "
    outcomes = set()
    for seed in range(12):
        cfg = SampleConfig(seed=seed, trials=10)
        try:
            outcome = _block_outcome("stability", rule, cfg)
        except RuleError as exc:
            assert str(exc).startswith(message)
            outcomes.add(RuleError)
        else:
            assert outcome == _scalar_outcome("stability", rule, cfg)
            outcomes.add(outcome[0])
    assert outcomes == {RuleError, False, True}


def _unstable_or_unpaid_at(unstable, unpaid):
    """Pays incomes, which is stable, but moves 1.0 from the last agent to the
    first on a problem whose first need is in unstable, and pays infinite
    payoffs, which no Problem accepts, on one whose first need is in unpaid."""

    def allocate(problem):
        if problem.needs[0] in unpaid:
            return [math.inf] * len(problem)
        payoffs = problem.incomes.copy()
        if problem.needs[0] in unstable:
            payoffs[0] += 1.0
            payoffs[-1] -= 1.0
        return payoffs

    return CustomRule("unstable-or-unpaid", allocate)


def test_an_unpaid_trial_raises_only_within_its_screened_batch(monkeypatch):
    cfg = SampleConfig(seed=11, trials=1000)
    needs = [p.needs[0] for p in _trials_in_order("stability", cfg)]
    # The first block is screened alone: a FAIL at trial 6 is reported, and
    # trial 301, which the rule cannot pay, is never screened.
    rule = _unstable_or_unpaid_at({needs[5]}, {needs[300]})
    report = check_axiom("stability", rule, cfg, TOL)
    assert (report.passed, report.trials_run) == (False, 6)
    # Trials 151 and 301, of the second and third draw blocks, are screened
    # in one batch, which raises RuleError though trial 151 violates;
    # screened a draw block at a time, trial 151 is reported first.
    rule = _unstable_or_unpaid_at({needs[150]}, {needs[300]})
    message = "rule 'custom:unstable-or-unpaid' does not allocate a sampled problem: NonFinite"
    with pytest.raises(RuleError, match=message):
        check_axiom("stability", rule, cfg, TOL)
    monkeypatch.setattr(axioms, "SCREEN_ROWS", BLOCK)
    report = check_axiom("stability", rule, cfg, TOL)
    assert (report.passed, report.trials_run) == (False, 151)


def _report_bits(value):
    """A report with every float as its bits and a Problem as its fields; the
    rule it was made for is left out."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, Problem):
        return _fields(value)
    if isinstance(value, (tuple, list)):
        return [_report_bits(v) for v in value]
    if isinstance(value, dict):
        return {key: _report_bits(v) for key, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {
            f.name: _report_bits(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name != "rule"
        }
    return value


def _sampled_outcomes(rule, cfg):
    """Every sampled report of a rule, as bits, or the error a check raised."""
    checks = [lambda axiom=axiom: check_axiom(axiom, rule, cfg, TOL) for axiom in ALL_AXIOMS]
    checks += [
        lambda: check_self_dual(rule, cfg, TOL),
        lambda: classify(rule, (-2.0, -1.0, 0.0, 1.0, 2.0), cfg, TOL),
    ]
    outcomes = []
    for check in checks:
        try:
            outcomes.append(_report_bits(check()))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _late_stability_fails():
    """Two rules that pay every problem and fail stability only at trial 701
    or 1201 of seed 12, in the second and third screened batches."""
    needs = [p.needs[0] for p in _trials_in_order("stability", SampleConfig(12, 2100))]
    return [_unstable_or_unpaid_at({needs[k]}, ()) for k in (700, 1200)]


@pytest.mark.parametrize("trials", [1, BLOCK - 1, BLOCK, BLOCK + 1, 1000, 2100])
def test_the_screen_unit_moves_no_bit_of_a_report(monkeypatch, trials):
    # Every axiom, self-duality and classify report of PROP and of each
    # negative control, needs_squared_rule among them, screened in batches
    # of SCREEN_ROWS trials and a draw block at a time, holds the same
    # verdict, trial count, counterexample, deviation, residual and witness;
    # so do stability FAILs in the second and third screened batches.
    cfg = SampleConfig(seed=12, trials=trials)
    everywhere = [PROP, *{format_rule(rule): rule for _, rule in NEGATIVE_CONTROLS}.values()]
    late = _late_stability_fails()

    def outcomes():
        return [_sampled_outcomes(rule, cfg) for rule in everywhere] + [
            _report_bits(check_axiom("stability", rule, cfg, TOL)) for rule in late
        ]

    batched = outcomes()
    monkeypatch.setattr(axioms, "SCREEN_ROWS", BLOCK)
    assert outcomes() == batched
    assert [report["trials_run"] for report in batched[-2:]] == [
        min(trials, 701),
        min(trials, 1201),
    ]


# One halving step of each chained axiom, as a step-by-step shrink takes it:
# the instance moved s of the way toward a trivial one.
def _halve_homogeneity(instance, s):
    return {**instance, "factor": 1.0 + (instance["factor"] - 1.0) * s}


def _halve_nat(instance, s):
    problem, modified = instance["problem"], instance["modified"]
    members = list(instance["members"])
    incomes, needs = problem.incomes.copy(), problem.needs.copy()
    incomes[members] = (1.0 - s) * incomes[members] + s * modified.incomes[members]
    needs[members] = (1.0 - s) * needs[members] + s * modified.needs[members]
    return {**instance, "modified": make_problem(problem.agents, incomes, needs)}


def _halve_extra_incomes(instance, s):
    return {**instance, "extra_incomes": tuple(s * e for e in instance["extra_incomes"])}


HALVING_STEPS = {
    "homogeneity": _halve_homogeneity,
    "nat": _halve_nat,
    "income_additivity": _halve_extra_incomes,
    "dual_income_additivity": _halve_extra_incomes,
}


def _reference_shrunk(axiom, rule, instance, measured):
    """The shrink one candidate at a time, each screened alone by _measures.

    Each step takes its first candidate that still violates, skips one the
    rule cannot pay, and shrinking stops at a step where none violates.
    """
    checker = axioms._CHECKERS[axiom]
    for step in range(axioms.MAX_SHRINK_STEPS):
        if axiom in HALVING_STEPS:
            candidates = [HALVING_STEPS[axiom](instance, 0.5 ** (step + 1))]
        else:
            candidates = checker.shrink(instance)
        for candidate in candidates:
            try:
                screened = axioms._measures(checker, rule, [candidate])[0]
            except RuleError:
                continue
            if not screened[0] <= TOL * screened[1]:
                instance, measured = candidate, screened
                break
        else:
            break
    return instance, measured


def _instance_bits(instance):
    """An instance with every float as its bits, a Problem as its fields."""
    out = {}
    for key, value in instance.items():
        if isinstance(value, Problem):
            out[key] = (value.agents, _bits(value.incomes), _bits(value.needs))
        elif isinstance(value, tuple):
            out[key] = tuple(float.hex(v) if isinstance(v, float) else v for v in value)
        else:
            out[key] = float.hex(value) if isinstance(value, float) else value
    return out


def _shrink_outcome(shrink):
    """The bits of a shrink's instance and measure, or the type of what it raised.

    Some negative controls index a second agent, so an instance shrunk to
    one agent raises IndexError; both shrinks must raise it alike.
    """
    try:
        instance, measured = shrink()
    except Exception as exc:
        return type(exc)
    return _instance_bits(instance), [_bits(v) for v in measured]


def _assert_shrunk_matches_reference(axiom, rule, instance):
    checker = axioms._CHECKERS[axiom]
    measured = axioms._measures(checker, rule, [instance])[0]
    shrunk = _shrink_outcome(lambda: axioms._shrunk(checker, rule, instance, measured, TOL))
    reference = _shrink_outcome(lambda: _reference_shrunk(axiom, rule, instance, measured))
    assert shrunk == reference, axiom
    return shrunk


def _assert_shrinks_match_reference(rule, seed, flagged=2):
    """Up to flagged violating trials of each axiom, shrunk both ways."""
    counts = np.array([2, 3, 4, 5, 6, 4, 3, 2, 6, 5, 3, 4])
    for axiom in ALL_AXIOMS:
        checker = axioms._CHECKERS[axiom]
        trials = axioms.draw_trials(rng_for(seed, "shrink"), counts, checker.draw)
        deviation, scale, _, _ = checker.screen(rule, trials)
        for k in np.flatnonzero(~(deviation <= TOL * scale))[:flagged].tolist():
            _assert_shrunk_matches_reference(axiom, rule, axioms._trial(trials, k))


@settings(max_examples=25, deadline=None)
@given(rule=nested_rules(2), seed=st.integers(0, 2**32 - 1))
def test_shrinking_a_round_at_a_time_matches_one_candidate_at_a_time(rule, seed):
    _assert_shrinks_match_reference(rule, seed)


@pytest.mark.parametrize(
    "rule", [rule for _, rule in NEGATIVE_CONTROLS], ids=[a for a, _ in NEGATIVE_CONTROLS]
)
def test_negative_controls_shrink_as_one_candidate_at_a_time(rule):
    for seed in (33, 1, 7):
        _assert_shrinks_match_reference(rule, seed, flagged=3)


# Homogeneity's halving chain from factor 3.0: its steps scale a problem of
# needs (1, 1) to total needs 2·f, f = 2.0, 1.25, 1.03125, 1.001953125, ...
CHAIN_FACTORS = (2.0, 1.25, 1.03125, 1.001953125)


def _homogeneous_except_at(violating, unpaid=(), raising=()):
    """Laissez-faire, which is homogeneous, but for a transfer at the total
    needs 2·f of the chain factors in violating, one value at those in
    unpaid, which no problem of 2 agents takes, and ZeroDivisionError at
    those in raising."""

    def allocate(problem):
        factor = problem.total_need / 2.0
        if factor in raising:
            raise ZeroDivisionError(f"factor {factor}")
        if factor in unpaid:
            return (problem.total_income,)
        if factor in violating:
            return (problem.incomes[0] + 1.0, problem.incomes[1] - 1.0)
        return problem.incomes

    return CustomRule("chain", allocate)


def _chain_start():
    return {"problem": make_problem((1, 2), (1.0, 2.0), (1.0, 1.0)), "factor": 3.0}


def test_a_halving_chain_stops_at_its_first_step_that_passes():
    # Steps 1 and 3 violate, step 2 does not: the shrink stops after step 1,
    # as a step-by-step loop does, although the chain screened step 3 too.
    rule = _homogeneous_except_at({3.0, CHAIN_FACTORS[0], CHAIN_FACTORS[2]})
    instance, measured = _assert_shrunk_matches_reference("homogeneity", rule, _chain_start())
    assert instance["factor"] == float.hex(CHAIN_FACTORS[0])
    assert measured[0] == [float.hex(1.0)]


def test_a_chain_the_rule_cannot_pay_is_screened_one_step_at_a_time():
    # Step 3 cannot be paid, so the chain's block raises RuleError; screened
    # one step at a time, steps 1 and 2 violate and step 3 ends the prefix,
    # though step 4 violates again.
    violating = {3.0, CHAIN_FACTORS[0], CHAIN_FACTORS[1], CHAIN_FACTORS[3]}
    rule = _homogeneous_except_at(violating, unpaid={CHAIN_FACTORS[2]})
    checker = axioms._CHECKERS["homogeneity"]
    chain = checker.shrink(_chain_start())
    with pytest.raises(RuleError, match="does not allocate a sampled problem"):
        axioms._measures(checker, rule, chain)
    instance, _ = _assert_shrunk_matches_reference("homogeneity", rule, _chain_start())
    assert instance["factor"] == float.hex(CHAIN_FACTORS[1])



def test_an_error_past_where_a_chain_stops_is_not_raised():
    # Step 1 violates and step 2 passes, so shrinking stops after step 1, as
    # a step-by-step loop does; the chain's block raises at step 3, which
    # that loop never screens, so the shrink does not raise it.
    rule = _homogeneous_except_at({3.0, CHAIN_FACTORS[0]}, raising={CHAIN_FACTORS[2]})
    checker = axioms._CHECKERS["homogeneity"]
    with pytest.raises(ZeroDivisionError):
        axioms._measures(checker, rule, checker.shrink(_chain_start()))
    instance, _ = _assert_shrunk_matches_reference("homogeneity", rule, _chain_start())
    assert instance["factor"] == float.hex(CHAIN_FACTORS[0])


def _unstable_except_at(total_income):
    """Moves 1.0 from the last agent to the first, which is not stable,
    and raises ZeroDivisionError on a problem of this total income."""

    def allocate(problem):
        if problem.total_income == total_income:
            raise ZeroDivisionError(f"total income {total_income}")
        payoffs = problem.incomes.copy()
        payoffs[0] += 1.0
        payoffs[-1] -= 1.0
        return payoffs

    return CustomRule("unstable", allocate)


def test_an_error_past_the_first_violating_drop_is_not_raised():
    # The drop round of incomes (1, 2, 4) screens agents (2, 3), (1, 3) and
    # (1, 2). The first violates stability, so a loop takes it and never
    # screens (1, 2), of total income 3.0, on which the rule raises; the
    # round's block raises there, and the shrink does not.
    rule = _unstable_except_at(3.0)
    instance = {"problem": make_problem((1, 2, 3), (1.0, 2.0, 4.0), (1.0, 1.0, 1.0))}
    checker = axioms._CHECKERS["stability"]
    with pytest.raises(ZeroDivisionError):
        axioms._measures(checker, rule, list(checker.shrink(instance)))
    shrunk, _ = _assert_shrunk_matches_reference("stability", rule, instance)
    assert shrunk["problem"][0] == (2, 3)
    # An error the loop does reach is raised: here the round's first drop.
    with pytest.raises(ZeroDivisionError):
        axioms._shrunk(checker, _unstable_except_at(6.0), instance, None, TOL)

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
    # first invalid row's Problem error, type and message, or hold each
    # row's totals, scale and every field of its Problem, bit for bit.
    width = max(len(y) for y, _ in rows)
    incomes, needs = np.zeros((2, len(rows), width))
    for k, (y, z) in enumerate(rows):
        incomes[k, : len(y)], needs[k, : len(z)] = y, z
    problems = []
    for y, z in rows:
        try:
            problems.append(make_problem(range(1, len(y) + 1), y, z))
        except ValidationError as exc:
            with pytest.raises(type(exc)) as raised:
                Block(incomes, needs, counts)
            assert str(raised.value) == str(exc)
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
# Continuity's probe builds one Block per halving.
BLOCKS_PER_BATCH = {
    "homogeneity": 1 + 1,
    "equal_treatment": 1,
    "continuity": 1 + axioms.CONTINUITY_STEPS + 1,
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
    cfg = SampleConfig(seed=3, trials=BLOCK + SCREEN + 5)
    assert check_axiom(axiom, PROP, cfg, TOL).passed
    # Three batches, the first block, a full batch and 5 trials, each of its
    # trials' agent counts at once.
    assert counts["blocks"] == 3 * BLOCKS_PER_BATCH[axiom]
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


def test_no_continuity_block_is_taller_than_its_batch(monkeypatch):
    # A check of one draw block, passing and failing: its probe, shrink and
    # re-checks build no Block taller than the BLOCK_TRIALS rows it screens.
    heights = []
    post_init = Block.__post_init__

    def recording_post_init(self):
        heights.append(len(self.incomes))
        post_init(self)

    monkeypatch.setattr(Block, "__post_init__", recording_post_init)
    cfg = SampleConfig(seed=3, trials=BLOCK)
    assert check_axiom("continuity", PROP, cfg, TOL).passed
    for name, rule in NEGATIVE_CONTROLS:
        if name == "continuity":
            assert not check_axiom("continuity", rule, cfg, TOL).passed
    assert heights and max(heights) == BLOCK, max(heights)


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
    # A check of one full screen batch after the first block, and one of 8
    # times as many trials, peak alike: batches of SCREEN_ROWS trials, each
    # probed one halving at a time, bound the memory.
    _continuity_peak(BLOCK + SCREEN)  # warm numpy's and the module's caches
    one = _continuity_peak(BLOCK + SCREEN)
    eight = _continuity_peak(BLOCK + 8 * SCREEN)
    assert eight <= 1.5 * one, (one, eight)


@pytest.mark.parametrize("padded", [False, True], ids=["probe", "padded"])
def test_a_custom_block_of_a_grid_probe_fills_one_buffer(padded):
    # A MAX_GRID_POINTS probe of a custom rule: 100,000 rows of 3 agents,
    # and as many rows padded from 2 agents. One float64 buffer of the
    # values and the payoffs (2.4 MB) bound the peak, not a Python list or
    # float object per value.
    rows = analysis.MAX_GRID_POINTS
    incomes, needs = axioms.draw_profiles(rng_for(6, "grid probe"), (rows, 3))
    counts = np.where(np.arange(rows) % 2, 2, 3) if padded else None
    if padded:
        incomes[1::2, 2] = needs[1::2, 2] = 0.0
    block = Block(incomes, needs, counts)
    rule = CustomRule("incomes", lambda problem: problem.incomes.tolist())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        payoffs = rule.payoffs_batch(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payoffs.tobytes() == block.incomes.tobytes()
    assert peak <= 6_000_000, peak
