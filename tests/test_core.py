import dataclasses
import functools
import math
import operator
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from redistrib import (
    Allocation,
    BalanceViolation,
    EmptyAgentSet,
    LengthMismatch,
    NegativeNeed,
    NonFinite,
    ZeroTotalNeed,
    aggregates,
    balance_tolerance,
    check_allocation,
    evaluate,
    make_problem,
    parse_rule,
    problem_scale,
)
from redistrib import Problem, core
from redistrib.core import Block, row_sums
from redistrib.rules import CustomRule, RuleError
from conftest import reference_problem
from scalar_measures import check_allocation_reference, left_sum


def test_aggregates_of_reference_problem():
    total_income, total_need, n = aggregates(reference_problem())
    assert total_income == 6.0
    assert total_need == 4.0
    assert n == 2


def test_incomes_may_be_negative():
    p = make_problem(("a", "b"), (-5.0, 2.0), (1.0, 1.0))
    assert p.total_income == -3.0


def test_ids_are_opaque_and_order_matters():
    p = make_problem((10, "x"), (1.0, 2.0), (1.0, 1.0))
    q = make_problem(("x", 10), (2.0, 1.0), (1.0, 1.0))
    assert p != q


def test_empty_agent_set_rejected():
    with pytest.raises(EmptyAgentSet):
        make_problem((), (), ())


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        make_problem(("a", "b"), (1.0,), (1.0, 2.0))
    with pytest.raises(LengthMismatch):
        make_problem(("a",), (1.0,), (1.0, 2.0))


def test_non_finite_entries_rejected():
    with pytest.raises(NonFinite):
        make_problem(("a",), (math.nan,), (1.0,))
    with pytest.raises(NonFinite):
        make_problem(("a",), (1.0,), (math.inf,))


@pytest.mark.parametrize(
    "incomes,needs,message",
    [
        ((1e308, 1e308), (1.0, 1.0), "total income inf is not finite"),
        ((-1e308, -1e308), (1.0, 1.0), "total income -inf is not finite"),
        ((1.0, 1.0), (1e308, 1e308), "total need inf is not finite"),
    ],
    ids=["income", "negative-income", "need"],
)
def test_overflowing_totals_rejected(incomes, needs, message):
    with pytest.raises(NonFinite, match=message):
        make_problem(("a", "b"), incomes, needs)


def test_totals_are_set_at_construction():
    p = make_problem(("a", "b", "c"), (0.1, 0.2, 0.3), (1.0, 2.0, 0.5))
    assert vars(p)["total_income"] == 0.1 + 0.2 + 0.3
    assert vars(p)["total_need"] == 3.5
    assert p == make_problem(("a", "b", "c"), (0.1, 0.2, 0.3), (1.0, 2.0, 0.5))
    assert "total" not in repr(p)


def test_negative_need_rejected():
    with pytest.raises(NegativeNeed):
        make_problem(("a", "b"), (1.0, 1.0), (2.0, -0.5))


def test_zero_total_need_rejected():
    with pytest.raises(ZeroTotalNeed):
        make_problem(("a", "b"), (5.0, 1.0), (0.0, 0.0))


def test_near_zero_total_need_rejected():
    # Anything inside the balance slack counts as zero.
    with pytest.raises(ZeroTotalNeed):
        make_problem(("a",), (1.0,), (1e-12,))


def test_large_incomes_do_not_shrink_the_need_domain():
    p = make_problem("ab", (1e12, 0.0), (50.0, 50.0))
    assert p.total_need == 100.0


def test_individual_zero_needs_are_fine():
    p = make_problem(("a", "b"), (1.0, 1.0), (0.0, 2.0))
    assert p.total_need == 2.0


def test_problem_is_immutable():
    p = reference_problem()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.incomes = (0.0, 0.0)


def test_problem_scale():
    assert problem_scale(reference_problem()) == 6.0
    small = make_problem(("a",), (0.1,), (0.2,))
    assert problem_scale(small) == 1.0


def test_balance_tolerance_scales_with_income():
    assert balance_tolerance(0.0) == 1e-9
    assert balance_tolerance(-2e6) == 2e-3


def test_check_allocation_verdicts():
    p = reference_problem()
    good = check_allocation(p, (2.0, 4.0))
    assert good.passed and good.residual == 0.0
    bad = check_allocation(p, (2.0, 5.0))
    assert not bad.passed
    assert bad.residual == pytest.approx(1.0)
    # scaled by the larger of sum |income| = 6 and sum |allocation| = 7
    assert bad.tolerance == balance_tolerance(7.0)


def test_check_allocation_rejects_malformed_input():
    p = reference_problem()
    with pytest.raises(LengthMismatch):
        check_allocation(p, (6.0,))
    with pytest.raises(NonFinite):
        check_allocation(p, (math.nan, 6.0))


def test_allocation_enforces_balance_on_construction():
    p = reference_problem()
    Allocation(p, (1.5, 4.5))
    with pytest.raises(BalanceViolation):
        Allocation(p, (1.5, 5.5))
    with pytest.raises(LengthMismatch):
        Allocation(p, (6.0,))


def _mirrored_incomes():
    # 200k incomes from U(-1e6, 1e6) and their negatives: total about -6e-7
    rng = np.random.default_rng(0)
    half = rng.uniform(-1e6, 1e6, 100_000)
    needs = rng.uniform(0.0, 10.0, 200_000)
    incomes = np.concatenate([half, -half])
    return make_problem(range(200_000), incomes.tolist(), needs.tolist())


def _zero_incomes_large_needs():
    needs = np.random.default_rng(0).uniform(0.0, 1e6, 200_000)
    return make_problem(range(200_000), [0.0] * 200_000, needs.tolist())


@pytest.mark.parametrize(
    "build,specs",
    [
        (_mirrored_incomes, ("nafr", "lin:0.3,0.2", "convex(lf;prop;0.3)")),
        (_zero_incomes_large_needs, ("nafr",)),
    ],
    ids=["mirrored-incomes", "zero-incomes-large-needs"],
)
def test_balance_check_scales_with_cancelling_terms(build, specs):
    # The sums cancel to near zero, so their rounding error dwarfs |total|.
    p = build()
    for spec in specs:
        allocation = evaluate(parse_rule(spec), p)
        assert check_allocation(p, allocation.values).passed, spec


def test_allocation_total():
    p = reference_problem()
    assert Allocation(p, (2.5, 3.5)).total == 6.0


@st.composite
def problems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    reals = st.floats(
        min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
    )
    needs = st.floats(
        min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False
    )
    return make_problem(
        tuple(range(n)),
        tuple(draw(reals) for _ in range(n)),
        tuple(draw(needs) for _ in range(n)),
    )


def _added_left_to_right(values):
    return functools.reduce(operator.add, values, 0.0)


@given(problems())
def test_aggregates_match_plain_sums(p):
    total_income, total_need, n = aggregates(p)
    assert total_income == _added_left_to_right(p.incomes)
    assert total_need == _added_left_to_right(p.needs)
    assert n == len(p.agents)


def test_totals_add_left_to_right_as_row_sums_do():
    # A compensated sum (Python 3.12's sum()) gives 1.0 here.
    incomes = (1e16, 1.0, -1e16)
    p = make_problem(("a", "b", "c"), incomes, (1.0, 1.0, 1.0))
    assert p.total_income == 0.0 == row_sums(np.array([incomes]))[0]
    assert left_sum(incomes) == 0.0
    assert Allocation(p, incomes).total == 0.0


@given(problems())
def test_incomes_balance_themselves(p):
    verdict = check_allocation(p, p.incomes)
    assert verdict.passed
    assert verdict.residual == 0.0


def _bits(value):
    return struct.pack("<d", value)


# Finite floats with signed zeros, ties and magnitudes whose sums overflow.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 1.7e308, -1.7e308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _row_sums_quietly(values):
    """row_sums, with the column loop's overflow warnings, and only those, off.

    The chunked branch silences its own; it must raise none.
    """
    values = np.array(values, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if values.shape[1] <= values.shape[0]:
            with np.errstate(over="ignore", invalid="ignore"):
                return row_sums(values)
        return row_sums(values)


def _same_bits(total, expected):
    # NaN bits are not compared: which NaN an addition returns is the CPU's.
    return _bits(total) == _bits(expected) or math.isnan(total) and math.isnan(expected)


# Blocks of rows of one length, with inf and NaN entries too: each shape,
# (1, n), (m, 1) and (m, n), falls on either side of row_sums' shape test.
_SUM_ROWS = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(
            st.one_of(EDGE_FLOATS, st.sampled_from([math.inf, -math.inf, math.nan])),
            min_size=n,
            max_size=n,
        ),
        min_size=1,
        max_size=6,
    )
)


@given(_SUM_ROWS)
def test_row_sums_is_left_sum_bit_for_bit(rows):
    expected = [left_sum(row) for row in rows]
    # Chunks of 1 and 2 entries carry the running total across chunks.
    for block in (core._SUM_BLOCK, 2, 3):
        with mock.patch.object(core, "_SUM_BLOCK", block):
            totals = _row_sums_quietly(rows)
        assert totals.shape == (len(rows),)
        assert all(map(_same_bits, totals.tolist(), expected)), (block, rows)


def test_row_sums_over_many_chunks():
    # Rows three chunks long, one row alone and two stacked, against the
    # same rows stacked tall enough to be added a column at a time.
    rng = np.random.default_rng(0)
    n = 2 * core._SUM_BLOCK + 3
    values = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-8, 17, (2, n))
    expected = [_bits(left_sum(row)) for row in values.tolist()]
    assert [_bits(row_sums(values[k : k + 1])[0]) for k in range(2)] == expected
    assert list(map(_bits, row_sums(values))) == expected
    tall = np.zeros((n, 64))
    tall[:2] = values[:, :64]
    assert list(map(_bits, row_sums(tall)[:2])) == [
        _bits(left_sum(row[:64])) for row in values.tolist()
    ]
    assert _bits(row_sums(np.abs(values[:1]))[0]) == _bits(left_sum(map(abs, values[0].tolist())))


def test_row_sums_of_signed_zeros_and_overflow():
    for values, expected in [
        ([-0.0], "0.0"),
        ([-0.0, -0.0], "0.0"),
        ([0.0, -0.0], "0.0"),
        ([], "0.0"),
        ([1.7e308, 1.7e308], "inf"),
        ([-1.7e308, -1.7e308, 1.0], "-inf"),
        ([1e16, 1.0, -1e16], "0.0"),
        ([1.7e308, 1.7e308, -math.inf], "nan"),
        ([-math.inf, 1.7e308], "-inf"),
    ]:
        # The row alone, and as every row of a block at least as tall as wide.
        for height in (1, max(1, len(values))):
            totals = _row_sums_quietly([values] * height)
            assert [repr(total) for total in totals.tolist()] == [expected] * height


# Entries float() takes, float() refuses, and non-finite ones.
ENTRIES = st.one_of(
    EDGE_FLOATS,
    EDGE_FLOATS,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([math.inf, -math.inf, math.nan, "1.5", " -2 ", "x", "", None, 1j, 10**400]),
)


@st.composite
def balance_cases(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    incomes = draw(st.lists(EDGE_FLOATS, min_size=n, max_size=n))
    needs = draw(
        st.lists(st.floats(min_value=0.5, max_value=1e6), min_size=n, max_size=n)
    )
    try:
        problem = make_problem(range(n), incomes, needs)
    except NonFinite:
        # Five incomes of at most 1.8e308 / 8 sum to a finite total.
        problem = make_problem(range(n), [y / 8 for y in incomes], needs)
    values = draw(
        st.one_of(
            st.just(list(problem.incomes)),
            st.lists(EDGE_FLOATS, min_size=n, max_size=n),
            st.lists(ENTRIES, min_size=n - 1, max_size=n + 1),
        )
    )
    return problem, values


def _outcome(check, problem, values):
    try:
        verdict = check(problem, values)
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return type(exc), str(exc)
    assert type(verdict.passed) is bool
    return verdict.passed, _bits(verdict.residual), _bits(verdict.tolerance)


@given(balance_cases())
def test_check_allocation_matches_the_scalar_reference(case):
    problem, values = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outcome = _outcome(check_allocation, problem, values)
    assert outcome == _outcome(check_allocation_reference, problem, values)


def test_check_allocation_names_the_first_bad_entry():
    p = make_problem(range(4), (1.0, 2.0, 3.0, 4.0), (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(NonFinite, match=r"^allocation entry -inf is not finite$"):
        check_allocation(p, (1.0, -math.inf, math.nan, 4.0))
    # float() refuses an entry before any entry is checked for finiteness.
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        check_allocation(p, (math.nan, 2.0, "x", 4.0))
    with pytest.raises(TypeError):
        check_allocation(p, (1.0, None, 3.0, 4.0))


def test_a_sum_that_overflows_does_not_balance():
    # Sum |income| overflows, so the tolerance is inf; so does the sum of the
    # values, which total 2e308, not 0.
    p = make_problem(["a", "b"], [1.7e308, -1.7e308], [1, 1])
    verdict = check_allocation(p, [1e308, 1e308])
    assert verdict.tolerance == math.inf and verdict.residual == math.inf
    assert not verdict.passed
    rule = CustomRule("overflowing", lambda problem: [1e308, 1e308])
    with pytest.raises(RuleError, match="BalanceViolation: allocation sums to inf"):
        evaluate(rule, p)
    # Incomes that cancel still balance themselves.
    assert check_allocation(p, p.incomes).passed


def test_problem_arrays_are_a_read_only_copy_outside_equality():
    p = make_problem(("a", "b"), (1.0, -0.0), (2.0, 0.0))
    q = make_problem(("a", "b"), (1.0, -0.0), (2.0, 0.0))
    for column in (p.incomes, p.needs):
        assert type(column) is np.ndarray and column.dtype == np.float64
        assert not column.flags.writeable
    assert [_bits(y) for y in p.incomes.tolist()] == [_bits(1.0), _bits(-0.0)]
    with pytest.raises(ValueError):
        p.incomes[0] = 5.0
    with pytest.raises(ValueError):
        p.needs[0] = 5.0
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    # -0.0 and 0.0 are equal problems with equal hashes, as in a tuple.
    signed = make_problem(("a", "b"), (1.0, 0.0), (2.0, -0.0))
    assert signed == p and hash(signed) == hash(p)
    assert p != make_problem(("a", "b"), (1.0, 0.5), (2.0, 0.0))
    assert p != make_problem(("b", "a"), (1.0, -0.0), (2.0, 0.0))
    assert [f.name for f in dataclasses.fields(p)] == [
        "agents", "incomes", "needs", "total_income", "total_need",
    ]


def test_problem_copies_the_columns_it_is_given():
    incomes, needs = [1.0, 2.0], np.array([1.0, 3.0])
    for build in (make_problem, Problem):
        p = build(("a", "b"), incomes, needs)
        incomes[0] = needs[0] = 9.0
        assert p.incomes.tolist() == [1.0, 2.0] and p.needs.tolist() == [1.0, 3.0]
        incomes[0] = needs[0] = 1.0


def test_make_problem_coerces_each_entry_through_float():
    # float(None) raises TypeError; np.array would have made it a NaN.
    with pytest.raises(TypeError):
        make_problem(("a", "b"), (1.0, None), (1.0, 1.0))
    with pytest.raises(TypeError):
        make_problem(("a",), (1.0,), (None,))
    p = make_problem(iter("ab"), ("1.5", True), (x for x in (False, "2")))
    assert p.incomes.tolist() == [1.5, 1.0] and p.needs.tolist() == [0.0, 2.0]
    assert p.agents == ("a", "b")


def test_problem_stores_its_agents_as_a_tuple():
    p = Problem(["a", "b"], [1.0, 2.0], [1.0, 1.0])
    assert type(p.agents) is tuple and p.agents == ("a", "b")
    assert hash(p) == hash(make_problem(("a", "b"), (1.0, 2.0), (1.0, 1.0)))


def test_allocation_values_are_a_read_only_float64_array():
    p = reference_problem()
    allocation = Allocation(p, [2, "4"])
    assert allocation.values.dtype == np.float64 and allocation.values.tolist() == [2.0, 4.0]
    with pytest.raises(ValueError):
        allocation.values[0] = 0.0
    same = Allocation(p, (2.0, 4.0))
    assert allocation == same and hash(allocation) == hash(same)
    zero = make_problem(("a", "b"), (0.0, 1.0), (1.0, 1.0))
    signed = Allocation(zero, (-0.0, 1.0))
    assert signed == Allocation(zero, (0.0, 1.0))
    assert hash(signed) == hash(Allocation(zero, (0.0, 1.0)))


def test_block_arrays_are_read_only_and_rows_are_views_of_them():
    block = Block(np.ones((2, 3)), np.ones((2, 3)), np.array([3, 2]))
    for array in (block.incomes, block.needs):
        with pytest.raises(ValueError):
            array[0, 0] = 5.0
    row = block.problem(1)
    assert row.incomes.tolist() == [1.0, 1.0] and not row.incomes.flags.writeable
    assert np.shares_memory(row.incomes, block.incomes)
    assert np.shares_memory(row.needs, block.needs)


@pytest.mark.parametrize("agents", [None, ("a", "b", "c", "d")], ids=["padded", "ids"])
def test_block_problems_are_its_rows_as_problem_gives_them(agents):
    # Rows of 4, 2 and 3 agents padded to 4, numbered 1..n or named by ids.
    incomes = np.array([[1.0, -2.0, 3.0, 0.5], [4.0, 5.0, 0.0, 0.0], [-0.0, 6.0, 7.0, 0.0]])
    needs = np.array([[1.0, 0.0, 2.0, 3.0], [0.5, 0.5, 0.0, 0.0], [1.0, 2.0, 3.0, 0.0]])
    block = Block(incomes, needs, np.array([4, 2, 3]), agents)
    rows = list(block.problems())
    assert len(rows) == 3
    for k, row in enumerate(rows):
        alone = block.problem(k)
        assert row.agents == alone.agents == (agents or (1, 2, 3, 4))[: len(alone)]
        for name in ("incomes", "needs"):
            column = getattr(row, name)
            assert column.tobytes() == getattr(alone, name).tobytes()
            assert not column.flags.writeable
            assert np.shares_memory(column, getattr(block, name)[k])
        assert (row.total_income, row.total_need) == (alone.total_income, alone.total_need)
        assert type(row.total_income) is type(row.total_need) is float
    assert [r.total_income for r in rows] == block.total_income.tolist()
    assert [r.total_need for r in rows] == block.total_need.tolist()


@pytest.mark.parametrize(
    "incomes,needs,error,message",
    [
        ((1.0, math.nan), (1.0, -1.0), NonFinite, "income nan is not finite"),
        ((1.0, 1.0), (math.inf, -1.0), NonFinite, "need inf is not finite"),
        ((1e308, 1e308), (2.0, -0.5), NegativeNeed, "need -0.5 is negative"),
        ((1e308, 1e308), (1e308, 1e308), NonFinite, "total income inf is not finite"),
        ((1.0, 1.0), (1e308, 1e308), NonFinite, "total need inf is not finite"),
        ((1.0, 1.0), (0.0, 0.0), ZeroTotalNeed, "total need 0.0 is not positive"),
    ],
    ids=["income", "need", "negative-need", "total-income", "total-need", "zero-total-need"],
)
def test_a_padded_block_raises_its_invalid_row_error(incomes, needs, error, message):
    # Row 1 of three, of 2 agents padded to 3, is invalid; rows 0 and 2 are
    # valid. The block raises the error and message the row raises alone.
    block_incomes = np.array([[1.0, 2.0, 3.0], [*incomes, 0.0], [4.0, 0.0, 0.0]])
    block_needs = np.array([[1.0, 1.0, 1.0], [*needs, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(error, match=f"^{message}$"):
        Block(block_incomes, block_needs, np.array([3, 2, 1]))
    with pytest.raises(error, match=f"^{message}$"):
        make_problem("ab", incomes, needs)


def test_evaluate_coerces_a_weighted_rule_payoffs_once(monkeypatch):
    calls = []
    original = core.float_column

    def counting(values):
        calls.append(len(values))
        return original(values)

    monkeypatch.setattr(core, "float_column", counting)
    p = reference_problem()
    for spec in ("prop", "convex(lf;full;0.3)", "dual(lin:0.3,0.2)"):
        calls.clear()
        evaluate(parse_rule(spec), p)
        assert calls == [len(p)], spec
