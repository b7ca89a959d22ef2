import dataclasses
import functools
import math
import operator

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
from redistrib.core import left_sum, row_sums
from conftest import reference_problem


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
