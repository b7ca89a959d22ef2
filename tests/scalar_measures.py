"""Scalar references for the array code: the payoff kernel, the balance check
and the axiom measures.

ab_payoffs_reference is the payoff kernel on Python floats, one agent at a
time; redistrib.rules computes it only on numpy blocks.

check_allocation_reference is the balance check on Python floats, one
entry at a time; redistrib.core checks and totals values only as an array.
left_sum is the sum those references add with, one float at a time, as
core.row_sums adds each row.

Each measure re-derives its axiom on one trial's instance, built from
Problem columns and rule payoffs read as Python floats, and returns (deviation, scale,
expected, observed) as check_axiom reports them. The block screens in
redistrib.axioms are the product's only measure; these stay here so the
tests can compare the screen against a second derivation. They can go once
exact verdicts for the polynomial grammar check the sampler.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from redistrib.axioms import CONTINUITY_STEPS, CONTINUITY_TAIL
from redistrib.core import (
    BalanceVerdict,
    LengthMismatch,
    NonFinite,
    balance_tolerance,
    make_problem,
    problem_scale,
)


def left_sum(values: Iterable[float]) -> float:
    """Sum left to right from +0.0, rounding once per addition.

    Not sum(): from Python 3.12 it compensates float rounding, so its totals
    would depend on the Python version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def check_allocation_reference(problem, values):
    """check_allocation on Python floats: the same errors, in the same order,
    and a verdict of the same bits.
    """
    if len(values) != len(problem):
        raise LengthMismatch(f"{len(values)} values for {len(problem)} agents")
    coerced = tuple(float(v) for v in values)
    for value in coerced:
        if not math.isfinite(value):
            raise NonFinite(f"allocation entry {value!r} is not finite")
    tolerance = balance_tolerance(
        max(left_sum(map(abs, problem.incomes.tolist())), left_sum(map(abs, coerced)))
    )
    residual = left_sum(coerced) - problem.total_income
    passed = math.isfinite(residual) and abs(residual) <= tolerance
    return BalanceVerdict(passed, residual, tolerance)


def ab_payoffs_reference(problem, a, b):
    """ȳ + a(y−ȳ) + b(z−z̄) for each agent, rounding as ab_payoffs_batch does.

    a·y + (1−a)·ȳ keeps a = 1 and a = 0 exact; for |a| > 1 its two terms
    cancel, so the deviation form is used there.
    """
    n = len(problem)
    mean_income = problem.total_income / n
    mean_need = problem.total_need / n
    rows = list(zip(problem.incomes.tolist(), problem.needs.tolist()))
    if abs(a) > 1.0:
        return tuple(
            mean_income + (y - mean_income) * a + (z - mean_need) * b for y, z in rows
        )
    rest = mean_income * (1.0 - a)
    return tuple(y * a + rest + (z - mean_need) * b for y, z in rows)


def _payoffs(rule, problem) -> tuple[float, ...]:
    return tuple(rule.payoffs(problem).tolist())


def _peak(values: Iterable[float]) -> float:
    """The largest value, or NaN if any value is NaN."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _max_abs_diff(xs: Sequence[float], ys: Sequence[float]) -> float:
    return _peak(abs(u - v) for u, v in zip(xs, ys))


def _measure_homogeneity(rule, instance):
    problem, factor = instance["problem"], instance["factor"]
    scaled = make_problem(
        problem.agents,
        tuple(factor * y for y in problem.incomes.tolist()),
        tuple(factor * z for z in problem.needs.tolist()),
    )
    expected = tuple(factor * x for x in _payoffs(rule, problem))
    observed = _payoffs(rule, scaled)
    # Rounding grows with the payoffs, which can dwarf the problem's totals.
    scale = max(problem_scale(problem), problem_scale(scaled), *map(abs, observed))
    return _max_abs_diff(observed, expected), scale, expected, observed


def _measure_equal_treatment(rule, instance):
    problem = instance["problem"]
    x = _payoffs(rule, problem)
    i = problem.agents.index(instance["first"])
    j = problem.agents.index(instance["second"])
    return abs(x[i] - x[j]), problem_scale(problem), (x[i], x[i]), (x[i], x[j])


def _measure_continuity(rule, instance):
    problem = instance["problem"]
    base = _payoffs(rule, problem)
    income_dir = instance["income_dir"]
    need_dir = instance["need_dir"]
    delta = instance["base_delta"]
    scale = max(problem_scale(problem), *map(abs, base))
    gaps: list[float] = []
    for _ in range(CONTINUITY_STEPS + 1):
        nearby = make_problem(
            problem.agents,
            tuple(y + delta * u for y, u in zip(problem.incomes.tolist(), income_dir)),
            tuple(z + delta * v for z, v in zip(problem.needs.tolist(), need_dir)),
        )
        moved = _payoffs(rule, nearby)
        gaps.append(_max_abs_diff(moved, base))
        scale = max(scale, *map(abs, moved))
        delta *= 0.5
    # Violation when the gap fails to vanish, or grows along the tail. A
    # continuous rule's gap may grow at the first, large steps, before the
    # perturbation is small enough for the rule to look linear.
    tail = gaps[-(CONTINUITY_TAIL + 1):]
    growth = [later - earlier for earlier, later in zip(tail, tail[1:])]
    worst = _peak([gaps[-1]] + growth)
    return worst, scale, None, tuple(gaps)


def _measure_nat(rule, instance):
    problem, modified = instance["problem"], instance["modified"]
    members = instance["members"]
    before = _payoffs(rule, problem)
    after = _payoffs(rule, modified)
    group_before = left_sum(before[k] for k in members)
    group_after = left_sum(after[k] for k in members)
    scale = max(problem_scale(problem), problem_scale(modified))
    return (
        abs(group_after - group_before),
        scale,
        (group_before,),
        (group_after,),
    )


def _measure_stability(rule, instance):
    problem = instance["problem"]
    once = _payoffs(rule, problem)
    again = _payoffs(rule, make_problem(problem.agents, once, problem.needs))
    return _max_abs_diff(once, again), problem_scale(problem), once, again


def _measure_dummy(rule, instance):
    problem = instance["problem"]
    k = problem.agents.index(instance["agent"])
    x = _payoffs(rule, problem)
    return abs(x[k]), problem_scale(problem), (0.0,), (x[k],)


def _measure_income_additivity(rule, instance):
    problem = instance["problem"]
    extra = instance["extra_incomes"]
    second = make_problem(problem.agents, extra, problem.needs)
    combined = make_problem(
        problem.agents,
        tuple(y + e for y, e in zip(problem.incomes.tolist(), extra)),
        problem.needs,
    )
    expected = tuple(
        u + v for u, v in zip(_payoffs(rule, problem), _payoffs(rule, second))
    )
    observed = _payoffs(rule, combined)
    scale = max(
        problem_scale(problem), problem_scale(second), problem_scale(combined)
    )
    return _max_abs_diff(observed, expected), scale, expected, observed


def _measure_dual_income_additivity(rule, instance):
    problem = instance["problem"]
    extra = instance["extra_incomes"]
    combined = make_problem(
        problem.agents,
        tuple(y + e for y, e in zip(problem.incomes.tolist(), extra)),
        problem.needs,
    )
    needs = problem.needs.tolist()
    shifted = make_problem(
        problem.agents, tuple(z + e for z, e in zip(needs, extra)), problem.needs
    )
    observed = tuple(z + r for z, r in zip(needs, _payoffs(rule, combined)))
    expected = tuple(
        u + v for u, v in zip(_payoffs(rule, problem), _payoffs(rule, shifted))
    )
    scale = max(
        problem_scale(problem), problem_scale(combined), problem_scale(shifted)
    )
    return _max_abs_diff(observed, expected), scale, expected, observed


MEASURES = {
    "homogeneity": _measure_homogeneity,
    "equal_treatment": _measure_equal_treatment,
    "continuity": _measure_continuity,
    "nat": _measure_nat,
    "stability": _measure_stability,
    "dummy": _measure_dummy,
    "income_additivity": _measure_income_additivity,
    "dual_income_additivity": _measure_dual_income_additivity,
}
