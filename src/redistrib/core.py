"""Redistribution problems over income and need profiles, and their allocations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

BALANCE_REL_TOL = 1e-9


class ValidationError(ValueError):
    """A domain invariant was violated."""


class EmptyAgentSet(ValidationError):
    """The agent list is empty."""


class LengthMismatch(ValidationError):
    """Agent, income, and need sequences disagree in length."""


class NonFinite(ValidationError):
    """An income, need, or allocation entry is NaN or infinite."""


class NegativeNeed(ValidationError):
    """A need entry is negative."""


class ZeroTotalNeed(ValidationError):
    """Total need is zero, or too close to zero to divide by."""


class BalanceViolation(ValidationError):
    """Allocation values do not sum to the problem's total income."""


def balance_tolerance(magnitude: float) -> float:
    """Absolute slack allowed when checking a sum whose terms have this size.

    Pass the sum of the terms' absolute values, not the sum itself: when
    terms cancel, the rounding error of a sum scales with its terms.
    """
    return BALANCE_REL_TOL * max(1.0, abs(magnitude))


@dataclass(frozen=True)
class Problem:
    """An ordered set of agents, each with an income and a non-negative need.

    Incomes may be negative. Total need must be strictly positive because
    rules divide by it. Agent identity is the opaque id plus its position;
    two problems are equal only if agents appear in the same order.
    """

    agents: tuple[Hashable, ...]
    incomes: tuple[float, ...]
    needs: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.agents)
        if len(self.incomes) != n or len(self.needs) != n:
            raise LengthMismatch(
                f"got {n} agents, {len(self.incomes)} incomes, {len(self.needs)} needs"
            )
        if n == 0:
            raise EmptyAgentSet("a problem needs at least one agent")
        for value in self.incomes:
            if not math.isfinite(value):
                raise NonFinite(f"income {value!r} is not finite")
        for value in self.needs:
            if not math.isfinite(value):
                raise NonFinite(f"need {value!r} is not finite")
            if value < 0:
                raise NegativeNeed(f"need {value!r} is negative")
        # Needs are non-negative, so their sum cannot cancel; only a total
        # within the slack of its own scale is too close to zero.
        if self.total_need <= balance_tolerance(self.total_need):
            raise ZeroTotalNeed(f"total need {self.total_need!r} is not positive")

    def __len__(self) -> int:
        return len(self.agents)

    @cached_property
    def total_income(self) -> float:
        # Plain left-to-right sum; no pairwise or compensated summation, so
        # results are reproducible across platforms.
        return float(sum(self.incomes))

    @cached_property
    def total_need(self) -> float:
        return float(sum(self.needs))


def make_problem(
    ids: Iterable[Hashable],
    incomes: Iterable[float],
    needs: Iterable[float],
) -> Problem:
    """Build a validated problem, coercing entries to float."""
    return Problem(
        tuple(ids),
        tuple(float(v) for v in incomes),
        tuple(float(v) for v in needs),
    )


def aggregates(problem: Problem) -> tuple[float, float, int]:
    """Total income, total need, and the number of agents."""
    return problem.total_income, problem.total_need, len(problem)


def problem_scale(problem: Problem) -> float:
    """Magnitude used to scale comparison tolerances for this problem."""
    return max(1.0, abs(problem.total_income), problem.total_need)


@dataclass(frozen=True)
class Allocation:
    """Payoff vector for a problem; entries sum to the problem's total income."""

    problem: Problem
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        verdict = check_allocation(self.problem, self.values)
        if not verdict.passed:
            total_income = self.problem.total_income
            raise BalanceViolation(
                f"allocation sums to {total_income + verdict.residual!r}, "
                f"expected {total_income!r}"
            )

    @property
    def total(self) -> float:
        return float(sum(self.values))


@dataclass(frozen=True)
class BalanceVerdict:
    """Outcome of checking whether a payoff vector balances a problem."""

    passed: bool
    residual: float
    tolerance: float


def check_allocation(problem: Problem, values: Sequence[float]) -> BalanceVerdict:
    """Check that values sum to the problem's total income, within tolerance.

    Raises LengthMismatch or NonFinite for malformed input; balance itself
    is reported in the verdict rather than raised.
    """
    if len(values) != len(problem):
        raise LengthMismatch(f"{len(values)} values for {len(problem)} agents")
    coerced = tuple(float(v) for v in values)
    for value in coerced:
        if not math.isfinite(value):
            raise NonFinite(f"allocation entry {value!r} is not finite")
    # Both sums round in proportion to the size of their terms, which can
    # dwarf the totals when positive and negative entries cancel.
    tolerance = balance_tolerance(
        max(sum(map(abs, problem.incomes)), sum(map(abs, coerced)))
    )
    residual = float(sum(coerced)) - problem.total_income
    return BalanceVerdict(abs(residual) <= tolerance, residual, tolerance)
