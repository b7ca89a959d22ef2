"""Redistribution problems over income and need profiles, and their allocations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

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


def check_tol(tol: float) -> None:
    """Reject a comparison tolerance that is not positive and finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


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
    total_income: float = field(init=False, repr=False, compare=False)
    total_need: float = field(init=False, repr=False, compare=False)

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
        # Plain left-to-right sums; no pairwise or compensated summation, so
        # results are reproducible across platforms.
        total_income = float(sum(self.incomes))
        total_need = float(sum(self.needs))
        if not math.isfinite(total_income):
            raise NonFinite(f"total income {total_income!r} is not finite")
        if not math.isfinite(total_need):
            raise NonFinite(f"total need {total_need!r} is not finite")
        # Needs are non-negative, so their sum cannot cancel; only a total
        # within the slack of its own scale is too close to zero.
        if total_need <= balance_tolerance(total_need):
            raise ZeroTotalNeed(f"total need {total_need!r} is not positive")
        object.__setattr__(self, "total_income", total_income)
        object.__setattr__(self, "total_need", total_need)

    def __len__(self) -> int:
        return len(self.agents)


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


def row_sums(values: np.ndarray) -> np.ndarray:
    """Sum each row left to right, adding exactly as Problem totals its tuples."""
    total = np.zeros(len(values))
    for column in values.T:
        total += column
    return total


def block_totals(
    incomes: np.ndarray, needs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a block of problems, one per row, and return their totals.

    A row is accepted exactly when Problem accepts it; for an invalid block,
    the first invalid row is built as a Problem to raise its error.
    """
    if incomes.ndim != 2 or incomes.shape != needs.shape:
        raise LengthMismatch(
            f"got income and need blocks of shapes {incomes.shape} and {needs.shape}"
        )
    if incomes.shape[1] == 0:
        raise EmptyAgentSet("a problem needs at least one agent")
    with np.errstate(over="ignore", invalid="ignore"):
        total_income, total_need = row_sums(incomes), row_sums(needs)
        # A NaN or infinite entry makes its row's total NaN or infinite, so
        # finite totals also vouch for every entry.
        valid = (
            np.isfinite(total_income)
            & np.isfinite(total_need)
            & (needs >= 0.0).all(axis=1)
            & (total_need > BALANCE_REL_TOL * np.maximum(1.0, np.abs(total_need)))
        )
    if not valid.all():
        k = int(np.argmin(valid))
        make_problem(range(incomes.shape[1]), incomes[k].tolist(), needs[k].tolist())
    return total_income, total_need


def block_scales(incomes: np.ndarray, needs: np.ndarray) -> np.ndarray:
    """problem_scale of each row of a block of valid problems."""
    return np.maximum(np.maximum(1.0, np.abs(row_sums(incomes))), row_sums(needs))


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
