"""Redistribution problems over income and need profiles, and their allocations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
        total_income = left_sum(self.incomes)
        total_need = left_sum(self.needs)
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

    @classmethod
    def _checked(
        cls,
        agents: tuple[Hashable, ...],
        incomes: tuple[float, ...],
        needs: tuple[float, ...],
        total_income: float,
        total_need: float,
    ) -> Problem:
        """A Problem of entries already checked as __post_init__ checks them.

        total_income and total_need are the entries' left_sum totals. Nothing
        is checked or summed again.
        """
        problem = object.__new__(cls)
        vars(problem).update(
            agents=agents,
            incomes=incomes,
            needs=needs,
            total_income=total_income,
            total_need=total_need,
        )
        return problem

    def __len__(self) -> int:
        return len(self.agents)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only float64 copies of incomes and needs, made on first use.

        Not a field, so equality, hashing and repr see only the tuples.
        """
        arrays = tuple(
            np.fromiter(column, float, count=len(column))
            for column in (self.incomes, self.needs)
        )
        for array in arrays:
            array.flags.writeable = False
        return arrays


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


def left_sum(values: Iterable[float]) -> float:
    """Sum left to right, rounding once per addition, as row_sums adds a row.

    Not sum(): from Python 3.12 it compensates float rounding, so its totals
    would depend on the Python version and stop matching row_sums.
    """
    total = 0.0
    for value in values:
        total += value
    return total


# Entries array_left_sum adds per np.cumsum call, which bounds its scratch.
_SUM_BLOCK = 1 << 16


def array_left_sum(values: np.ndarray) -> float:
    """left_sum of a 1-D array, bit for bit.

    np.cumsum adds strictly in order, unlike np.sum's pairwise sum. Each
    block of entries is added after the running total, which starts from
    +0.0 as left_sum's does (so an all-(-0.0) sum is +0.0), and the scratch
    array np.cumsum writes stays one block long.
    """
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(values), _SUM_BLOCK):
            block = values[start : start + _SUM_BLOCK]
            scratch = np.empty(len(block) + 1)
            scratch[0], scratch[1:] = total, block
            total = float(np.cumsum(scratch, out=scratch)[-1])
    return total


def row_sums(values: np.ndarray) -> np.ndarray:
    """Sum each row left to right from +0.0, exactly as Problem totals its tuples."""
    total = np.zeros(len(values))
    for column in values.T:
        total += column
    return total


@dataclass(frozen=True, eq=False)
class Block:
    """Problems of up to n agents, one per row of an income and a need (m, n) array.

    Row k is the problem of agents 1..counts[k]; counts default to n for
    every row. The columns past a row's count are padding and hold income
    0.0 and need 0.0, and rules pay them 0.0. Totals start from +0.0, so a
    row total is never -0.0 and adding a padded 0.0 leaves it as it is: a
    padded row's totals equal those of the same row unpadded, bit for bit.

    Validated once, when built: a row is accepted exactly when Problem
    accepts it, and for an invalid block the first invalid row is built as
    a Problem to raise its error. Each row's totals are summed left to
    right, as Problem sums its tuples. The arrays are held, not copied.
    """

    incomes: np.ndarray
    needs: np.ndarray
    counts: np.ndarray | None = None
    total_income: np.ndarray = field(init=False, repr=False)
    total_need: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        incomes, needs = self.incomes, self.needs
        if incomes.ndim != 2 or incomes.shape != needs.shape:
            raise LengthMismatch(
                f"got income and need blocks of shapes {incomes.shape} and {needs.shape}"
            )
        if incomes.shape[1] == 0:
            raise EmptyAgentSet("a problem needs at least one agent")
        if self.counts is None:
            object.__setattr__(self, "counts", np.full(len(incomes), incomes.shape[1]))
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
        object.__setattr__(self, "total_income", total_income)
        object.__setattr__(self, "total_need", total_need)
        if not valid.all():
            # Built again through Problem's checks, the row raises its error.
            row = self.problem(int(np.argmin(valid)))
            Problem(row.agents, row.incomes, row.needs)

    @property
    def scales(self) -> np.ndarray:
        """problem_scale of each row."""
        return np.maximum(np.maximum(1.0, np.abs(self.total_income)), self.total_need)

    def problem(self, k: int) -> Problem:
        """Row k as a Problem of agents 1..counts[k].

        The row was checked when the block was built, so its entries are not
        checked again and the Problem takes the row's totals.
        """
        n = int(self.counts[k])
        return Problem._checked(
            tuple(range(1, n + 1)),
            tuple(self.incomes[k, :n].tolist()),
            tuple(self.needs[k, :n].tolist()),
            float(self.total_income[k]),
            float(self.total_need[k]),
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
        return left_sum(self.values)


@dataclass(frozen=True)
class BalanceVerdict:
    """Outcome of checking whether a payoff vector balances a problem."""

    passed: bool
    residual: float
    tolerance: float


def check_allocation(problem: Problem, values: Sequence[float]) -> BalanceVerdict:
    """Check that values sum to the problem's total income, within tolerance.

    Raises LengthMismatch or NonFinite for malformed input, and whatever
    float() raises on an entry; balance itself is reported in the verdict
    rather than raised. Values go through float() into one array, and each
    total is its left_sum. A sum that overflows balances nothing, so a
    residual that is not finite fails.
    """
    if len(values) != len(problem):
        raise LengthMismatch(f"{len(values)} values for {len(problem)} agents")
    # Both sums of absolute values bound the rounding of the totals, which
    # they can dwarf when positive and negative entries cancel. Incomes' is
    # taken first, before values are copied, and values' in place, so one
    # column-sized scratch array is held at a time.
    income_scale = array_left_sum(np.abs(problem._arrays[0]))
    coerced = np.fromiter(map(float, values), float, count=len(values))
    finite = np.isfinite(coerced)
    if not finite.all():
        value = float(coerced[np.argmin(finite)])
        raise NonFinite(f"allocation entry {value!r} is not finite")
    residual = array_left_sum(coerced) - problem.total_income
    value_scale = array_left_sum(np.abs(coerced, out=coerced))
    tolerance = balance_tolerance(max(income_scale, value_scale))
    passed = math.isfinite(residual) and abs(residual) <= tolerance
    return BalanceVerdict(passed, residual, tolerance)
