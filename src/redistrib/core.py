"""Redistribution problems over income and need profiles, and their allocations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


def balance_tolerance(magnitude: float | np.ndarray) -> float | np.ndarray:
    """Absolute slack allowed when checking a sum whose terms have this size.

    Pass the sum of the terms' absolute values, not the sum itself: when
    terms cancel, the rounding error of a sum scales with its terms. An
    array of magnitudes gives an array of slacks, a float a float.
    """
    slack = BALANCE_REL_TOL * np.maximum(1.0, np.abs(magnitude))
    return slack if isinstance(magnitude, np.ndarray) else float(slack)


def check_tol(tol: float) -> None:
    """Reject a comparison tolerance that is not positive and finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def float_column(values: Iterable[float]) -> np.ndarray:
    """A new read-only float64 array of the values, each through float().

    A float64 array, which float() would leave as it is, is copied whole.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
        column = values.copy()
    else:
        count = len(values) if hasattr(values, "__len__") else -1
        column = np.fromiter(map(float, values), float, count=count)
    column.setflags(write=False)
    return column


class _TupleEquality:
    """Equality and hash of a dataclass that holds float_column arrays.

    They compare its compared fields, each array as the tuple of its floats,
    so -0.0 equals 0.0 and hashes alike, as in a tuple.
    """

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self) if f.compare)
        return tuple(tuple(v.tolist()) if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class Problem(_TupleEquality):
    """An ordered set of agents, each with an income and a non-negative need.

    Incomes may be negative. Total need must be strictly positive because
    rules divide by it. Agent identity is the opaque id plus its position;
    two problems are equal only if agents appear in the same order. Agents
    are a tuple, incomes and needs float_column arrays.
    """

    agents: tuple[Hashable, ...]
    incomes: np.ndarray
    needs: np.ndarray
    total_income: float = field(init=False, repr=False, compare=False)
    total_need: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        agents = tuple(self.agents)
        incomes, needs = float_column(self.incomes), float_column(self.needs)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "incomes", incomes)
        object.__setattr__(self, "needs", needs)
        n = len(agents)
        if len(incomes) != n or len(needs) != n:
            raise LengthMismatch(f"got {n} agents, {len(incomes)} incomes, {len(needs)} needs")
        if n == 0:
            raise EmptyAgentSet("a problem needs at least one agent")
        finite = np.isfinite(incomes)
        if not finite.all():
            raise NonFinite(f"income {float(incomes[np.argmin(finite)])!r} is not finite")
        # The first need that is not finite or is negative names the error.
        bad = ~np.isfinite(needs) | (needs < 0)
        if bad.any():
            value = float(needs[np.argmax(bad)])
            if not math.isfinite(value):
                raise NonFinite(f"need {value!r} is not finite")
            raise NegativeNeed(f"need {value!r} is negative")
        total_income, total_need = array_left_sum(incomes), array_left_sum(needs)
        for name, total in (("income", total_income), ("need", total_need)):
            if not math.isfinite(total):
                raise NonFinite(f"total {name} {total!r} is not finite")
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
    return Problem(ids, incomes, needs)


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
    """Sum each row left to right from +0.0, exactly as Problem totals its columns."""
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
    right, as Problem sums its columns. The arrays are held, not copied,
    and marked read-only, so each row's Problem is a view of them.
    """

    incomes: np.ndarray
    needs: np.ndarray
    counts: np.ndarray | None = None
    total_income: np.ndarray = field(init=False, repr=False)
    total_need: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        incomes, needs = self.incomes, self.needs
        incomes.setflags(write=False)
        needs.setflags(write=False)
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
                & (total_need > balance_tolerance(total_need))
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

        The row was checked when the block was built, so nothing is checked,
        copied or summed again: its columns are read-only views of the
        block's arrays and the Problem takes the row's totals.
        """
        n = int(self.counts[k])
        problem = object.__new__(Problem)
        vars(problem).update(
            agents=tuple(range(1, n + 1)),
            incomes=self.incomes[k, :n],
            needs=self.needs[k, :n],
            total_income=float(self.total_income[k]),
            total_need=float(self.total_need[k]),
        )
        return problem


def aggregates(problem: Problem) -> tuple[float, float, int]:
    """Total income, total need, and the number of agents."""
    return problem.total_income, problem.total_need, len(problem)


def problem_scale(problem: Problem) -> float:
    """Magnitude used to scale comparison tolerances for this problem."""
    return max(1.0, abs(problem.total_income), problem.total_need)


@dataclass(frozen=True, eq=False)
class Allocation(_TupleEquality):
    """Payoff vector for a problem, a float_column array; entries sum to its total income."""

    problem: Problem
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", float_column(self.values))
        verdict = check_allocation(self.problem, self.values)
        if not verdict.passed:
            total_income = self.problem.total_income
            raise BalanceViolation(
                f"allocation sums to {total_income + verdict.residual!r}, "
                f"expected {total_income!r}"
            )

    @property
    def total(self) -> float:
        return array_left_sum(self.values)


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
    rather than raised. Values go through float_column, and each total is
    its left_sum. A sum that overflows balances nothing, so a residual that
    is not finite fails.
    """
    if len(values) != len(problem):
        raise LengthMismatch(f"{len(values)} values for {len(problem)} agents")
    values = float_column(values)
    finite = np.isfinite(values)
    if not finite.all():
        value = float(values[np.argmin(finite)])
        raise NonFinite(f"allocation entry {value!r} is not finite")
    residual = array_left_sum(values) - problem.total_income
    # Both sums of absolute values bound the rounding of the totals, which
    # they can dwarf when positive and negative entries cancel.
    income_scale = array_left_sum(np.abs(problem.incomes))
    value_scale = array_left_sum(np.abs(values))
    tolerance = balance_tolerance(max(income_scale, value_scale))
    passed = math.isfinite(residual) and abs(residual) <= tolerance
    return BalanceVerdict(passed, residual, tolerance)
