"""Allocation rules: the catalog forms, their families, and combinations.

Every rule maps a problem to one payoff vector that exhausts total income.
Each catalog form is one row of the _FORMS table: its field labels and
one expression of its two deviation weights at the problem's
income-to-need ratio. A WeightedRule is a form with its field values.
RuleSpec.weights_at is the one evaluation of a rule's weights: it pays on
floats, and at the exact t, a polynomial with rational coefficients, gives
the exact weights a closed-form dual spells. Every rule is evaluated on a
core.Block of problems by RuleSpec.payoffs_batch, and one problem is its
one-row Block. A rule with weights pays through ab_payoffs_batch, the one
payoff kernel; a convex mixture or a dual around a rule without weights
mixes or reflects its inner rule's block payoffs, and a custom rule's
function pays each row, its vector length-checked, into one buffer. The
reflection lives beside DualRule: of weights in DualRule.weights_at, of
payoffs in reflected_payoffs on a block and dual_payoffs on one problem.
"""

from __future__ import annotations

import math
import numbers
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import zip_longest
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .core import (
    DEFAULT_TOL,
    Allocation,
    Block,
    Problem,
    ValidationError,
    check_count,
    check_tol,
)

if TYPE_CHECKING:
    from fractions import Fraction


class InvalidWeight(ValueError):
    """Convex combination weight outside [0, 1]."""


class ParseError(ValueError):
    """A rule or function spec string could not be parsed."""


class RuleError(ValueError):
    """A rule's payoffs on a valid problem are not an allocation of it.

    Not a ValidationError: the problem is valid, so the rule is at fault.
    """


# Parameters each function kind takes; poly takes one or more.
_ARITY = {"const": 1, "id": 0, "scale": 1, "affine": 2, "poly": None}


@dataclass(frozen=True)
class ScalarFn:
    """Serializable polynomial of one real variable, evaluated on floats or arrays.

    Kinds: ``const:c``, ``id``, ``scale:c`` (c*t), ``affine:a,b`` (a*t + b),
    and ``poly:c0,c1,...`` with ascending coefficients.
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind == "poly":
            if not self.params:
                raise ValueError("poly needs at least one coefficient")
        elif self.kind in _ARITY:
            if len(self.params) != _ARITY[self.kind]:
                raise ValueError(
                    f"{self.kind} takes {_ARITY[self.kind]} parameters, "
                    f"got {len(self.params)}"
                )
        else:
            raise ValueError(f"unknown function kind {self.kind!r}")
        for p in self.params:
            if not math.isfinite(p):
                raise ValueError(f"parameter {p!r} is not finite")

    def __call__(self, t: Ratio) -> Ratio:
        *rest, acc = self.coefficients()
        for c in reversed(rest):
            acc = acc * t + c
        return acc

    def coefficients(self) -> tuple[float, ...]:
        """Ascending polynomial coefficients equal to this function."""
        if self.kind == "id":
            return (0.0, 1.0)
        if self.kind == "scale":
            return (0.0, self.params[0])
        if self.kind == "affine":
            return (self.params[1], self.params[0])
        return self.params  # const:c is the polynomial c

    @staticmethod
    def constant(c: float) -> "ScalarFn":
        return ScalarFn("const", (c,))

    @staticmethod
    def identity() -> "ScalarFn":
        return ScalarFn("id")

    @staticmethod
    def scaled(c: float) -> "ScalarFn":
        return ScalarFn("scale", (c,))

    @staticmethod
    def affine(slope: float, intercept: float) -> "ScalarFn":
        return ScalarFn("affine", (slope, intercept))

    @staticmethod
    def poly(*coeffs: float) -> "ScalarFn":
        return ScalarFn("poly", tuple(coeffs))


def from_coefficients(coeffs: Sequence[float]) -> ScalarFn:
    """Smallest catalog function with the given ascending coefficients."""
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0.0:
        trimmed.pop()
    if not trimmed:
        return ScalarFn.constant(0.0)
    if len(trimmed) == 1:
        return ScalarFn.constant(trimmed[0])
    if len(trimmed) == 2:
        intercept, slope = trimmed
        if slope == 1.0 and intercept == 0.0:
            return ScalarFn.identity()
        if intercept == 0.0:
            return ScalarFn.scaled(slope)
        return ScalarFn.affine(slope, intercept)
    return ScalarFn.poly(*trimmed)


FnLike = Union[ScalarFn, Callable[[float], float]]
Ratio = Union[float, np.ndarray, "_Exact"]


def _weight(fn: FnLike, t: Ratio) -> Ratio:
    """fn at t; a plain callable takes one float, so an array goes entry by entry."""
    if isinstance(t, _Exact):
        if not isinstance(fn, ScalarFn):
            raise _Inexact
        return _Exact.of(fn(t))
    if not isinstance(t, np.ndarray):
        return float(fn(t))
    if isinstance(fn, ScalarFn):
        return fn(t)
    return np.array([float(fn(x)) for x in t.tolist()])


def _one_row(batch: Callable[[Block], np.ndarray], problem: Problem) -> np.ndarray:
    """batch's payoffs of the problem's one-row block, as a read-only float64 array."""
    with np.errstate(over="ignore", invalid="ignore"):
        row = batch(Block.of(problem))[0]
    row.setflags(write=False)
    return row


class RuleSpec:
    """A rule maps each problem to the unique payoff vector its formula defines."""

    def payoffs(self, problem: Problem) -> np.ndarray:
        """Each agent's payoff, as a read-only float64 array: the problem's one-row block."""
        return _one_row(self.payoffs_batch, problem)

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio] | None:
        """(A(t), B(t)) if the rule pays ȳ + A(t)(y−ȳ) + B(t)(z−z̄), else None.

        For an array of ratios t, a weight is an array or one float for all.
        At the exact t, each weight is an exact polynomial in t.
        """
        return None

    def exact_weights(self) -> tuple[_Exact, _Exact] | None:
        """weights_at the exact t: (A, B) as exact polynomials; None if the rule
        has no weights, or a weight is a plain callable or a real not finite."""
        try:
            return self.weights_at(_EXACT_T)
        except _Inexact:
            return None

    def payoffs_batch(self, block: Block) -> np.ndarray:
        """Payoffs of a block of problems, one row per problem.

        A rule with weights takes them in one weights_at call on the array of
        row ratios and pays through ab_payoffs_batch; any other rule pays
        through its _unweighted_batch: a mixture or a dual from its inner
        rules' block payoffs, a custom rule by calling its function on each
        row and gathering the values in one buffer. Padded columns are
        paid 0.0. Overflow warnings are left to the caller; payoffs
        silences them.
        """
        weights = self.weights_at(block.total_income / block.total_need)
        if weights is None:
            return self._unweighted_batch(block)
        return ab_payoffs_batch(block, *weights)

    def _unweighted_batch(self, block: Block) -> np.ndarray:
        """payoffs_batch of a rule whose weights_at gives None."""
        raise NotImplementedError


def ab_payoffs_batch(block: Block, a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray:
    """Payoffs ȳ + a(y−ȳ) + b(z−z̄) of each row of a block of problems.

    Each row has its own a and b; a float weight holds for every row. The
    means divide the rows' totals by their counts, and the columns past a
    row's count are paid 0.0.
    """
    incomes, counts = block.incomes, block.counts
    a, b = np.reshape(a, (-1, 1)), np.reshape(b, (-1, 1))
    mean_income = (block.total_income / counts)[:, None]
    need_terms = (block.needs - (block.total_need / counts)[:, None]) * b
    # a·y + (1−a)·ȳ rather than ȳ + a(y−ȳ): with a = 1 and b = 0 every
    # other term is zero, so incomes come back exactly, and with a = 0 the
    # equal split does. For |a| > 1 its two terms cancel (a 1-agent problem
    # at a = 1e300 would pay 0.0), so those rows take the deviation form.
    payoffs = incomes * a + mean_income * (1.0 - a) + need_terms
    large = np.abs(a) > 1.0
    if large.any():
        deviation = mean_income + (incomes - mean_income) * a + need_terms
        payoffs = np.where(large, deviation, payoffs)
    return np.where(block.agent_mask, payoffs, 0.0)


# The catalog forms, by the name that spells each. A form gives a label per
# field, "A=" or "B=" before a weight function and "" before a real, and its
# weights (A(t), B(t)) as one expression of t and its field values. The same
# expression pays, on floats or arrays, and gives exact weights, on _Exact
# polynomials; the order is the one in which a closed-form dual is spelled.
_FORMS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "lf": ((), lambda t: (1.0, 0.0)),
    "full": ((), lambda t: (0.0, 0.0)),
    "prop": ((), lambda t: (0.0, t)),
    "nafr": ((), lambda t: (0.0, 1.0)),
    "lin": (("", ""), lambda t, c1, c2: (c1, c2 * t)),
    "lindual": (("", ""), lambda t, c1, c2: (c1, c2 * t + 1.0 - c1 - c2)),
    "afam": (("A=",), lambda t, a: (a, (1.0 - a) * t)),
    "bfam": (("B=",), lambda t, b: (0.0, b)),
    "ab": (("A=", "B="), lambda t, a, b: (a, b)),
}


@dataclass(frozen=True)
class WeightedRule(RuleSpec):
    """A catalog form ȳ + A(t)(y−ȳ) + B(t)(z−z̄), t = Y/Z, with its field values.

    The form names a row of _FORMS; fields holds one value per label, in
    label order: a ScalarFn, or a plain callable of one float, after "A="
    or "B=", and a real after ""; a value of another kind is refused. The
    weights are evaluated once per problem, at its income-to-need ratio.
    """

    form: str
    fields: tuple = ()

    def __post_init__(self) -> None:
        if self.form not in _FORMS or len(self.fields) != len(_FORMS[self.form][0]):
            raise ValueError(f"no catalog form {self.form!r} with {len(self.fields)} fields")
        labels = _FORMS[self.form][0]
        for label, value in zip(labels, self.fields):
            if not (callable(value) if label else isinstance(value, numbers.Real)):
                raise ValueError(
                    f"no catalog form {self.form!r} with field {label}{value!r};"
                    f" it takes {_usage(labels)}"
                )

    # Named here, not only inherited, so that perfbench's tracer, which wraps
    # the payoffs each direct RuleSpec subclass names, counts this class's.
    payoffs = RuleSpec.payoffs

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio]:
        labels, weights = _FORMS[self.form]
        exact = isinstance(t, _Exact)
        pairs = zip(labels, self.fields)
        a, b = weights(t, *[_weight(v, t) if k else _Exact.of(v) if exact else v for k, v in pairs])
        return (_Exact.of(a), _Exact.of(b)) if exact else (a, b)


class _Inexact(Exception):
    """A weight with no exact value: a plain callable's, or a real not finite."""


class _Exact:
    """A polynomial in t with exact rational coefficients, in ascending order.

    It has the arithmetic weights_at uses at the exact t, and a finite float
    operand counts at its exact value. fractions is imported on first use,
    so paying a rule never loads it.
    """

    def __init__(self, coeffs: Iterable) -> None:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def of(value: object) -> _Exact:
        """value as a polynomial: itself, or a finite real as a constant."""
        from fractions import Fraction

        if isinstance(value, _Exact):
            return value
        if not math.isfinite(value):
            raise _Inexact
        return _Exact((Fraction(value),))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Exact) and self.coeffs == other.coeffs

    def __add__(self, other: object) -> _Exact:
        terms = zip_longest(self.coeffs, _Exact.of(other).coeffs, fillvalue=0)
        return _Exact(u + v for u, v in terms)

    def __neg__(self) -> _Exact:
        return _Exact(-c for c in self.coeffs)

    def __sub__(self, other: object) -> _Exact:
        return self + -_Exact.of(other)

    def __rsub__(self, other: object) -> _Exact:
        return -self + other

    def __mul__(self, other: object) -> _Exact:
        other = _Exact.of(other).coeffs
        product = [0] * (len(self.coeffs) + len(other))
        for i, u in enumerate(self.coeffs):
            for j, v in enumerate(other):
                product[i + j] += u * v
        return _Exact(product)

    __radd__, __rmul__ = __add__, __mul__


# The ratio t itself, as an exact polynomial; its integer coefficients need no fractions.
_EXACT_T = _Exact((0, 1))


def _rounded(c: Fraction) -> float:
    """c rounded once; ±inf past the float range, which ScalarFn refuses."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def spelled_rule(a: _Exact, b: _Exact, form: str) -> WeightedRule:
    """The catalog rule with exact weights (a, b), each field rounded once.

    It is spelled in the given form if that form's expression gives (a, b)
    exactly, else in the first form of _FORMS that does; ab gives any. An
    A= field holds a and a B= field b, and the reals of lin and lindual
    are a's constant and b's slope, each a constant polynomial.
    """
    for name in (form, *_FORMS):
        labels = _FORMS[name][0]
        reals = iter((_Exact(a.coeffs[:1]), _Exact(b.coeffs[1:2])))
        fields = [a if label == "A=" else b if label == "B=" else next(reals) for label in labels]
        if tuple(map(_Exact.of, _FORMS[name][1](_EXACT_T, *fields))) == (a, b):
            break
    rounded = [
        from_coefficients([_rounded(c) for c in f.coeffs]) if label else _rounded(sum(f.coeffs))
        for label, f in zip(labels, fields)
    ]
    return catalog_rule(name, rounded)


@dataclass(frozen=True)
class ConvexCombination(RuleSpec):
    """Pointwise mix of two rules, with the given weight on the first.

    Weights mix as w·(A₁, B₁) + (1−w)·(A₂, B₂); payoffs mix when a rule has none.
    """

    first: RuleSpec
    second: RuleSpec
    weight: float

    def __post_init__(self) -> None:
        w = self.weight
        if not (isinstance(w, (int, float)) and math.isfinite(w) and 0.0 <= w <= 1.0):
            raise InvalidWeight(f"weight {w!r} is not in [0, 1]")

    def _mix(self, u: Ratio, v: Ratio) -> Ratio:
        """w·u + (1−w)·v, of two weights or two payoff arrays, exact ones with the exact w."""
        w = _Exact.of(self.weight) if isinstance(u, _Exact) else self.weight
        return w * u + (1.0 - w) * v

    payoffs = RuleSpec.payoffs  # named for perfbench's tracer, as WeightedRule's

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio] | None:
        first, second = self.first.weights_at(t), self.second.weights_at(t)
        return None if first is None or second is None else tuple(map(self._mix, first, second))

    def _unweighted_batch(self, block: Block) -> np.ndarray:
        return self._mix(self.first.payoffs_batch(block), self.second.payoffs_batch(block))


@dataclass(frozen=True)
class DualRule(RuleSpec):
    """Applies the reflection operator to another rule.

    Weights reflect to (A(1−t), 1 − A(1−t) − B(1−t)); else the problems do.
    """

    inner: RuleSpec

    payoffs = RuleSpec.payoffs  # named for perfbench's tracer, as WeightedRule's

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio] | None:
        weights = self.inner.weights_at(1.0 - t)
        return None if weights is None else (weights[0], 1.0 - weights[0] - weights[1])

    def _unweighted_batch(self, block: Block) -> np.ndarray:
        return reflected_payoffs(self.inner, block)


def reflected_payoffs(rule: RuleSpec, block: Block) -> np.ndarray:
    """Payoffs of the rule's dual, z − R(z − y, z), on each row of a block.

    The reflected block, of incomes z − y, keeps the block's agents. An
    entry that overflows is refused as NonFinite, by the reflected block or
    by the Allocation of the payoffs.
    """
    needs = block.needs
    reflected = Block(needs - block.incomes, needs, block.counts, block.agents)
    return needs - rule.payoffs_batch(reflected)


def dual_payoffs(rule: RuleSpec, problem: Problem) -> np.ndarray:
    """reflected_payoffs of one problem, as a read-only float64 array."""
    return _one_row(lambda block: reflected_payoffs(rule, block), problem)


@dataclass(frozen=True)
class CustomRule(RuleSpec):
    """Escape hatch for rules given as a plain function of the problem.

    Not expressible in the rule-string grammar; intended for tests and
    library callers. Its function pays one problem. A block of any shape,
    and so the one-row block of payoffs, calls it on each row's Problem, as
    Block.problems gives it, and places every row's values at the block's
    agents from one float64 buffer, refused as LengthMismatch unless it
    pays each agent once.
    """

    name: str
    allocate: Callable[[Problem], Sequence[float]]

    def _unweighted_batch(self, block: Block) -> np.ndarray:
        """Each row's function payoffs, gathered in one buffer.

        Rows are paid in order, each a Problem from Block.problems, and each
        row's values, whatever sequence holds them, go through float() into
        one float64 buffer. The first row not paid once per agent raises
        LengthMismatch, and no later row is paid. The buffer fills the
        block's agent entries, through Block.agent_mask, in one assignment.
        """
        values = array("d")
        for problem in block.problems():
            row = list(map(float, self.allocate(problem)))
            check_count(len(row), problem)
            values.fromlist(row)
        payoffs = np.zeros(block.incomes.shape)
        payoffs[block.agent_mask] = np.frombuffer(values)
        return payoffs


LF, FULL, PROP, NAFR = (WeightedRule(name) for name in ("lf", "full", "prop", "nafr"))
_FIXED = {rule.form: rule for rule in (LF, FULL, PROP, NAFR)}


def catalog_rule(name: str, values: Sequence = ()) -> WeightedRule:
    """The catalog form spelled name with these field values, or its one instance."""
    return WeightedRule(name, tuple(values)) if values else _FIXED[name]


def evaluate(rule: RuleSpec, problem: Problem) -> Allocation:
    """Apply a rule to a problem; the result is balance-checked on construction.

    The problem is valid, so payoffs that do not allocate it raise RuleError.
    """
    with blame_rule(rule, "this problem"):
        return Allocation(problem, rule.payoffs(problem))


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Worst payoff disagreement between two rules over a set of problems."""

    passed: bool
    max_deviation: float
    witness: Problem | None
    agent_index: int | None


def equivalent_on(
    first: RuleSpec,
    second: RuleSpec,
    problems: Sequence[Problem],
    tol: float = DEFAULT_TOL,
) -> EquivalenceVerdict:
    """Compare two rules payoff-by-payoff over the given problems."""
    check_tol(tol)
    worst = 0.0
    witness: Problem | None = None
    where: int | None = None
    for problem in problems:
        x1, x2 = first.payoffs(problem), second.payoffs(problem)
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = np.abs(x1 - x2)
        # argmax picks the first NaN, else the first of the largest gaps.
        i = int(np.argmax(gaps))
        gap = float(gaps[i])
        # No gap exceeds NaN's, so the first NaN is the verdict.
        if math.isnan(gap):
            return EquivalenceVerdict(False, gap, problem, i)
        if gap > worst:
            worst, witness, where = gap, problem, i
    return EquivalenceVerdict(worst <= tol, worst, witness, where)


def _format_real(x: float) -> str:
    return repr(float(x))


def format_scalar_fn(fn: FnLike) -> str:
    """Spec-string form of a catalog function; callables get a placeholder."""
    if not isinstance(fn, ScalarFn):
        return f"<{getattr(fn, '__name__', 'callable')}>"
    if fn.kind == "id":
        return "id"
    return f"{fn.kind}:" + ",".join(_format_real(p) for p in fn.params)


def parse_scalar_fn(text: str) -> ScalarFn:
    """Parse ``const:<r> | id | scale:<r> | affine:<r>,<r> | poly:<r>[,<r>...]``."""
    s = text.strip()
    if s == "id":
        return ScalarFn.identity()
    head, sep, rest = s.partition(":")
    if not sep:
        raise ParseError(f"unknown function {_excerpt(text)!r}")
    values = [_parse_real(tok) for tok in rest.split(",")] if rest else []
    # id is spelled without a colon.
    if head == "id" or head not in _ARITY:
        raise ParseError(f"unknown function kind {_excerpt(head)!r}")
    try:
        return ScalarFn(head, tuple(values))
    except ValueError:
        raise ParseError(f"wrong number of parameters in {_excerpt(text)!r}") from None


def _parse_real(token: str) -> float:
    try:
        value = float(token.strip())
    except ValueError:
        raise ParseError(f"expected a number, got {_excerpt(token.strip())!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"number {_excerpt(token.strip())!r} is not finite")
    return value


def _split_top(text: str, sep: str) -> list[str]:
    """Split on a separator, ignoring occurrences inside parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ')' in {_excerpt(text)!r}")
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced '(' in {_excerpt(text)!r}")
    parts.append("".join(current))
    return parts


# The deepest nesting of convex(...) and dual(...) parse_rule accepts.
# Parsing, evaluating and formatting a rule recurse once per level, so the
# cap keeps every rule far from Python's recursion limit.
MAX_RULE_DEPTH = 64
_TOO_DEEP = f"rule nests convex and dual more than {MAX_RULE_DEPTH} deep"


def parse_rule(text: str, _depth: int = 0) -> RuleSpec:
    """Parse a rule spec string.

    Grammar::

        lf | full | prop | nafr
        | ab:A=<fn>,B=<fn> | afam:A=<fn> | bfam:B=<fn>
        | lin:<r>,<r> | lindual:<r>,<r>
        | convex(<rule>;<rule>;<weight>) | dual(<rule>)

    The catalog forms are read from _FORMS. convex and dual nest at most
    MAX_RULE_DEPTH deep.
    """
    if _depth > MAX_RULE_DEPTH:
        raise ParseError(_TOO_DEEP)
    s = text.strip()
    if s.startswith("convex(") and s.endswith(")"):
        parts = _split_top(s[len("convex(") : -1], ";")
        if len(parts) != 3:
            raise ParseError(f"convex takes rule;rule;weight, got {_excerpt(text)!r}")
        return ConvexCombination(
            parse_rule(parts[0], _depth + 1),
            parse_rule(parts[1], _depth + 1),
            _parse_real(parts[2]),
        )
    if s.startswith("dual(") and s.endswith(")"):
        inner = s[len("dual(") : -1]
        # Reject trailing junk like "dual(lf)x" by checking balance.
        _split_top(inner, "\x00")
        return DualRule(parse_rule(inner, _depth + 1))
    name, colon, body = s.partition(":")
    labels = _FORMS[name][0] if name in _FORMS else None
    # A form without fields is spelled by its name alone, any other with a colon.
    if labels is None or bool(colon) != bool(labels):
        raise ParseError(f"unknown rule {_excerpt(text)!r}")
    texts = _split_fields(body, labels)
    if texts is None:
        raise ParseError(f"{name} takes {_usage(labels)}, got {_excerpt(text)!r}")
    values = [parse_scalar_fn(t) if label else _parse_real(t) for label, t in zip(labels, texts)]
    return catalog_rule(name, values)


def _split_fields(body: str, labels: Sequence[str]) -> list[str] | None:
    """The text of each labelled field of body, or None if they are not all there.

    A field starts at the comma before its label. A real is one number; a
    function runs on, commas and all, to the next field.
    """
    texts: list[str] = []
    for token in body.split(",") if labels else ():
        if len(texts) < len(labels) and token.startswith(labels[len(texts)]):
            texts.append(token[len(labels[len(texts)]) :])
        elif texts and labels[len(texts) - 1]:
            texts[-1] += "," + token
        else:
            return None
    return texts if len(texts) == len(labels) else None


def _usage(labels: Sequence[str]) -> str:
    """How a catalog form's fields are spelled, as its parse errors say it."""
    if any(labels):
        return ",".join(f"{label}<fn>" if label else "<r>" for label in labels)
    return f"{('one', 'two', 'three', 'four')[len(labels) - 1]} coefficients"


def format_rule(rule: RuleSpec) -> str:
    """Spec-string form of a rule; inverse of parse_rule for catalog rules."""
    if isinstance(rule, WeightedRule):
        labels = _FORMS[rule.form][0]
        texts = (
            label + (format_scalar_fn(value) if label else _format_real(value))
            for label, value in zip(labels, rule.fields)
        )
        return f"{rule.form}:{','.join(texts)}" if labels else rule.form
    if isinstance(rule, ConvexCombination):
        return (
            f"convex({format_rule(rule.first)};{format_rule(rule.second)}"
            f";{_format_real(rule.weight)})"
        )
    if isinstance(rule, DualRule):
        return f"dual({format_rule(rule.inner)})"
    if isinstance(rule, CustomRule):
        return f"custom:{rule.name}"
    raise ValueError(f"cannot format {rule!r}")


@contextmanager
def blame_rule(rule: RuleSpec, where: str) -> Iterator[None]:
    """Raise a ValidationError of the with block again as the rule's RuleError.

    The problems where names are valid, so payoffs that do not allocate
    them are the rule's fault; _rule_error names the rule.
    """
    try:
        yield
    except ValidationError as exc:
        message = f"does not allocate {where}: {type(exc).__name__}: {exc}"
        raise _rule_error(rule, message) from None


def _rule_error(rule: RuleSpec, message: str) -> RuleError:
    """RuleError 'rule <name> <message>', the rule named by its spec string or its repr."""
    try:
        name = repr(format_rule(rule))
    except ValueError:
        name = repr(rule)
    return RuleError(f"rule {name} {message}")


def _excerpt(text: str) -> str:
    """The text, cut to its first 60 characters with a marker if longer."""
    return text if len(text) <= 60 else text[:60] + "..."


def _head(spec: str) -> str:
    """The name a rule spec starts with: its text before any ':' or '('."""
    return spec.strip().partition(":")[0].partition("(")[0]


def split_rule_list(text: str) -> list[RuleSpec]:
    """Parse a comma-separated list of rule specs.

    A catalog form's fields hold commas too, so a comma after a form with
    fields continues it, unless the text after the comma names a rule: a
    catalog form, convex or dual. Any other comma outside parentheses ends
    a spec.
    """
    specs: list[str] = []
    for part in _split_top(text, ","):
        form = _FORMS.get(_head(specs[-1])) if specs else None
        head = _head(part)
        names_rule = head in _FORMS or head in ("convex", "dual")
        if form is not None and form[0] and not names_rule:
            specs[-1] += "," + part
        else:
            specs.append(part)
    rules: list[RuleSpec] = []
    for k, spec in enumerate(specs):
        try:
            rules.append(parse_rule(spec))
        except ParseError as exc:
            # The nesting cap's message names the cap, not where it was hit.
            if exc.args == (_TOO_DEEP,):
                raise
            rest = ",".join(specs[k:])
            raise ParseError(f"could not parse rule list near {_excerpt(rest)!r}") from None
    return rules
