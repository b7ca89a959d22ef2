"""Allocation rules: the fixed catalog, parameterized families, and combinations.

Every rule maps a problem to one payoff vector that exhausts total income.
Family rules are parameterized by scalar functions of the problem's
income-to-need ratio. Catalog and family rules are WeightedRule subclasses
that give only their two deviation weights. Every rule is evaluated on a
core.Block of problems by RuleSpec.payoffs_batch, and one problem is its
one-row Block. A rule with weights pays through ab_payoffs_batch, the one
payoff kernel; a convex mixture or a dual around a rule without weights
mixes or reflects its inner rule's block payoffs, and a custom rule's
function pays each row, its vector length-checked, into one buffer. The
reflection lives beside DualRule: reflected_payoffs on a block,
dual_payoffs on one problem, and dual_ab on a rule's weights.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, ClassVar, Iterator, Sequence, Union

import numpy as np

from .core import (
    DEFAULT_TOL,
    Allocation,
    Block,
    Problem,
    ValidationError,
    check_count,
    check_tol,
    is_float64_vector,
)


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
Ratio = Union[float, np.ndarray]


def _weight(fn: FnLike, t: Ratio) -> Ratio:
    """fn at t; a plain callable takes one float, so an array goes entry by entry."""
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
        """
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
    payoffs[~block.agent_mask] = 0.0
    return payoffs


class WeightedRule(RuleSpec):
    """A rule of the deviation-weighted form ȳ + A(t)(y−ȳ) + B(t)(z−z̄), t = Y/Z.

    Subclasses give only their weights (A(t), B(t)) at the problem's
    income-to-need ratio, evaluated once per problem, and their spelling:
    their catalog form's name, then a label per field in field order, "A="
    or "B=" before a weight function and "" before a real. Parse, format
    and the closed-form dual read the form from it and from nothing else,
    so a form whose fields are all functions must be its own dual, with A
    and B reflected.
    """

    spelling: ClassVar[tuple[str, ...]]

    # Named here, not only inherited, so that perfbench's tracer, which wraps
    # the payoffs each direct RuleSpec subclass names, counts this class's.
    payoffs = RuleSpec.payoffs


@dataclass(frozen=True)
class LaissezFaire(WeightedRule):
    """Leaves every agent's income untouched."""

    spelling = ("lf",)

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio]:
        return 1.0, 0.0


@dataclass(frozen=True)
class FullRedistribution(WeightedRule):
    """Pays every agent an equal share of total income."""

    spelling = ("full",)

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio]:
        return 0.0, 0.0


@dataclass(frozen=True)
class Proportional(WeightedRule):
    """Splits total income in proportion to needs."""

    spelling = ("prop",)

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio]:
        return 0.0, t


@dataclass(frozen=True)
class NeedAdjustedFull(WeightedRule):
    """Covers each need exactly, splitting the surplus or deficit equally."""

    spelling = ("nafr",)

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio]:
        return 0.0, 1.0


@dataclass(frozen=True)
class ABRule(WeightedRule):
    """Equal split adjusted by weighted income and need deviations."""

    spelling = ("ab", "A=", "B=")
    income_weight: FnLike
    need_weight: FnLike

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio]:
        return _weight(self.income_weight, t), _weight(self.need_weight, t)


@dataclass(frozen=True)
class BFamilyRule(WeightedRule):
    """Equal split adjusted by weighted need deviations only."""

    spelling = ("bfam", "B=")
    need_weight: FnLike

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio]:
        return 0.0, _weight(self.need_weight, t)


@dataclass(frozen=True)
class AFamilyRule(WeightedRule):
    """Mixes untouched incomes with the proportional split via an income weight."""

    spelling = ("afam", "A=")
    income_weight: FnLike

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio]:
        a = _weight(self.income_weight, t)
        return a, (1.0 - a) * t


@dataclass(frozen=True)
class LinearRule(WeightedRule):
    """Linear mix of untouched incomes, the proportional split, and the equal split.

    Coefficients need not lie in [0, 1]; the three terms always sum to
    total income because their weights sum to one.
    """

    spelling = ("lin", "", "")
    income_coeff: float
    need_share_coeff: float

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio]:
        return self.income_coeff, self.need_share_coeff * t


@dataclass(frozen=True)
class LinearDualRule(WeightedRule):
    """Like LinearRule but the remainder goes to the need-adjusted equal split."""

    spelling = ("lindual", "", "")
    income_coeff: float
    need_share_coeff: float

    def weights_at(self, t: Ratio) -> tuple[Ratio, Ratio]:
        c1, c2 = self.income_coeff, self.need_share_coeff
        return c1, c2 * t + 1.0 - c1 - c2


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
        """w·u + (1−w)·v, of two weights or two payoff arrays."""
        w = self.weight
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


def _reflected(coeffs: list[int]) -> list[int]:
    """Ascending coefficients of p(1 − t), given those of p(t), in integers.

    Shifting p(u) to p(u + 1) by repeated synthetic division takes only
    additions; p(1 − t) is that shift with its odd coefficients negated.
    """
    shifted = list(coeffs)
    for i in range(len(shifted) - 1):
        for j in range(len(shifted) - 2, i - 1, -1):
            shifted[j] += shifted[j + 1]
    return [-c if j % 2 else c for j, c in enumerate(shifted)]


def _rounded(numerator: int, denominator: int) -> float:
    """numerator / denominator rounded once; ±inf past the float range, which ScalarFn refuses."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def dual_ab(income_weight: ScalarFn, need_weight: ScalarFn) -> tuple[ScalarFn, ScalarFn]:
    """Weights of the dual of a deviation-weighted rule with catalog weights.

    The dual's income weight is t -> A(1-t) and its need weight is
    t -> 1 - A(1-t) - B(1-t), that is 1 - A - B at 1 - t, writing A and B
    for the inputs. A float is an integer over a power of two, so over the
    largest of the coefficients' denominators both weights are derived
    exactly, in integers; each coefficient is then rounded once.
    """
    income = income_weight.coefficients()
    ratios = [c.as_integer_ratio() for c in income + need_weight.coefficients()]
    denominator = max(d for _, d in ratios)
    numerators = [n * (denominator // d) for n, d in ratios]
    a, b = numerators[: len(income)], numerators[len(income) :]
    rest = [-u - v for u, v in zip_longest(a, b, fillvalue=0)]
    rest[0] += denominator
    return tuple(
        from_coefficients([_rounded(n, denominator) for n in _reflected(p)]) for p in (a, rest)
    )


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
        value goes through float() into one float64 buffer; a float64 array,
        which float() would leave as it is, is copied in whole. The first
        row not paid once per agent raises LengthMismatch, and no later row
        is paid. The buffer fills the block's agent entries, through
        Block.agent_mask, in one assignment.
        """
        values = array("d")
        for problem in block.problems():
            start, row = len(values), self.allocate(problem)
            if is_float64_vector(row):
                values.frombytes(row.tobytes())
            else:
                values.fromlist(list(map(float, row)))
            check_count(len(values) - start, problem)
        payoffs = np.zeros(block.incomes.shape)
        payoffs[block.agent_mask] = np.frombuffer(values)
        return payoffs


LF = LaissezFaire()
FULL = FullRedistribution()
PROP = Proportional()
NAFR = NeedAdjustedFull()

# The spelling table: each catalog form by the name that spells it.
_CATALOG = {cls.spelling[0]: cls for cls in WeightedRule.__subclasses__()}
_FIXED = {rule.spelling[0]: rule for rule in (LF, FULL, PROP, NAFR)}


def catalog_rule(name: str, values: Sequence = ()) -> WeightedRule:
    """The catalog form spelled name with these field values, or its one instance."""
    return _CATALOG[name](*values) if values else _FIXED[name]


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

    The catalog forms are read from each WeightedRule's spelling. convex
    and dual nest at most MAX_RULE_DEPTH deep.
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
    form = _CATALOG.get(name)
    # A form without fields is spelled by its name alone, any other with a colon.
    if form is None or bool(colon) != bool(form.spelling[1:]):
        raise ParseError(f"unknown rule {_excerpt(text)!r}")
    labels = form.spelling[1:]
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
        name, *labels = rule.spelling
        texts = (
            label + (format_scalar_fn(value) if label else _format_real(value))
            for label, value in zip(labels, vars(rule).values())
        )
        return f"{name}:{','.join(texts)}" if labels else name
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
        form = _CATALOG.get(_head(specs[-1])) if specs else None
        head = _head(part)
        names_rule = head in _CATALOG or head in ("convex", "dual")
        if form is not None and form.spelling[1:] and not names_rule:
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
