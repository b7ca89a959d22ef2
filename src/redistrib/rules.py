"""Allocation rules: the fixed catalog, parameterized families, and combinations.

Every rule maps a problem to one payoff vector that exhausts total income.
Family rules are parameterized by scalar functions of the problem's
income-to-need ratio. Catalog and family rules are WeightedRule subclasses
that give only their two deviation weights; ab_payoffs is the one payoff
formula they share with their convex mixtures and duals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import Allocation, Problem, block_totals, check_tol, make_problem


class InvalidWeight(ValueError):
    """Convex combination weight outside [0, 1]."""


class ParseError(ValueError):
    """A rule or function spec string could not be parsed."""


_ARITY = {"const": 1, "id": 0, "scale": 1, "affine": 2}


@dataclass(frozen=True)
class ScalarFn:
    """Serializable continuous function of one real variable.

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

    def __call__(self, t: float) -> float:
        if self.kind == "const":
            return self.params[0]
        if self.kind == "id":
            return float(t)
        if self.kind == "scale":
            return self.params[0] * t
        if self.kind == "affine":
            return self.params[0] * t + self.params[1]
        acc = 0.0
        for c in reversed(self.params):
            acc = acc * t + c
        return acc

    def coefficients(self) -> tuple[float, ...]:
        """Ascending polynomial coefficients equal to this function."""
        if self.kind == "const":
            return (self.params[0],)
        if self.kind == "id":
            return (0.0, 1.0)
        if self.kind == "scale":
            return (0.0, self.params[0])
        if self.kind == "affine":
            return (self.params[1], self.params[0])
        return self.params

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


class RuleSpec:
    """A rule maps each problem to the unique payoff vector its formula defines."""

    def payoffs(self, problem: Problem) -> tuple[float, ...]:
        raise NotImplementedError

    def weights_at(self, t: float) -> tuple[float, float] | None:
        """(A(t), B(t)) if the rule pays ȳ + A(t)(y−ȳ) + B(t)(z−z̄), else None."""
        return None

    def payoffs_batch(self, incomes: np.ndarray, needs: np.ndarray) -> np.ndarray:
        """Payoffs of a block of problems, one per row of the (m, n) arrays.

        A rule with weights is evaluated at each row's ratio through
        ab_payoffs_batch. Any other rule is evaluated row by row, each row
        built as a Problem of agents 1..n.
        """
        totals = block_totals(incomes, needs)
        weights = [self.weights_at(t) for t in (totals[0] / totals[1]).tolist()]
        if None not in weights:
            a, b = np.array(weights, dtype=float).reshape(-1, 2).T
            return ab_payoffs_batch(incomes, needs, totals, a, b)
        agents = range(1, incomes.shape[1] + 1)
        rows = zip(incomes.tolist(), needs.tolist())
        return np.array(
            [self.payoffs(make_problem(agents, y, z)) for y, z in rows], dtype=float
        ).reshape(incomes.shape)


def ab_payoffs(problem: Problem, a: float, b: float) -> tuple[float, ...]:
    """Equal split plus a times each income deviation and b times each need deviation."""
    n = len(problem)
    mean_need = problem.total_need / n
    # a·y + (1−a)·ȳ rather than ȳ + a(y−ȳ): with a = 1 and b = 0 every
    # other term is zero, so incomes come back exactly, and with a = 0 the
    # equal split does.
    rest = problem.total_income / n * (1.0 - a)
    return tuple(
        y * a + rest + (z - mean_need) * b
        for y, z in zip(problem.incomes, problem.needs)
    )


def ab_payoffs_batch(
    incomes: np.ndarray,
    needs: np.ndarray,
    totals: tuple[np.ndarray, np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """ab_payoffs of each row of a block of problems, with that row's a and b.

    totals are the block's (total income, total need) from block_totals.
    The same operations in the same order as ab_payoffs, so each row's
    payoffs equal the scalar kernel's bit for bit.
    """
    total_income, total_need = totals
    n = incomes.shape[1]
    mean_need = (total_need / n)[:, None]
    rest = (total_income / n * (1.0 - a))[:, None]
    return incomes * a[:, None] + rest + (needs - mean_need) * b[:, None]


class WeightedRule(RuleSpec):
    """A rule of the deviation-weighted form ȳ + A(t)(y−ȳ) + B(t)(z−z̄), t = Y/Z.

    Subclasses give only their weights (A(t), B(t)) at the problem's
    income-to-need ratio, evaluated once per problem.
    """

    def payoffs(self, problem: Problem) -> tuple[float, ...]:
        a, b = self.weights_at(problem.total_income / problem.total_need)
        return ab_payoffs(problem, a, b)


@dataclass(frozen=True)
class LaissezFaire(WeightedRule):
    """Leaves every agent's income untouched."""

    def weights_at(self, t: float) -> tuple[float, float]:
        return 1.0, 0.0


@dataclass(frozen=True)
class FullRedistribution(WeightedRule):
    """Pays every agent an equal share of total income."""

    def weights_at(self, t: float) -> tuple[float, float]:
        return 0.0, 0.0


@dataclass(frozen=True)
class Proportional(WeightedRule):
    """Splits total income in proportion to needs."""

    def weights_at(self, t: float) -> tuple[float, float]:
        return 0.0, t


@dataclass(frozen=True)
class NeedAdjustedFull(WeightedRule):
    """Covers each need exactly, splitting the surplus or deficit equally."""

    def weights_at(self, t: float) -> tuple[float, float]:
        return 0.0, 1.0


@dataclass(frozen=True)
class ABRule(WeightedRule):
    """Equal split adjusted by weighted income and need deviations."""

    income_weight: FnLike
    need_weight: FnLike

    def weights_at(self, t: float) -> tuple[float, float]:
        return float(self.income_weight(t)), float(self.need_weight(t))


@dataclass(frozen=True)
class BFamilyRule(WeightedRule):
    """Equal split adjusted by weighted need deviations only."""

    need_weight: FnLike

    def weights_at(self, t: float) -> tuple[float, float]:
        return 0.0, float(self.need_weight(t))


@dataclass(frozen=True)
class AFamilyRule(WeightedRule):
    """Mixes untouched incomes with the proportional split via an income weight."""

    income_weight: FnLike

    def weights_at(self, t: float) -> tuple[float, float]:
        a = float(self.income_weight(t))
        return a, (1.0 - a) * t


@dataclass(frozen=True)
class LinearRule(WeightedRule):
    """Linear mix of untouched incomes, the proportional split, and the equal split.

    Coefficients need not lie in [0, 1]; the three terms always sum to
    total income because their weights sum to one.
    """

    income_coeff: float
    need_share_coeff: float

    def weights_at(self, t: float) -> tuple[float, float]:
        return self.income_coeff, self.need_share_coeff * t


@dataclass(frozen=True)
class LinearDualRule(WeightedRule):
    """Like LinearRule but the remainder goes to the need-adjusted equal split."""

    income_coeff: float
    need_share_coeff: float

    def weights_at(self, t: float) -> tuple[float, float]:
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

    def _mix(self, first: Sequence[float], second: Sequence[float]) -> tuple[float, ...]:
        w = self.weight
        return tuple(w * u + (1.0 - w) * v for u, v in zip(first, second))

    def weights_at(self, t: float) -> tuple[float, float] | None:
        first, second = self.first.weights_at(t), self.second.weights_at(t)
        if first is None or second is None:
            return None
        # _mix unrolled for two weights: evaluated once per row of a block.
        w, rest = self.weight, 1.0 - self.weight
        return w * first[0] + rest * second[0], w * first[1] + rest * second[1]

    def payoffs(self, problem: Problem) -> tuple[float, ...]:
        weights = self.weights_at(problem.total_income / problem.total_need)
        if weights is not None:
            return ab_payoffs(problem, *weights)
        return self._mix(self.first.payoffs(problem), self.second.payoffs(problem))


@dataclass(frozen=True)
class DualRule(RuleSpec):
    """Applies the reflection operator to another rule.

    Weights reflect to (A(1−t), 1 − A(1−t) − B(1−t)); else the problem does.
    """

    inner: RuleSpec

    def weights_at(self, t: float) -> tuple[float, float] | None:
        weights = self.inner.weights_at(1.0 - t)
        return None if weights is None else (weights[0], 1.0 - weights[0] - weights[1])

    def payoffs(self, problem: Problem) -> tuple[float, ...]:
        weights = self.weights_at(problem.total_income / problem.total_need)
        if weights is not None:
            return ab_payoffs(problem, *weights)
        from .duality import dual_payoffs

        return dual_payoffs(self.inner, problem)


@dataclass(frozen=True)
class CustomRule(RuleSpec):
    """Escape hatch for rules given as a plain function of the problem.

    Not expressible in the rule-string grammar; intended for tests and
    library callers.
    """

    name: str
    allocate: Callable[[Problem], Sequence[float]]

    def payoffs(self, problem: Problem) -> tuple[float, ...]:
        return tuple(float(v) for v in self.allocate(problem))


LF = LaissezFaire()
FULL = FullRedistribution()
PROP = Proportional()
NAFR = NeedAdjustedFull()


def evaluate(rule: RuleSpec, problem: Problem) -> Allocation:
    """Apply a rule to a problem; the result is balance-checked on construction."""
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
    tol: float = 1e-9,
) -> EquivalenceVerdict:
    """Compare two rules payoff-by-payoff over the given problems."""
    check_tol(tol)
    worst = 0.0
    witness: Problem | None = None
    where: int | None = None
    for problem in problems:
        x1 = first.payoffs(problem)
        x2 = second.payoffs(problem)
        for i, (u, v) in enumerate(zip(x1, x2)):
            gap = abs(u - v)
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
        raise ParseError(f"unknown function {text!r}")
    values = [_parse_real(tok) for tok in rest.split(",")] if rest else []
    if head == "const" and len(values) == 1:
        return ScalarFn.constant(values[0])
    if head == "scale" and len(values) == 1:
        return ScalarFn.scaled(values[0])
    if head == "affine" and len(values) == 2:
        return ScalarFn.affine(values[0], values[1])
    if head == "poly" and values:
        return ScalarFn.poly(*values)
    if head in ("const", "scale", "affine", "poly"):
        raise ParseError(f"wrong number of parameters in {text!r}")
    raise ParseError(f"unknown function kind {head!r}")


def _parse_real(token: str) -> float:
    try:
        value = float(token.strip())
    except ValueError:
        raise ParseError(f"expected a number, got {token.strip()!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"number {token.strip()!r} is not finite")
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
                raise ParseError(f"unbalanced ')' in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced '(' in {text!r}")
    parts.append("".join(current))
    return parts


def parse_rule(text: str) -> RuleSpec:
    """Parse a rule spec string.

    Grammar::

        lf | full | prop | nafr
        | ab:A=<fn>,B=<fn> | afam:A=<fn> | bfam:B=<fn>
        | lin:<r>,<r> | lindual:<r>,<r>
        | convex(<rule>;<rule>;<weight>) | dual(<rule>)
    """
    s = text.strip()
    simple = {"lf": LF, "full": FULL, "prop": PROP, "nafr": NAFR}
    if s in simple:
        return simple[s]
    if s.startswith("convex(") and s.endswith(")"):
        parts = _split_top(s[len("convex(") : -1], ";")
        if len(parts) != 3:
            raise ParseError(f"convex takes rule;rule;weight, got {text!r}")
        return ConvexCombination(
            parse_rule(parts[0]), parse_rule(parts[1]), _parse_real(parts[2])
        )
    if s.startswith("dual(") and s.endswith(")"):
        inner = s[len("dual(") : -1]
        # Reject trailing junk like "dual(lf)x" by checking balance.
        _split_top(inner, "\x00")
        return DualRule(parse_rule(inner))
    if s.startswith("ab:"):
        body = s[len("ab:") :]
        marker = body.find(",B=")
        if not body.startswith("A=") or marker < 0:
            raise ParseError(f"ab takes A=<fn>,B=<fn>, got {text!r}")
        return ABRule(
            parse_scalar_fn(body[2:marker]),
            parse_scalar_fn(body[marker + len(",B=") :]),
        )
    if s.startswith("afam:"):
        body = s[len("afam:") :]
        if not body.startswith("A="):
            raise ParseError(f"afam takes A=<fn>, got {text!r}")
        return AFamilyRule(parse_scalar_fn(body[2:]))
    if s.startswith("bfam:"):
        body = s[len("bfam:") :]
        if not body.startswith("B="):
            raise ParseError(f"bfam takes B=<fn>, got {text!r}")
        return BFamilyRule(parse_scalar_fn(body[2:]))
    for head, cls in (("lin:", LinearRule), ("lindual:", LinearDualRule)):
        if s.startswith(head):
            tokens = s[len(head) :].split(",")
            if len(tokens) != 2:
                raise ParseError(f"{head[:-1]} takes two coefficients, got {text!r}")
            return cls(_parse_real(tokens[0]), _parse_real(tokens[1]))
    raise ParseError(f"unknown rule {text!r}")


def format_rule(rule: RuleSpec) -> str:
    """Spec-string form of a rule; inverse of parse_rule for catalog rules."""
    if isinstance(rule, LaissezFaire):
        return "lf"
    if isinstance(rule, FullRedistribution):
        return "full"
    if isinstance(rule, Proportional):
        return "prop"
    if isinstance(rule, NeedAdjustedFull):
        return "nafr"
    if isinstance(rule, ABRule):
        return (
            f"ab:A={format_scalar_fn(rule.income_weight)}"
            f",B={format_scalar_fn(rule.need_weight)}"
        )
    if isinstance(rule, AFamilyRule):
        return f"afam:A={format_scalar_fn(rule.income_weight)}"
    if isinstance(rule, BFamilyRule):
        return f"bfam:B={format_scalar_fn(rule.need_weight)}"
    if isinstance(rule, LinearRule):
        return f"lin:{_format_real(rule.income_coeff)},{_format_real(rule.need_share_coeff)}"
    if isinstance(rule, LinearDualRule):
        return (
            f"lindual:{_format_real(rule.income_coeff)}"
            f",{_format_real(rule.need_share_coeff)}"
        )
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


def split_rule_list(text: str) -> list[RuleSpec]:
    """Parse a comma-separated list of rule specs.

    Rule specs may themselves contain commas, so fragments are joined
    greedily until they parse.
    """
    rules: list[RuleSpec] = []
    pending: str | None = None
    for part in _split_top(text, ","):
        pending = part if pending is None else pending + "," + part
        try:
            rules.append(parse_rule(pending))
        except ParseError:
            continue
        pending = None
    if pending is not None:
        raise ParseError(f"could not parse rule list near {pending!r}")
    if not rules:
        raise ParseError("empty rule list")
    return rules
