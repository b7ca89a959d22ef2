"""Reflection duality for allocation rules.

The dual of a rule pays each agent her need minus what the rule would pay
her in the reflected problem, where every income is replaced by the gap
between need and income. Applying the operator twice returns the original
rule. reflected_payoffs is that operator on a block of problems: a dual
around a rule without weights pays through it, dual_payoffs is its one-row
case, and check_self_dual compares a rule with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .axioms import SampleConfig, rng_for, worst_trial
from .core import Block, Problem, check_tol
# make_problem is looked up here by perfbench's tracer, which wraps it per module.
from .core import make_problem  # noqa: F401
from .rules import (
    ConvexCombination,
    DualRule,
    RuleSpec,
    ScalarFn,
    WeightedRule,
    catalog_rule,
    from_coefficients,
)


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
    with np.errstate(over="ignore", invalid="ignore"):
        row = reflected_payoffs(rule, Block.of(problem))[0]
    row.setflags(write=False)
    return row


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


_ZERO = ScalarFn.constant(0.0)


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


# The catalog forms without weight functions map to each other, field for
# field, under the reflection operator (Thomson & Yeh 2008).
_NAMED_DUALS = {"lf": "lf", "prop": "prop", "full": "nafr", "lin": "lindual"}
_NAMED_DUALS.update({dual: name for name, dual in _NAMED_DUALS.items()})


def dual_closed_form(rule: RuleSpec) -> RuleSpec | None:
    """Rewrite a rule into the closed form of its dual, when one is known.

    Returns None for rules outside the rewrite catalog, such as custom rules;
    a weighted rule with no closed form, say with a plain callable weight,
    comes back as its DualRule.
    """
    if isinstance(rule, WeightedRule):
        name, *labels = rule.spelling
        values = tuple(vars(rule).values())
        if name in _NAMED_DUALS:
            return catalog_rule(_NAMED_DUALS[name], values)
        if not (labels and all(isinstance(fn, ScalarFn) for fn in values)):
            return DualRule(rule)
        # The dual holds the reflected A and B in the same fields: bfam is ab
        # with A = 0, afam is ab with B = (1 − A)t, and reflection keeps both.
        held = dict(zip(labels, values))
        a, b = dual_ab(held.get("A=", _ZERO), held.get("B=", _ZERO))
        return type(rule)(*(a if label == "A=" else b for label in labels))
    if isinstance(rule, ConvexCombination):
        first = dual_closed_form(rule.first)
        second = dual_closed_form(rule.second)
        if first is None or second is None:
            return None
        return ConvexCombination(first, second, rule.weight)
    if isinstance(rule, DualRule):
        return rule.inner
    return None


@dataclass(frozen=True)
class DualReport:
    """Sampled comparison of a rule against its own dual."""

    rule: RuleSpec
    is_self_dual: bool
    max_deviation: float
    tolerance: float
    witness: Problem | None


def _self_dual_gap(rule: RuleSpec, block: Block) -> np.ndarray:
    """Each row's largest payoff gap between the rule and its dual, over its scale."""
    direct = rule.payoffs_batch(block)
    return np.abs(direct - reflected_payoffs(rule, block)).max(axis=1) / block.scales


def check_self_dual(
    rule: RuleSpec, cfg: SampleConfig, tol: float = 1e-9
) -> DualReport:
    """Compare rule and dual payoffs on sampled problems.

    Deviations are scaled by each problem's magnitude before comparison
    with tol, matching the axiom checkers. Problems are drawn in padded
    blocks, as the axiom checkers draw them.
    """
    check_tol(tol)
    worst, witness = worst_trial(
        rng_for(cfg.seed, "self_dual"), cfg, lambda block: _self_dual_gap(rule, block)
    )
    passed = worst <= tol
    return DualReport(rule, passed, worst, tol, None if passed else witness)
