"""Reflection duality for allocation rules.

The dual of a rule pays each agent her need minus what the rule would pay
her in the reflected problem, where every income is replaced by the gap
between need and income. Applying the operator twice returns the original
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import comb

import numpy as np

from .axioms import SampleConfig, rng_for, worst_trial
from .core import Block, Problem, check_tol, float_column, make_problem
from .rules import (
    ConvexCombination,
    DualRule,
    RuleSpec,
    ScalarFn,
    WeightedRule,
    _checked_length,
    catalog_rule,
    from_coefficients,
)


def dual_payoffs(rule: RuleSpec, problem: Problem) -> np.ndarray:
    """Payoffs of the rule's dual, z − R(z − y, z), through the reflected problem."""
    needs = problem.needs
    # An entry that overflows is refused as NonFinite, by make_problem or Allocation.
    with np.errstate(over="ignore"):
        reflected = make_problem(problem.agents, needs - problem.incomes, needs)
    payoffs = _checked_length(rule.payoffs(reflected), reflected)
    with np.errstate(over="ignore"):
        return float_column(needs - payoffs)


def _reflect_coeffs(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """Coefficients of p(1 - t) given ascending coefficients of p(t)."""
    degree = len(coeffs) - 1
    out = [0.0] * (degree + 1)
    for j in range(degree + 1):
        acc = 0.0
        for k in range(j, degree + 1):
            acc += coeffs[k] * comb(k, j)
        out[j] = acc if j % 2 == 0 else -acc
    return tuple(out)


def _sub_coeffs(left: tuple[float, ...], right: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(u - v for u, v in zip_longest(left, right, fillvalue=0.0))


_ZERO = ScalarFn.constant(0.0)


def dual_ab(income_weight: ScalarFn, need_weight: ScalarFn) -> tuple[ScalarFn, ScalarFn]:
    """Weights of the dual of a deviation-weighted rule with catalog weights.

    The dual's income weight is t -> A(1-t) and its need weight is
    t -> 1 - A(1-t) - B(1-t), writing A and B for the inputs.
    """
    income_reflected = _reflect_coeffs(income_weight.coefficients())
    need_reflected = _reflect_coeffs(need_weight.coefficients())
    dual_need = _sub_coeffs(_sub_coeffs((1.0,), income_reflected), need_reflected)
    return from_coefficients(income_reflected), from_coefficients(dual_need)


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
    """Each row's largest payoff gap between the rule and its dual, over its scale.

    The dual is evaluated on the block as z − R(z − y, z).
    """
    needs = block.needs
    direct = rule.payoffs_batch(block)
    reflected = Block(needs - block.incomes, needs, block.counts)
    mirrored = needs - rule.payoffs_batch(reflected)
    return np.abs(direct - mirrored).max(axis=1) / block.scales


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
