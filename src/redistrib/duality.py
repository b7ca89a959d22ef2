"""Reflection duality for allocation rules.

The dual of a rule pays each agent her need minus what the rule would pay
her in the reflected problem, where every income is replaced by the gap
between need and income. Applying the operator twice returns the original
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .axioms import SampleConfig, rng_for, worst_trial
from .core import Allocation, Block, Problem, check_tol, make_problem
from .rules import (
    ABRule,
    AFamilyRule,
    BFamilyRule,
    ConvexCombination,
    DualRule,
    FULL,
    FullRedistribution,
    LaissezFaire,
    LinearDualRule,
    LinearRule,
    NAFR,
    NeedAdjustedFull,
    Proportional,
    RuleSpec,
    ScalarFn,
    from_coefficients,
)


def reflected_problem(problem: Problem) -> Problem:
    """Same agents and needs, incomes replaced by need minus income."""
    return make_problem(
        problem.agents,
        tuple(z - y for y, z in zip(problem.incomes, problem.needs)),
        problem.needs,
    )


def dual_payoffs(rule: RuleSpec, problem: Problem) -> tuple[float, ...]:
    inner = rule.payoffs(reflected_problem(problem))
    return tuple(z - x for z, x in zip(problem.needs, inner))


def dual_evaluate(rule: RuleSpec, problem: Problem) -> Allocation:
    """Evaluate the dual of a rule directly from its definition."""
    return Allocation(problem, dual_payoffs(rule, problem))


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


def _sub_coeffs(
    left: tuple[float, ...], right: tuple[float, ...]
) -> tuple[float, ...]:
    width = max(len(left), len(right))
    padded_left = left + (0.0,) * (width - len(left))
    padded_right = right + (0.0,) * (width - len(right))
    return tuple(u - v for u, v in zip(padded_left, padded_right))


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


def dual_closed_form(rule: RuleSpec) -> RuleSpec | None:
    """Rewrite a rule into the closed form of its dual, when one is known.

    Returns None for rules outside the rewrite catalog, such as custom rules;
    a family rule with plain callable weights comes back as its DualRule.
    """
    if isinstance(rule, (ABRule, AFamilyRule, BFamilyRule)):
        if not all(isinstance(fn, ScalarFn) for fn in vars(rule).values()):
            return DualRule(rule)
    if isinstance(rule, (LaissezFaire, Proportional)):
        return rule
    if isinstance(rule, FullRedistribution):
        return NAFR
    if isinstance(rule, NeedAdjustedFull):
        return FULL
    if isinstance(rule, ABRule):
        income, need = dual_ab(rule.income_weight, rule.need_weight)
        return ABRule(income, need)
    # bfam is ab with A = 0, which reflection keeps; afam's dual is afam
    # with the reflected A.
    if isinstance(rule, BFamilyRule):
        return BFamilyRule(dual_ab(_ZERO, rule.need_weight)[1])
    if isinstance(rule, AFamilyRule):
        return AFamilyRule(dual_ab(rule.income_weight, _ZERO)[0])
    if isinstance(rule, LinearRule):
        return LinearDualRule(rule.income_coeff, rule.need_share_coeff)
    if isinstance(rule, LinearDualRule):
        return LinearRule(rule.income_coeff, rule.need_share_coeff)
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
