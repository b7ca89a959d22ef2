"""Closed-form duals and the sampled self-duality check.

The dual of a rule pays each agent her need minus what the rule would pay
her in the reflected problem, where every income is replaced by the gap
between need and income. Applying the operator twice returns the original
rule. The operator itself lives in rules, beside DualRule: reflected_payoffs
on a block of problems, dual_payoffs on one, and DualRule.weights_at on
weights. Here dual_closed_form spells the exact weights of a DualRule as a
catalog rule, and check_self_dual compares a rule with its dual on sampled
problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import SampleConfig, rng_for, worst_trial
from .core import DEFAULT_TOL, Block, Problem, check_tol
# make_problem is looked up here by perfbench's tracer, which wraps it per module.
from .core import make_problem  # noqa: F401
from .rules import (
    ConvexCombination,
    DualRule,
    RuleSpec,
    WeightedRule,
    reflected_payoffs,
    spelled_rule,
)


def dual_closed_form(rule: RuleSpec) -> RuleSpec | None:
    """Rewrite a rule into the closed form of its dual, when one is known.

    A weighted rule's DualRule reflects its weights, and spelled_rule spells
    their exact values, in the rule's own form when it can hold them. Returns
    None for rules outside the rewrite catalog, such as custom rules; a
    weighted rule with no exact weights, say with a plain callable weight,
    comes back as its DualRule.
    """
    if isinstance(rule, WeightedRule):
        weights = DualRule(rule).exact_weights()
        return DualRule(rule) if weights is None else spelled_rule(*weights, rule.form)
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
    rule: RuleSpec, cfg: SampleConfig, tol: float = DEFAULT_TOL
) -> DualReport:
    """Compare rule and dual payoffs on sampled problems.

    Deviations are scaled by each problem's magnitude before comparison
    with tol, matching the axiom checkers. Problems are drawn and screened
    in padded batches, as the axiom checkers draw and screen them.
    """
    check_tol(tol)
    worst, witness = worst_trial(rng_for(cfg.seed, "self_dual"), cfg, rule, _self_dual_gap)
    passed = worst <= tol
    return DualReport(rule, passed, worst, tol, None if passed else witness)
