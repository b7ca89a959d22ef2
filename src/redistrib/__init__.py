"""Redistribution rules over income-and-need profiles.

Evaluate catalog and family rules, probe them against behavioural axioms
with seeded sampling, reflect them through duality, and recover their
functional form from black-box evaluations.
"""

from .analysis import (
    ABProfile,
    AnalysisError,
    CharacterizationReport,
    Classification,
    DEFAULT_GRID,
    ImplicationCheck,
    LABELS,
    classify,
    extract_ab,
    parse_grid,
    profile_rule,
    verify_characterization,
)
from .axioms import (
    ALL_AXIOMS,
    AxiomReport,
    CORE_AXIOMS,
    Counterexample,
    SampleConfig,
    UnknownAxiom,
    axiom_suite,
    check_axiom,
    expand_axiom_names,
    recheck_counterexample,
    rng_for,
)
from .core import (
    Allocation,
    BalanceVerdict,
    Block,
    BalanceViolation,
    EmptyAgentSet,
    LengthMismatch,
    NegativeNeed,
    NonFinite,
    Problem,
    ValidationError,
    ZeroTotalNeed,
    aggregates,
    balance_tolerance,
    check_allocation,
    make_problem,
    problem_scale,
)
from .duality import DualReport, check_self_dual, dual_closed_form
from .rules import (
    ConvexCombination,
    CustomRule,
    DualRule,
    EquivalenceVerdict,
    FULL,
    InvalidWeight,
    LF,
    NAFR,
    PROP,
    ParseError,
    RuleError,
    RuleSpec,
    ScalarFn,
    WeightedRule,
    dual_payoffs,
    equivalent_on,
    evaluate,
    format_rule,
    format_scalar_fn,
    from_coefficients,
    parse_rule,
    parse_scalar_fn,
    split_rule_list,
)

__version__ = "0.1.0"
