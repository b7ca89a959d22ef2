"""Shared fixtures and test-only rules."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from redistrib import (
    ConvexCombination,
    CustomRule,
    DualRule,
    PROP,
    Problem,
    ScalarFn,
    WeightedRule,
    make_problem,
    rng_for,
)
from redistrib.axioms import draw_profiles
from redistrib.core import Block


def needs_squared_rule() -> CustomRule:
    """Allocates total income in proportion to squared needs.

    Balanced and continuous, but pays groups differently after an internal
    reallocation of needs, so it sits outside the deviation-weighted family.
    """

    def allocate(problem: Problem) -> list[float]:
        weight = sum(z * z for z in problem.needs)
        return [z * z / weight * problem.total_income for z in problem.needs]

    return CustomRule("needs-squared", allocate)


def hex_bits(value):
    """A report field in JSON, each float as its hex bits and a Problem by column."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, Problem):
        return {name: hex_bits(getattr(value, name)) for name in ("agents", "incomes", "needs")}
    if isinstance(value, dict):
        return {key: hex_bits(v) for key, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [hex_bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def _nan_payoffs(problem: Problem) -> list[float]:
    return [math.nan] * len(problem)


def _nan_for_last_agent(problem: Problem) -> tuple[float, ...]:
    return (*PROP.payoffs(problem)[:-1], math.nan)


# Rules whose payoffs hold a NaN: for every agent, or for the last listed one.
NAN_RULES = {
    "nan": CustomRule("nan", _nan_payoffs),
    "nan-last": CustomRule("nan-last", _nan_for_last_agent),
}


# Grid texts parse_grid refuses, by case, with its message: the text or part
# quoted as typed, cut to its first 60 characters when longer.
GRID_MESSAGES = {
    "shape": ("1:2", "grid must look like lo:hi:step, got '1:2'"),
    "long-shape": ("1" * 100_000, "grid must look like lo:hi:step, got '" + "1" * 60 + "...'"),
    "non-numeric": ("a:2:1", "grid has a non-numeric part in 'a:2:1'"),
    "long-non-numeric": (
        "a" * 100_000 + ":2:1",
        "grid has a non-numeric part in '" + "a" * 60 + "...'",
    ),
    "non-finite": ("0:1:inf", "grid step inf is not finite in '0:1:inf'"),
    "long-non-finite": (
        "0:1:" + "1" * 100_000,
        "grid step inf is not finite in '0:1:" + "1" * 56 + "...'",
    ),
    "step": ("1:2:0", "grid step must be positive, got '0'"),
    "long-step": (
        "1:2:-0." + "0" * 100_000,
        "grid step must be positive, got '-0." + "0" * 57 + "...'",
    ),
    # A positive step that rounds to 0.0 is named as too small, not as not
    # positive; a negative one is not positive.
    "tiny-step": ("0:0:1e-400", "grid step '1e-400' is below the float range"),
    "long-tiny-step": (
        "0:1:0." + "0" * 5000 + "1",
        "grid step '0." + "0" * 58 + "...' is below the float range",
    ),
    "negative-tiny-step": ("0:1:-1e-400", "grid step must be positive, got '-1e-400'"),
    "order": (
        "0.10000000000000000001:0.1:1",
        "grid upper end '0.1' is below lower end '0.10000000000000000001'",
    ),
    "long-order": (
        "1:0." + "0" * 100_000 + "1:1",
        "grid upper end '0." + "0" * 58 + "...' is below lower end '1'",
    ),
    "count": ("0:1:1e-300", "grid '0:1:1e-300' has more than 100000 points"),
    "long-count": (
        "0:" + " " * 100_000 + "1e6:1",
        "grid '0:" + " " * 58 + "...' has more than 100000 points",
    ),
    # Parts of more digits than Python reads into an int from a string.
    "digits-order": (
        "1." + "0" * 5000 + "1:1:1",
        "grid upper end '1' is below lower end '1." + "0" * 58 + "...'",
    ),
    "digits-count": (
        "0:1:0.000000001" + "0" * 5000,
        "grid '0:1:0.000000001" + "0" * 45 + "...' has more than 100000 points",
    ),
}

# Valid grid texts with a part of more digits than Python reads into an int
# from a string, and their points.
LONG_GRIDS = {
    "lower-end": ("1." + "0" * 5000 + "1:2:0.5", (1.0, 1.5)),
    "upper-end": ("0:2." + "9" * 100_000 + ":1", (0.0, 1.0, 2.0)),
    "step": ("0:1:0.5" + "0" * 5000 + "1", (0.0, 0.5)),
}

# Axiom names no checker has, with the message that refuses them.
AXIOM_MESSAGES = {
    "short": ("symmetry", "unknown axiom 'symmetry'"),
    "long": ("x" * 100_000, "unknown axiom '" + "x" * 60 + "...'"),
}


def random_problems(seed: int, count: int) -> list[Problem]:
    """A reproducible batch of random problems of 1 to 6 agents."""
    rng = rng_for(seed, "problem-batch")
    problems = []
    for _ in range(count):
        n = int(rng.integers(1, 7))
        problems.append(Block(*draw_profiles(rng, (1, n))).problem(0))
    return problems


def reference_problem() -> Problem:
    return make_problem(("a", "b"), (5.0, 1.0), (1.0, 3.0))


_COEFFS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)
_POLY_FN = _COEFFS.map(lambda c: ScalarFn.poly(*c))
_POLY_RULES = st.tuples(_POLY_FN, _POLY_FN).map(lambda fields: WeightedRule("ab", fields))


def nested_rules(depth):
    """Random polynomial ab rules nested in convex and dual to the given depth."""
    if depth == 0:
        return _POLY_RULES
    inner = nested_rules(depth - 1)
    return st.one_of(
        inner,
        st.builds(DualRule, inner),
        st.builds(ConvexCombination, inner, inner, st.floats(0.0, 1.0)),
    )


def nested_spec(kind, depth):
    """A rule spec string with lin:0.3,0.2 inside depth levels of convex or dual."""
    spec = "lin:0.3,0.2"
    for _ in range(depth):
        spec = f"dual({spec})" if kind == "dual" else f"convex({spec};prop;0.5)"
    return spec
