"""Shared fixtures and test-only rules."""

from __future__ import annotations

from hypothesis import strategies as st

from redistrib import (
    ABRule,
    ConvexCombination,
    CustomRule,
    DualRule,
    Problem,
    SampleConfig,
    ScalarFn,
    make_problem,
    rng_for,
    sample_problem,
)


def needs_squared_rule() -> CustomRule:
    """Allocates total income in proportion to squared needs.

    Balanced and continuous, but pays groups differently after an internal
    reallocation of needs, so it sits outside the deviation-weighted family.
    """

    def allocate(problem: Problem) -> list[float]:
        weight = sum(z * z for z in problem.needs)
        return [z * z / weight * problem.total_income for z in problem.needs]

    return CustomRule("needs-squared", allocate)


def random_problems(
    seed: int, count: int, n_range: tuple[int, int] = (1, 6)
) -> list[Problem]:
    """A reproducible batch of random problems for equivalence sweeps."""
    cfg = SampleConfig(seed=seed, trials=count, n_range=n_range)
    rng = rng_for(seed, "problem-batch")
    return [sample_problem(rng, cfg) for _ in range(count)]


def reference_problem() -> Problem:
    return make_problem(("a", "b"), (5.0, 1.0), (1.0, 3.0))


_COEFFS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)
_POLY_RULES = st.builds(
    ABRule,
    _COEFFS.map(lambda c: ScalarFn.poly(*c)),
    _COEFFS.map(lambda c: ScalarFn.poly(*c)),
)


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
