import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redistrib import duality as duality_module
from redistrib import rules as rules_module
from redistrib import (
    ABRule,
    AFamilyRule,
    BFamilyRule,
    ConvexCombination,
    CustomRule,
    LengthMismatch,
    DEFAULT_GRID,
    DualReport,
    DualRule,
    FULL,
    LF,
    LinearDualRule,
    LinearRule,
    NAFR,
    PROP,
    SampleConfig,
    ScalarFn,
    WeightedRule,
    check_allocation,
    check_self_dual,
    dual_ab,
    dual_closed_form,
    dual_payoffs,
    equivalent_on,
    evaluate,
    extract_ab,
    format_rule,
    parse_rule,
    problem_scale,
)
from conftest import (
    NAN_RULES,
    nested_rules,
    needs_squared_rule,
    random_problems,
    reference_problem,
)

TOL = 1e-9


def test_reflected_problem_swaps_income_for_shortfall():
    seen = []

    def recording(problem):
        seen.append(problem)
        return LF.payoffs(problem)

    p = reference_problem()
    assert dual_payoffs(CustomRule("recording", recording), p).tolist() == [5.0, 1.0]
    (mirrored,) = seen
    assert mirrored.incomes.tolist() == [-4.0, 2.0]
    assert mirrored.needs.tolist() == p.needs.tolist()
    assert mirrored.agents == p.agents


def test_dual_payoffs_reject_a_payoff_vector_of_another_length():
    first_only = CustomRule("first-only", lambda q: q.incomes[:1])
    with pytest.raises(LengthMismatch, match="1 values for 2 agents"):
        dual_payoffs(first_only, reference_problem())


def test_dual_payoffs_on_reference_problem():
    p = reference_problem()
    assert dual_payoffs(FULL, p) == pytest.approx((2.0, 4.0))
    assert dual_payoffs(NAFR, p) == pytest.approx((3.0, 3.0))
    assert dual_payoffs(LF, p) == pytest.approx((5.0, 1.0))
    assert dual_payoffs(PROP, p) == pytest.approx((1.5, 4.5))


def test_lazy_wrapper_matches_direct_dual():
    for p in random_problems(3, 50):
        assert evaluate(DualRule(FULL), p).values == pytest.approx(dual_payoffs(FULL, p))


def test_dual_of_custom_rule_still_balances():
    rule = needs_squared_rule()
    for p in random_problems(5, 50):
        assert check_allocation(p, dual_payoffs(rule, p)).passed


def test_dual_ab_catalog_weights():
    assert dual_ab(ScalarFn.constant(0.0), ScalarFn.constant(0.0)) == (
        ScalarFn.constant(0.0),
        ScalarFn.constant(1.0),
    )
    assert dual_ab(ScalarFn.constant(0.0), ScalarFn.identity()) == (
        ScalarFn.constant(0.0),
        ScalarFn.identity(),
    )
    assert dual_ab(ScalarFn.constant(1.0), ScalarFn.constant(0.0)) == (
        ScalarFn.constant(1.0),
        ScalarFn.constant(0.0),
    )
    income, need = dual_ab(ScalarFn.poly(0.0, 0.0, 1.0), ScalarFn.constant(0.0))
    assert income == ScalarFn.poly(1.0, -2.0, 1.0)
    assert need == ScalarFn.poly(0.0, 2.0, -1.0)


def test_dual_ab_callables_match_catalog_pointwise():
    # plain callables have no closed form: the dual rule reflects them pointwise
    catalog = dual_ab(ScalarFn.poly(0.0, 0.0, 1.0), ScalarFn.identity())
    rule = ABRule(lambda t: t * t, lambda t: t)
    plain = dual_closed_form(rule)
    assert plain == DualRule(rule)
    for t in (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0):
        assert plain.weights_at(t) == pytest.approx(
            (catalog[0](t), catalog[1](t)), abs=1e-12
        )


def _through_points(f, degree):
    """Exact ascending coefficients of the polynomial of this degree through
    the points (k, f(k)), k = 0..degree, by Lagrange interpolation."""
    coeffs = [Fraction(0)] * (degree + 1)
    for i in range(degree + 1):
        basis = [f(i)]
        for j in range(degree + 1):
            if j != i:
                # times (t − j)/(i − j)
                basis = [(lo - j * hi) / (i - j) for lo, hi in zip([0, *basis], [*basis, 0])]
        coeffs = [c + b for c, b in zip(coeffs, basis)]
    return coeffs


def _exact_dual_weights(rule):
    """The weights of the dual of an ab rule with poly weights, each
    coefficient the exact value rounded once."""
    a, b = (
        [Fraction(c) for c in fn.coefficients()]
        for fn in (rule.income_weight, rule.need_weight)
    )

    def at(coeffs, x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    degree = max(len(a), len(b)) - 1
    income = _through_points(lambda k: at(a, 1 - k), degree)
    need = _through_points(lambda k: 1 - at(a, 1 - k) - at(b, 1 - k), degree)
    return (
        rules_module.from_coefficients([float(c) for c in income]),
        rules_module.from_coefficients([float(c) for c in need]),
    )


def _exact_closed_form(rule):
    if isinstance(rule, DualRule):
        return rule.inner
    if isinstance(rule, ConvexCombination):
        return ConvexCombination(
            _exact_closed_form(rule.first), _exact_closed_form(rule.second), rule.weight
        )
    return ABRule(*_exact_dual_weights(rule))


def _negative_zeros(spec):
    return re.findall(r"(?<![\d.e])-0\.0(?![\d])", spec)


_POLY_WEIGHTS = st.lists(
    st.one_of(st.floats(-1.0, 1.0), st.floats(-1e6, 1e6)), min_size=1, max_size=5
).map(lambda c: ScalarFn.poly(*c))


@settings(max_examples=300, deadline=None)
@given(
    rule=st.one_of(st.builds(ABRule, _POLY_WEIGHTS, _POLY_WEIGHTS), nested_rules(2))
)
def test_closed_form_dual_weights_are_the_exact_reflection_rounded_once(rule):
    dual = dual_closed_form(rule)
    assert dual == _exact_closed_form(rule)
    spec, dual_spec = format_rule(rule), format_rule(dual)
    assert len(_negative_zeros(dual_spec)) <= len(_negative_zeros(spec))


def test_closed_form_catalog():
    assert dual_closed_form(LF) is LF
    assert dual_closed_form(PROP) is PROP
    assert dual_closed_form(FULL) == NAFR
    assert dual_closed_form(NAFR) == FULL
    assert dual_closed_form(LinearRule(0.3, 0.2)) == LinearDualRule(0.3, 0.2)
    assert dual_closed_form(LinearDualRule(0.3, 0.2)) == LinearRule(0.3, 0.2)
    assert dual_closed_form(AFamilyRule(ScalarFn.identity())) == AFamilyRule(
        ScalarFn.affine(-1.0, 1.0)
    )
    assert dual_closed_form(BFamilyRule(ScalarFn.poly(0.0, 0.0, 1.0))) == BFamilyRule(
        ScalarFn.poly(0.0, 2.0, -1.0)
    )
    combo = dual_closed_form(ConvexCombination(FULL, PROP, 0.25))
    assert combo == ConvexCombination(NAFR, PROP, 0.25)
    inner = LinearRule(0.3, 0.2)
    assert dual_closed_form(DualRule(inner)) is inner
    for rule in (AFamilyRule(lambda t: t), BFamilyRule(lambda t: t)):
        assert dual_closed_form(rule) == DualRule(rule)


def _squared(t):
    return t * t


# The closed-form dual of one spec per catalog form, and of each way the
# grammar nests them, spelled as format_rule spells it.
DUAL_SPELLINGS = [
    ("lf", "lf"),
    ("full", "nafr"),
    ("prop", "prop"),
    ("nafr", "full"),
    (
        "ab:A=poly:0.2,0.1,-0.05,B=poly:0.1,0.3,0.02",
        "ab:A=poly:0.25,0.0,-0.05"
        ",B=poly:0.33,0.33999999999999997,0.030000000000000002",
    ),
    ("ab:A=const:0.5,B=id", "ab:A=const:0.5,B=affine:1.0,-0.5"),
    ("afam:A=id", "afam:A=affine:-1.0,1.0"),
    ("afam:A=scale:2.0", "afam:A=affine:-2.0,2.0"),
    ("bfam:B=poly:0.0,0.0,1.0", "bfam:B=poly:0.0,2.0,-1.0"),
    ("bfam:B=affine:0.5,0.25", "bfam:B=affine:0.5,0.25"),
    ("lin:0.3,0.2", "lindual:0.3,0.2"),
    ("lindual:-0.5,1.0", "lin:-0.5,1.0"),
    ("convex(full;lin:0.3,0.2;0.75)", "convex(nafr;lindual:0.3,0.2;0.75)"),
    ("dual(afam:A=scale:2.0)", "afam:A=scale:2.0"),
    ("dual(dual(nafr))", "dual(nafr)"),
    (
        "convex(dual(lin:0.3,0.2);afam:A=id;0.6)",
        "convex(lin:0.3,0.2;afam:A=affine:-1.0,1.0;0.6)",
    ),
]


@pytest.mark.parametrize("spec,dual", DUAL_SPELLINGS)
def test_closed_form_duals_are_spelled_as_pinned(spec, dual):
    assert format_rule(dual_closed_form(parse_rule(spec))) == dual


def test_closed_form_duals_of_rules_the_grammar_cannot_spell():
    plain = ABRule(_squared, ScalarFn.identity())
    assert format_rule(dual_closed_form(plain)) == "dual(ab:A=<_squared>,B=id)"
    assert dual_closed_form(ConvexCombination(PROP, needs_squared_rule(), 0.3)) is None


def test_closed_form_unknown_rules_return_none():
    assert dual_closed_form(needs_squared_rule()) is None
    assert dual_closed_form(ConvexCombination(LF, needs_squared_rule(), 0.5)) is None


REWRITE_CASES = [
    LF,
    FULL,
    PROP,
    NAFR,
    ABRule(ScalarFn.constant(0.5), ScalarFn.identity()),
    ABRule(ScalarFn.poly(0.0, 0.0, 1.0), ScalarFn.poly(1.0, -1.0)),
    AFamilyRule(ScalarFn.poly(0.0, 0.0, 1.0)),
    BFamilyRule(ScalarFn.identity()),
    LinearRule(-0.5, 1.0),
    LinearDualRule(0.3, 0.2),
    ConvexCombination(FULL, LinearRule(0.3, 0.2), 0.75),
]


@pytest.mark.parametrize("rule", REWRITE_CASES, ids=format_rule)
def test_closed_form_matches_lazy_dual(rule):
    rewritten = dual_closed_form(rule)
    assert rewritten is not None
    verdict = equivalent_on(rewritten, DualRule(rule), random_problems(7, 100))
    assert verdict.passed, verdict.max_deviation


@pytest.mark.parametrize("rule", REWRITE_CASES, ids=format_rule)
def test_applying_the_operator_twice_restores_the_rule(rule):
    doubled = dual_closed_form(dual_closed_form(rule))
    verdict = equivalent_on(doubled, rule, random_problems(9, 100))
    assert verdict.passed, verdict.max_deviation
    for p in random_problems(13, 20):
        assert dual_payoffs(DualRule(rule), p) == pytest.approx(rule.payoffs(p))


WEIGHTED_CASES = [rule for rule in REWRITE_CASES if isinstance(rule, WeightedRule)]
KERNEL_CASES = REWRITE_CASES + [
    parse_rule("dual(convex(lf;nafr;0.4))"),
    parse_rule("convex(dual(lin:0.3,0.2);afam:A=id;0.6)"),
    parse_rule("dual(dual(ab:A=poly:0.2,0.1,-0.05,B=poly:0.1,0.3,0.02))"),
]


def test_weighted_cases_cover_every_weighted_class():
    assert {type(rule) for rule in WEIGHTED_CASES} == set(WeightedRule.__subclasses__())


@pytest.mark.parametrize("rule", KERNEL_CASES, ids=format_rule)
def test_weights_match_extraction_and_reflect_under_duality(rule):
    dual = dual_closed_form(rule)
    for t in DEFAULT_GRID:
        assert rule.weights_at(t) == pytest.approx(extract_ab(rule, t), abs=1e-9)
        a, b = rule.weights_at(1.0 - t)
        assert dual.weights_at(t) == pytest.approx((a, 1.0 - a - b), abs=1e-12)


def _assert_close(observed, expected, problem):
    gap = max(abs(u - v) for u, v in zip(observed, expected))
    assert gap <= TOL * problem_scale(problem), gap


def _assert_kernel_matches_definitions(rule, problems):
    mix = ConvexCombination(rule, PROP, 0.3)
    for p in problems:
        _assert_close(DualRule(rule).payoffs(p), dual_payoffs(rule, p), p)
        mixed = [0.3 * u + 0.7 * v for u, v in zip(rule.payoffs(p), PROP.payoffs(p))]
        _assert_close(mix.payoffs(p), mixed, p)


@pytest.mark.parametrize("rule", KERNEL_CASES, ids=format_rule)
def test_kernel_matches_reflection_and_payoff_mixing(rule):
    _assert_kernel_matches_definitions(rule, random_problems(17, 50))


@settings(max_examples=60, deadline=None)
@given(rule=nested_rules(2), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_definitions_for_random_polynomial_rules(rule, seed):
    assert rule.weights_at(0.5) is not None
    _assert_kernel_matches_definitions(rule, random_problems(seed, 5))


def test_grammar_duals_and_mixtures_evaluate_through_the_kernel(monkeypatch):
    calls = []
    kernel = rules_module.ab_payoffs_batch

    def counting(incomes, needs, totals, a, b, counts=None):
        calls.append((a, b))
        return kernel(incomes, needs, totals, a, b, counts)

    def refuse(rule, block):
        raise AssertionError("reflected problem built")

    monkeypatch.setattr(rules_module, "ab_payoffs_batch", counting)
    monkeypatch.setattr(duality_module, "reflected_payoffs", refuse)
    p = reference_problem()
    for spec in (
        "dual(convex(lf;nafr;0.4))",
        "dual(ab:A=poly:0.2,0.1,-0.05,B=poly:0.1,0.3,0.02)",
    ):
        calls.clear()
        evaluate(parse_rule(spec), p)
        assert len(calls) == 1, spec


def test_rules_with_a_custom_rule_inside_have_no_weights():
    custom = needs_squared_rule()
    for rule in (
        custom,
        DualRule(custom),
        ConvexCombination(LF, custom, 0.5),
        DualRule(ConvexCombination(custom, PROP, 0.5)),
    ):
        assert rule.weights_at(0.5) is None
        for p in random_problems(19, 20):
            evaluate(rule, p)  # balance-checked on construction
    _assert_kernel_matches_definitions(custom, random_problems(23, 20))


def test_self_dual_verdicts():
    cfg = SampleConfig(seed=42, trials=200)
    for rule in (LF, PROP, AFamilyRule(ScalarFn.constant(0.5))):
        report = check_self_dual(rule, cfg)
        assert isinstance(report, DualReport)
        assert report.is_self_dual, format_rule(rule)
        assert report.max_deviation <= report.tolerance
        assert report.witness is None

    report = check_self_dual(FULL, cfg)
    assert not report.is_self_dual
    assert report.max_deviation > report.tolerance
    assert report.witness is not None
    # the witness really separates the rule from its dual
    direct = FULL.payoffs(report.witness)
    mirrored = dual_payoffs(FULL, report.witness)
    assert max(abs(u - v) for u, v in zip(direct, mirrored)) > 0


def test_self_dual_in_the_income_weight_family():
    # constant weights mix two self-dual rules, so they stay self-dual;
    # a weight that varies with the funding ratio does not reflect onto
    # itself and the symmetry breaks
    cfg = SampleConfig(seed=11, trials=100)
    assert check_self_dual(AFamilyRule(ScalarFn.constant(0.4)), cfg).is_self_dual
    assert not check_self_dual(AFamilyRule(ScalarFn.identity()), cfg).is_self_dual


@pytest.mark.parametrize("name", NAN_RULES)
def test_nan_payoffs_are_not_self_dual(name):
    report = check_self_dual(NAN_RULES[name], SampleConfig(seed=0, trials=20))
    assert not report.is_self_dual
    assert math.isnan(report.max_deviation)
    assert report.witness is not None


def test_check_self_dual_rejects_bad_tol():
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            check_self_dual(LF, SampleConfig(), tol=tol)
