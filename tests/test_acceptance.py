"""Acceptance suite: one verdict line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they print. Every check uses seeded sampling at desk scale (1 to 6
agents) and a tolerance of 1e-9, scaled by problem magnitude wherever
the underlying checker defines a scale.
"""

import pytest

from redistrib import (
    ConvexCombination,
    DEFAULT_GRID,
    DualRule,
    FULL,
    LF,
    NAFR,
    PROP,
    SampleConfig,
    ScalarFn,
    WeightedRule,
    axiom_suite,
    check_allocation,
    check_axiom,
    check_self_dual,
    classify,
    dual_closed_form,
    dual_payoffs,
    equivalent_on,
    evaluate,
    extract_ab,
    format_rule,
    parse_rule,
    recheck_counterexample,
)
from conftest import needs_squared_rule, random_problems
from scalar_measures import MEASURES

TOL = 1e-9
AX_CFG = SampleConfig(seed=20260819, trials=1000)

MAIN_AXIOMS = (
    "homogeneity",
    "equal_treatment",
    "continuity",
    "nat",
    "stability",
    "dummy",
)

CONST0 = ScalarFn.constant(0.0)
CONST_HALF = ScalarFn.constant(0.5)
CONST1 = ScalarFn.constant(1.0)
IDENT = ScalarFn.identity()
SQUARE = ScalarFn.poly(0.0, 0.0, 1.0)


def _verdict(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert not failures, "; ".join(failures)


def test_criterion_01_reference_rules_pass_main_axioms():
    failures = []
    for rule in (PROP, LF):
        for report in axiom_suite(rule, MAIN_AXIOMS, AX_CFG, TOL):
            if not report.passed:
                failures.append(f"{format_rule(rule)} fails {report.axiom}")
    _verdict(
        1,
        "proportional and laissez-faire pass all six main axioms "
        f"({AX_CFG.trials} samples each)",
        failures,
    )


def _scalar_recheck(axiom, rule, counterexample):
    deviation, scale, _, _ = MEASURES[axiom](rule, counterexample.instance)
    return deviation, scale


def test_criterion_02_negative_controls_with_witnesses():
    failures = []
    controls = [
        ("dummy", FULL),
        ("stability", WeightedRule("afam", (CONST_HALF,))),
        ("nat", needs_squared_rule()),
    ]
    for axiom, rule in controls:
        name = format_rule(rule)
        report = check_axiom(axiom, rule, AX_CFG, TOL)
        if report.passed:
            failures.append(f"{name} unexpectedly passes {axiom}")
            continue
        if report.counterexample is None:
            failures.append(f"{name} fails {axiom} without a counterexample")
            continue
        # Re-checked by the screen and by the independent scalar measure.
        for recheck in (recheck_counterexample, _scalar_recheck):
            deviation, scale = recheck(axiom, rule, report.counterexample)
            if not deviation > TOL * scale:
                failures.append(
                    f"{name} counterexample for {axiom} does not re-violate "
                    f"under {recheck.__name__} (deviation {deviation}, scale {scale})"
                )
    _verdict(
        2,
        "negative controls fail the expected axioms with re-checkable "
        "counterexamples",
        failures,
    )


def test_criterion_03_families_pass_their_axiom_sets():
    failures = []

    def expect_pass(rule, axioms):
        for report in axiom_suite(rule, axioms, AX_CFG, TOL):
            if not report.passed:
                failures.append(f"{format_rule(rule)} fails {report.axiom}")

    for b_fn in (CONST0, IDENT, SQUARE):
        expect_pass(WeightedRule("bfam", (b_fn,)), ["core", "nat", "stability"])
    for a_fn in (CONST0, CONST_HALF, CONST1):
        expect_pass(WeightedRule("afam", (a_fn,)), ["core", "nat", "dummy"])
    for a_fn in (CONST0, CONST_HALF, CONST1):
        for b_fn in (CONST0, CONST1, IDENT):
            expect_pass(WeightedRule("ab", (a_fn, b_fn)), ["core", "nat"])
    _verdict(
        3,
        "need-weight family passes core+nat+stability, income-weight family "
        "core+nat+dummy, and nine two-weight rules core+nat",
        failures,
    )


def test_criterion_04_duality():
    failures = []
    problems_1000 = random_problems(20260819, 1000)
    problems_100 = random_problems(7, 100)

    verdict = equivalent_on(DualRule(FULL), NAFR, problems_1000, tol=TOL)
    if not verdict.passed:
        failures.append(
            f"dual of full != need-adjusted full (gap {verdict.max_deviation})"
        )

    for rule in (PROP, LF):
        report = check_self_dual(rule, AX_CFG, TOL)
        if not report.is_self_dual:
            failures.append(f"{format_rule(rule)} is not self-dual")

    ab_catalog = [
        WeightedRule("ab", (a_fn, b_fn))
        for a_fn in (CONST0, CONST_HALF, CONST1, IDENT)
        for b_fn in (CONST0, CONST1, IDENT, SQUARE)
    ]
    for rule in ab_catalog:
        rewritten = dual_closed_form(rule)
        verdict = equivalent_on(rewritten, DualRule(rule), problems_100, tol=TOL)
        if not verdict.passed:
            failures.append(
                f"closed-form dual of {format_rule(rule)} disagrees with the "
                f"lazy dual (gap {verdict.max_deviation})"
            )

    round_trip = ab_catalog + [
        LF,
        FULL,
        PROP,
        NAFR,
        WeightedRule("afam", (IDENT,)),
        WeightedRule("bfam", (SQUARE,)),
        parse_rule("lin:0.3,0.2"),
        parse_rule("lindual:0.3,0.2"),
        ConvexCombination(FULL, PROP, 0.25),
    ]
    for rule in round_trip:
        twice = dual_closed_form(dual_closed_form(rule))
        verdict = equivalent_on(twice, rule, problems_100, tol=TOL)
        if not verdict.passed:
            failures.append(
                f"dual of dual of {format_rule(rule)} is not the original "
                f"(gap {verdict.max_deviation})"
            )
    spot = problems_100[0]
    if dual_payoffs(DualRule(parse_rule("lin:0.3,0.2")), spot) != pytest.approx(
        parse_rule("lin:0.3,0.2").payoffs(spot), abs=TOL
    ):
        failures.append("lazy dual applied twice drifts from the original")
    _verdict(
        4,
        "dual of full equals need-adjusted full, the reference rules are "
        "self-dual, closed-form duals match lazy duals, and the operator "
        "is an involution",
        failures,
    )


def test_criterion_05_extraction_and_classification():
    failures = []
    ratios = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
    expectations = [
        (LF, lambda t: (1.0, 0.0)),
        (FULL, lambda t: (0.0, 0.0)),
        (PROP, lambda t: (0.0, t)),
        (NAFR, lambda t: (0.0, 1.0)),
        (parse_rule("lin:0.3,0.2"), lambda t: (0.3, 0.2 * t)),
    ]
    for rule, weights_at in expectations:
        for t in ratios:
            got = extract_ab(rule, t)
            want = weights_at(t)
            if abs(got[0] - want[0]) > TOL or abs(got[1] - want[1]) > TOL:
                failures.append(
                    f"{format_rule(rule)} at ratio {t}: extracted {got}, "
                    f"expected {want}"
                )

    label_cases = [
        (LF, "laissez-faire"),
        (FULL, "full"),
        (PROP, "proportional"),
        (NAFR, "need-adjusted-full"),
        (parse_rule("lin:0.3,0.2"), "generic-AB"),
        (ConvexCombination(LF, PROP, 0.5), "generic-AB"),
        (needs_squared_rule(), "non-AB"),
    ]
    for rule, expected in label_cases:
        got = classify(rule, DEFAULT_GRID, AX_CFG, TOL).label
        if got != expected:
            failures.append(
                f"{format_rule(rule)} classified {got!r}, expected {expected!r}"
            )
    _verdict(
        5,
        "probing recovers the known weight functions on the ratio grid and "
        "every classification label is correct",
        failures,
    )


def test_criterion_06_linear_families_are_additive():
    failures = []
    pairs = [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.3, 0.2), (-0.5, 1.0)]
    for a1, a2 in pairs:
        direct = check_axiom("income_additivity", WeightedRule("lin", (a1, a2)), AX_CFG, TOL)
        if not direct.passed:
            failures.append(f"lin:{a1},{a2} fails income_additivity")
        mirrored = check_axiom(
            "dual_income_additivity", WeightedRule("lindual", (a1, a2)), AX_CFG, TOL
        )
        if not mirrored.passed:
            failures.append(f"lindual:{a1},{a2} fails dual_income_additivity")
    _verdict(
        6,
        "the linear family is income additive and its mirror family is "
        "dual income additive, at arbitrary real coefficients",
        failures,
    )


def test_criterion_07_convex_mixtures_keep_their_axioms():
    failures = []
    grids = [
        (FULL, PROP, ["core", "nat", "stability", "income_additivity"]),
        (NAFR, PROP, ["core", "nat", "stability", "dual_income_additivity"]),
        (LF, PROP, ["core", "nat", "dummy", "income_additivity"]),
    ]
    for first, second, axioms in grids:
        for weight in (0.0, 0.25, 0.5, 1.0):
            rule = ConvexCombination(first, second, weight)
            for report in axiom_suite(rule, axioms, AX_CFG, TOL):
                if not report.passed:
                    failures.append(
                        f"{format_rule(rule)} fails {report.axiom}"
                    )
    _verdict(
        7,
        "mixtures of the catalog rules keep the axiom sets of their "
        "families across the weight range",
        failures,
    )


def test_criterion_08_family_embeddings():
    failures = []
    cases = [
        (WeightedRule("ab", (CONST0, IDENT)), PROP),
        (WeightedRule("ab", (CONST1, CONST0)), LF),
        (WeightedRule("ab", (CONST0, CONST0)), FULL),
        (WeightedRule("ab", (CONST0, CONST1)), NAFR),
        (parse_rule("afam:A=const:0.3"), ConvexCombination(LF, PROP, 0.3)),
        (parse_rule("lin:0.0,1.0"), PROP),
        (parse_rule("lin:1.0,0.0"), LF),
        (parse_rule("lin:0.0,0.0"), FULL),
        (parse_rule("lindual:0.0,0.0"), NAFR),
    ]
    for k, (first, second) in enumerate(cases):
        problems = random_problems(100 + k, 100)
        verdict = equivalent_on(first, second, problems, tol=TOL)
        if not verdict.passed:
            failures.append(
                f"{format_rule(first)} != {format_rule(second)} "
                f"(gap {verdict.max_deviation})"
            )
    _verdict(
        8,
        "all nine family embeddings coincide payoff-for-payoff on random "
        "problems",
        failures,
    )


def test_criterion_09_every_allocation_balances():
    failures = []
    rules = [
        LF,
        FULL,
        PROP,
        NAFR,
        WeightedRule("ab", (CONST_HALF, IDENT)),
        WeightedRule("afam", (IDENT,)),
        WeightedRule("bfam", (SQUARE,)),
        parse_rule("lin:0.3,0.2"),
        parse_rule("lindual:-0.5,1.0"),
        ConvexCombination(FULL, PROP, 0.5),
        DualRule(needs_squared_rule()),
        needs_squared_rule(),
    ]
    violations = 0
    for problem in random_problems(20260819, 200):
        for rule in rules:
            allocation = evaluate(rule, problem)
            if not check_allocation(problem, allocation.values).passed:
                violations += 1
    if violations:
        failures.append(f"{violations} balance violations")
    _verdict(
        9,
        "2400 rule evaluations all return allocations summing to total "
        "income within the balance tolerance",
        failures,
    )


def test_criterion_10_reports_are_reproducible():
    failures = []
    cfg = SampleConfig(seed=314, trials=200)
    if axiom_suite(PROP, "all", cfg, TOL) != axiom_suite(PROP, "all", cfg, TOL):
        failures.append("axiom suite reports differ between reruns")
    if check_axiom("dummy", FULL, cfg, TOL) != check_axiom("dummy", FULL, cfg, TOL):
        failures.append("failing reports differ between reruns")
    if classify(parse_rule("lin:0.3,0.2"), DEFAULT_GRID, cfg, TOL) != classify(
        parse_rule("lin:0.3,0.2"), DEFAULT_GRID, cfg, TOL
    ):
        failures.append("classifications differ between reruns")
    if check_self_dual(FULL, cfg, TOL) != check_self_dual(FULL, cfg, TOL):
        failures.append("duality reports differ between reruns")
    _verdict(
        10,
        "rerunning every checker with the same seed reproduces identical "
        "reports",
        failures,
    )
