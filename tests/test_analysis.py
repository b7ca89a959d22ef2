import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from redistrib import analysis
from redistrib import (
    AnalysisError,
    ConvexCombination,
    CustomRule,
    DEFAULT_GRID,
    FULL,
    LABELS,
    LF,
    NAFR,
    NonFinite,
    PROP,
    ParseError,
    RuleError,
    SampleConfig,
    ScalarFn,
    classify,
    extract_ab,
    parse_grid,
    parse_rule,
    profile_rule,
    verify_characterization,
)
from conftest import GRID_MESSAGES, LONG_GRIDS, NAN_RULES, needs_squared_rule, nested_rules

RATIOS = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)


def test_error_hierarchy():
    assert issubclass(AnalysisError, ValueError)


def test_a_rule_that_cannot_pay_a_probe_problem_is_a_rule_error():
    # Probe problems are valid, so a wrong-length payoff vector is the
    # rule's fault; a ratio that makes no problem is the caller's.
    rule = CustomRule("one", lambda problem: (problem.total_income,))
    message = r"rule 'custom:one' does not allocate a probe problem: LengthMismatch: 1 values"
    for probe in (lambda: extract_ab(rule, 0.5), lambda: profile_rule(rule, RATIOS)):
        with pytest.raises(RuleError, match=message):
            probe()
    with pytest.raises(NonFinite):
        extract_ab(PROP, math.inf)


@pytest.mark.parametrize("t", RATIOS)
def test_extracted_weights_match_known_forms(t):
    assert extract_ab(LF, t) == pytest.approx((1.0, 0.0), abs=1e-9)
    assert extract_ab(FULL, t) == pytest.approx((0.0, 0.0), abs=1e-9)
    assert extract_ab(PROP, t) == pytest.approx((0.0, t), abs=1e-9)
    assert extract_ab(NAFR, t) == pytest.approx((0.0, 1.0), abs=1e-9)
    assert extract_ab(parse_rule("lin:0.3,0.2"), t) == pytest.approx(
        (0.3, 0.2 * t), abs=1e-9
    )
    quad = parse_rule("ab:A=poly:0.0,0.0,1.0,B=id")
    assert extract_ab(quad, t) == pytest.approx((t * t, t), abs=1e-9)


@given(rule=nested_rules(2), t=st.floats(-5.0, 5.0))
def test_extracted_weights_match_closed_form(rule, t):
    assert extract_ab(rule, t) == pytest.approx(rule.weights_at(t), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "rule",
    [parse_rule("dual(lin:0.3,0.2)"), needs_squared_rule(), NAN_RULES["nan"]],
    ids=["grammar", "sqneed", "nan"],
)
def test_profile_is_extract_ab_at_each_point(rule):
    grid = (-1e6, -2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 1e6)
    profile = profile_rule(rule, grid)
    pointwise = [extract_ab(rule, t) for t in grid]
    bits = lambda values: [float.hex(v) for v in values]  # NaN and -0.0 included
    assert bits(profile.a_values) == bits(a for a, _ in pointwise)
    assert bits(profile.b_values) == bits(b for _, b in pointwise)


def test_extraction_ignores_problem_magnitude_and_size():
    # classify's residual probes each row at its own totals and agent count.
    base = extract_ab(PROP, 1.5)
    for (income, need), agents in (((30.0, 20.0), 3), ((1.5, 1.0), 5), ((30.0, 20.0), 2)):
        a, b = analysis._extract_ab_batch(PROP, np.array([income]), np.array([need]), agents)
        assert (a[0], b[0]) == pytest.approx(base, abs=1e-9)


def test_profile_collects_grid_columns():
    profile = profile_rule(PROP, RATIOS)
    assert profile.grid == RATIOS
    assert profile.a_values == pytest.approx((0.0,) * 6, abs=1e-9)
    assert profile.b_values == pytest.approx(RATIOS, abs=1e-9)


def test_profile_input_validation():
    with pytest.raises(AnalysisError):
        profile_rule(PROP, (1.0,))
    with pytest.raises(AnalysisError):
        profile_rule(PROP, (1.0, 1.0))
    with pytest.raises(AnalysisError):
        profile_rule(PROP, (2.0, 1.0))


CFG = SampleConfig(seed=17, trials=100)

LABEL_CASES = [
    (LF, "laissez-faire"),
    (FULL, "full"),
    (PROP, "proportional"),
    (NAFR, "need-adjusted-full"),
    (parse_rule("lin:0.3,0.2"), "generic-AB"),
    (ConvexCombination(LF, PROP, 0.5), "generic-AB"),
    (parse_rule("afam:A=id"), "generic-AB"),
    (parse_rule("bfam:B=poly:0.0,0.0,1.0"), "generic-AB"),
    (needs_squared_rule(), "non-AB"),
]


@pytest.mark.parametrize("rule,label", LABEL_CASES, ids=[l for _, l in LABEL_CASES])
def test_classification_labels(rule, label):
    result = classify(rule, DEFAULT_GRID, CFG)
    assert result.label == label
    assert result.label in LABELS
    if label == "non-AB":
        assert result.max_residual > 1e-9
        assert result.witness is not None
    else:
        assert result.max_residual <= 1e-9
        assert result.witness is None


@pytest.mark.parametrize("name", NAN_RULES)
def test_nan_payoffs_classify_as_non_ab(name):
    result = classify(NAN_RULES[name], DEFAULT_GRID, SampleConfig(seed=0, trials=20))
    assert result.label == "non-AB"
    assert math.isnan(result.max_residual)
    assert result.witness is not None


def _nan_at_half(problem):
    """Proportional, but NaN for every agent at ratio 0.5, which no draw hits."""
    if problem.total_income / problem.total_need == 0.5:
        return [math.nan] * len(problem)
    return PROP.payoffs(problem)


def test_a_non_finite_weight_fits_no_shape_and_is_non_ab():
    # max and min skip a NaN that is not first, so a constant fit would
    # take weights (0.5, nan, 0.5) as the constant nan.
    for values in [(0.5, math.nan, 0.5), (math.nan, 0.5), (0.5, math.inf), (0.0, 0.0, math.nan)]:
        zero = ("zero", (0.0,) * len(values), 0.0)
        assert analysis._fit_shape(values, [zero], 1e-9) == ("other", None)
    # The sampled residual is rounding noise, but the grid's weights at 0.5
    # are NaN: the profile shows no membership.
    result = classify(CustomRule("nan-at-half", _nan_at_half), DEFAULT_GRID, SampleConfig(1, 50))
    assert result.max_residual <= 1e-9
    assert math.isnan(result.profile.a_values[DEFAULT_GRID.index(0.5)])
    assert (result.label, result.a_shape, result.a_value) == ("non-AB", "other", None)
    assert result.witness is None


def test_classification_shape_evidence():
    prop = classify(PROP, DEFAULT_GRID, CFG)
    assert (prop.a_shape, prop.b_shape) == ("zero", "identity")
    nafr = classify(NAFR, DEFAULT_GRID, CFG)
    assert nafr.b_shape == "constant"
    assert nafr.b_value == pytest.approx(1.0)
    lin = classify(parse_rule("lin:0.3,0.2"), DEFAULT_GRID, CFG)
    assert lin.a_shape == "constant"
    assert lin.a_value == pytest.approx(0.3)
    assert lin.b_shape == "other"
    assert lin.b_value is None


# Weights within about tol of a catalog shape. Each shape is a point test,
# |v − p| ≤ tol·max(1, |p|): absolute for the 0 and 1 targets and relative
# to |t| for B = t, so at t = 5 a gap of 2e-9 still reads as identity.
FIT_BOUNDARY_CASES = [
    ("ab:A=const:0.0,B=scale:1.0000000004", ("proportional", "zero", 0.0, "identity", None)),
    ("ab:A=const:0.0,B=scale:1.000000004", ("generic-AB", "zero", 0.0, "other", None)),
    (
        "bfam:B=const:1.0000000009",
        ("need-adjusted-full", "zero", 0.0, "constant", 1.0000000009000003),
    ),
    ("ab:A=const:0.9999999995,B=const:0.0", ("laissez-faire", "one", 1.0, "zero", 0.0)),
    ("afam:A=const:5e-10", ("proportional", "zero", 0.0, "identity", None)),
    ("lin:5e-10,0.9999999996", ("proportional", "zero", 0.0, "identity", None)),
]
BOUNDARY_GRID = parse_grid("-5:5:1")
BOUNDARY_CFG = SampleConfig(seed=7, trials=300)


@pytest.mark.parametrize("spec,fit", FIT_BOUNDARY_CASES, ids=[s for s, _ in FIT_BOUNDARY_CASES])
def test_classification_shape_fits_at_their_tolerance(spec, fit):
    result = classify(parse_rule(spec), BOUNDARY_GRID, BOUNDARY_CFG, tol=1e-9)
    assert (result.label, result.a_shape, result.a_value, result.b_shape, result.b_value) == fit


@pytest.mark.parametrize(
    "spec,dummy_family",
    [
        # B = (1 − A)t is tested relative to |t|: at t = 5 the gap is 4e-9.
        ("ab:A=const:0.5,B=scale:0.5000000008", True),
        ("ab:A=const:0.5,B=scale:0.500000002", False),
    ],
)
def test_characterization_mix_family_at_its_tolerance(spec, dummy_family):
    report = verify_characterization(parse_rule(spec), BOUNDARY_CFG, 1e-9, BOUNDARY_GRID)
    pairs = [(check.premise_holds, check.conclusion_holds) for check in report.implications]
    assert pairs == [(False, False), (False, False), (dummy_family,) * 2, (True, True)]


def test_classification_is_deterministic():
    assert classify(FULL, DEFAULT_GRID, CFG) == classify(FULL, DEFAULT_GRID, CFG)


def test_classification_grid_validation():
    with pytest.raises(AnalysisError):
        classify(PROP, (-1.0, 0.0, 1.0), CFG)
    with pytest.raises(AnalysisError):
        classify(PROP, (0.0, 0.5, 1.0, 1.5, 2.0), CFG)
    with pytest.raises(AnalysisError):
        classify(PROP, (-2.0, -1.5, -1.0, 0.5, 1.0), CFG)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            classify(PROP, DEFAULT_GRID, CFG, tol=tol)


def test_characterization_of_proportional():
    report = verify_characterization(PROP, CFG)
    assert report.classification.label == "proportional"
    assert len(report.implications) == 4
    assert all(check.premise_holds for check in report.implications)
    assert all(check.conclusion_holds for check in report.implications)
    assert report.consistent


def test_characterization_of_need_weight_family_member():
    rule = parse_rule("bfam:B=poly:0.0,0.0,1.0")
    report = verify_characterization(rule, CFG)
    by_name = {check.name: check for check in report.implications}
    stability_only = by_name[
        "core+nat+stability -> untouched incomes or need-deviation family"
    ]
    assert stability_only.premise_holds
    assert stability_only.conclusion_holds
    assert not by_name[
        "core+nat+stability+dummy -> untouched incomes or proportional"
    ].premise_holds
    assert report.consistent


def test_characterization_of_income_weight_family_member():
    report = verify_characterization(parse_rule("afam:A=const:0.5"), CFG)
    by_name = {check.name: check for check in report.implications}
    mix = by_name["core+nat+dummy -> income-weighted mix family"]
    assert mix.premise_holds
    assert mix.conclusion_holds
    assert report.consistent


def test_characterization_at_large_ratios():
    grid = (-2e9, -1e9, 0.0, 1e9, 2e9)
    report = verify_characterization(parse_rule("afam:A=const:0.5"), CFG, grid=grid)
    assert report.classification.label == "generic-AB"
    assert report.consistent


def test_characterization_outside_the_family():
    report = verify_characterization(needs_squared_rule(), CFG)
    assert report.classification.label == "non-AB"
    assert not any(check.premise_holds for check in report.implications)
    assert report.consistent


def test_parse_grid():
    assert parse_grid("-2:2:1") == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert parse_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert parse_grid("1:1:1") == (1.0,)
    assert parse_grid("-1e200:1e200:1e200") == (-1e200, 0.0, 1e200)
    assert parse_grid("1_0:2_0:5") == (10.0, 15.0, 20.0)


@pytest.mark.parametrize(
    "text,points",
    [
        ("-0.3:0.3:0.1", (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)),
        ("-0.6:0.6:0.2", (-0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6)),
        ("-0.9:0.9:0.3", (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)),
        ("0:0.3:0.1", (0.0, 0.1, 0.2, 0.3)),
        ("0.1:0.35:0.1", (0.1, 0.2, 0.3)),
    ],
)
def test_parse_grid_rounds_each_decimal_point_once(text, points):
    grid = parse_grid(text)
    assert grid == points
    lo, hi, step = (Fraction(p) for p in text.split(":"))
    assert grid == tuple(float(lo + k * step) for k in range(len(grid)))
    assert lo + (len(grid) - 1) * step <= hi < lo + len(grid) * step
    assert all(math.copysign(1.0, t) == 1.0 for t in grid if t == 0.0)


@pytest.mark.parametrize("text,points", LONG_GRIDS.values(), ids=list(LONG_GRIDS))
def test_parse_grid_reads_a_part_of_any_length_exactly(text, points):
    assert parse_grid(text) == points


def test_parse_grid_reads_a_part_below_the_float_range_as_zero_at_once():
    start = time.perf_counter()
    assert parse_grid("1e-9999999:1:0.5") == (0.0, 0.5, 1.0)
    assert time.perf_counter() - start < 0.1


# A non-finite part is named before the points are counted.
NON_FINITE_GRIDS = {
    "nan:1:1": "lower end nan",
    "0:nan:1": "upper end nan",
    "0:1:nan": "step nan",
    "-inf:0:1": "lower end -inf",
    "0:inf:1": "upper end inf",
    "0:1:inf": "step inf",
}


@pytest.mark.parametrize(
    "bad",
    [
        "1:2",
        "a:2:1",
        "1:2:0",
        "2:1:1",
        "1:2:-1",
        "1:2:3:4",
        "",
        "0:1:1e-300",
        "-1e308:1e308:1e-300",
        *NON_FINITE_GRIDS,
    ],
)
def test_parse_grid_rejects_malformed_text(bad):
    with pytest.raises(ParseError, match=NON_FINITE_GRIDS.get(bad)):
        parse_grid(bad)


@pytest.mark.parametrize("text,message", GRID_MESSAGES.values(), ids=list(GRID_MESSAGES))
def test_parse_grid_quotes_the_text_as_typed_and_in_short(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_grid(text)
    assert str(excinfo.value) == message


def test_parse_grid_caps_the_point_count_before_building(monkeypatch):
    with pytest.raises(ParseError):
        parse_grid(f"0:{analysis.MAX_GRID_POINTS}:1")
    monkeypatch.setattr(analysis, "MAX_GRID_POINTS", 5)
    assert parse_grid("1:5:1") == (1.0, 2.0, 3.0, 4.0, 5.0)
    with pytest.raises(ParseError):
        parse_grid("0:5:1")
