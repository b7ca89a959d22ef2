import ast
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from redistrib import (
    ConvexCombination,
    CustomRule,
    DualRule,
    FULL,
    InvalidWeight,
    LF,
    LengthMismatch,
    NAFR,
    PROP,
    ParseError,
    RuleError,
    RuleSpec,
    ScalarFn,
    ValidationError,
    WeightedRule,
    check_allocation,
    equivalent_on,
    evaluate,
    format_rule,
    format_scalar_fn,
    from_coefficients,
    make_problem,
    parse_rule,
    parse_scalar_fn,
    split_rule_list,
)
import redistrib
from redistrib import rules as rules_module
from redistrib import rng_for
from redistrib.axioms import _draw_problems, draw_trials
from redistrib.rules import MAX_RULE_DEPTH
from redistrib.rules import EquivalenceVerdict
from conftest import NAN_RULES, nested_rules, nested_spec, random_problems, reference_problem

# Hand-computed payoffs on incomes (5, 1) with needs (1, 3).
REFERENCE_PAYOFFS = {
    "lf": (5.0, 1.0),
    "full": (3.0, 3.0),
    "prop": (1.5, 4.5),
    "nafr": (2.0, 4.0),
}


def test_catalog_payoffs_on_reference_problem():
    p = reference_problem()
    for spec, expected in REFERENCE_PAYOFFS.items():
        assert evaluate(parse_rule(spec), p).values == pytest.approx(expected)


def test_convex_combination_payoffs():
    p = reference_problem()
    half = ConvexCombination(LF, PROP, 0.5)
    assert evaluate(half, p).values == pytest.approx((3.25, 2.75))


def test_a_family_payoffs():
    p = reference_problem()
    assert evaluate(parse_rule("afam:A=const:0.5"), p).values == pytest.approx(
        (3.25, 2.75)
    )


def test_linear_rule_payoffs():
    p = reference_problem()
    assert evaluate(parse_rule("lin:0.3,0.2"), p).values == pytest.approx((3.3, 2.7))
    assert evaluate(parse_rule("lindual:0.3,0.2"), p).values == pytest.approx((2.8, 3.2))


@pytest.mark.parametrize(
    "payoffs,failure",
    [
        ([1.0, 1.0], "BalanceViolation"),
        ([6.0, math.inf], "NonFinite"),
        ([6.0], "LengthMismatch"),
    ],
)
def test_evaluate_blames_the_rule_when_a_valid_problem_is_not_allocated(payoffs, failure):
    assert not issubclass(RuleError, ValidationError)
    rule = CustomRule("broken", lambda problem: payoffs)
    with pytest.raises(RuleError, match=f"rule 'custom:broken' .*: {failure}: "):
        evaluate(rule, reference_problem())
    # inside a dual, whose reflected problem is built from the valid one
    with pytest.raises(RuleError, match=r"rule 'dual\(custom:broken\)'"):
        evaluate(DualRule(rule), reference_problem())


class _Unspelled(RuleSpec):
    """A rule outside the grammar, which pays every agent 0.0."""

    def __repr__(self):
        return "Unspelled()"

    def _unweighted_batch(self, block):
        return np.zeros_like(block.incomes)


def test_a_rule_outside_the_grammar_is_named_by_its_repr():
    # format_rule cannot spell it, so the RuleError of a problem it does not
    # balance names it by its repr.
    rule = _Unspelled()
    with pytest.raises(ValueError, match=r"^cannot format Unspelled\(\)$"):
        format_rule(rule)
    with pytest.raises(RuleError, match=r"^rule Unspelled\(\) does not allocate this problem: "):
        evaluate(rule, reference_problem())


# Sequences a custom rule may return: a float64 array is copied whole, any
# other sequence, a float32 or a strided array included, goes through float().
SEQUENCES = {
    "list": list,
    "tuple": tuple,
    "generator": iter,
    "array": np.array,
    "float32": lambda values: np.array(values, np.float32),
    "strided": lambda values: np.repeat(values, 2)[::2],
}


@pytest.mark.parametrize("make", SEQUENCES.values(), ids=SEQUENCES)
def test_custom_payoffs_of_any_sequence_give_the_same_allocation_bits(make):
    p = reference_problem()
    rule = CustomRule("fixed", lambda problem: make([1.5, 4.5]))
    payoffs = rule.payoffs(p)
    assert payoffs.dtype == np.float64 and not payoffs.flags.writeable
    values = evaluate(rule, p).values
    assert values.dtype == np.float64 and not values.flags.writeable
    assert values.tobytes() == evaluate(PROP, p).values.tobytes()
    # A padded drawn block paid by payoffs_batch: each row holds the bits of
    # its problem paid alone, then a +0.0 for each padded column.
    shares = CustomRule(
        "shares",
        lambda problem: make((problem.needs * problem.needs * problem.total_income).tolist()),
    )
    counts = np.array([2, 6, 3, 5, 2, 4])
    block = draw_trials(rng_for(3, "sequences"), counts, _draw_problems)["problem"]
    batch = shares.payoffs_batch(block)
    assert batch.dtype == np.float64 and batch.shape == (len(counts), 6)
    for k, n in enumerate(counts):
        assert batch[k, :n].tobytes() == shares.payoffs(block.problem(k)).tobytes()
        assert batch[k, n:].tobytes() == bytes(8 * (6 - n))


@pytest.mark.parametrize("fault", [None, "raises", "short", "long"])
def test_a_custom_block_pays_each_row_once_in_order_up_to_the_first_fault(fault):
    # The function sees each row's Problem once, in row order; a row that
    # raises or pays the wrong number of values ends the block, and no
    # later row is paid.
    counts = np.array([2, 5, 3, 6, 4])
    block = draw_trials(rng_for(4, "recording"), counts, _draw_problems)["problem"]
    seen = []

    def allocate(problem):
        seen.append(problem)
        values = PROP.payoffs(problem).tolist()
        if len(seen) == 3 and fault == "raises":
            raise ZeroDivisionError("row 2")
        if len(seen) == 3 and fault is not None:
            return values[:-1] if fault == "short" else values + [0.0]
        return values

    rule = CustomRule("recording", allocate)
    if fault is None:
        batch = rule.payoffs_batch(block)
        assert batch.tobytes() == PROP.payoffs_batch(block).tobytes()
        assert seen == [block.problem(k) for k in range(len(counts))]
        return
    error, message = {
        "raises": (ZeroDivisionError, "^row 2$"),
        "short": (LengthMismatch, "^2 values for 3 agents$"),
        "long": (LengthMismatch, "^4 values for 3 agents$"),
    }[fault]
    with pytest.raises(error, match=message):
        rule.payoffs_batch(block)
    assert seen == [block.problem(k) for k in range(3)]


def test_ab_rule_evaluates_ratio_once_per_problem():
    calls = []

    def tracking(t):
        calls.append(t)
        return 0.5

    p = reference_problem()
    evaluate(WeightedRule("ab", (tracking, tracking)), p)
    assert calls == [1.5, 1.5]


def test_corner_weights_pay_exactly():
    # (A, B) = (1, 0) pays the incomes and (0, 0) the mean income, bit for
    # bit; prop pays the mean income plus t times each need deviation.
    for p in random_problems(11, 1000):
        n = len(p)
        mean_income, mean_need = p.total_income / n, p.total_need / n
        t = p.total_income / p.total_need
        assert LF.payoffs(p).tolist() == p.incomes.tolist()
        assert FULL.payoffs(p).tolist() == [mean_income] * n
        assert PROP.payoffs(p).tolist() == [
            mean_income + (z - mean_need) * t for z in p.needs.tolist()
        ]


def test_single_agent_gets_everything():
    p = make_problem(("only",), (7.0,), (2.0,))
    rules = [
        LF,
        FULL,
        PROP,
        NAFR,
        parse_rule("ab:A=poly:0.0,0.0,1.0,B=id"),
        parse_rule("afam:A=const:0.4"),
        parse_rule("bfam:B=id"),
        parse_rule("lin:0.3,0.2"),
        parse_rule("lindual:-0.5,1.0"),
        ConvexCombination(LF, NAFR, 0.25),
        DualRule(PROP),
    ]
    for rule in rules:
        assert evaluate(rule, p).values == pytest.approx((7.0,))


EMBEDDINGS = [
    (parse_rule("ab:A=const:1.0,B=const:0.0"), LF),
    (parse_rule("ab:A=const:0.0,B=const:0.0"), FULL),
    (parse_rule("ab:A=const:0.0,B=id"), PROP),
    (parse_rule("ab:A=const:0.0,B=const:1.0"), NAFR),
    (parse_rule("bfam:B=poly:0.0,0.0,1.0"), parse_rule("ab:A=const:0.0,B=poly:0.0,0.0,1.0")),
    (parse_rule("afam:A=const:0.3"), ConvexCombination(LF, PROP, 0.3)),
    (parse_rule("afam:A=const:0.5"), parse_rule("ab:A=const:0.5,B=scale:0.5")),
    (parse_rule("lin:0.3,0.2"), parse_rule("ab:A=const:0.3,B=scale:0.2")),
    (parse_rule("lin:1.0,0.0"), LF),
    (parse_rule("lin:0.0,1.0"), PROP),
    (parse_rule("lin:0.0,0.0"), FULL),
    (parse_rule("lindual:0.0,0.0"), NAFR),
    (ConvexCombination(NAFR, NAFR, 0.7), NAFR),
]


@pytest.mark.parametrize("first,second", EMBEDDINGS)
def test_family_embeddings(first, second):
    verdict = equivalent_on(first, second, random_problems(11, 100), tol=1e-9)
    assert verdict.passed, (format_rule(first), verdict.max_deviation)


def test_equivalent_on_reports_worst_gap():
    verdict = equivalent_on(LF, FULL, [reference_problem()], tol=1e-9)
    assert not verdict.passed
    assert verdict.max_deviation == pytest.approx(2.0)
    assert verdict.witness == reference_problem()
    assert verdict.agent_index == 0


def test_equivalent_on_fails_a_nan_payoff():
    nan_rule = CustomRule("nan", lambda q: [math.nan] * len(q))
    problems = [reference_problem(), make_problem(("c",), (1.0,), (2.0,))]
    for first, second in ((nan_rule, LF), (LF, nan_rule)):
        verdict = equivalent_on(first, second, problems, tol=1e-9)
        assert not verdict.passed
        assert math.isnan(verdict.max_deviation)
        assert verdict.witness == reference_problem()
        assert verdict.agent_index == 0


def test_equivalent_on_fails_a_nan_after_a_finite_gap():
    late_nan = CustomRule("late-nan", lambda q: [5.0, math.nan])
    verdict = equivalent_on(late_nan, FULL, [reference_problem()], tol=1e-9)
    assert not verdict.passed
    assert math.isnan(verdict.max_deviation)
    assert verdict.agent_index == 1


# Rules paying ±inf or ±1e308, whose payoff gaps are NaN or overflow.
_EXTREME_RULES = [
    CustomRule("inf", lambda q: [math.inf] * len(q)),
    CustomRule("huge", lambda q: [(-1.0) ** k * 1e308 for k in range(len(q))]),
]
_ANY_RULES = st.one_of(
    nested_rules(2),
    st.sampled_from([LF, FULL, PROP, NAFR, *NAN_RULES.values(), *_EXTREME_RULES]),
)


def _equivalent_on_reference(first, second, problems, tol):
    """equivalent_on, one payoff pair at a time."""
    worst, witness, where = 0.0, None, None
    for problem in problems:
        for i, (u, v) in enumerate(zip(first.payoffs(problem), second.payoffs(problem))):
            gap = abs(float(u) - float(v))
            if math.isnan(gap):
                return EquivalenceVerdict(False, gap, problem, i)
            if gap > worst:
                worst, witness, where = gap, problem, i
    return EquivalenceVerdict(worst <= tol, worst, witness, where)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(_ANY_RULES, _ANY_RULES, st.integers(0, 2**16), st.integers(1, 8))
def test_equivalent_on_matches_the_per_entry_reference(first, second, seed, count):
    problems = random_problems(seed, count)
    verdict = equivalent_on(first, second, problems)
    expected = _equivalent_on_reference(first, second, problems, 1e-9)
    assert verdict.passed == expected.passed
    assert repr(verdict.max_deviation) == repr(expected.max_deviation)
    assert verdict.witness is expected.witness
    assert verdict.agent_index == expected.agent_index


def test_equivalent_on_reports_the_first_of_tied_gaps():
    problems = [make_problem(ids, (1.0, 2.0, 3.0), (1.0, 1.0, 1.0)) for ids in ("abc", "def")]
    steps = CustomRule("steps", lambda q: [1.0, 3.0, -3.0])
    zeros = CustomRule("zeros", lambda q: [0.0, 0.0, 0.0])
    verdict = equivalent_on(steps, zeros, problems)
    assert (verdict.max_deviation, verdict.agent_index) == (3.0, 1)
    assert verdict.witness is problems[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(_ANY_RULES, _ANY_RULES, st.floats(0.0, 1.0), st.integers(0, 2**16))
def test_convex_fallback_mixes_payoffs_bit_for_bit(first, second, weight, seed):
    custom = CustomRule("wrapped", first.payoffs)
    (problem,) = random_problems(seed, 1)
    x1, x2 = first.payoffs(problem).tolist(), second.payoffs(problem).tolist()
    expected = [weight * u + (1.0 - weight) * v for u, v in zip(x1, x2)]
    mixed = ConvexCombination(custom, second, weight).payoffs(problem)
    assert mixed.tobytes() == np.array(expected).tobytes()


def test_equivalent_on_rejects_a_payoff_vector_of_another_length():
    first_only = CustomRule("first-only", lambda q: q.incomes[:1])
    for first, second in ((first_only, LF), (LF, first_only)):
        with pytest.raises(LengthMismatch, match="1 values for 2 agents"):
            equivalent_on(first, second, [reference_problem()], tol=1e-9)


def test_convex_payoffs_reject_a_payoff_vector_of_another_length():
    first_only = CustomRule("first-only", lambda q: q.incomes[:1])
    for first, second in ((first_only, LF), (LF, first_only)):
        with pytest.raises(LengthMismatch, match="1 values for 2 agents"):
            ConvexCombination(first, second, 0.5).payoffs(reference_problem())


def test_custom_payoffs_reject_a_payoff_vector_of_another_length():
    p = make_problem(("a", "b", "c"), (1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
    for allocate, count in ((lambda q: (q.total_income,), 1), (lambda q: (*q.incomes, 0.0), 4)):
        with pytest.raises(LengthMismatch, match=f"^{count} values for 3 agents$"):
            CustomRule("wrong-length", allocate).payoffs(p)


def _package_trees():
    """Each module of the package, by file name, as its parsed tree."""
    for path in sorted(Path(redistrib.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _imports(tree):
    """Each import under tree, with the module and names it reads; a relative
    import reads from redistrib."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "") if node.level == 0 else "redistrib"
            yield node, [module] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]


def test_no_function_imports_a_module_of_the_package():
    # The package's modules import each other at their heads only.
    imports = []
    for filename, tree in _package_trees():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node, names in _imports(function):
                if any(name.partition(".")[0] == "redistrib" for name in names):
                    imports.append(f"{filename}:{node.lineno}")
    assert imports == []


def test_no_module_of_the_package_imports_the_benchmark_or_its_oracle():
    # perfbench's oracle referees the package's weights and verdicts, which
    # it can do only while it shares no code with the package.
    imports = []
    for filename, tree in _package_trees():
        for node, names in _imports(tree):
            if {part for name in names for part in name.split(".")} & {"perfbench", "oracle"}:
                imports.append(f"{filename}:{node.lineno}")
    assert imports == []


def test_equivalent_on_rejects_bad_tol():
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            equivalent_on(LF, LF, [], tol=tol)


def test_invalid_convex_weight():
    with pytest.raises(InvalidWeight):
        ConvexCombination(LF, PROP, 1.5)
    with pytest.raises(InvalidWeight):
        ConvexCombination(LF, PROP, -0.1)
    with pytest.raises(InvalidWeight):
        ConvexCombination(LF, PROP, math.nan)


def test_scalar_fn_kinds_evaluate():
    assert ScalarFn.constant(3.0)(9.0) == 3.0
    assert ScalarFn.identity()(2.5) == 2.5
    assert ScalarFn.scaled(2.0)(3.0) == 6.0
    assert ScalarFn.affine(2.0, -1.0)(3.0) == 5.0
    assert ScalarFn.poly(1.0, 0.0, 2.0)(3.0) == 19.0


def test_scalar_fn_takes_an_array_of_ratios():
    ts = [-2.0, -0.5, 0.0, 0.3, 1.0, 3.0]
    for fn in (
        ScalarFn.constant(2.0),
        ScalarFn.identity(),
        ScalarFn.scaled(-3.0),
        ScalarFn.affine(2.0, 1.0),
        ScalarFn.poly(1.0, -2.0, 0.5),
    ):
        at_array = np.broadcast_to(fn(np.array(ts)), len(ts))
        assert at_array.tobytes() == np.array([fn(t) for t in ts]).tobytes()


def test_scalar_fn_validation():
    with pytest.raises(ValueError):
        ScalarFn("const", (1.0, 2.0))
    with pytest.raises(ValueError):
        ScalarFn("poly", ())
    with pytest.raises(ValueError):
        ScalarFn("wavelet", (1.0,))
    with pytest.raises(ValueError):
        ScalarFn.constant(math.inf)


def test_scalar_fn_coefficients_round_trip():
    for fn in (
        ScalarFn.constant(2.0),
        ScalarFn.identity(),
        ScalarFn.scaled(-3.0),
        ScalarFn.affine(2.0, 1.0),
        ScalarFn.poly(1.0, -2.0, 0.5),
    ):
        rebuilt = from_coefficients(fn.coefficients())
        for t in (-2.0, -0.5, 0.0, 1.0, 3.0):
            assert rebuilt(t) == pytest.approx(fn(t), abs=1e-12)


def test_from_coefficients_simplifies():
    assert from_coefficients((0.0, 1.0)) == ScalarFn.identity()
    assert from_coefficients((0.0, 2.0)) == ScalarFn.scaled(2.0)
    assert from_coefficients((1.0, 1.0)) == ScalarFn.affine(1.0, 1.0)
    assert from_coefficients((5.0, 0.0, 0.0)) == ScalarFn.constant(5.0)
    assert from_coefficients(()) == ScalarFn.constant(0.0)


ROUND_TRIP_SPECS = [
    "lf",
    "full",
    "prop",
    "nafr",
    "ab:A=const:1.0,B=id",
    "ab:A=poly:0.0,0.0,1.0,B=affine:2.0,-1.0",
    "afam:A=scale:0.5",
    "bfam:B=poly:0.0,2.0,-1.0",
    "lin:0.3,0.2",
    "lindual:-0.5,1.0",
    "convex(lf;prop;0.5)",
    "convex(dual(full);bfam:B=id;0.25)",
    "dual(nafr)",
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
def test_parse_format_round_trip(spec):
    rule = parse_rule(spec)
    assert format_rule(rule) == spec
    assert parse_rule(format_rule(rule)) == rule


def test_every_catalog_form_spells_each_of_its_fields():
    for name, (labels, weights) in rules_module._FORMS.items():
        assert set(labels) <= {"", "A=", "B="}, name
        rule = WeightedRule(name, tuple(ScalarFn.identity() if label else 0.25 for label in labels))
        assert parse_rule(format_rule(rule)) == rule, name
        assert len(rule.weights_at(0.5)) == 2, name


def test_parse_returns_the_catalog_instances():
    for rule in (LF, FULL, PROP, NAFR):
        assert parse_rule(format_rule(rule)) is rule


def test_parse_accepts_surrounding_whitespace():
    assert parse_rule("  prop ") == PROP


def test_parse_scalar_fn_round_trip():
    for text in ("const:0.25", "id", "scale:-2.0", "affine:1.5,0.5", "poly:1.0,2.0"):
        assert format_scalar_fn(parse_scalar_fn(text)) == text


@pytest.mark.parametrize(
    "bad",
    [
        "bogus",
        "ab:A=const:1",
        "ab:B=id,A=id",
        "afam:B=id",
        "bfam:A=id",
        "lin:1",
        "lin:x,1",
        "lindual:1,2,3",
        "convex(lf;prop)",
        "convex(lf;prop;0.5",
        "dual(lf",
        "ab:A=wavelet:1,B=id",
        "bfam:B=poly:",
        "",
    ],
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ParseError):
        parse_rule(bad)


@pytest.mark.parametrize("kind", ["convex", "dual"])
def test_parse_caps_nesting_depth(kind):
    deepest = nested_spec(kind, MAX_RULE_DEPTH)
    rule = parse_rule(deepest)
    assert format_rule(rule) == deepest
    assert sum(evaluate(rule, reference_problem()).values) == pytest.approx(6.0)
    for depth in (MAX_RULE_DEPTH + 1, 2000):
        with pytest.raises(ParseError, match=f"more than {MAX_RULE_DEPTH} deep"):
            parse_rule(nested_spec(kind, depth))


def test_parse_convex_weight_out_of_range():
    with pytest.raises(InvalidWeight):
        parse_rule("convex(lf;prop;1.5)")


@pytest.mark.parametrize(
    "form,fields",
    [
        ("bogus", ()),
        ("lin", (0.3,)),
        ("lf", (1.0,)),
        # A weight function goes after "A=" or "B=", a real after "".
        ("ab", (0.5, 0.5)),
        ("lin", (ScalarFn.identity(), 0.0)),
    ],
)
def test_a_weighted_rule_takes_a_catalog_form_and_one_value_per_field(form, fields):
    with pytest.raises(ValueError, match="no catalog form"):
        WeightedRule(form, fields)


def test_format_callable_weight_is_marked():
    rule = WeightedRule("ab", (lambda t: 0.0, ScalarFn.identity()))
    assert format_rule(rule).startswith("ab:A=<")


def test_split_rule_list():
    assert split_rule_list("lf,prop,full") == [LF, PROP, FULL]
    assert split_rule_list("lin:1,0,prop") == [parse_rule("lin:1.0,0.0"), PROP]
    assert split_rule_list("ab:A=const:1,B=const:0,lf") == [
        parse_rule("ab:A=const:1.0,B=const:0.0"),
        LF,
    ]
    with pytest.raises(ParseError):
        split_rule_list("lf,,prop")
    with pytest.raises(ParseError):
        split_rule_list("lf,lin:1")


@pytest.mark.parametrize(
    "text,specs",
    [
        ("afam:A=poly:0.5,0.25", ["afam:A=poly:0.5,0.25"]),
        (
            "ab:A=poly:0.2,0.1,-0.05,B=poly:0.1,0.3,0.02",
            ["ab:A=poly:0.2,0.1,-0.05,B=poly:0.1,0.3,0.02"],
        ),
        ("lf,bfam:B=poly:0.1,0.2,0.3,prop", ["lf", "bfam:B=poly:0.1,0.2,0.3", "prop"]),
    ],
    ids=["afam", "ab", "bfam"],
)
def test_split_rule_list_continues_a_form_until_a_rule_is_named(text, specs):
    # A comma ends a spec only before a rule's name, so a poly weight of
    # several coefficients stays whole.
    assert split_rule_list(text) == [parse_rule(spec) for spec in specs]


_POLY_FNS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4).map(
    lambda c: ScalarFn.poly(*c)
)
_LISTED_RULES = st.one_of(
    st.sampled_from([LF, FULL, PROP, NAFR]),
    *(
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(partial(WeightedRule, form))
        for form in ("lin", "lindual")
    ),
    *(st.tuples(_POLY_FNS).map(partial(WeightedRule, form)) for form in ("afam", "bfam")),
    nested_rules(2),
)


@given(st.lists(_LISTED_RULES, min_size=1, max_size=5))
def test_a_formatted_rule_list_splits_back_into_its_rules(rules):
    assert split_rule_list(",".join(map(format_rule, rules))) == rules


RULE_POOL = [
    LF,
    FULL,
    PROP,
    NAFR,
    parse_rule("ab:A=const:0.5,B=id"),
    parse_rule("ab:A=id,B=poly:0.0,0.0,1.0"),
    parse_rule("afam:A=const:0.25"),
    parse_rule("bfam:B=poly:1.0,-1.0"),
    parse_rule("lin:-0.5,1.0"),
    parse_rule("lindual:0.3,0.2"),
    ConvexCombination(FULL, NAFR, 0.5),
    DualRule(parse_rule("lin:0.3,0.2")),
]


_REALS = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
_NEEDS = st.floats(min_value=0.05, max_value=50.0, allow_nan=False, allow_infinity=False)


def _drawn_problem(data, n):
    return make_problem(
        tuple(range(n)),
        tuple(data.draw(_REALS) for _ in range(n)),
        tuple(data.draw(_NEEDS) for _ in range(n)),
    )


@given(
    st.sampled_from(RULE_POOL),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_every_rule_balances(rule, n, data):
    p = _drawn_problem(data, n)
    allocation = evaluate(rule, p)  # construction would raise on imbalance
    assert check_allocation(p, allocation.values).passed


@given(
    st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
    st.booleans(),
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_income_weights_beyond_one_balance(size, negative, b, n, data):
    # For |a| > 1 the kernel pays ȳ + a(y−ȳ) + b(z−z̄): the deviations
    # sum to about zero, and a lone agent, whose deviations are zero, keeps
    # its income bit for bit.
    p = _drawn_problem(data, n)
    a = -size if negative else size
    payoffs = WeightedRule("ab", (ScalarFn.constant(a), ScalarFn.constant(b))).payoffs(p)
    assert check_allocation(p, payoffs).passed
    if n == 1:
        assert payoffs == p.incomes
