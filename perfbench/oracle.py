"""Correctness oracles for redistrib's reports, computed apart from the program.

Every rule in redistrib's grammar is the deviation-weighted form

    x_i = ybar + A(t) (y_i - ybar) + B(t) (z_i - zbar),   t = Y / Z,

with polynomial weights A and B. This module parses rule specs with its own
small grammar reader into (A, B) polynomials, recomputes allocations from
that closed form with numpy and ``math.fsum`` totals, and predicts every
axiom verdict, classification label and dual from the polynomials. Nothing
here imports redistrib.

Each ``check_*`` function returns a list of error strings; an empty list
means the report is correct.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

AXIOMS = (
    "homogeneity",
    "equal_treatment",
    "continuity",
    "nat",
    "stability",
    "dummy",
    "income_additivity",
    "dual_income_additivity",
)

# Relative tolerance of recomputed allocations, taken against the size of
# the terms that make up each entry, not against the entry itself.
ALLOC_REL_TOL = 1e-9
# Absolute tolerance of polynomial identities on O(1) coefficients.
COEF_TOL = 1e-12
# Tolerance of extracted weights against the polynomials on the grid.
PROFILE_TOL = 1e-8

CATALOG_LABELS = {
    "lf": "laissez-faire",
    "full": "full",
    "prop": "proportional",
    "nafr": "need-adjusted-full",
}

ONE = Polynomial([1.0])
ZERO = Polynomial([0.0])
T = Polynomial([0.0, 1.0])
ONE_MINUS_T = Polynomial([1.0, -1.0])


class OracleParseError(ValueError):
    """A rule spec is outside the grammar this oracle reads."""


# --- an independent reader of the rule grammar ---


def _real(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise OracleParseError(f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise OracleParseError(f"not finite: {token!r}")
    return value


def parse_fn(text: str) -> Polynomial:
    """Weight function spec to a polynomial in t."""
    if text == "id":
        return T
    kind, _, rest = text.partition(":")
    values = [_real(v) for v in rest.split(",")] if rest else []
    if kind == "const" and len(values) == 1:
        return Polynomial(values)
    if kind == "scale" and len(values) == 1:
        return Polynomial([0.0, values[0]])
    if kind == "affine" and len(values) == 2:
        return Polynomial([values[1], values[0]])
    if kind == "poly" and values:
        return Polynomial(values)
    raise OracleParseError(f"unknown weight function {text!r}")


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            parts.append(text[start:k])
            start = k + 1
    parts.append(text[start:])
    return parts


def reflect(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Weights of the dual rule: (A(1-t), 1 - A(1-t) - B(1-t))."""
    a_r, b_r = a(ONE_MINUS_T), b(ONE_MINUS_T)
    return a_r, ONE - a_r - b_r


def rule_ab(spec: str) -> tuple[Polynomial, Polynomial]:
    """(A, B) weight polynomials of a rule spec."""
    s = spec.strip()
    fixed = {"lf": (ONE, ZERO), "full": (ZERO, ZERO), "prop": (ZERO, T), "nafr": (ZERO, ONE)}
    if s in fixed:
        return fixed[s]
    if s.startswith("convex(") and s.endswith(")"):
        first, second, weight = _split_top(s[7:-1], ";")
        w = _real(weight)
        a1, b1 = rule_ab(first)
        a2, b2 = rule_ab(second)
        return w * a1 + (1 - w) * a2, w * b1 + (1 - w) * b2
    if s.startswith("dual(") and s.endswith(")"):
        return reflect(*rule_ab(s[5:-1]))
    if s.startswith("ab:A="):
        a_text, sep, b_text = s[5:].partition(",B=")
        if not sep:
            raise OracleParseError(f"bad ab spec {spec!r}")
        return parse_fn(a_text), parse_fn(b_text)
    if s.startswith("afam:A="):
        a = parse_fn(s[7:])
        return a, (ONE - a) * T
    if s.startswith("bfam:B="):
        return ZERO, parse_fn(s[7:])
    for head in ("lin:", "lindual:"):
        if s.startswith(head):
            a1, a2 = (_real(v) for v in s[len(head):].split(","))
            b = a2 * T if head == "lin:" else a2 * T + (1 - a1 - a2)
            return Polynomial([a1]), b
    raise OracleParseError(f"unknown rule {spec!r}")


# --- polynomial predicates ---


def _coefs(p: Polynomial) -> np.ndarray:
    c = np.asarray(p.coef, dtype=float)
    nonzero = np.nonzero(np.abs(c) > COEF_TOL)[0]
    return c[: nonzero[-1] + 1] if nonzero.size else np.zeros(0)


def is_zero(p: Polynomial) -> bool:
    return _coefs(p).size == 0


def is_constant(p: Polynomial) -> bool:
    return _coefs(p).size <= 1


def same(p: Polynomial, q: Polynomial) -> bool:
    return is_zero(p - q)


def predict_axioms(a: Polynomial, b: Polynomial) -> dict[str, bool]:
    """Which axioms a deviation-weighted rule satisfies.

    Homogeneity, equal treatment, continuity and NAT hold for every AB rule.
    Stability: reapplying gives A^2 and (A + 1) B, so A^2 = A and A B = 0.
    Dummy: a zero agent gets zbar (t (1 - A) - B), so B = (1 - A) t.
    Income additivity forces A(t1) = A(t1 + t2) and B additive: A constant,
    B = c t. Dual income additivity forces A constant a and B affine with
    B(1) = 1 - a, which is the lindual family.
    """
    linear = is_constant(a) and _coefs(b).size <= 2
    return {
        "homogeneity": True,
        "equal_treatment": True,
        "continuity": True,
        "nat": True,
        "stability": is_zero(a * a - a) and is_zero(a * b),
        "dummy": same(b, (ONE - a) * T),
        "income_additivity": linear and bool(abs(b(0.0)) <= COEF_TOL),
        "dual_income_additivity": linear and bool(abs(b(1.0) + a(0.0) - 1.0) <= COEF_TOL),
    }


def predict_self_dual(a: Polynomial, b: Polynomial) -> bool:
    a_d, b_d = reflect(a, b)
    return same(a, a_d) and same(b, b_d)


def _a_shape(a: Polynomial) -> tuple[str, float | None]:
    if is_zero(a):
        return "zero", 0.0
    if is_zero(a - ONE):
        return "one", 1.0
    if is_constant(a):
        return "constant", float(a(0.0))
    return "other", None


def _b_shape(b: Polynomial) -> tuple[str, float | None]:
    if is_zero(b):
        return "zero", 0.0
    if same(b, T):
        return "identity", None
    if is_constant(b):
        return "constant", float(b(0.0))
    return "other", None


def predict_label(a: Polynomial, b: Polynomial) -> str:
    shapes = (_a_shape(a)[0], _b_shape(b)[0])
    if shapes == ("one", "zero"):
        return "laissez-faire"
    if shapes == ("zero", "identity"):
        return "proportional"
    if shapes == ("zero", "zero"):
        return "full"
    if shapes == ("zero", "constant") and abs(b(0.0) - 1.0) <= COEF_TOL:
        return "need-adjusted-full"
    return "generic-AB"


# --- a rule outside the grammar, given to the library as a plain function ---

SQNEED = "custom:sqneed"


def sqneed_payoffs(total_income: float, needs) -> list[float]:
    """Total income split in proportion to squared needs."""
    weights = [z * z for z in needs]
    total = math.fsum(weights)
    return [total_income * w / total for w in weights]


# Derived by hand: payoffs are Y z_i^2 / sum z^2. Scaling y and z by f
# scales them by f; twins get equal shares; the map is continuous. A
# coalition's share moves when needs are reallocated inside it, so NAT
# fails. Only total income enters, so stability and income additivity hold;
# a zero-need agent gets zero, so dummy holds. Dual income additivity
# compares z + R(y + e) with R(y) + R(z + e), which differ by z - Z w_i.
# The dual z - (Z - Y) w differs from the rule for the same reason, and the
# rule is not of the deviation-weighted form.
SQNEED_AXIOMS = {name: name not in ("nat", "dual_income_additivity") for name in AXIOMS}


def expected_verdicts(spec: str) -> dict:
    """Everything the verdict reports for one rule should say."""
    if spec == SQNEED:
        return {
            "axioms": SQNEED_AXIOMS,
            "label": "non-AB",
            "self_dual": False,
            "ab": None,
        }
    a, b = rule_ab(spec)
    return {
        "axioms": predict_axioms(a, b),
        "label": predict_label(a, b),
        "self_dual": predict_self_dual(a, b),
        "ab": (a, b),
    }


def expected_check_exit(spec: str) -> int:
    verdicts = expected_verdicts(spec)["axioms"]
    return 0 if all(verdicts[name] for name in checked_axioms(spec)) else 1


# --- allocation oracle for dataset reports ---


def allocations(spec: str, incomes: np.ndarray, needs: np.ndarray):
    """Closed-form allocations and the size of the terms behind each entry."""
    a, b = rule_ab(spec)
    n = incomes.size
    total_income = math.fsum(incomes)
    total_need = math.fsum(needs)
    t = total_income / total_need
    a_t, b_t = float(a(t)), float(b(t))
    ybar, zbar = total_income / n, total_need / n
    values = ybar + a_t * (incomes - ybar) + b_t * (needs - zbar)
    # Dual rules evaluate the reflected problem, whose terms are bounded by
    # these same magnitudes.
    terms = (1.0 + abs(a_t) + abs(b_t)) * (
        np.abs(incomes) + np.abs(needs) + abs(ybar) + abs(zbar)
    )
    return values, terms


def _close(observed: float, expected: float, scale: float) -> bool:
    return abs(observed - expected) <= ALLOC_REL_TOL * scale


def _check_summary(summary, values: list[float], expected: np.ndarray, where: str) -> list[str]:
    errors = []
    if not isinstance(summary, dict) or set(summary) != {"total", "mean", "min", "max"}:
        return [f"{where}: summary keys {summary!r}"]
    size = math.fsum(abs(v) for v in values)
    total = math.fsum(values)
    if not _close(summary["total"], total, size):
        errors.append(f"{where}: total {summary['total']!r}, fsum gives {total!r}")
    if not _close(summary["mean"], total / len(values), size / len(values)):
        errors.append(f"{where}: mean {summary['mean']!r}")
    if summary["min"] != min(values) or summary["max"] != max(values):
        errors.append(f"{where}: min/max do not match the rows")
    if not _close(summary["min"], float(expected.min()), size / len(values)):
        errors.append(f"{where}: min {summary['min']!r}, expected {expected.min()!r}")
    if not _close(summary["max"], float(expected.max()), size / len(values)):
        errors.append(f"{where}: max {summary['max']!r}, expected {expected.max()!r}")
    return errors


def _check_balance(values: list[float], incomes: np.ndarray, where: str) -> list[str]:
    total = math.fsum(values)
    income = math.fsum(incomes)
    size = math.fsum(abs(v) for v in values) + math.fsum(np.abs(incomes))
    if not _close(total, income, size):
        return [f"{where}: allocations sum to {total!r}, incomes to {income!r}"]
    return []


def _check_rows_inputs(rows, ids, incomes, needs) -> list[str]:
    if not isinstance(rows, list) or len(rows) != len(ids):
        return [f"expected {len(ids)} agent rows"]
    for k, row in enumerate(rows):
        if row.get("id") != ids[k]:
            return [f"row {k}: id {row.get('id')!r}, expected {ids[k]!r}"]
        if row.get("income") != incomes[k] or row.get("need") != needs[k]:
            return [f"row {k}: income/need do not echo the input"]
    return []


def _check_values(spec: str, values: list[float], incomes, needs, where: str) -> list[str]:
    expected, terms = allocations(spec, incomes, needs)
    observed = np.asarray(values, dtype=float)
    bad = np.nonzero(np.abs(observed - expected) > ALLOC_REL_TOL * terms)[0]
    if bad.size:
        k = int(bad[0])
        return [
            f"{where}: {bad.size} allocations off, first at row {k}: "
            f"{observed[k]!r} vs {expected[k]!r}"
        ]
    return []


def check_apply_report(report: dict, spec: str, ids, incomes, needs) -> list[str]:
    """Check an ``apply`` report against the closed form of ``spec``."""
    head = {k: report.get(k) for k in ("schema_version", "command", "rule")}
    if head != {"schema_version": "1", "command": "apply", "rule": spec}:
        return [f"apply header {head!r}"]
    rows = report.get("agents")
    errors = _check_rows_inputs(rows, ids, incomes, needs)
    if errors:
        return errors
    values = [row["allocation"] for row in rows]
    errors += _check_values(spec, values, incomes, needs, spec)
    for k, (row, value, need) in enumerate(zip(rows, values, needs)):
        coverage = row.get("needs_coverage")
        if need > 0:
            ok = coverage is not None and _close(coverage, value / need, abs(value / need))
        else:
            ok = coverage is None
        if not ok:
            errors.append(f"row {k}: needs_coverage {coverage!r}")
            break
    errors += _check_balance(values, incomes, spec)
    expected, _ = allocations(spec, incomes, needs)
    errors += _check_summary(report.get("summary"), values, expected, spec)
    return errors


def check_compare_report(report: dict, specs, ids, incomes, needs) -> list[str]:
    """Check a ``compare`` report against the closed form of every rule."""
    if report.get("command") != "compare" or report.get("schema_version") != "1":
        return ["compare header"]
    if report.get("rules") != list(specs):
        return [f"rules {report.get('rules')!r}, expected {list(specs)!r}"]
    rows = report.get("agents")
    errors = _check_rows_inputs(rows, ids, incomes, needs)
    if errors:
        return errors
    if any(list(row.get("allocations", ())) != list(specs) for row in rows):
        return ["allocation keys differ from the rule list"]
    summary = report.get("summary")
    if not isinstance(summary, dict) or list(summary) != list(specs):
        return ["summary keys differ from the rule list"]
    for spec in specs:
        values = [row["allocations"][spec] for row in rows]
        errors += _check_values(spec, values, incomes, needs, spec)
        errors += _check_balance(values, incomes, spec)
        expected, _ = allocations(spec, incomes, needs)
        errors += _check_summary(summary[spec], values, expected, spec)
    return errors


# --- verdict reports ---


def _problem_scale(problem: dict) -> float:
    return max(1.0, abs(math.fsum(problem["incomes"])), math.fsum(problem["needs"]))


def checked_axioms(spec: str) -> tuple[str, ...]:
    """The axioms the benchmark asks redistrib to check for a rule.

    Continuity is asked only of rules whose payoffs are affine in incomes
    and needs (A and B constant). For any other rule the program's
    continuity probe can report a false FAIL on some seeds: it counts any
    growth of the payoff gap between two halvings of the perturbation as a
    violation, and a smooth nonlinear rule's gap may grow at the first,
    large steps before it shrinks to zero.
    """
    if spec != SQNEED:
        a, b = rule_ab(spec)
        if is_constant(a) and is_constant(b):
            return AXIOMS
    return tuple(name for name in AXIOMS if name != "continuity")


def check_check_report(report: dict, spec: str, seed: int, samples: int, tol: float) -> list[str]:
    """Check a ``check --axioms`` report against the predicted verdicts."""
    names = checked_axioms(spec)
    want = {name: expected_verdicts(spec)["axioms"][name] for name in names}
    echo = {k: report.get(k) for k in ("command", "rule", "seed", "samples", "tolerance")}
    if echo != {"command": "check", "rule": spec, "seed": seed, "samples": samples, "tolerance": tol}:
        return [f"{spec}: check header {echo!r}"]
    items = report.get("axioms")
    if not isinstance(items, list) or [i.get("axiom") for i in items] != list(names):
        return [f"{spec}: axiom list"]
    errors = []
    for item in items:
        name, passed = item["axiom"], item.get("passed")
        where = f"{spec} {name}"
        if passed is not want[name]:
            errors.append(f"{where}: passed={passed!r}, predicted {want[name]}")
            continue
        cx = item.get("counterexample")
        if passed:
            if item.get("trials_run") != samples or cx is not None:
                errors.append(f"{where}: a pass must run every trial and carry no counterexample")
            continue
        if not isinstance(item.get("trials_run"), int) or not 1 <= item["trials_run"] <= samples:
            errors.append(f"{where}: trials_run {item.get('trials_run')!r}")
        if not isinstance(cx, dict):
            errors.append(f"{where}: a fail must carry a counterexample")
            continue
        problems = [v for v in cx.get("instance", {}).values() if isinstance(v, dict) and "needs" in v]
        floor = tol * max((_problem_scale(p) for p in problems), default=1.0)
        if not (cx["deviation"] > cx["threshold"] >= floor * (1 - 1e-12)):
            errors.append(
                f"{where}: deviation {cx['deviation']!r} must exceed threshold "
                f"{cx['threshold']!r} >= {floor!r}"
            )
    if report.get("all_passed") is not all(want.values()):
        errors.append(f"{spec}: all_passed {report.get('all_passed')!r}")
    return errors


def check_classify_report(report: dict, spec: str, grid, seed: int, samples: int, tol: float) -> list[str]:
    """Check a ``classify`` report against the label predicted from (A, B)."""
    want = expected_verdicts(spec)
    echo = {k: report.get(k) for k in ("command", "rule", "seed", "samples")}
    if echo != {"command": "classify", "rule": spec, "seed": seed, "samples": samples}:
        return [f"{spec}: classify header {echo!r}"]
    errors = []
    if report.get("label") != want["label"]:
        errors.append(f"{spec}: label {report.get('label')!r}, predicted {want['label']!r}")
    profile = report.get("profile") or {}
    if profile.get("grid") != list(grid):
        errors.append(f"{spec}: profile grid {profile.get('grid')!r}")
    residual = report.get("max_residual")
    if want["ab"] is None:
        if not (isinstance(residual, float) and residual > tol):
            errors.append(f"{spec}: max_residual {residual!r} should exceed {tol}")
        return errors
    if not (isinstance(residual, float) and 0.0 <= residual <= tol):
        errors.append(f"{spec}: max_residual {residual!r} should be within {tol}")
    a, b = want["ab"]
    for key, poly in (("a_values", a), ("b_values", b)):
        got = np.asarray(profile.get(key, ()), dtype=float)
        exp = poly(np.asarray(grid, dtype=float))
        if got.shape != exp.shape or np.any(np.abs(got - exp) > PROFILE_TOL * np.maximum(1.0, np.abs(exp))):
            errors.append(f"{spec}: {key} {got.tolist()!r}, expected {exp.tolist()!r}")
    for key, (shape, value) in (("a", _a_shape(a)), ("b", _b_shape(b))):
        got_value = report.get(f"{key}_value")
        if report.get(f"{key}_shape") != shape:
            errors.append(f"{spec}: {key}_shape {report.get(f'{key}_shape')!r}, expected {shape!r}")
        elif (value is None) != (got_value is None) or (
            value is not None and abs(got_value - value) > PROFILE_TOL
        ):
            errors.append(f"{spec}: {key}_value {got_value!r}, expected {value!r}")
    return errors


def reflection_problems(seed: int, count: int = 4) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded small problems for checking a dual against the reflection."""
    rng = np.random.default_rng([seed, 0xD0A1])
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        out.append((rng.uniform(-10.0, 10.0, n), rng.uniform(0.1, 10.0, n)))
    return out


def check_dual_report(report: dict, spec: str, seed: int, samples: int, tol: float) -> list[str]:
    """Check a ``dual`` report: the closed form reflects, the verdict is predicted."""
    want = expected_verdicts(spec)
    echo = {k: report.get(k) for k in ("command", "rule", "seed", "samples")}
    if echo != {"command": "dual", "rule": spec, "seed": seed, "samples": samples}:
        return [f"{spec}: dual header {echo!r}"]
    errors = []
    dual_spec = report.get("dual_rule")
    if want["ab"] is None:
        if dual_spec is not None or report.get("dual_label") is not None:
            errors.append(f"{spec}: a rule outside the grammar has no closed-form dual")
    else:
        try:
            rule_ab(dual_spec)
        except (OracleParseError, AttributeError, ValueError):
            return [f"{spec}: dual_rule {dual_spec!r} does not parse"]
        for incomes, needs in reflection_problems(seed):
            direct, terms = allocations(dual_spec, incomes, needs)
            inner, inner_terms = allocations(spec, needs - incomes, needs)
            mirrored = needs - inner
            if np.any(np.abs(direct - mirrored) > ALLOC_REL_TOL * (terms + inner_terms)):
                errors.append(f"{spec}: dual {dual_spec!r} is not z - R(z - y, z)")
                break
        if report.get("dual_label") != CATALOG_LABELS.get(dual_spec):
            errors.append(f"{spec}: dual_label {report.get('dual_label')!r}")
    verdict = report.get("self_dual") or {}
    if verdict.get("passed") is not want["self_dual"]:
        errors.append(f"{spec}: self_dual {verdict.get('passed')!r}, predicted {want['self_dual']}")
    elif want["self_dual"]:
        if not verdict.get("max_deviation", math.inf) <= tol or verdict.get("witness") is not None:
            errors.append(f"{spec}: a self-dual rule must stay within {tol} with no witness")
    elif not (verdict.get("max_deviation", 0.0) > tol and isinstance(verdict.get("witness"), dict)):
        errors.append(f"{spec}: a non-self-dual verdict needs a deviation above {tol} and a witness")
    return errors
