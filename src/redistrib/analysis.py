"""Recovering the functional form of a rule from black-box evaluations.

A rule in the deviation-weighted family pays, at each income-to-need ratio,
the equal split plus fixed multiples of each agent's income and need
deviations. Probing flat problems with one paired deviation recovers those
multiples; reconstruction on fresh random problems tells membership in the
family apart from lookalikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .axioms import CORE_AXIOMS, AxiomReport, SampleConfig, axiom_suite, rng_for, worst_trial
from .core import DEFAULT_TOL, Block, Problem, check_tol, row_sums
# make_problem is looked up here by perfbench's tracer, which wraps it per module.
from .core import make_problem  # noqa: F401
from .rules import ParseError, RuleSpec, _excerpt, ab_payoffs_batch, blame_rule

# The label of each catalog form that is a family of its own.
CATALOG_LABELS = {
    "lf": "laissez-faire",
    "prop": "proportional",
    "full": "full",
    "nafr": "need-adjusted-full",
}
LABELS = (*CATALOG_LABELS.values(), "generic-AB", "non-AB")
# The catalog form each (a_shape, b_shape) of classify names; nafr's B
# must also be 1.
_SHAPE_LABELS = {
    ("one", "zero"): CATALOG_LABELS["lf"],
    ("zero", "identity"): CATALOG_LABELS["prop"],
    ("zero", "zero"): CATALOG_LABELS["full"],
    ("zero", "constant"): CATALOG_LABELS["nafr"],
}

DEFAULT_GRID = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)

MAX_GRID_POINTS = 100_000


class AnalysisError(ValueError):
    """Base class for extraction and classification failures."""


def extract_ab(rule: RuleSpec, t: float) -> tuple[float, float]:
    """Recover the income and need deviation weights a rule applies at ratio t.

    profile_rule at one point: two flat problems of 3 agents and totals
    (t, 1) are probed. One agent is bumped up and a second bumped down by
    the same amount, so totals are preserved and the weight falls out of
    the first agent's payoff shift.
    """
    a, b = _extract_ab_batch(rule, np.array([float(t)]), np.ones(1), agents=3)
    return float(a[0]), float(b[0])


def _extract_ab_batch(
    rule: RuleSpec,
    total_income: np.ndarray,
    total_need: np.ndarray,
    agents: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The extract_ab probe at each row's totals, all rows probed as two blocks.

    agents is one agent count for every row, or each row's own count, as a
    padded Block holds them; each row is probed with its own agents. Needs
    are bumped first, by half a mean need, which leaves every probe need
    nonnegative, then incomes, by half a mean |income| plus 1. The columns
    are built column-major, as Block holds them, so no block copies them.
    """
    counts = np.broadcast_to(agents, total_income.shape)
    agent = (np.arange(int(counts.max()))[:, None] < counts).T
    weights = {}
    with np.errstate(over="ignore", invalid="ignore"):
        means = total_income / counts, total_need / counts
        flat = [np.where(agent, mean[:, None], 0.0) for mean in means]
        # Needs first: that fixes the order of a custom rule's calls, so which probe raises.
        bumps = ((1, total_need / (2 * counts)), (0, np.abs(total_income) / (2 * counts) + 1.0))
        for column, bump in bumps:
            columns = list(flat)
            columns[column] = bumped = np.copy(flat[column])
            bumped[:, 0] += bump
            bumped[:, 1] -= bump
            block = Block(*columns, counts)
            with blame_rule(rule, "a probe problem"):
                payoffs = rule.payoffs_batch(block)
            weights[column] = (payoffs[:, 0] - means[0]) / bump

    return weights[0], weights[1]


@dataclass(frozen=True)
class ABProfile:
    """Extracted deviation weights across a grid of income-to-need ratios."""

    grid: tuple[float, ...]
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]


def _validate_grid(grid: Sequence[float]) -> tuple[float, ...]:
    values = tuple(float(t) for t in grid)
    if len(values) < 2:
        raise AnalysisError("grid needs at least 2 points")
    for left, right in zip(values, values[1:]):
        if not left < right:
            raise AnalysisError(f"grid {values!r} is not strictly increasing")
    return values


def profile_rule(rule: RuleSpec, grid: Sequence[float]) -> ABProfile:
    """Extract deviation weights at every ratio in a strictly increasing grid.

    The grid is probed as two blocks, a need bump and an income bump, at
    totals (t, 1) with 3 agents, which is extract_ab(rule, t) at each point.
    """
    return _profile(rule, _validate_grid(grid))


def _profile(rule: RuleSpec, values: tuple[float, ...]) -> ABProfile:
    ratios = np.array(values)
    a, b = _extract_ab_batch(rule, ratios, np.ones_like(ratios), agents=3)
    return ABProfile(values, tuple(a.tolist()), tuple(b.tolist()))


@dataclass(frozen=True)
class Classification:
    """Label plus the evidence it rests on."""

    label: str
    profile: ABProfile
    a_shape: str
    a_value: float | None
    b_shape: str
    b_value: float | None
    max_residual: float
    witness: Problem | None


def _near(
    values: Sequence[float], points: Sequence[float], tol: float, scales: Sequence | None = None
) -> bool:
    """Whether each value v is within tol·max(1, |s|) of its point p.

    s is p unless scales are given: the test is absolute for a point of 0
    or 1, and relative to |t| for B = t, which is extracted to a relative
    precision.
    """
    scales = points if scales is None else scales
    return all(abs(v - p) <= tol * max(1.0, abs(s)) for v, p, s in zip(values, points, scales))


def _fit_shape(
    values: tuple[float, ...], targets: Sequence[tuple], tol: float
) -> tuple[str, float | None]:
    """The first target (name, points, value) near the values, else a finite constant or other."""
    for name, points, value in targets:
        if _near(values, points, tol):
            return name, value
    if all(map(math.isfinite, values)) and max(values) - min(values) <= tol:
        return "constant", row_sums(np.array([values])).item() / len(values)
    return "other", None


def _residual(rule: RuleSpec, block: Block) -> np.ndarray:
    """Each row's largest gap from the deviation form, over its scale.

    The form takes the weights extract_ab finds at the row's totals.
    """
    # The sampled block is paid first, so a rule that cannot pay it raises
    # the sampler's error, not the probe's.
    actual = rule.payoffs_batch(block)
    a, b = _extract_ab_batch(rule, block.total_income, block.total_need, agents=block.counts)
    predicted = ab_payoffs_batch(block, a, b)
    return np.abs(predicted - actual).max(axis=1) / block.scales


def classify(
    rule: RuleSpec,
    grid: Sequence[float],
    cfg: SampleConfig,
    tol: float = DEFAULT_TOL,
) -> Classification:
    """Name the functional form a rule presents over a grid of ratios.

    The grid must have at least 5 points and straddle zero. Membership in
    the deviation-weighted family is decided by reconstructing payoffs on
    fresh random problems, never by the grid fit alone, and the label only
    ever claims what those samples show.
    """
    values = _validate_grid(grid)
    if len(values) < 5:
        raise AnalysisError(f"classification grid needs at least 5 points")
    if not (values[0] < 0.0 and values[-1] > 0.0 and any(v == 0.0 for v in values)):
        raise AnalysisError(
            f"grid {values!r} must include negative, zero, and positive ratios"
        )
    check_tol(tol)

    # Sampled first: a rule that cannot pay a drawn problem raises RuleError.
    max_residual, witness = worst_trial(rng_for(cfg.seed, "classify"), cfg, rule, _residual)
    profile = _profile(rule, values)
    zeros, ones = (0.0,) * len(values), (1.0,) * len(values)
    a_shape, a_value = _fit_shape(profile.a_values, (("zero", zeros, 0.0), ("one", ones, 1.0)), tol)
    b_targets = (("zero", zeros, 0.0), ("identity", values, None))
    b_shape, b_value = _fit_shape(profile.b_values, b_targets, tol)

    # Of the constant need weights only B ≡ 1 is a catalog form. A NaN
    # residual (a rule error) or a weight that is not finite shows none.
    shape = (a_shape, b_shape) if b_shape != "constant" or abs(b_value - 1.0) <= tol else None
    finite = all(map(math.isfinite, profile.a_values + profile.b_values))
    label = _SHAPE_LABELS.get(shape, "generic-AB") if max_residual <= tol and finite else "non-AB"

    return Classification(
        label,
        profile,
        a_shape,
        a_value,
        b_shape,
        b_value,
        max_residual,
        None if max_residual <= tol else witness,
    )


@dataclass(frozen=True)
class ImplicationCheck:
    """One axiom-set-to-form implication evaluated on sampled evidence."""

    name: str
    premise_holds: bool
    conclusion_holds: bool

    @property
    def consistent(self) -> bool:
        return (not self.premise_holds) or self.conclusion_holds


@dataclass(frozen=True)
class CharacterizationReport:
    """Joint axiom verdicts and classification, with implication checks."""

    rule: RuleSpec
    axiom_reports: tuple[AxiomReport, ...]
    classification: Classification
    implications: tuple[ImplicationCheck, ...]
    consistent: bool


def verify_characterization(
    rule: RuleSpec,
    cfg: SampleConfig,
    tol: float = DEFAULT_TOL,
    grid: Sequence[float] = DEFAULT_GRID,
) -> CharacterizationReport:
    """Cross-check sampled axiom verdicts against the recovered form.

    Each implication says: if the rule passed this axiom set, its
    classification must land in the matching family. With core for
    homogeneity, equal treatment and continuity, core + nat gives the
    deviation-weighted form; adding dummy, B = (1 − A)t; adding stability,
    lf or A ≡ 0; adding both, lf or prop. Each holds per agent count only:
    a rule paying prop to 2-3 agents and lf to more passes all six and is
    labelled proportional. lf and prop both satisfy all eight axioms and
    self-duality, so no subset of them separates the two. Implications are
    checked on sampled verdicts, not assumed.
    """
    reports = tuple(
        axiom_suite(rule, ["core", "nat", "stability", "dummy"], cfg, tol)
    )
    passed = {report.axiom: report.passed for report in reports}
    classification = classify(rule, grid, cfg, tol)

    label = classification.label
    is_ab = label != "non-AB"
    profile = classification.profile
    mix_b = [(1.0 - a) * t for a, t in zip(profile.a_values, profile.grid)]
    afam_shape = is_ab and _near(profile.b_values, mix_b, tol, scales=profile.grid)

    # Each implication: the axioms it adds to core + nat, the family it
    # concludes, and whether the classification lands in that family.
    table = (
        (("stability", "dummy"), "untouched incomes or proportional",
         label in (CATALOG_LABELS["lf"], CATALOG_LABELS["prop"])),
        (("stability",), "untouched incomes or need-deviation family",
         label == CATALOG_LABELS["lf"] or (is_ab and classification.a_shape == "zero")),
        (("dummy",), "income-weighted mix family", afam_shape),
        ((), "deviation-weighted family", is_ab),
    )
    implications = tuple(
        ImplicationCheck(
            "+".join(("core", "nat", *added)) + " -> " + family,
            all(passed[name] for name in (*CORE_AXIOMS, "nat", *added)),
            holds,
        )
        for added, family, holds in table
    )
    return CharacterizationReport(
        rule,
        reports,
        classification,
        implications,
        all(check.consistent for check in implications),
    )


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse ``lo:hi:step`` into the inclusive decimal lattice lo + k·step.

    Each point is the exact value of lo + k·step, for the decimals as typed,
    rounded once, so "-0.3:0.3:0.1" holds 0.0 and ends at 0.3. The point
    count is exact, and more than MAX_GRID_POINTS points are refused before
    any is built.
    """
    pieces = text.strip().split(":")
    if len(pieces) != 3:
        raise ParseError(f"grid must look like lo:hi:step, got {_excerpt(text)!r}")
    try:
        rounded = [float(p) for p in pieces]
    except ValueError:
        raise ParseError(f"grid has a non-numeric part in {_excerpt(text)!r}") from None
    for name, value in zip(("lower end", "upper end", "step"), rounded):
        if not math.isfinite(value):
            raise ParseError(f"grid {name} {value!r} is not finite in {_excerpt(text)!r}")
    from decimal import Decimal
    from fractions import Fraction

    # A part that rounds to 0.0 is read as 0, so no huge power of ten is built.
    # Decimal reads what float() reads, underscores too, and its digits go to
    # Fraction without Python's limit on digits in an int's string.
    lo, hi, step = (Fraction(Decimal(p)) if v else 0 for p, v in zip(pieces, rounded))
    # A step read as 0 takes its sign from its decimal as typed.
    if step == 0 and Decimal(pieces[2]) > 0:
        raise ParseError(f"grid step {_excerpt(pieces[2])!r} is below the float range")
    if step <= 0:
        raise ParseError(f"grid step must be positive, got {_excerpt(pieces[2])!r}")
    if hi < lo:
        raise ParseError(
            f"grid upper end {_excerpt(pieces[1])!r} is below lower end {_excerpt(pieces[0])!r}"
        )
    last = (hi - lo) // step
    if not last < MAX_GRID_POINTS:
        raise ParseError(f"grid {_excerpt(text)!r} has more than {MAX_GRID_POINTS} points")
    # Over one denominator each point is a ratio of ints, which / rounds once.
    denominator = math.lcm(lo.denominator, step.denominator)
    start, stride = int(lo * denominator), int(step * denominator)
    return tuple((start + k * stride) / denominator for k in range(last + 1))
