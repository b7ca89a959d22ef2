"""Seeded randomized checkers for behavioural properties of allocation rules.

Each axiom is rendered as a sampled predicate: draw a random instance,
measure how far the rule deviates from the property, and fail when the
deviation exceeds a tolerance scaled by the instance's magnitude. A pass is
evidence, not proof; a fail comes with a concrete re-runnable counterexample.

Trials are drawn and screened in blocks of numpy arrays, one row per trial.
The first violating trial is rebuilt as an instance of Problems, which the
scalar measure of its axiom confirms, shrinks and reports.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Problem,
    ValidationError,
    block_scales,
    check_tol,
    make_problem,
    problem_scale,
    row_sums,
)
from .rules import RuleSpec

CORE_AXIOMS = ("homogeneity", "equal_treatment", "continuity")
ALL_AXIOMS = CORE_AXIOMS + (
    "nat",
    "stability",
    "dummy",
    "income_additivity",
    "dual_income_additivity",
)

CONTINUITY_STEPS = 40
# Halvings at the end of the continuity probe whose gap must not grow.
CONTINUITY_TAIL = CONTINUITY_STEPS // 2
MAX_SHRINK_STEPS = 40

# The sampled domain. Every problem has 2 to 6 agents, so each axiom's
# construction (a second identical agent, a group, a dummy) fits. Needs
# stay strictly positive so every sampled problem has positive total need.
N_RANGE = (2, 6)
INCOME_RANGE = (-10.0, 10.0)
NEED_RANGE = (0.1, 10.0)
# The largest step of the continuity probe.
PERTURBATION_SCALE = 0.5
# Trials drawn and screened together: bounds the memory of a check
# whatever its trial count.
BLOCK_TRIALS = 128


class UnknownAxiom(ValueError):
    """Axiom identifier is not one of the known names."""


@dataclass(frozen=True)
class SampleConfig:
    """Seed and trial count of the randomized sampling used by the checks."""

    seed: int = 0
    trials: int = 100

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Deterministic generator derived from a base seed and a purpose label."""
    return np.random.default_rng(
        [seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode("utf-8"))]
    )


def trial_blocks(
    rng: np.random.Generator, cfg: SampleConfig
) -> Iterator[tuple[int, list[tuple[int, np.ndarray]]]]:
    """Split cfg.trials into blocks of BLOCK_TRIALS trials or fewer.

    Yields each block's first trial index and its trials grouped by agent
    count: (n, positions of the block's trials with n agents), n ascending.
    """
    for start in range(0, cfg.trials, BLOCK_TRIALS):
        size = min(BLOCK_TRIALS, cfg.trials - start)
        counts = rng.integers(N_RANGE[0], N_RANGE[1] + 1, size)
        yield start, [
            (n, np.flatnonzero(counts == n)) for n in sorted(set(counts.tolist()))
        ]


def draw_profiles(
    rng: np.random.Generator, n: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Incomes and needs of m random problems of n agents, one per row."""
    return rng.uniform(*INCOME_RANGE, (m, n)), rng.uniform(*NEED_RANGE, (m, n))


def block_problem(incomes: np.ndarray, needs: np.ndarray, k: int) -> Problem:
    """Row k of a block as a Problem of agents 1..n."""
    agents = tuple(range(1, incomes.shape[1] + 1))
    return make_problem(agents, incomes[k].tolist(), needs[k].tolist())


def worst_trial(
    rng: np.random.Generator,
    cfg: SampleConfig,
    measure: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[float, Problem | None]:
    """Largest measure over cfg.trials random problems, and its first problem.

    measure maps a block of problems to one value per row; values that are
    not positive never count. A NaN value, which only a rule error gives,
    is worse than any number: the first one is returned with its problem.
    """
    worst, witness = 0.0, None
    for _, groups in trial_blocks(rng, cfg):
        values = np.zeros(sum(len(rows) for _, rows in groups))
        drawn = []
        for n, rows in groups:
            incomes, needs = draw_profiles(rng, n, len(rows))
            with np.errstate(over="ignore", invalid="ignore"):
                values[rows] = measure(incomes, needs)
            drawn.append((rows, incomes, needs))
        nan_rows = np.flatnonzero(np.isnan(values))
        k = int(nan_rows[0]) if nan_rows.size else int(np.argmax(values))
        if not values[k] <= worst:
            worst = float(values[k])
            for rows, incomes, needs in drawn:
                hit = np.flatnonzero(rows == k)
                if hit.size:
                    witness = block_problem(incomes, needs, int(hit[0]))
            if nan_rows.size:
                break
    return worst, witness


def expand_axiom_names(names: Iterable[str]) -> tuple[str, ...]:
    """Resolve composite names; 'core' and 'all' expand to their members.

    An empty list is refused: it would pass without checking any axiom.
    """
    if isinstance(names, str):
        names = [names]
    out: list[str] = []
    for name in names:
        if name == "core":
            group: Sequence[str] = CORE_AXIOMS
        elif name == "all":
            group = ALL_AXIOMS
        elif name in ALL_AXIOMS:
            group = (name,)
        else:
            raise UnknownAxiom(f"unknown axiom {name!r}")
        for member in group:
            if member not in out:
                out.append(member)
    if not out:
        raise UnknownAxiom("no axiom named")
    return tuple(out)


@dataclass
class Counterexample:
    """A concrete violating instance, small enough to eyeball and re-run."""

    instance: dict
    expected: tuple[float, ...] | None
    observed: tuple[float, ...] | None
    deviation: float
    threshold: float

    @property
    def problems(self) -> tuple[Problem, ...]:
        return tuple(v for v in self.instance.values() if isinstance(v, Problem))


@dataclass
class AxiomReport:
    """Verdict of one axiom check for one rule."""

    axiom: str
    rule: RuleSpec
    passed: bool
    trials_run: int
    tolerance: float
    counterexample: Counterexample | None


@dataclass(frozen=True)
class _Checker:
    """An axiom's block form (draw, screen) and its scalar measure.

    draw(rng, n, m) gives m trials of n agents as a block; screen gives
    each trial's deviation and scale; measure does the same for one trial's
    instance and confirms, shrinks and re-checks counterexamples.
    """

    draw: Callable[[np.random.Generator, int, int], dict]
    screen: Callable[[RuleSpec, dict], tuple[np.ndarray, np.ndarray]]
    measure: Callable[
        [RuleSpec, dict],
        tuple[float, float, tuple[float, ...] | None, tuple[float, ...] | None],
    ]
    shrink: Callable[[dict, float], dict] | None = None
    droppable: Callable[[dict], tuple] | None = None


def _peak(values: Iterable[float]) -> float:
    """The largest value, or NaN if any value is NaN."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _max_abs_diff(xs: Sequence[float], ys: Sequence[float]) -> float:
    return _peak(abs(u - v) for u, v in zip(xs, ys))


def _violates(deviation: float, tol: float, scale: float) -> bool:
    """Whether a deviation exceeds tol times scale; a NaN always does."""
    return not deviation <= tol * scale


def _row_max_abs(values: np.ndarray) -> np.ndarray:
    return np.abs(values).max(axis=1)


def _trial(block: dict, k: int) -> dict:
    """Trial k of a block as the instance dict that the scalar measures take.

    An (incomes, needs) pair becomes a Problem, a boolean mask the positions
    it selects, a 2-D array a tuple, a 1-D array an entry; a scalar is kept.
    """
    instance = {}
    for key, value in block.items():
        if isinstance(value, tuple):
            instance[key] = block_problem(*value, k)
        elif np.ndim(value) == 0:
            instance[key] = value
        elif value.dtype == bool:
            instance[key] = tuple(np.flatnonzero(value[k]).tolist())
        elif value.ndim == 2:
            instance[key] = tuple(value[k].tolist())
        else:
            instance[key] = value[k].item()
    return instance


def _drop_agent(instance: dict, agent) -> dict:
    """Remove one agent from every problem stored in the instance."""
    out = dict(instance)
    for key, value in instance.items():
        if isinstance(value, Problem):
            keep = [k for k, a in enumerate(value.agents) if a != agent]
            out[key] = make_problem(
                tuple(value.agents[k] for k in keep),
                tuple(value.incomes[k] for k in keep),
                tuple(value.needs[k] for k in keep),
            )
    return out


# --- homogeneity: scaling incomes and needs together scales payoffs ---


def _draw_homogeneity(rng, n, m):
    return {
        "problem": draw_profiles(rng, n, m),
        "factor": rng.uniform(0.1, 10.0, m),
    }


def _screen_homogeneity(rule, block):
    (incomes, needs), factor = block["problem"], block["factor"][:, None]
    scaled = (factor * incomes, factor * needs)
    expected = factor * rule.payoffs_batch(incomes, needs)
    observed = rule.payoffs_batch(*scaled)
    scale = np.maximum.reduce(
        [block_scales(incomes, needs), block_scales(*scaled), _row_max_abs(observed)]
    )
    return _row_max_abs(observed - expected), scale


def _measure_homogeneity(rule, instance):
    problem, factor = instance["problem"], instance["factor"]
    scaled = make_problem(
        problem.agents,
        tuple(factor * y for y in problem.incomes),
        tuple(factor * z for z in problem.needs),
    )
    expected = tuple(factor * x for x in rule.payoffs(problem))
    observed = rule.payoffs(scaled)
    # Rounding grows with the payoffs, which can dwarf the problem's totals.
    scale = max(problem_scale(problem), problem_scale(scaled), *map(abs, observed))
    return _max_abs_diff(observed, expected), scale, expected, observed


def _shrink_homogeneity(instance, s):
    return {
        "problem": instance["problem"],
        "factor": 1.0 + (instance["factor"] - 1.0) * s,
    }


# --- equal treatment: identical agents receive identical payoffs ---


def _draw_equal_treatment(rng, n, m):
    incomes, needs = draw_profiles(rng, n, m)
    rows = np.arange(m)
    first = rng.integers(0, n, m)
    second = (first + rng.integers(1, n, m)) % n
    incomes[rows, second] = incomes[rows, first]
    needs[rows, second] = needs[rows, first]
    # Agents are numbered from 1.
    return {"problem": (incomes, needs), "first": first + 1, "second": second + 1}


def _screen_equal_treatment(rule, block):
    incomes, needs = block["problem"]
    x = rule.payoffs_batch(incomes, needs)
    rows = np.arange(len(x))
    gap = x[rows, block["first"] - 1] - x[rows, block["second"] - 1]
    return np.abs(gap), block_scales(incomes, needs)


def _measure_equal_treatment(rule, instance):
    problem = instance["problem"]
    x = rule.payoffs(problem)
    i = problem.agents.index(instance["first"])
    j = problem.agents.index(instance["second"])
    return abs(x[i] - x[j]), problem_scale(problem), (x[i], x[i]), (x[i], x[j])


def _droppable_equal_treatment(instance):
    keep = {instance["first"], instance["second"]}
    return tuple(a for a in instance["problem"].agents if a not in keep)


# --- continuity: payoffs converge as a perturbation shrinks ---


def _draw_continuity(rng, n, m):
    incomes, needs = draw_profiles(rng, n, m)
    delta = PERTURBATION_SCALE
    income_dir = rng.uniform(-1.0, 1.0, (m, n))
    # Need directions are damped so every step keeps needs at or above half
    # their original value, hence valid.
    need_dir = rng.uniform(-1.0, 1.0, (m, n)) * np.minimum(1.0, needs / (2.0 * delta))
    return {
        "problem": (incomes, needs),
        "income_dir": income_dir,
        "need_dir": need_dir,
        "base_delta": delta,
    }


def _measure_continuity(rule, instance):
    problem = instance["problem"]
    base = rule.payoffs(problem)
    income_dir = instance["income_dir"]
    need_dir = instance["need_dir"]
    delta = instance["base_delta"]
    scale = max(problem_scale(problem), *map(abs, base))
    gaps: list[float] = []
    for _ in range(CONTINUITY_STEPS + 1):
        nearby = make_problem(
            problem.agents,
            tuple(y + delta * u for y, u in zip(problem.incomes, income_dir)),
            tuple(z + delta * v for z, v in zip(problem.needs, need_dir)),
        )
        moved = rule.payoffs(nearby)
        gaps.append(_max_abs_diff(moved, base))
        scale = max(scale, *map(abs, moved))
        delta *= 0.5
    # Violation when the gap fails to vanish, or grows along the tail. A
    # continuous rule's gap may grow at the first, large steps, before the
    # perturbation is small enough for the rule to look linear.
    tail = gaps[-(CONTINUITY_TAIL + 1):]
    growth = [later - earlier for earlier, later in zip(tail, tail[1:])]
    worst = _peak([gaps[-1]] + growth)
    return worst, scale, None, tuple(gaps)


_HALVINGS = 0.5 ** np.arange(CONTINUITY_STEPS + 1)


def _screen_continuity(rule, block):
    incomes, needs = block["problem"]
    m, n = incomes.shape
    base = rule.payoffs_batch(incomes, needs)
    # Every step of every trial in one block: shape (steps, m, n).
    deltas = (block["base_delta"] * _HALVINGS)[:, None, None]
    moved = rule.payoffs_batch(
        (incomes + deltas * block["income_dir"]).reshape(-1, n),
        (needs + deltas * block["need_dir"]).reshape(-1, n),
    ).reshape(-1, m, n)
    gaps = np.abs(moved - base).max(axis=2)
    tail = gaps[-(CONTINUITY_TAIL + 1):]
    worst = np.maximum(gaps[-1], (tail[1:] - tail[:-1]).max(axis=0))
    scale = np.maximum.reduce(
        [
            block_scales(incomes, needs),
            _row_max_abs(base),
            np.abs(moved).max(axis=(0, 2)),
        ]
    )
    return worst, scale


# --- nat: within-group reallocation never changes the group's total payoff ---


def _draw_nat(rng, n, m):
    incomes, needs = draw_profiles(rng, n, m)
    size = rng.integers(2, n + 1, m)[:, None]
    # Each row ranks its agents at random; the size lowest form the group.
    members = rng.permuted(np.broadcast_to(np.arange(n), (m, n)), axis=1) < size
    income_total = (incomes * members).sum(axis=1, keepdims=True)
    need_total = (needs * members).sum(axis=1, keepdims=True)
    spread = rng.uniform(-1.0, 1.0, (m, n)) * members
    spread -= spread.sum(axis=1, keepdims=True) / size
    amp = rng.uniform(0.0, INCOME_RANGE[1] - INCOME_RANGE[0], (m, 1))
    # Normalized exponentials: flat Dirichlet weights over the group.
    weights = rng.standard_exponential((m, n)) * members
    weights /= weights.sum(axis=1, keepdims=True)
    modified = (
        np.where(members, income_total / size + amp * spread, incomes),
        np.where(members, need_total * weights, needs),
    )
    return {"problem": (incomes, needs), "modified": modified, "members": members}


def _screen_nat(rule, block):
    problem, modified, members = block["problem"], block["modified"], block["members"]
    before = row_sums(np.where(members, rule.payoffs_batch(*problem), 0.0))
    after = row_sums(np.where(members, rule.payoffs_batch(*modified), 0.0))
    scale = np.maximum(block_scales(*problem), block_scales(*modified))
    return np.abs(after - before), scale


def _measure_nat(rule, instance):
    problem, modified = instance["problem"], instance["modified"]
    members = instance["members"]
    before = rule.payoffs(problem)
    after = rule.payoffs(modified)
    group_before = sum(before[k] for k in members)
    group_after = sum(after[k] for k in members)
    scale = max(problem_scale(problem), problem_scale(modified))
    return (
        abs(group_after - group_before),
        scale,
        (group_before,),
        (group_after,),
    )


def _shrink_nat(instance, s):
    problem, modified = instance["problem"], instance["modified"]
    incomes = list(problem.incomes)
    needs = list(problem.needs)
    for k in instance["members"]:
        incomes[k] = (1.0 - s) * problem.incomes[k] + s * modified.incomes[k]
        needs[k] = (1.0 - s) * problem.needs[k] + s * modified.needs[k]
    return {
        "problem": problem,
        "modified": make_problem(problem.agents, incomes, needs),
        "members": instance["members"],
    }


# --- stability: reapplying a rule to its own output changes nothing ---


def _draw_stability(rng, n, m):
    return {"problem": draw_profiles(rng, n, m)}


def _screen_stability(rule, block):
    incomes, needs = block["problem"]
    once = rule.payoffs_batch(incomes, needs)
    again = rule.payoffs_batch(once, needs)
    return _row_max_abs(once - again), block_scales(incomes, needs)


def _measure_stability(rule, instance):
    problem = instance["problem"]
    once = rule.payoffs(problem)
    again = rule.payoffs(make_problem(problem.agents, once, problem.needs))
    return _max_abs_diff(once, again), problem_scale(problem), once, again


def _droppable_stability(instance):
    agents = instance["problem"].agents
    return agents if len(agents) > 1 else ()


# --- dummy: an agent with zero income and zero need receives zero ---


def _draw_dummy(rng, n, m):
    incomes, needs = draw_profiles(rng, n, m)
    rows = np.arange(m)
    agent = rng.integers(0, n, m)
    incomes[rows, agent] = 0.0
    needs[rows, agent] = 0.0
    # Agents are numbered from 1.
    return {"problem": (incomes, needs), "agent": agent + 1}


def _screen_dummy(rule, block):
    incomes, needs = block["problem"]
    x = rule.payoffs_batch(incomes, needs)
    paid = x[np.arange(len(x)), block["agent"] - 1]
    return np.abs(paid), block_scales(incomes, needs)


def _measure_dummy(rule, instance):
    problem = instance["problem"]
    k = problem.agents.index(instance["agent"])
    x = rule.payoffs(problem)
    return abs(x[k]), problem_scale(problem), (0.0,), (x[k],)


def _droppable_dummy(instance):
    return tuple(a for a in instance["problem"].agents if a != instance["agent"])


# --- income additivity: payoffs add across income profiles at fixed needs ---


def _draw_income_additivity(rng, n, m):
    return {
        "problem": draw_profiles(rng, n, m),
        "extra_incomes": rng.uniform(*INCOME_RANGE, (m, n)),
    }


def _additivity_scale(incomes, needs, *others):
    """Largest problem scale among the profiles that share these needs."""
    return np.maximum.reduce(
        [block_scales(y, needs) for y in (incomes,) + others]
    )


def _screen_income_additivity(rule, block):
    (incomes, needs), extra = block["problem"], block["extra_incomes"]
    combined = incomes + extra
    expected = rule.payoffs_batch(incomes, needs) + rule.payoffs_batch(extra, needs)
    observed = rule.payoffs_batch(combined, needs)
    scale = _additivity_scale(incomes, needs, extra, combined)
    return _row_max_abs(observed - expected), scale


def _measure_income_additivity(rule, instance):
    problem = instance["problem"]
    extra = instance["extra_incomes"]
    second = make_problem(problem.agents, extra, problem.needs)
    combined = make_problem(
        problem.agents,
        tuple(y + e for y, e in zip(problem.incomes, extra)),
        problem.needs,
    )
    expected = tuple(
        u + v for u, v in zip(rule.payoffs(problem), rule.payoffs(second))
    )
    observed = rule.payoffs(combined)
    scale = max(
        problem_scale(problem), problem_scale(second), problem_scale(combined)
    )
    return _max_abs_diff(observed, expected), scale, expected, observed


def _shrink_extra_incomes(instance, s):
    out = dict(instance)
    out["extra_incomes"] = tuple(s * e for e in instance["extra_incomes"])
    return out


# --- dual income additivity: the reflected form of income additivity ---


def _measure_dual_income_additivity(rule, instance):
    problem = instance["problem"]
    extra = instance["extra_incomes"]
    combined = make_problem(
        problem.agents,
        tuple(y + e for y, e in zip(problem.incomes, extra)),
        problem.needs,
    )
    shifted = make_problem(
        problem.agents,
        tuple(z + e for z, e in zip(problem.needs, extra)),
        problem.needs,
    )
    observed = tuple(
        z + r for z, r in zip(problem.needs, rule.payoffs(combined))
    )
    expected = tuple(
        u + v for u, v in zip(rule.payoffs(problem), rule.payoffs(shifted))
    )
    scale = max(
        problem_scale(problem), problem_scale(combined), problem_scale(shifted)
    )
    return _max_abs_diff(observed, expected), scale, expected, observed


def _screen_dual_income_additivity(rule, block):
    (incomes, needs), extra = block["problem"], block["extra_incomes"]
    combined, shifted = incomes + extra, needs + extra
    observed = needs + rule.payoffs_batch(combined, needs)
    expected = rule.payoffs_batch(incomes, needs) + rule.payoffs_batch(shifted, needs)
    scale = _additivity_scale(incomes, needs, combined, shifted)
    return _row_max_abs(observed - expected), scale


_CHECKERS: dict[str, _Checker] = {
    "homogeneity": _Checker(
        _draw_homogeneity,
        _screen_homogeneity,
        _measure_homogeneity,
        shrink=_shrink_homogeneity,
    ),
    "equal_treatment": _Checker(
        _draw_equal_treatment,
        _screen_equal_treatment,
        _measure_equal_treatment,
        droppable=_droppable_equal_treatment,
    ),
    "continuity": _Checker(_draw_continuity, _screen_continuity, _measure_continuity),
    "nat": _Checker(_draw_nat, _screen_nat, _measure_nat, shrink=_shrink_nat),
    "stability": _Checker(
        _draw_stability,
        _screen_stability,
        _measure_stability,
        droppable=_droppable_stability,
    ),
    "dummy": _Checker(
        _draw_dummy, _screen_dummy, _measure_dummy, droppable=_droppable_dummy
    ),
    "income_additivity": _Checker(
        _draw_income_additivity,
        _screen_income_additivity,
        _measure_income_additivity,
        shrink=_shrink_extra_incomes,
    ),
    "dual_income_additivity": _Checker(
        _draw_income_additivity,
        _screen_dual_income_additivity,
        _measure_dual_income_additivity,
        shrink=_shrink_extra_incomes,
    ),
}


def _shrunk(checker: _Checker, rule: RuleSpec, instance: dict, tol: float) -> dict:
    """Shrink a violating instance while the violation persists."""
    if checker.shrink is not None:
        s = 1.0
        for _ in range(MAX_SHRINK_STEPS):
            s *= 0.5
            candidate = checker.shrink(instance, s)
            deviation, scale, _, _ = checker.measure(rule, candidate)
            if _violates(deviation, tol, scale):
                instance = candidate
            else:
                break
    if checker.droppable is not None:
        steps = 0
        progressing = True
        while progressing and steps < MAX_SHRINK_STEPS:
            progressing = False
            for agent in checker.droppable(instance):
                try:
                    candidate = _drop_agent(instance, agent)
                    deviation, scale, _, _ = checker.measure(rule, candidate)
                except ValidationError:
                    continue
                if _violates(deviation, tol, scale):
                    instance = candidate
                    steps += 1
                    progressing = True
                    break
    return instance


def check_axiom(
    axiom: str, rule: RuleSpec, cfg: SampleConfig, tol: float = 1e-9
) -> AxiomReport:
    """Run one axiom's sampled predicate for cfg.trials trials.

    Stops at the first violation, shrinks it, and reports a counterexample
    whose re-measured deviation exceeds tol scaled by instance magnitude;
    a NaN deviation, as a NaN payoff gives, counts as a violation.
    Trials are screened a block at a time; the first trial the screen flags
    that the scalar measure confirms is the violation. When a block holds a
    problem that Problem rejects, every trial of the block goes to the
    scalar measure in order, so the first violation is reported or the
    error raised, as trial by trial.
    """
    if axiom not in _CHECKERS:
        raise UnknownAxiom(f"unknown axiom {axiom!r}")
    check_tol(tol)
    checker = _CHECKERS[axiom]
    rng = rng_for(cfg.seed, axiom)
    for start, groups in trial_blocks(rng, cfg):
        flagged = []
        for n, rows in groups:
            block = checker.draw(rng, n, len(rows))
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    deviation, scale = checker.screen(rule, block)
                hits = np.flatnonzero(~(deviation <= tol * scale))
            except ValidationError:
                hits = range(len(rows))
            flagged += [(int(rows[k]), block, k) for k in hits]
        for trial, block, k in sorted(flagged, key=lambda hit: hit[0]):
            instance = _trial(block, k)
            deviation, scale, _, _ = checker.measure(rule, instance)
            if _violates(deviation, tol, scale):
                instance = _shrunk(checker, rule, instance, tol)
                deviation, scale, expected, observed = checker.measure(rule, instance)
                counterexample = Counterexample(
                    instance=instance,
                    expected=expected,
                    observed=observed,
                    deviation=deviation,
                    threshold=tol * scale,
                )
                return AxiomReport(
                    axiom, rule, False, start + trial + 1, tol, counterexample
                )
    return AxiomReport(axiom, rule, True, cfg.trials, tol, None)


def recheck_counterexample(
    axiom: str, rule: RuleSpec, counterexample: Counterexample
) -> tuple[float, float]:
    """Re-measure a stored counterexample; returns (deviation, threshold scale)."""
    if axiom not in _CHECKERS:
        raise UnknownAxiom(f"unknown axiom {axiom!r}")
    deviation, scale, _, _ = _CHECKERS[axiom].measure(rule, counterexample.instance)
    return deviation, scale


def axiom_suite(
    rule: RuleSpec,
    axioms: Iterable[str],
    cfg: SampleConfig,
    tol: float = 1e-9,
) -> list[AxiomReport]:
    """Check several axioms; composite names are expanded first.

    Each axiom draws from its own seed stream, so the report for one axiom
    does not depend on which others were requested.
    """
    return [check_axiom(name, rule, cfg, tol) for name in expand_axiom_names(axioms)]
