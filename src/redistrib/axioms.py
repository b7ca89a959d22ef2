"""Seeded randomized checkers for behavioural properties of allocation rules.

Each axiom is rendered as a sampled predicate: draw a random instance,
measure how far the rule deviates from the property, and fail when the
deviation exceeds a tolerance scaled by the instance's magnitude. A pass is
evidence, not proof; a fail comes with a concrete re-runnable counterexample.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    Problem,
    ValidationError,
    make_problem,
    problem_scale,
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


class UnknownAxiom(ValueError):
    """Axiom identifier is not one of the known names."""


@dataclass(frozen=True)
class SampleConfig:
    """Controls the randomized sampling used by axiom and duality checks.

    need_range must stay strictly positive so every sampled problem has
    positive total need. perturbation_scale is the largest step used by
    the continuity probe.
    """

    seed: int = 0
    trials: int = 100
    n_range: tuple[int, int] = (2, 6)
    income_range: tuple[float, float] = (-10.0, 10.0)
    need_range: tuple[float, float] = (0.1, 10.0)
    perturbation_scale: float = 0.5

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        lo, hi = self.n_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad n_range {self.n_range!r}")
        if not self.income_range[0] < self.income_range[1]:
            raise ValueError(f"bad income_range {self.income_range!r}")
        if not 0.0 < self.need_range[0] <= self.need_range[1]:
            raise ValueError(f"bad need_range {self.need_range!r}")
        if self.perturbation_scale <= 0:
            raise ValueError("perturbation_scale must be positive")


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Deterministic generator derived from a base seed and a purpose label."""
    return np.random.default_rng(
        [seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode("utf-8"))]
    )


def sample_problem(
    rng: np.random.Generator, cfg: SampleConfig, min_agents: int = 1
) -> Problem:
    """Draw one random problem within the config's ranges."""
    low = max(min_agents, cfg.n_range[0])
    n = int(rng.integers(low, cfg.n_range[1] + 1))
    incomes = tuple(float(v) for v in rng.uniform(*cfg.income_range, n))
    needs = tuple(float(v) for v in rng.uniform(*cfg.need_range, n))
    return make_problem(tuple(range(1, n + 1)), incomes, needs)


def expand_axiom_names(names: Iterable[str]) -> tuple[str, ...]:
    """Resolve composite names; 'core' and 'all' expand to their members."""
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
    min_agents: int
    sample: Callable[[np.random.Generator, SampleConfig], dict]
    measure: Callable[
        [RuleSpec, dict],
        tuple[float, float, tuple[float, ...] | None, tuple[float, ...] | None],
    ]
    shrink: Callable[[dict, float], dict] | None = None
    droppable: Callable[[dict], tuple] | None = None


def _max_abs_diff(xs: Sequence[float], ys: Sequence[float]) -> float:
    return max(abs(u - v) for u, v in zip(xs, ys))


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


def _sample_homogeneity(rng, cfg):
    return {
        "problem": sample_problem(rng, cfg),
        "factor": float(rng.uniform(0.1, 10.0)),
    }


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


def _sample_equal_treatment(rng, cfg):
    problem = sample_problem(rng, cfg, min_agents=2)
    i, j = (int(v) for v in rng.choice(len(problem), size=2, replace=False))
    incomes = list(problem.incomes)
    needs = list(problem.needs)
    incomes[j] = incomes[i]
    needs[j] = needs[i]
    twin = make_problem(problem.agents, incomes, needs)
    return {"problem": twin, "first": problem.agents[i], "second": problem.agents[j]}


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


def _sample_continuity(rng, cfg):
    problem = sample_problem(rng, cfg)
    n = len(problem)
    delta = cfg.perturbation_scale
    income_dir = tuple(float(v) for v in rng.uniform(-1.0, 1.0, n))
    # Need directions are damped so every step keeps needs at or above half
    # their original value, hence valid.
    need_dir = tuple(
        float(v) * min(1.0, z / (2.0 * delta))
        for v, z in zip(rng.uniform(-1.0, 1.0, n), problem.needs)
    )
    return {
        "problem": problem,
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
    worst = gaps[-1]
    for earlier, later in zip(tail, tail[1:]):
        worst = max(worst, later - earlier)
    return worst, scale, None, tuple(gaps)


# --- nat: within-group reallocation never changes the group's total payoff ---


def _sample_nat(rng, cfg):
    problem = sample_problem(rng, cfg, min_agents=2)
    n = len(problem)
    size = int(rng.integers(2, n + 1))
    members = tuple(sorted(int(v) for v in rng.choice(n, size=size, replace=False)))
    income_total = sum(problem.incomes[k] for k in members)
    need_total = sum(problem.needs[k] for k in members)
    spread = rng.uniform(-1.0, 1.0, size)
    spread -= spread.mean()
    amp = float(rng.uniform(0.0, cfg.income_range[1] - cfg.income_range[0]))
    weights = rng.dirichlet(np.ones(size))
    incomes = list(problem.incomes)
    needs = list(problem.needs)
    for k, u, w in zip(members, spread, weights):
        incomes[k] = income_total / size + amp * float(u)
        needs[k] = need_total * float(w)
    modified = make_problem(problem.agents, incomes, needs)
    return {"problem": problem, "modified": modified, "members": members}


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


def _sample_stability(rng, cfg):
    return {"problem": sample_problem(rng, cfg)}


def _measure_stability(rule, instance):
    problem = instance["problem"]
    once = rule.payoffs(problem)
    again = rule.payoffs(make_problem(problem.agents, once, problem.needs))
    return _max_abs_diff(once, again), problem_scale(problem), once, again


def _droppable_stability(instance):
    agents = instance["problem"].agents
    return agents if len(agents) > 1 else ()


# --- dummy: an agent with zero income and zero need receives zero ---


def _sample_dummy(rng, cfg):
    problem = sample_problem(rng, cfg, min_agents=2)
    k = int(rng.integers(0, len(problem)))
    incomes = list(problem.incomes)
    needs = list(problem.needs)
    incomes[k] = 0.0
    needs[k] = 0.0
    return {
        "problem": make_problem(problem.agents, incomes, needs),
        "agent": problem.agents[k],
    }


def _measure_dummy(rule, instance):
    problem = instance["problem"]
    k = problem.agents.index(instance["agent"])
    x = rule.payoffs(problem)
    return abs(x[k]), problem_scale(problem), (0.0,), (x[k],)


def _droppable_dummy(instance):
    return tuple(a for a in instance["problem"].agents if a != instance["agent"])


# --- income additivity: payoffs add across income profiles at fixed needs ---


def _sample_income_additivity(rng, cfg):
    problem = sample_problem(rng, cfg)
    extra = tuple(float(v) for v in rng.uniform(*cfg.income_range, len(problem)))
    return {"problem": problem, "extra_incomes": extra}


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


_CHECKERS: dict[str, _Checker] = {
    "homogeneity": _Checker(
        1, _sample_homogeneity, _measure_homogeneity, shrink=_shrink_homogeneity
    ),
    "equal_treatment": _Checker(
        2,
        _sample_equal_treatment,
        _measure_equal_treatment,
        droppable=_droppable_equal_treatment,
    ),
    "continuity": _Checker(1, _sample_continuity, _measure_continuity),
    "nat": _Checker(2, _sample_nat, _measure_nat, shrink=_shrink_nat),
    "stability": _Checker(
        1, _sample_stability, _measure_stability, droppable=_droppable_stability
    ),
    "dummy": _Checker(
        2, _sample_dummy, _measure_dummy, droppable=_droppable_dummy
    ),
    "income_additivity": _Checker(
        1,
        _sample_income_additivity,
        _measure_income_additivity,
        shrink=_shrink_extra_incomes,
    ),
    "dual_income_additivity": _Checker(
        1,
        _sample_income_additivity,
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
            if deviation > tol * scale:
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
                if deviation > tol * scale:
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
    whose re-measured deviation exceeds tol scaled by instance magnitude.
    """
    if axiom not in _CHECKERS:
        raise UnknownAxiom(f"unknown axiom {axiom!r}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    checker = _CHECKERS[axiom]
    if cfg.n_range[0] < checker.min_agents:
        raise ValueError(
            f"axiom {axiom!r} needs n_range to start at {checker.min_agents} or more"
        )
    rng = rng_for(cfg.seed, axiom)
    for trial in range(cfg.trials):
        instance = checker.sample(rng, cfg)
        deviation, scale, _, _ = checker.measure(rule, instance)
        if deviation > tol * scale:
            instance = _shrunk(checker, rule, instance, tol)
            deviation, scale, expected, observed = checker.measure(rule, instance)
            counterexample = Counterexample(
                instance=instance,
                expected=expected,
                observed=observed,
                deviation=deviation,
                threshold=tol * scale,
            )
            return AxiomReport(axiom, rule, False, trial + 1, tol, counterexample)
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
