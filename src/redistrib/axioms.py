"""Seeded randomized checkers for behavioural properties of allocation rules.

Each axiom is rendered as a sampled predicate: draw a random instance,
measure how far the rule deviates from the property, and fail when the
deviation exceeds a tolerance scaled by the instance's magnitude. A pass is
evidence, not proof; a fail comes with a concrete re-runnable counterexample.

Trials are drawn in blocks of up to BLOCK_TRIALS and screened as one batch
of numpy arrays, row k for trial k, each problem of a batch held in a
core.Block. A trial has 2 to 6 agents, so the batch is as wide as its
largest trial and the columns past a trial's own agents are padding: zero
incomes and needs, paid zero, which leave every row's totals and payoffs
as they are unpadded, bit for bit. The screen is each axiom's only
measure. The first flagged trial is rebuilt as an instance of Problems,
re-screened as an unpadded one-row batch, then shrunk, and reported with
the screen of the last instance the shrink took.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Block,
    Problem,
    ValidationError,
    check_tol,
    make_problem,
    row_sums,
)
from .rules import RuleSpec, _excerpt

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
# Continuity steps screened together. A block of trials at all 41 steps
# takes about 1.2 MB more memory at its peak than at 8.
CONTINUITY_SLICE = 8

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
    rng: np.random.Generator, cfg: SampleConfig, draw: Callable
) -> Iterator[tuple[int, dict]]:
    """Split cfg.trials into blocks of BLOCK_TRIALS trials or fewer.

    Yields each block's first trial index and its trials as one padded
    batch (see draw_trials); row k of the batch is trial start + k.
    """
    for start in range(0, cfg.trials, BLOCK_TRIALS):
        size = min(BLOCK_TRIALS, cfg.trials - start)
        counts = rng.integers(N_RANGE[0], N_RANGE[1] + 1, size)
        yield start, draw_trials(rng, counts, draw)


def draw_trials(rng: np.random.Generator, counts: np.ndarray, draw: Callable) -> dict:
    """Trials of the given agent counts as one batch, row k of agents 1..counts[k].

    draw(rng, n, m) gives m trials of n agents: a dict of problems, as
    (incomes, needs) pairs, and of arrays, one row per trial, or scalars.
    Each agent count is drawn in turn, ascending, and its rows are scattered
    to its trials' positions. 2-D arrays are padded with zeros (False, for a
    mask) to the largest count, and each problem becomes one Block that
    records the counts.
    """
    size, width = len(counts), int(counts.max())
    groups = []
    for n in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == n)
        groups.append((rows, draw(rng, n, len(rows))))

    def scatter(parts: Sequence[np.ndarray]) -> np.ndarray:
        out = np.zeros((size, width)[: parts[0].ndim], parts[0].dtype)
        for (rows, _), part in zip(groups, parts):
            if part.ndim == 2:
                out[rows, : part.shape[1]] = part
            else:
                out[rows] = part
        return out

    batch = {}
    for key, value in groups[0][1].items():
        parts = [trials[key] for _, trials in groups]
        if np.ndim(value) == 0:
            batch[key] = value
        elif isinstance(value, tuple):
            batch[key] = Block(*map(scatter, zip(*parts)), counts)
        else:
            batch[key] = scatter(parts)
    return batch


def draw_profiles(
    rng: np.random.Generator, n: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Incomes and needs of m random problems of n agents, one per row."""
    return rng.uniform(*INCOME_RANGE, (m, n)), rng.uniform(*NEED_RANGE, (m, n))


def _draw_problems(rng, n, m):
    return {"problem": draw_profiles(rng, n, m)}


def worst_trial(
    rng: np.random.Generator,
    cfg: SampleConfig,
    measure: Callable[[Block], np.ndarray],
) -> tuple[float, Problem | None]:
    """Largest measure over cfg.trials random problems, and its first problem.

    measure maps a padded Block to one value per row; values that are not
    positive never count. A NaN value, which only a rule error gives, is
    worse than any number: the first one is returned with its problem.
    """
    worst, witness = 0.0, None
    for _, trials in trial_blocks(rng, cfg, _draw_problems):
        block = trials["problem"]
        with np.errstate(over="ignore", invalid="ignore"):
            values = measure(block)
        nan_rows = np.flatnonzero(np.isnan(values))
        k = int(nan_rows[0]) if nan_rows.size else int(np.argmax(values))
        if not values[k] <= worst:
            worst, witness = float(values[k]), block.problem(k)
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
            raise UnknownAxiom(f"unknown axiom {_excerpt(name)!r}")
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
    """An axiom's draw and screen, and how its counterexamples shrink.

    draw(rng, n, m) gives m trials of n agents, which draw_trials gathers
    into a padded batch: a dict of Blocks and arrays, one row per trial.
    screen gives each trial's deviation, scale, expected and observed values
    (expected may be None); on a one-row batch rebuilt from an instance it
    confirms, shrinks and re-checks counterexamples. shrink(instance, step)
    gives the smaller instances that shrinking step tries, in order.
    """

    draw: Callable[[np.random.Generator, int, int], dict]
    screen: Callable[[RuleSpec, dict], tuple]
    shrink: Callable[[dict, int], Iterable[dict]] = lambda instance, step: ()


def _violates(deviation: float, tol: float, scale: float) -> bool:
    """Whether a deviation exceeds tol times scale; a NaN always does."""
    return not deviation <= tol * scale


def _row_max_abs(values: np.ndarray) -> np.ndarray:
    return np.abs(values).max(axis=1)


def _payoff_scale(scales: list[np.ndarray], *payoffs: np.ndarray) -> np.ndarray:
    """Each row's largest problem scale and absolute payoff; rows come first.

    A NaN payoff is skipped where a number exists: it fails its trial
    through the deviation, and the threshold stays that of the numbers.
    """
    peaks = [np.fmax.reduce(np.abs(x).reshape(len(x), -1), axis=1) for x in payoffs]
    return np.fmax.reduce(scales + peaks)


def _trial(trials: dict, k: int) -> dict:
    """Trial k of a batch as an instance dict, the form counterexamples take.

    A Block's row becomes a Problem, a boolean mask the positions it
    selects, a 2-D array a tuple cut to the trial's agents, a 1-D array an
    entry; a scalar is kept. _one_row turns the instance back into a one-row
    batch.
    """
    n = int(trials["problem"].counts[k])
    instance = {}
    for key, value in trials.items():
        if isinstance(value, Block):
            instance[key] = value.problem(k)
        elif np.ndim(value) == 0:
            instance[key] = value
        elif value.dtype == bool:
            instance[key] = tuple(np.flatnonzero(value[k, :n]).tolist())
        elif value.ndim == 2:
            instance[key] = tuple(value[k, :n].tolist())
        else:
            instance[key] = value[k].item()
    return instance


# Instance entries that name an agent by id; the screens take its column.
_AGENT_KEYS = ("first", "second", "agent")


def _one_row(instance: dict) -> dict:
    """The one-row batch whose trial is this instance: the inverse of _trial.

    Agent ids become 1-based columns of the instance's problem, which
    shrinking may have left with gaps in its ids; member positions become a
    mask. The screen's rule sees agents 1..n, as in the batch it was drawn in.
    """
    agents = instance["problem"].agents
    trials = {}
    for key, value in instance.items():
        if isinstance(value, Problem):
            trials[key] = Block(value.incomes[None], value.needs[None])
        elif key == "members":
            trials[key] = np.isin(np.arange(len(agents)), value)[None]
        elif key in _AGENT_KEYS:
            trials[key] = np.array([agents.index(value) + 1])
        else:
            trials[key] = np.array([value], dtype=float)
    return trials


def _measure(checker: _Checker, rule: RuleSpec, instance: dict) -> tuple:
    """Screen an instance as a one-row batch.

    Returns its deviation and scale as floats, and its expected and observed
    values as tuples of floats (or None).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        deviation, scale, *values = checker.screen(rule, _one_row(instance))
    expected, observed = (None if v is None else tuple(v[0].tolist()) for v in values)
    return deviation[0].item(), scale[0].item(), expected, observed


def _halving(shrink: Callable[[dict, float], dict]) -> Callable[[dict, int], tuple]:
    """One candidate a step: shrink(instance, s), s halving from 0.5 step by step."""
    return lambda instance, step: (shrink(instance, 0.5 ** (step + 1)),)


def _drops(instance: dict, step: int) -> Iterator[dict]:
    """The instance without each agent it does not name, in agent order.

    A drop that leaves no valid problem, say one of zero total need, is skipped.
    """
    named = {instance[key] for key in _AGENT_KEYS if key in instance}
    for agent in instance["problem"].agents:
        if agent not in named:
            try:
                yield _drop_agent(instance, agent)
            except ValidationError:
                pass


def _drop_agent(instance: dict, agent) -> dict:
    """Remove one agent from every problem stored in the instance."""
    out = dict(instance)
    for key, value in instance.items():
        if isinstance(value, Problem):
            keep = [k for k, a in enumerate(value.agents) if a != agent]
            agents = [value.agents[k] for k in keep]
            out[key] = make_problem(agents, value.incomes[keep], value.needs[keep])
    return out


# --- homogeneity: scaling incomes and needs together scales payoffs ---


def _draw_homogeneity(rng, n, m):
    return {"problem": draw_profiles(rng, n, m), "factor": rng.uniform(0.1, 10.0, m)}


def _screen_homogeneity(rule, trials):
    problem, factor = trials["problem"], trials["factor"][:, None]
    expected = factor * rule.payoffs_batch(problem)
    scaled = Block(factor * problem.incomes, factor * problem.needs, problem.counts)
    observed = rule.payoffs_batch(scaled)
    # Rounding grows with the payoffs, which can dwarf the problem's totals.
    scale = _payoff_scale([problem.scales, scaled.scales], observed)
    return _row_max_abs(observed - expected), scale, expected, observed


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


def _screen_equal_treatment(rule, trials):
    problem = trials["problem"]
    x = rule.payoffs_batch(problem)
    rows = np.arange(len(x))
    first, second = x[rows, trials["first"] - 1], x[rows, trials["second"] - 1]
    return (
        np.abs(first - second),
        problem.scales,
        np.stack([first, first], axis=1),
        np.stack([first, second], axis=1),
    )


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


_HALVINGS = 0.5 ** np.arange(CONTINUITY_STEPS + 1)


def _screen_continuity(rule, trials):
    problem = trials["problem"]
    m, n = problem.incomes.shape
    base = rule.payoffs_batch(problem)
    scale = _payoff_scale([problem.scales], base)
    deltas = (trials["base_delta"] * _HALVINGS)[:, None, None]
    counts = np.tile(problem.counts, CONTINUITY_SLICE)
    gaps = []
    # Every trial's steps in one Block of shape (steps, m, n), a slice of
    # CONTINUITY_SLICE steps at a time. Slices give the bits the whole probe
    # would: each payoff is its own row's, and a max does not depend on order.
    for first in range(0, len(deltas), CONTINUITY_SLICE):
        delta = deltas[first : first + CONTINUITY_SLICE]
        steps = Block(
            (problem.incomes + delta * trials["income_dir"]).reshape(-1, n),
            (problem.needs + delta * trials["need_dir"]).reshape(-1, n),
            counts[: len(delta) * m],
        )
        moved = rule.payoffs_batch(steps).reshape(-1, m, n)
        gaps.append(np.abs(moved - base).max(axis=2))
        scale = _payoff_scale([scale], moved.swapaxes(0, 1))
    gaps = np.concatenate(gaps)
    # Violation when the gap fails to vanish, or grows along the tail. A
    # continuous rule's gap may grow at the first, large steps, before the
    # perturbation is small enough for the rule to look linear.
    tail = gaps[-(CONTINUITY_TAIL + 1):]
    worst = np.maximum(gaps[-1], (tail[1:] - tail[:-1]).max(axis=0))
    return worst, scale, None, gaps.T


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


def _screen_nat(rule, trials):
    problem, modified = trials["problem"], trials["modified"]
    members = trials["members"]
    before = row_sums(np.where(members, rule.payoffs_batch(problem), 0.0))
    after = row_sums(np.where(members, rule.payoffs_batch(modified), 0.0))
    scale = np.maximum(problem.scales, modified.scales)
    return np.abs(after - before), scale, before[:, None], after[:, None]


def _shrink_nat(instance, s):
    problem, modified = instance["problem"], instance["modified"]
    members = list(instance["members"])
    incomes, needs = problem.incomes.copy(), problem.needs.copy()
    incomes[members] = (1.0 - s) * incomes[members] + s * modified.incomes[members]
    needs[members] = (1.0 - s) * needs[members] + s * modified.needs[members]
    return {
        "problem": problem,
        "modified": make_problem(problem.agents, incomes, needs),
        "members": instance["members"],
    }


# --- stability: reapplying a rule to its own output changes nothing ---


def _screen_stability(rule, trials):
    problem = trials["problem"]
    once = rule.payoffs_batch(problem)
    again = rule.payoffs_batch(Block(once, problem.needs, problem.counts))
    return _row_max_abs(once - again), problem.scales, once, again


# --- dummy: an agent with zero income and zero need receives zero ---


def _draw_dummy(rng, n, m):
    incomes, needs = draw_profiles(rng, n, m)
    rows = np.arange(m)
    agent = rng.integers(0, n, m)
    incomes[rows, agent] = 0.0
    needs[rows, agent] = 0.0
    # Agents are numbered from 1.
    return {"problem": (incomes, needs), "agent": agent + 1}


def _screen_dummy(rule, trials):
    problem = trials["problem"]
    x = rule.payoffs_batch(problem)
    paid = x[np.arange(len(x)), trials["agent"] - 1]
    expected = np.zeros((len(x), 1))
    return np.abs(paid), problem.scales, expected, paid[:, None]


# --- income additivity: payoffs add across income profiles at fixed needs ---


def _draw_income_additivity(rng, n, m):
    return {
        "problem": draw_profiles(rng, n, m),
        "extra_incomes": rng.uniform(*INCOME_RANGE, (m, n)),
    }


def _screen_income_additivity(rule, trials):
    problem, extra_incomes = trials["problem"], trials["extra_incomes"]
    incomes, needs, counts = problem.incomes, problem.needs, problem.counts
    extra = Block(extra_incomes, needs, counts)
    combined = Block(incomes + extra_incomes, needs, counts)
    expected = rule.payoffs_batch(problem) + rule.payoffs_batch(extra)
    observed = rule.payoffs_batch(combined)
    scale = np.maximum.reduce([problem.scales, extra.scales, combined.scales])
    return _row_max_abs(observed - expected), scale, expected, observed


def _shrink_extra_incomes(instance, s):
    out = dict(instance)
    out["extra_incomes"] = tuple(s * e for e in instance["extra_incomes"])
    return out


# --- dual income additivity: the reflected form of income additivity ---


def _screen_dual_income_additivity(rule, trials):
    problem, extra_incomes = trials["problem"], trials["extra_incomes"]
    incomes, needs, counts = problem.incomes, problem.needs, problem.counts
    combined = Block(incomes + extra_incomes, needs, counts)
    shifted = Block(needs + extra_incomes, needs, counts)
    observed = needs + rule.payoffs_batch(combined)
    expected = rule.payoffs_batch(problem) + rule.payoffs_batch(shifted)
    scale = np.maximum.reduce([problem.scales, combined.scales, shifted.scales])
    return _row_max_abs(observed - expected), scale, expected, observed


_CHECKERS: dict[str, _Checker] = {
    "homogeneity": _Checker(
        _draw_homogeneity, _screen_homogeneity, _halving(_shrink_homogeneity)
    ),
    "equal_treatment": _Checker(_draw_equal_treatment, _screen_equal_treatment, _drops),
    "continuity": _Checker(_draw_continuity, _screen_continuity),
    "nat": _Checker(_draw_nat, _screen_nat, _halving(_shrink_nat)),
    "stability": _Checker(_draw_problems, _screen_stability, _drops),
    "dummy": _Checker(_draw_dummy, _screen_dummy, _drops),
    "income_additivity": _Checker(
        _draw_income_additivity,
        _screen_income_additivity,
        _halving(_shrink_extra_incomes),
    ),
    "dual_income_additivity": _Checker(
        _draw_income_additivity,
        _screen_dual_income_additivity,
        _halving(_shrink_extra_incomes),
    ),
}


def _shrunk(
    checker: _Checker, rule: RuleSpec, instance: dict, measured: tuple, tol: float
) -> tuple[dict, tuple]:
    """A violating instance and its measure, shrunk while the violation persists.

    Each of up to MAX_SHRINK_STEPS steps takes the first of its candidates
    that still violates; a candidate the screen rejects is skipped.
    """
    for step in range(MAX_SHRINK_STEPS):
        for candidate in checker.shrink(instance, step):
            try:
                screened = _measure(checker, rule, candidate)
            except ValidationError:
                continue
            if _violates(screened[0], tol, screened[1]):
                instance, measured = candidate, screened
                break
        else:
            break
    return instance, measured


def check_axiom(
    axiom: str, rule: RuleSpec, cfg: SampleConfig, tol: float = 1e-9
) -> AxiomReport:
    """Run one axiom's sampled predicate for cfg.trials trials.

    Stops at the first violation, shrinks it, and reports a counterexample
    whose measured deviation exceeds tol scaled by instance magnitude;
    a NaN deviation, as a NaN payoff gives, counts as a violation.
    Trials are screened a block at a time, as one padded batch. The first
    trial the screen flags is re-screened as a one-row batch rebuilt from
    its instance, which then shrinks; the report holds the screen of the
    last instance taken. When a batch's screen builds a problem that
    Problem rejects, every trial of the batch is
    re-screened that way in order, so the first violation is reported or the
    error raised, as trial by trial.
    """
    if axiom not in _CHECKERS:
        raise UnknownAxiom(f"unknown axiom {_excerpt(axiom)!r}")
    check_tol(tol)
    checker = _CHECKERS[axiom]
    rng = rng_for(cfg.seed, axiom)
    for start, trials in trial_blocks(rng, cfg, checker.draw):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                deviation, scale, _, _ = checker.screen(rule, trials)
            flagged = np.flatnonzero(~(deviation <= tol * scale)).tolist()
        except ValidationError:
            flagged = range(len(trials["problem"].incomes))
        for k in flagged:
            instance = _trial(trials, k)
            measured = _measure(checker, rule, instance)
            if _violates(measured[0], tol, measured[1]):
                instance, measured = _shrunk(checker, rule, instance, measured, tol)
                deviation, scale, expected, observed = measured
                counterexample = Counterexample(
                    instance=instance,
                    expected=expected,
                    observed=observed,
                    deviation=deviation,
                    threshold=tol * scale,
                )
                return AxiomReport(
                    axiom, rule, False, start + k + 1, tol, counterexample
                )
    return AxiomReport(axiom, rule, True, cfg.trials, tol, None)


def recheck_counterexample(
    axiom: str, rule: RuleSpec, counterexample: Counterexample
) -> tuple[float, float]:
    """Re-screen a stored counterexample; returns (deviation, threshold scale)."""
    if axiom not in _CHECKERS:
        raise UnknownAxiom(f"unknown axiom {_excerpt(axiom)!r}")
    deviation, scale, _, _ = _measure(_CHECKERS[axiom], rule, counterexample.instance)
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
