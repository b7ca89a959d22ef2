"""Seeded randomized checkers for behavioural properties of allocation rules.

Each axiom is rendered as a sampled predicate: draw a random instance,
measure how far the rule deviates from the property, and fail when the
deviation exceeds a tolerance scaled by the instance's magnitude. A pass is
evidence, not proof; a fail comes with a concrete re-runnable counterexample.

Trials are drawn in blocks of BLOCK_TRIALS, the draw unit, which fixes
every trial's bits: a block's agent counts first, then each variate once
for the whole block. They are screened in batches of numpy arrays, row k
for trial k in every field, each problem of a batch held in a core.Block:
the first block alone, then up to SCREEN_ROWS trials, several blocks, at a
time. A trial has 2 to 6 agents, so the batch is as wide as its largest
trial and the columns past a trial's own agents are padding: zero incomes
and needs, paid zero, which leave every row's totals and payoffs as they
are unpadded, bit for bit. The screen is each axiom's only measure. The
first flagged trial, and no later one, is rebuilt as an instance of
Problems, re-screened as an unpadded one-row batch, then shrunk, and
reported with the screen of the last instance the shrink took; if the
re-screen does not violate, the rule paid that problem two ways, and
RuleError is raised. Shrinking screens each round of candidates as one
batch, its problems stacked into Blocks that check them again: a halving
chain is built and screened ahead, all its steps at once. Drawn problems
are valid, so payoffs that do not allocate one raise RuleError, wherever
in its screened batch the problem is.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    Block,
    Problem,
    ValidationError,
    check_tol,
    make_problem,
    row_sums,
)
from .rules import RuleError, RuleSpec, _excerpt, _rule_error, blame_rule

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
# The draw unit: trials drawn together, their agent counts first, then each
# variate once for all of them. It fixes every trial's bits, which depend on
# its block alone, so it is never changed; a new variate, such as a targeted
# ratio, is one more draw of each block.
BLOCK_TRIALS = 128
# The screen unit: trials screened as one batch after the first block. A
# multiple of BLOCK_TRIALS; it bounds the memory of a check whatever its
# trial count.
SCREEN_ROWS = 1024


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
    """Split cfg.trials into screen batches: the first block alone, then SCREEN_ROWS at a time.

    Every block draws BLOCK_TRIALS trials, however few a check runs, so a
    trial's draw depends only on its block (see draw_trials), not on the
    trial count or on how blocks are batched. The first block is its own
    batch, as most checks that fail do so in it; later batches gather up
    to SCREEN_ROWS trials, several blocks, into one padded batch. Yields
    each batch's first trial index and the batch; row k is trial start + k.
    """
    start = 0
    while start < cfg.trials:
        stop = min(cfg.trials, start + (SCREEN_ROWS if start else BLOCK_TRIALS))
        blocks = [
            _drawn(rng, rng.integers(N_RANGE[0], N_RANGE[1] + 1, BLOCK_TRIALS), draw)
            for _ in range(start, stop, BLOCK_TRIALS)
        ]
        yield start, _joined(blocks, stop - start)
        start = stop


def draw_trials(rng: np.random.Generator, counts: np.ndarray, draw: Callable) -> dict:
    """Trials of the given agent counts as one block, row k of agents 1..counts[k].

    draw(rng, counts, mask) draws each variate once for the whole block,
    N_RANGE[1] columns wide; mask is True on each row's first counts[k]
    columns. It gives a dict of problems, as (incomes, needs) pairs, and of
    arrays, one row per trial. 2-D arrays are cut to the largest count and
    hold +0.0 (False, for a mask) past each row's own, and each problem
    becomes one Block that records the counts.
    """
    return _joined([_drawn(rng, counts, draw)], len(counts))


def _drawn(rng: np.random.Generator, counts: np.ndarray, draw: Callable) -> tuple:
    """One block's agent counts and its draw."""
    return counts, draw(rng, counts, np.arange(N_RANGE[1]) < counts[:, None])


def _joined(blocks: Sequence[tuple], rows: int) -> dict:
    """The blocks' first rows trials as one batch, cut and padded as in draw_trials."""
    counts = np.concatenate([block_counts for block_counts, _ in blocks])[:rows]
    mask = np.arange(counts.max()) < counts[:, None]

    def join(parts: Sequence[np.ndarray]) -> np.ndarray:
        if parts[0].ndim == 1:
            return np.concatenate(parts)[:rows]
        joined = np.concatenate([part[:, : mask.shape[1]] for part in parts])[:rows]
        # Padding by np.where, as a product with the mask would give -0.0.
        return np.where(mask, joined, np.zeros((), joined.dtype))

    batch = {}
    for key, value in blocks[0][1].items():
        parts = [trials[key] for _, trials in blocks]
        if isinstance(value, tuple):
            batch[key] = Block(*map(join, zip(*parts)), counts)
        else:
            batch[key] = join(parts)
    return batch


def draw_profiles(rng: np.random.Generator, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Incomes and needs of random problems, one per row of an array of this shape."""
    return rng.uniform(*INCOME_RANGE, shape), rng.uniform(*NEED_RANGE, shape)


def _draw_problems(rng, counts, mask):
    return {"problem": draw_profiles(rng, mask.shape)}


def _screened(screen: Callable, rule: RuleSpec, trials):
    """screen(rule, trials), float warnings silenced; a ValidationError becomes RuleError.

    Drawn trials are valid problems, so the error is the rule's, as in evaluate.
    """
    with blame_rule(rule, "a sampled problem"), np.errstate(over="ignore", invalid="ignore"):
        return screen(rule, trials)


def worst_trial(
    rng: np.random.Generator, cfg: SampleConfig, rule: RuleSpec, measure: Callable
) -> tuple[float, Problem | None]:
    """Largest measure of a rule over cfg.trials random problems, and its first problem.

    measure maps the rule and a padded Block to one value per row; values
    that are not positive never count. A NaN value, which only a rule error
    gives, is worse than any number: the first one is returned with its
    problem. Trials are screened in trial_blocks' batches; payoffs that do
    not allocate a drawn problem raise RuleError, even after a NaN earlier
    in the same batch.
    """
    worst, witness = 0.0, None
    for _, trials in trial_blocks(rng, cfg, _draw_problems):
        block = trials["problem"]
        values = _screened(measure, rule, block)
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

    draw(rng, counts, mask) gives a block of trials of the given agent
    counts, which draw_trials makes a padded batch: a dict of Blocks and
    arrays, one row per trial.
    screen gives each trial's deviation, scale, expected and observed values
    (expected may be None); on a batch that _rows rebuilds from instances it
    confirms, shrinks and re-checks counterexamples. shrink(instance) gives
    one shrinking round's candidates, in order: when chained, a halving
    chain, each candidate shrunk from the one before; else alternatives.
    """

    draw: Callable[[np.random.Generator, np.ndarray, np.ndarray], dict]
    screen: Callable[[RuleSpec, dict], tuple]
    shrink: Callable[[dict], Iterable[dict]] = lambda instance: ()
    chained: bool = False


def _violates(deviation, tol: float, scale):
    """Whether a deviation exceeds tol times scale, entry by entry; a NaN always does."""
    return np.logical_not(deviation <= tol * scale)


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
    entry. _rows turns instances back into a batch.
    """
    n = int(trials["problem"].counts[k])
    instance = {}
    for key, value in trials.items():
        if isinstance(value, Block):
            instance[key] = value.problem(k)
        elif value.dtype == bool:
            instance[key] = tuple(np.flatnonzero(value[k, :n]).tolist())
        elif value.ndim == 2:
            instance[key] = tuple(value[k, :n].tolist())
        else:
            instance[key] = value[k].item()
    return instance


# Instance entries that name an agent by id; the screens take its column.
_AGENT_KEYS = ("first", "second", "agent")


def _rows(instances: Sequence[dict]) -> dict:
    """The batch whose trial k is instances[k]: the inverse of _trial.

    The instances share their keys and agent count, as the candidates of a
    shrinking round do, so no row is padded. Each key's problems are
    stacked into one Block, which checks its rows as any Block does. Agent
    ids become 1-based columns of each instance's problem, which shrinking
    may have left with gaps in its ids; member positions become a mask. The
    screen's rule sees agents 1..n, as in the batch the trials were drawn in.
    """
    positions = np.arange(len(instances[0]["problem"]))
    trials = {}
    for key, first in instances[0].items():
        values = [instance[key] for instance in instances]
        if isinstance(first, Problem):
            trials[key] = Block(
                np.stack([p.incomes for p in values]), np.stack([p.needs for p in values])
            )
        elif key == "members":
            trials[key] = np.array([np.isin(positions, v) for v in values])
        elif key in _AGENT_KEYS:
            trials[key] = np.array(
                [i["problem"].agents.index(v) + 1 for i, v in zip(instances, values)]
            )
        else:
            trials[key] = np.array(values, dtype=float)
    return trials


def _measures(checker: _Checker, rule: RuleSpec, instances: Sequence[dict]) -> list[tuple]:
    """Screen instances as one batch, row k for instances[k].

    Gives each its deviation and scale as floats, and its expected and
    observed values as tuples of floats (or None).
    """
    return _screened_rows(checker, rule, _rows(instances))


def _screened_rows(checker: _Checker, rule: RuleSpec, trials: dict) -> list[tuple]:
    """_measures of a batch that _rows built, one tuple per row."""
    deviation, scale, *values = _screened(checker.screen, rule, trials)
    expected, observed = (
        [None] * len(deviation) if v is None else [tuple(row) for row in v.tolist()]
        for v in values
    )
    return list(zip(deviation.tolist(), scale.tolist(), expected, observed))


# The shrink factors of a halving chain's steps: 0.5, 0.25, ...
_HALVES = [0.5 ** (step + 1) for step in range(MAX_SHRINK_STEPS)]


def _halvings(value, shrink: Callable) -> list:
    """MAX_SHRINK_STEPS values, each shrink(previous, s) for the step's s in _HALVES."""
    return list(accumulate(_HALVES, shrink, initial=value))[1:]


def _halving(key: str, shrink: Callable) -> Callable[[dict], list[dict]]:
    """The halving chain of the instance's key entry, shrunk by shrink(value, s)."""
    return lambda instance: [
        {**instance, key: value} for value in _halvings(instance[key], shrink)
    ]


def _drops(instance: dict) -> Iterator[dict]:
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


def _draw_homogeneity(rng, counts, mask):
    return {"problem": draw_profiles(rng, mask.shape), "factor": rng.uniform(0.1, 10.0, len(mask))}


def _screen_homogeneity(rule, trials):
    problem, factor = trials["problem"], trials["factor"][:, None]
    expected = factor * rule.payoffs_batch(problem)
    scaled = Block(factor * problem.incomes, factor * problem.needs, problem.counts)
    observed = rule.payoffs_batch(scaled)
    # Rounding grows with the payoffs, which can dwarf the problem's totals.
    scale = _payoff_scale([problem.scales, scaled.scales], observed)
    return _row_max_abs(observed - expected), scale, expected, observed


_chain_homogeneity = _halving("factor", lambda factor, s: 1.0 + (factor - 1.0) * s)


# --- equal treatment: identical agents receive identical payoffs ---


def _draw_equal_treatment(rng, counts, mask):
    incomes, needs = draw_profiles(rng, mask.shape)
    rows = np.arange(len(counts))
    first = rng.integers(0, counts)
    second = (first + rng.integers(1, counts)) % counts
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


def _draw_continuity(rng, counts, mask):
    incomes, needs = draw_profiles(rng, mask.shape)
    delta = PERTURBATION_SCALE
    income_dir = rng.uniform(-1.0, 1.0, mask.shape)
    # Need directions are damped so every step keeps needs at or above half
    # their original value, hence valid.
    need_dir = rng.uniform(-1.0, 1.0, mask.shape) * np.minimum(1.0, needs / (2.0 * delta))
    return {
        "problem": (incomes, needs),
        "income_dir": income_dir,
        "need_dir": need_dir,
        "base_delta": np.full(len(counts), delta),
    }


_HALVINGS = 0.5 ** np.arange(CONTINUITY_STEPS + 1)


def _screen_continuity(rule, trials):
    problem, base_delta = trials["problem"], trials["base_delta"][:, None]
    base = rule.payoffs_batch(problem)
    scale = _payoff_scale([problem.scales], base)
    # One Block per halving, as tall as the batch, which bounds the probe's
    # memory; each payoff is its own row's, so no bit depends on the split.
    gaps = np.empty((len(_HALVINGS), len(base)))
    for k, halving in enumerate(_HALVINGS):
        delta = halving * base_delta
        steps = Block(
            problem.incomes + delta * trials["income_dir"],
            problem.needs + delta * trials["need_dir"],
            problem.counts,
        )
        moved = rule.payoffs_batch(steps)
        gaps[k] = np.abs(moved - base).max(axis=1)
        scale = _payoff_scale([scale], moved)
    # Violation when the gap fails to vanish, or grows along the tail. A
    # continuous rule's gap may grow at the first, large steps, before the
    # perturbation is small enough for the rule to look linear.
    tail = gaps[-(CONTINUITY_TAIL + 1):]
    worst = np.maximum(gaps[-1], (tail[1:] - tail[:-1]).max(axis=0))
    return worst, scale, None, gaps.T


# --- nat: within-group reallocation never changes the group's total payoff ---


def _draw_nat(rng, counts, mask):
    incomes, needs = draw_profiles(rng, mask.shape)
    size = rng.integers(2, counts + 1)[:, None]
    # Each row ranks its agents by random keys, padding last; the size
    # lowest form the group.
    keys = np.where(mask, rng.random(mask.shape), np.inf)
    members = keys.argsort(axis=1).argsort(axis=1) < size
    income_total = (incomes * members).sum(axis=1, keepdims=True)
    need_total = (needs * members).sum(axis=1, keepdims=True)
    spread = rng.uniform(-1.0, 1.0, mask.shape) * members
    spread -= spread.sum(axis=1, keepdims=True) / size
    amp = rng.uniform(0.0, INCOME_RANGE[1] - INCOME_RANGE[0], (len(counts), 1))
    # Normalized exponentials: flat Dirichlet weights over the group.
    weights = rng.standard_exponential(mask.shape) * members
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


def _chain_nat(instance):
    """NAT's halving chain, its modified problems built as one Block: each
    step sets the group's incomes and needs to (1 - s)·original + s·previous."""
    problem, modified = instance["problem"], instance["modified"]
    group = np.isin(np.arange(len(problem)), instance["members"])

    def toward(start, end):
        shrink = lambda value, s: np.where(group, (1.0 - s) * start + s * value, start)
        return np.stack(_halvings(end, shrink))

    steps = Block(
        toward(problem.incomes, modified.incomes),
        toward(problem.needs, modified.needs),
        agents=problem.agents,
    )
    return [{**instance, "modified": modified} for modified in steps.problems()]


# --- stability: reapplying a rule to its own output changes nothing ---


def _screen_stability(rule, trials):
    problem = trials["problem"]
    once = rule.payoffs_batch(problem)
    again = rule.payoffs_batch(Block(once, problem.needs, problem.counts))
    return _row_max_abs(once - again), problem.scales, once, again


# --- dummy: an agent with zero income and zero need receives zero ---


def _draw_dummy(rng, counts, mask):
    incomes, needs = draw_profiles(rng, mask.shape)
    rows = np.arange(len(counts))
    agent = rng.integers(0, counts)
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


def _draw_income_additivity(rng, counts, mask):
    return {
        "problem": draw_profiles(rng, mask.shape),
        "extra_incomes": rng.uniform(*INCOME_RANGE, mask.shape),
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


_chain_extra_incomes = _halving("extra_incomes", lambda extra, s: tuple(s * e for e in extra))


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
        _draw_homogeneity,
        _screen_homogeneity,
        _chain_homogeneity,
        chained=True,
    ),
    "equal_treatment": _Checker(_draw_equal_treatment, _screen_equal_treatment, _drops),
    "continuity": _Checker(_draw_continuity, _screen_continuity),
    "nat": _Checker(_draw_nat, _screen_nat, _chain_nat, chained=True),
    "stability": _Checker(_draw_problems, _screen_stability, _drops),
    "dummy": _Checker(_draw_dummy, _screen_dummy, _drops),
    "income_additivity": _Checker(
        _draw_income_additivity,
        _screen_income_additivity,
        _chain_extra_incomes,
        chained=True,
    ),
    "dual_income_additivity": _Checker(
        _draw_income_additivity,
        _screen_dual_income_additivity,
        _chain_extra_incomes,
        chained=True,
    ),
}


def _checker(axiom: str) -> _Checker:
    """The axiom's checker; a name no checker has raises UnknownAxiom."""
    if axiom not in _CHECKERS:
        raise UnknownAxiom(f"unknown axiom {_excerpt(axiom)!r}")
    return _CHECKERS[axiom]


def _round_measures(checker: _Checker, rule: RuleSpec, candidates: list[dict]) -> Iterable:
    """_measures of a shrinking round's candidates, None for one the rule cannot pay.

    The round is screened as one batch. If the screen raises, the
    candidates are screened again one at a time, each when it is read, so a
    shrink that stops reading raises only what the candidates it read
    raise. Building the batch is not guarded: an error there is never the
    rule's.
    """
    trials = _rows(candidates)
    try:
        return _screened_rows(checker, rule, trials)
    except Exception:
        return (_paid_measure(checker, rule, candidate) for candidate in candidates)


def _paid_measure(checker: _Checker, rule: RuleSpec, instance: dict) -> tuple | None:
    """The instance's _measures, screened alone, or None if the rule cannot pay it."""
    try:
        return _measures(checker, rule, [instance])[0]
    except RuleError:
        return None


def _shrunk(
    checker: _Checker, rule: RuleSpec, instance: dict, measured: tuple, tol: float
) -> tuple[dict, tuple]:
    """A violating instance and its measure, shrunk while the violation persists.

    Each round's candidates are screened as one batch; a candidate the rule
    cannot pay does not violate. A halving chain's MAX_SHRINK_STEPS steps
    are one round, screened ahead, and shrinking takes the last of its
    longest violating prefix. Otherwise each of up to MAX_SHRINK_STEPS
    rounds takes its first violating candidate, and shrinking stops at a
    round with none. Either way the shrink takes the instance that a loop
    screening one candidate at a time would take. If a round's batch
    raises, its candidates are screened one at a time as far as that loop
    reads them, so an error raised on a candidate past where it stops, in
    a chain or a drop round, is not raised.
    """
    for _ in range(MAX_SHRINK_STEPS):
        candidates = list(checker.shrink(instance))
        if not candidates:  # no shrink, or nothing left to drop
            break
        shrunk = False
        for candidate, screened in zip(candidates, _round_measures(checker, rule, candidates)):
            violates = screened is not None and _violates(screened[0], tol, screened[1])
            if violates:
                instance, measured, shrunk = candidate, screened, True
            # A chain stops at its first step that passes, a drop round at
            # its first candidate that violates.
            if violates != checker.chained:
                break
        if checker.chained or not shrunk:
            break
    return instance, measured


def check_axiom(
    axiom: str, rule: RuleSpec, cfg: SampleConfig, tol: float = DEFAULT_TOL
) -> AxiomReport:
    """Run one axiom's sampled predicate for cfg.trials trials.

    Stops at the first violation, shrinks it, and reports a counterexample
    whose measured deviation exceeds tol scaled by instance magnitude;
    a NaN deviation, as a NaN payoff gives, counts as a violation.
    Trials are screened a batch at a time, each one padded batch: the first
    block of BLOCK_TRIALS alone, then up to SCREEN_ROWS trials. The first
    trial the screen flags is the one reported: it is re-screened as a
    one-row batch rebuilt from its instance, which cuts its values to its
    own agents, and then shrinks; the report holds the screen of the last
    instance taken. If the re-screen does not violate, the rule paid one
    problem two ways (a custom function that keeps state, say), and
    RuleError is raised: no FAIL holds a counterexample that passes. A
    rule whose payoffs do not allocate a drawn problem raises RuleError,
    whatever the other trials of its screened batch show: a violation
    earlier in the batch does not pre-empt it.
    Shrinking screens each round of candidates as one batch, a halving
    chain all its steps at once, and takes the instance a loop screening
    one candidate at a time would take. An error the rule raises only on
    candidates past where that loop stops, in a chain or a drop round, is
    not raised: the report is the FAIL that loop gives.
    """
    checker = _checker(axiom)
    check_tol(tol)
    rng = rng_for(cfg.seed, axiom)
    for start, trials in trial_blocks(rng, cfg, checker.draw):
        deviation, scale, _, _ = _screened(checker.screen, rule, trials)
        flagged = np.flatnonzero(_violates(deviation, tol, scale))
        if flagged.size:
            k = int(flagged[0])
            instance = _trial(trials, k)
            measured = _measures(checker, rule, [instance])[0]
            if not _violates(measured[0], tol, measured[1]):
                raise _rule_error(
                    rule,
                    f"pays a sampled problem two ways: {axiom} trial {start + k + 1} "
                    "violates in its batch and not when screened again",
                )
            instance, measured = _shrunk(checker, rule, instance, measured, tol)
            deviation, scale, expected, observed = measured
            counterexample = Counterexample(
                instance=instance,
                expected=expected,
                observed=observed,
                deviation=deviation,
                threshold=tol * scale,
            )
            return AxiomReport(axiom, rule, False, start + k + 1, tol, counterexample)
    return AxiomReport(axiom, rule, True, cfg.trials, tol, None)


def recheck_counterexample(
    axiom: str, rule: RuleSpec, counterexample: Counterexample
) -> tuple[float, float]:
    """Re-screen a stored counterexample; returns (deviation, threshold scale)."""
    deviation, scale, _, _ = _measures(_checker(axiom), rule, [counterexample.instance])[0]
    return deviation, scale


def axiom_suite(
    rule: RuleSpec,
    axioms: Iterable[str],
    cfg: SampleConfig,
    tol: float = DEFAULT_TOL,
) -> list[AxiomReport]:
    """Check several axioms; composite names are expanded first.

    Each axiom draws from its own seed stream, so the report for one axiom
    does not depend on which others were requested.
    """
    return [check_axiom(name, rule, cfg, tol) for name in expand_axiom_names(axioms)]
