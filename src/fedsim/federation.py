"""Round orchestration: participation sampling, local dispatch, aggregation.

One training round samples the set of active agents, runs each active
agent's local solver from the current global parameter, and folds the
returned displacements back through one fold, ``aggregate``, which divides
each displacement by its agent's divisor. Under independent Bernoulli draws
the divisor is ``p_n * N``: inverse-probability weighting, which keeps the
aggregated update unbiased however skewed the participation is. The
uniform-batch variant reproduces classic federated averaging with the batch
size as every divisor. Schedules are validated once, when they are built.
"""

from __future__ import annotations

import enum
import logging
from functools import partial

import numpy as np

from .frozen import ConfigError, Frozen, _as_float, _as_int
from .local_update import DivergenceError, SvrgParams, sgd_local_update, svrg_local_update
from .losses import Dataset, LossKind, global_cost, global_grad
from .seeding import derive_rng, derive_seeds, rng_from_seed

logger = logging.getLogger(__name__)

PARTICIPATION_LABEL = "participation"
GRADIENT_LABEL = "gradients"
# The smallest activation probability: inverse-probability weighting divides
# by p * N, which amplifies variance without bound as p goes to 0.
PROB_FLOOR = 1e-6
# The baselines' stepsize schedules; see SgdParams.
DECAY_MODES = ("per_round", "constant")
# A run's master seed, as RunConfig and a config's master_seed take it.
_as_master_seed = partial(_as_int, minimum=0, maximum=2**64 - 1)


def _as_decay(value, path: str) -> str:
    if value not in DECAY_MODES:
        raise ConfigError(f"{path}: expected {' or '.join(map(repr, DECAY_MODES))}, got {value!r}")
    return value


class Algorithm(enum.Enum):
    """Server-side update rule of a training run."""

    FEDAVG_SVRG = "fedavg_svrg"
    FEDAVG_PROB_SGD = "fedavg_prob_sgd"
    FEDAVG_UNIFORM_BATCH = "fedavg_uniform_batch"


class ParticipationSchedule(Frozen):
    """Activation probabilities: one array that broadcasts to (rounds x agents).

    Its dimension is its layout: a 0-D array holds one probability for every
    agent and round, a 1-D array one probability per agent, and a 2-D array
    one row of agents per round. It is checked once, here: it must be
    nonempty, at most 2-D, and every entry must lie in [PROB_FLOOR, 1]. The
    schedule keeps its own read-only copy, so no later write can undo that
    check.
    """

    def __init__(self, probs):
        probs = np.array(probs, dtype=float)
        if probs.ndim > 2:
            raise ValueError(f"participation probabilities must be 0-D to 2-D, got {probs.ndim}-D")
        if probs.size == 0:
            raise ValueError("participation probabilities must be nonempty")
        if not np.isfinite(probs).all() or (probs < PROB_FLOOR).any() or (probs > 1.0).any():
            raise ValueError(f"participation probabilities must lie in [{PROB_FLOOR}, 1]")
        probs.flags.writeable = False
        self.__dict__.update(probs=probs)

    def __reduce__(self):
        # An unpickled or deep-copied array is writeable; rebuild through the check.
        return ParticipationSchedule, (self.probs,)

    @property
    def per_agent(self) -> np.ndarray | None:
        """The per-agent probabilities of a 1-D schedule, else ``None``."""
        return self.probs if self.probs.ndim == 1 else None

    def rows(self, rounds: int, n_agents: int) -> np.ndarray:
        """Activation probabilities of rounds ``0 .. rounds - 1``: a (rounds x agents) matrix.

        Checks once that the schedule covers ``n_agents`` agents and, for a
        2-D schedule, ``rounds`` rounds. The result is a read-only view of
        the schedule's own array.
        """
        probs = self.probs
        if probs.ndim and probs.shape[-1] != n_agents:
            raise ValueError(f"schedule covers {probs.shape[-1]} agents, expected {n_agents}")
        if probs.ndim == 2:
            if rounds > probs.shape[0]:
                raise ValueError(f"{rounds} rounds exceed the schedule's {probs.shape[0]} rows")
            probs = probs[:rounds]
        return np.broadcast_to(probs, (rounds, n_agents))


class SgdParams(Frozen):
    """Baseline local-SGD settings; the stepsize schedule is resolved per round.

    decay : "per_round" for base_stepsize / sqrt(k + 1), "constant" for
            base_stepsize in every round
    """

    def __init__(self, steps: int, base_stepsize: float = 0.1, decay: str = "per_round"):
        self.__dict__.update(
            steps=_as_int(steps, "steps", minimum=1),
            base_stepsize=_as_float(base_stepsize, "base_stepsize", minimum=0.0, strict_min=True),
            decay=_as_decay(decay, "decay"),
        )

    def stepsize_for_round(self, round_index: int) -> float:
        if self.decay == "constant":
            return self.base_stepsize
        return self.base_stepsize / np.sqrt(round_index + 1.0)


class RoundRecord:
    """State recorded after one training round.

    ``theta``, ``cost`` and ``grad_norm_sq`` describe the post-round global
    parameter. A record keeps no per-agent output: ``local_traces`` is
    always an empty dict, left only for perfbench's traced repetition, which
    still reads it.
    """

    def __init__(
        self, round_index: int, indicators: np.ndarray, theta: np.ndarray, cost: float,
        grad_norm_sq: float,
    ):
        self.round_index = round_index
        self.indicators = indicators
        self.theta = theta
        self.cost = cost
        self.grad_norm_sq = grad_norm_sq
        self.local_traces = {}

    @property
    def n_active(self) -> int:
        return int(self.indicators.sum())


class RunTrace:
    """Whole-run record: initial state plus one RoundRecord per round.

    ``v_sq_norms`` keeps a variance-reduced run's squared directions, the
    only per-activation output the bound statistics read: one
    (snapshots, inner_steps) row per activation, stacked in (round,
    ascending agent) order, the row-major order of the run's indicator
    matrix. It is ``None`` for the baselines.
    """

    def __init__(
        self, theta0: np.ndarray, initial_cost: float, initial_grad_norm_sq: float,
        records: list[RoundRecord], v_sq_norms: np.ndarray | None = None,
    ):
        self.theta0 = theta0
        self.initial_cost = initial_cost
        self.initial_grad_norm_sq = initial_grad_norm_sq
        self.records = records
        self.v_sq_norms = v_sq_norms

    @property
    def costs(self) -> np.ndarray:
        """Recorded post-round costs, one per round."""
        return np.array([rec.cost for rec in self.records])

    @property
    def final_theta(self) -> np.ndarray:
        return self.records[-1].theta


class RunConfig(Frozen):
    """Everything one training run needs besides the dataset itself.

    Its values obey a config's rules, checked by the same functions: a run
    has at least one round, so ``rounds`` must be an integer >= 1, and so
    must ``batch_size`` for the uniform batch; ``master_seed`` is an integer
    in [0, 2**64 - 1] and every entry of ``theta0`` is finite. The config
    keeps its own read-only copy of ``theta0``, so no later write to the
    caller's array reaches a run.
    """

    def __init__(
        self, name: str, algorithm: Algorithm, rounds: int, schedule: ParticipationSchedule,
        theta0: np.ndarray, master_seed: int, svrg: SvrgParams | None = None,
        sgd: SgdParams | None = None, batch_size: int | None = None,
    ):
        theta0 = np.array(theta0, dtype=float)
        theta0.flags.writeable = False
        for i, value in enumerate(theta0.flat):
            _as_float(value, f"theta0[{i}]")
        rounds = _as_int(rounds, "rounds", minimum=1)
        master_seed = _as_master_seed(master_seed, "master_seed")
        if algorithm is Algorithm.FEDAVG_SVRG and svrg is None:
            raise ValueError("fedavg_svrg requires svrg parameters")
        if algorithm is not Algorithm.FEDAVG_SVRG and sgd is None:
            raise ValueError(f"{algorithm.value} requires sgd parameters")
        if algorithm is Algorithm.FEDAVG_UNIFORM_BATCH:
            batch_size = _as_int(batch_size, "batch_size", minimum=1)
        self.__dict__.update(
            name=name, algorithm=algorithm, rounds=rounds, schedule=schedule, theta0=theta0,
            master_seed=master_seed, svrg=svrg, sgd=sgd, batch_size=batch_size,
        )

    def __reduce__(self):
        # An unpickled or deep-copied array is writeable; rebuild through the constructor.
        return RunConfig, (self.name, self.algorithm, self.rounds, self.schedule, self.theta0,
                           self.master_seed, self.svrg, self.sgd, self.batch_size)


class TrainingError(RuntimeError):
    """A run failed; carries (algorithm, run, round, agent) identity."""

    def __init__(self, algorithm: str, run_index: int, round_index: int, agent: int, reason: str):
        super().__init__(
            f"algorithm={algorithm} run={run_index} round={round_index} "
            f"agent={agent}: {reason}"
        )
        self.algorithm = algorithm
        self.run_index = run_index
        self.round_index = round_index
        self.agent = agent
        self.reason = reason

    def __reduce__(self):
        # A worker process pickles the error back; rebuild it from its fields.
        return (type(self), (self.algorithm, self.run_index, self.round_index, self.agent,
                             self.reason))


def sample_participation(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli activation draw: agent n is active with probability ``probs[n]``."""
    return rng.random(len(probs)) < probs


def aggregate(theta_k: np.ndarray, deltas: list[np.ndarray], divisors) -> np.ndarray:
    """Fold the active agents' displacements into the global parameter.

    ``deltas`` holds the active agents only, in ascending agent order, and
    ``divisors`` one divisor per entry: ``p_n * N`` under Bernoulli
    participation, the batch size under the uniform batch. Returns
    ``theta_k + sum_j deltas[j] / divisors[j]``, added in the given order so
    results are bit-reproducible; an empty active set returns a copy of
    ``theta_k``.
    """
    theta = np.array(theta_k, dtype=float)
    for delta, divisor in zip(deltas, divisors, strict=True):
        theta += delta / divisor
    return theta


def _plan_rounds(cfg: RunConfig, n_agents: int, run_index: int) -> list[tuple]:
    """Participation and gradient seeds of all ``cfg.rounds`` rounds of one run, in order.

    Participation never depends on the iterate, so a run draws it for every
    round before its first. Each round's draw comes from its own
    participation stream: Bernoulli-participation algorithms draw
    independent activations with the probabilities of one ``schedule.rows``
    matrix (the stream is independent of the algorithm name, so paired
    comparisons see identical activation patterns); the uniform-batch
    variant draws its batch without replacement and never reads the
    schedule. Then the gradient-stream seeds of every active (run, round,
    agent) come from one ``derive_seeds`` call. Returns one
    ``(indicators, divisors, seeds)`` per round, with one seed row per
    active agent in ascending order.
    """
    uniform = cfg.algorithm is Algorithm.FEDAVG_UNIFORM_BATCH
    if not uniform:
        probs_rows = cfg.schedule.rows(cfg.rounds, n_agents)
    draws = []
    for k in range(cfg.rounds):
        part_rng = derive_rng(cfg.master_seed, PARTICIPATION_LABEL, run_index, k)
        if uniform:
            chosen = part_rng.choice(n_agents, size=cfg.batch_size, replace=False)
            indicators = np.zeros(n_agents, dtype=bool)
            indicators[chosen] = True
            divisors = np.full(cfg.batch_size, cfg.batch_size)
        else:
            probs = probs_rows[k]
            indicators = sample_participation(probs, part_rng)
            divisors = probs[indicators] * n_agents
        draws.append((indicators, divisors))

    slots = [(run_index, k, n) for k, (indicators, _) in enumerate(draws)
             for n in np.flatnonzero(indicators).tolist()]
    seeds = derive_seeds(cfg.master_seed, f"{GRADIENT_LABEL}/{cfg.name}", slots)
    ends = np.cumsum([len(divisors) for _, divisors in draws])
    return [(indicators, divisors, rows) for (indicators, divisors), rows
            in zip(draws, np.split(seeds, ends[:-1]), strict=True)]


def run_round(
    kind: LossKind,
    dataset: Dataset,
    cfg: RunConfig,
    theta_k: np.ndarray,
    round_index: int,
    run_index: int,
    plan: tuple,
    v_sq: np.ndarray | None,
) -> RoundRecord:
    """Execute one planned round from ``theta_k`` and record the post-round state.

    This is ``run_training``'s step. ``plan`` is round ``round_index``'s
    ``(indicators, divisors, seeds)`` from ``_plan_rounds(cfg, n_agents,
    run_index)``. Each active agent consumes its own gradient stream keyed
    by (algorithm, run, round, agent). A variance-reduced round writes the
    squared directions of its j-th active agent, in ascending agent order,
    into ``v_sq[j]``, a (snapshots, inner_steps) array; ``v_sq`` is the
    round's block of ``RunTrace.v_sq_norms``, and ``None`` for the baselines.
    """
    indicators, divisors, seeds = plan
    svrg = cfg.algorithm is Algorithm.FEDAVG_SVRG
    if not svrg:
        stepsize = cfg.sgd.stepsize_for_round(round_index)
    deltas = []
    for j, (n, seed) in enumerate(zip(np.flatnonzero(indicators).tolist(), seeds, strict=True)):
        shard, rng = dataset.shards[n], rng_from_seed(seed)
        try:
            if svrg:
                deltas.append(svrg_local_update(kind, shard, theta_k, cfg.svrg, rng, v_sq[j]))
            else:
                deltas.append(sgd_local_update(kind, shard, theta_k, cfg.sgd.steps, stepsize, rng))
        except DivergenceError as exc:
            raise TrainingError(cfg.name, run_index, round_index, n, str(exc)) from exc

    theta_next = aggregate(theta_k, deltas, divisors)
    grad = global_grad(kind, dataset, theta_next)
    return RoundRecord(
        round_index=round_index,
        indicators=indicators,
        theta=theta_next,
        cost=global_cost(kind, dataset, theta_next),
        grad_norm_sq=float(grad @ grad),
    )


def run_training(
    kind: LossKind,
    dataset: Dataset,
    cfg: RunConfig,
    run_index: int = 0,
) -> RunTrace:
    """Run all rounds of one training execution.

    The result is a pure function of (kind, dataset, cfg, run_index): all
    randomness flows through streams derived from ``cfg.master_seed``, one
    per (run, round) for participation and one per (run, round, agent) for
    gradient sampling. Every round is planned before the first one runs.
    A variance-reduced run allocates ``RunTrace.v_sq_norms`` once and hands
    each round its block of rows, which the solvers fill in place.
    A misshaped ``theta0`` fails the first ``global_grad``, before any round.
    """
    theta = cfg.theta0
    if cfg.algorithm is Algorithm.FEDAVG_UNIFORM_BATCH and cfg.batch_size > dataset.n_agents:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds {dataset.n_agents} agents")
    grad0 = global_grad(kind, dataset, theta)
    trace = RunTrace(
        theta0=theta,
        initial_cost=global_cost(kind, dataset, theta),
        initial_grad_norm_sq=float(grad0 @ grad0),
        records=[],
    )
    plans = _plan_rounds(cfg, dataset.n_agents, run_index)
    blocks = [None] * cfg.rounds
    if cfg.algorithm is Algorithm.FEDAVG_SVRG:
        ends = np.cumsum([len(divisors) for _, divisors, _ in plans])
        trace.v_sq_norms = np.empty((ends[-1], cfg.svrg.snapshots, cfg.svrg.inner_steps))
        blocks = np.split(trace.v_sq_norms, ends[:-1])
    for k, (plan, v_sq) in enumerate(zip(plans, blocks, strict=True)):
        record = run_round(kind, dataset, cfg, theta, k, run_index, plan, v_sq)
        trace.records.append(record)
        theta = record.theta
        logger.debug(
            "%s run=%d round=%d cost=%.6g active=%d",
            cfg.name, run_index, k, record.cost, record.n_active,
        )
    return trace
