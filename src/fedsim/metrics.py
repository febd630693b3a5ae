"""Cross-run statistics and the numerical convergence-bound evaluation.

All estimators here are pure functions of recorded run traces. Expectations
are estimated by averaging across Monte Carlo runs; the circular error
probable (CEP) of the final iterates is the median distance from their
mean, computed in the full parameter space (a first-two-coordinates
projection is also provided for plotting parity).

The two entry points, ``summarize_runs`` and ``theorem_bound_check``, check
their traces once, in ``_round_count``. The helpers they call trust those
checked inputs and check nothing themselves.
"""

from __future__ import annotations

import numpy as np

from .federation import RunTrace
from .frozen import _as_float
from .local_update import SvrgParams


def _round_count(traces: list[RunTrace]) -> int:
    """The number of rounds that every trace has; at least one trace and one round."""
    if not traces:
        raise ValueError("need at least one run trace")
    counts = {len(trace.records) for trace in traces}
    if len(counts) > 1:
        raise ValueError(f"runs have differing round counts {sorted(counts)}")
    rounds = counts.pop()
    if rounds < 1:
        raise ValueError("runs have no rounds")
    return rounds


def cost_error_trace(traces: list[RunTrace], f_star: float) -> np.ndarray:
    """Per-run, per-round optimality gap: recorded cost minus the optimal value."""
    return np.array([trace.costs for trace in traces]) - f_star


def mc_variance_trace(costs: np.ndarray) -> np.ndarray:
    """Unbiased per-round sample variance of a (runs x rounds) cost matrix, runs >= 2."""
    return np.var(costs, axis=0, ddof=1)


def cep_radius(final_thetas: list[np.ndarray]) -> float:
    """Median distance of final iterates from their mean (full dimension).

    With an even run count the median is the average of the two middle
    order statistics, so at least half of the points lie within the
    returned radius.
    """
    pts = np.array(final_thetas, dtype=float)
    center = pts.mean(axis=0)
    return float(np.median(np.linalg.norm(pts - center, axis=1)))


def cep_radius_2d(final_thetas: list[np.ndarray]) -> float:
    """CEP of the first two coordinates only; emitted for plotting parity."""
    pts = np.array(final_thetas, dtype=float)[:, :2]
    return cep_radius(list(pts))


def mean_sq_grad_norm(traces: list[RunTrace]) -> float:
    """Across-run average of the per-round mean squared gradient norm.

    Uses the K iterates seen at the start of each round (the initial point
    plus the first K-1 post-round parameters), matching the quantity the
    convergence bound controls.
    """
    per_run = []
    for trace in traces:
        norms = [trace.initial_grad_norm_sq]
        norms.extend(rec.grad_norm_sq for rec in trace.records[:-1])
        per_run.append(float(np.mean(norms)))
    return float(np.mean(per_run))


def bound_initial_term(f0: float, f_star: float, params: SvrgParams, rounds: int) -> float:
    """First right-hand-side term: the initial optimality gap shrinking as 1/rounds."""
    return 2.0 * (f0 - f_star) / (
        params.stepsize * rounds * params.snapshots * params.inner_steps
    )


class BoundCheck:
    """Both sides of the convergence bound plus the per-term breakdown.

    ``imputed_cells`` counts (round, agent) cells where no Monte Carlo run
    observed the agent active, so the squared-direction expectations were
    imputed from the across-agent mean of that round.
    """

    def __init__(
        self, lhs: float, rhs: float, init_term: float, drift_term: float, variance_term: float,
        imputed_cells: int = 0,
    ):
        self.lhs = lhs
        self.rhs = rhs
        self.init_term = init_term
        self.drift_term = drift_term
        self.variance_term = variance_term
        self.imputed_cells = imputed_cells


def _estimate_v_sq(
    traces: list[RunTrace], rounds: int, n_agents: int, params: SvrgParams
) -> tuple[np.ndarray, int]:
    """Monte Carlo estimate of E||v||^2 per (round, agent, snapshot, step).

    Each cell averages over the runs in which that agent was active in that
    round; never-observed cells are imputed with the across-agent mean for
    the round (zero if the whole round was silent across all runs). A run's
    ``v_sq_norms`` rows follow the row-major order of its indicator matrix,
    so one masked addition per run adds each row to its cell, in run order.
    Every trace has ``rounds`` rounds, as ``theorem_bound_check`` checked;
    each run's indicator width and norms shape are checked here.
    """
    shape = (params.snapshots, params.inner_steps)
    sums = np.zeros((rounds, n_agents) + shape)
    counts = np.zeros((rounds, n_agents))
    for trace in traces:
        widths = {len(rec.indicators) for rec in trace.records}
        if widths != {n_agents}:
            raise ValueError(f"trace covers {sorted(widths)} agents, expected {n_agents}")
        indicators = np.array([rec.indicators for rec in trace.records], dtype=bool)
        expected = (int(indicators.sum()),) + shape
        got = None if trace.v_sq_norms is None else trace.v_sq_norms.shape
        if got != expected:
            raise ValueError(
                f"trace v_sq_norms has shape {got}, expected {expected} "
                f"(activations x snapshots x inner_steps)"
            )
        sums[indicators] += trace.v_sq_norms
        counts += indicators

    est = np.zeros_like(sums)
    observed = counts > 0
    est[observed] = sums[observed] / counts[observed][:, None, None]
    imputed = 0
    for k in range(rounds):
        missing = ~observed[k]
        if not missing.any():
            continue
        if observed[k].any():
            fill = est[k, observed[k]].mean(axis=0)
        else:
            fill = np.zeros(shape)
        est[k, missing] = fill
        imputed += int(missing.sum())
    return est, imputed


def theorem_bound_check(
    traces: list[RunTrace],
    smoothness: float,
    f0: float,
    f_star: float,
    params: SvrgParams,
    probs: np.ndarray,
) -> BoundCheck:
    """Evaluate both sides of the convergence bound from recorded traces.

    The left side is the Monte Carlo estimate of the per-round mean squared
    gradient norm. The right side is the sum of three terms: the initial
    gap term, a drift term that accumulates the squared displacements
    (stepsize applied inside the norm) taken before each inner step across
    earlier snapshot cycles, and an inverse-probability-weighted term over
    every squared stochastic direction. Traces must come from
    variance-reduced runs whose shape matches ``params``; a baseline
    trace keeps no ``v_sq_norms`` and raises ``ValueError``. ``probs`` is the
    (rounds x agents) matrix of activation probabilities the runs drew from.
    A zero stepsize, which ``SvrgParams`` permits, raises ``ConfigError``.
    """
    rounds = _round_count(traces)
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[0] != rounds:
        raise ValueError(f"probs has shape {probs.shape}, expected ({rounds}, agents)")
    n_agents = probs.shape[1]
    s_count, m_count = params.snapshots, params.inner_steps
    delta = _as_float(params.stepsize, "stepsize", minimum=0.0, strict_min=True)

    est, imputed = _estimate_v_sq(traces, rounds, n_agents, params)

    lhs = mean_sq_grad_norm(traces)
    init_term = bound_initial_term(f0, f_star, params, rounds)

    # Each (s', m') cell is revisited by every later (s, m) pair with
    # s >= s' and m > m', hence the closed-form per-cell weights.
    cell_weights = np.outer(
        s_count - np.arange(s_count), m_count - 1 - np.arange(m_count)
    ).astype(float)
    nested_sum = float(np.einsum("knsm,sm->", est, cell_weights))
    drift_term = (
        delta**2 * smoothness**2 * (m_count - 1) * (s_count - 1)
        / (rounds * s_count * m_count * n_agents)
    ) * (delta**2 * nested_sum)

    per_round_agent = est.sum(axis=(2, 3))
    variance_term = (
        delta * smoothness / (rounds * n_agents)
    ) * float((per_round_agent / probs).sum())

    return BoundCheck(
        lhs=lhs,
        rhs=init_term + drift_term + variance_term,
        init_term=init_term,
        drift_term=drift_term,
        variance_term=variance_term,
        imputed_cells=imputed,
    )


class McSummary:
    """Cross-run statistics of one algorithm's Monte Carlo batch."""

    def __init__(
        self, mean_cost_error: np.ndarray, var_cost: np.ndarray | None, cep_radius: float,
        cep_radius_2d: float, avg_grad_norm_sq: float = float("nan"),
    ):
        self.mean_cost_error = mean_cost_error
        self.var_cost = var_cost
        self.cep_radius = cep_radius
        self.cep_radius_2d = cep_radius_2d
        self.avg_grad_norm_sq = avg_grad_norm_sq

    @property
    def final_mean_cost_error(self) -> float:
        return float(self.mean_cost_error[-1])

    @property
    def final_variance(self) -> float | None:
        return None if self.var_cost is None else float(self.var_cost[-1])


def summarize_runs(traces: list[RunTrace], f_star: float) -> McSummary:
    """Fold one algorithm's Monte Carlo traces into a summary record."""
    _round_count(traces)
    errors = cost_error_trace(traces, f_star)
    finals = [trace.final_theta for trace in traces]
    return McSummary(
        mean_cost_error=errors.mean(axis=0),
        var_cost=mc_variance_trace(errors) if len(traces) >= 2 else None,
        cep_radius=cep_radius(finals),
        cep_radius_2d=cep_radius_2d(finals),
        avg_grad_norm_sq=mean_sq_grad_norm(traces),
    )
