"""Agent-local update rules executed by active clients within one round.

Two solvers are provided: an anchored variance-reduced scheme that refreshes
a full local gradient at periodic snapshot points, and a plain stochastic
gradient baseline. Both return the parameter displacement together with the
squared norm of every stochastic direction taken, which downstream bound
evaluation consumes. Neither checks its arguments: ``run_round`` is their
caller, and ``Dataset``, ``run_training``, ``SvrgParams`` and ``SgdParams``
have checked every value it passes.
"""

from __future__ import annotations

import math

import numpy as np

from .frozen import Frozen
from .losses import AgentShard, LossKind, agent_full_grad, component_grad


class SvrgParams(Frozen):
    """Shape of one variance-reduced local update.

    snapshots   : number of full-gradient anchor refreshes per round
    inner_steps : stochastic steps between consecutive anchors
    stepsize    : constant stepsize applied to every inner step (zero is
                  permitted for no-movement diagnostics)
    """

    def __init__(self, snapshots: int, inner_steps: int, stepsize: float):
        if snapshots < 1:
            raise ValueError("snapshots must be >= 1")
        if inner_steps < 1:
            raise ValueError("inner_steps must be >= 1")
        if not (np.isfinite(stepsize) and stepsize >= 0.0):
            raise ValueError("stepsize must be finite and >= 0")
        self.__dict__.update(snapshots=snapshots, inner_steps=inner_steps, stepsize=stepsize)


class LocalTrace(Frozen):
    """Outcome of one agent-local update.

    v_sq_norms : squared norms of the stochastic directions in execution
                 order; shape (snapshots, inner_steps) for the
                 variance-reduced solver, (1, steps) for plain SGD
    delta_w    : final local iterate minus the round's starting point
    """

    def __init__(self, v_sq_norms: np.ndarray, delta_w: np.ndarray):
        self.__dict__.update(v_sq_norms=v_sq_norms, delta_w=delta_w)


class DivergenceError(RuntimeError):
    """A local iterate became non-finite."""

    def __init__(self, snapshot: int, step: int):
        super().__init__(
            f"non-finite iterate at snapshot {snapshot}, inner step {step}"
        )
        self.snapshot = snapshot
        self.step = step

    def __reduce__(self):
        return (type(self), (self.snapshot, self.step))


def variance_reduced_grad(
    kind: LossKind,
    shard: AgentShard,
    w: np.ndarray,
    w_tilde: np.ndarray,
    mu_tilde: np.ndarray,
    sample: int,
) -> np.ndarray:
    """Anchored stochastic gradient: grad_i(w) - grad_i(w_anchor) + full grad at anchor.

    ``mu_tilde`` must be the full shard gradient at ``w_tilde``; under that
    contract the estimator is unbiased for the full gradient at ``w`` when
    ``sample`` is uniform over the shard.
    """
    return (
        component_grad(kind, shard, sample, w)
        - component_grad(kind, shard, sample, w_tilde)
        + mu_tilde
    )


def svrg_local_update(
    kind: LossKind,
    shard: AgentShard,
    theta_k: np.ndarray,
    params: SvrgParams,
    rng: np.random.Generator,
) -> LocalTrace:
    """Run the full variance-reduced local update starting from ``theta_k``.

    For each snapshot cycle the full shard gradient is computed at the
    current anchor, then ``inner_steps`` anchored stochastic steps are taken
    with samples drawn uniformly with replacement; the anchor then jumps to
    the last inner iterate. Deterministic given the generator state.
    """
    stepsize = params.stepsize
    v_sq = np.zeros((params.snapshots, params.inner_steps))
    # One call draws every index, in the order and with the final generator
    # state that one scalar draw per step would give.
    samples = rng.integers(shard.n_samples, size=v_sq.shape).tolist()
    w_tilde = np.array(theta_k, dtype=float)
    w = w_tilde
    # Overflow on the divergence path is detected below, not warned about.
    # A finite w.w means every entry of w is finite, so the entrywise check
    # runs only once the iterate is huge or already non-finite. ``a.dot(b)``
    # is the BLAS dot product ``a @ b`` computes, without matmul's dispatch.
    with np.errstate(over="ignore", invalid="ignore"):
        for s, (cycle, v_sq_row) in enumerate(zip(samples, v_sq)):
            mu_tilde = agent_full_grad(kind, shard, w_tilde)
            w = w_tilde
            for m, sample in enumerate(cycle):
                v = variance_reduced_grad(kind, shard, w, w_tilde, mu_tilde, sample)
                vv = v.dot(v)
                v_sq_row[m] = vv
                w = w - stepsize * v
                if not (math.isfinite(vv) and (math.isfinite(w.dot(w)) or np.isfinite(w).all())):
                    raise DivergenceError(s, m)
            w_tilde = w
    return LocalTrace(v_sq_norms=v_sq, delta_w=w - theta_k)


def sgd_local_update(
    kind: LossKind,
    shard: AgentShard,
    theta_k: np.ndarray,
    steps: int,
    stepsize: float,
    rng: np.random.Generator,
) -> LocalTrace:
    """Plain stochastic gradient local update with a fixed scalar stepsize.

    The per-round stepsize schedule is resolved by the caller; this routine
    only consumes the already-resolved value.
    """
    v_sq = np.zeros((1, steps))
    v_sq_row = v_sq[0]
    w = np.array(theta_k, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, sample in enumerate(rng.integers(shard.n_samples, size=steps).tolist()):
            g = component_grad(kind, shard, sample, w)
            gg = g.dot(g)
            v_sq_row[m] = gg
            w = w - stepsize * g
            if not (math.isfinite(gg) and (math.isfinite(w.dot(w)) or np.isfinite(w).all())):
                raise DivergenceError(0, m)
    return LocalTrace(v_sq_norms=v_sq, delta_w=w - theta_k)
