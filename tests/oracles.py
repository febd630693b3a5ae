"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written as plain loops over the definitions,
kept free of the library's vectorized code paths.
"""

import numpy as np

from fedsim.federation import (
    GRADIENT_LABEL,
    PARTICIPATION_LABEL,
    Algorithm,
    TrainingError,
    _plan_rounds,
    aggregate,
    sample_participation,
)
from fedsim.local_update import (
    DivergenceError,
    sgd_local_update,
    svrg_local_update,
    variance_reduced_grad,
)
from fedsim.losses import Dataset, LossKind, agent_full_grad, component_grad
from fedsim.seeding import derive_rng, rng_from_seed


def sliced_regression_dataset(n_agents, samples_per_agent, dimension, noise_std, rng):
    """The synthetic regression draw cut into one shard per agent, then stacked.

    The same draws as ``generate_regression_dataset``: features, the
    generating parameter, then the label noise.
    """
    total = n_agents * samples_per_agent
    features = rng.standard_normal((total, dimension))
    theta_true = rng.standard_normal(dimension)
    labels = features @ theta_true + noise_std * rng.standard_normal(total)
    blocks = [slice(n * samples_per_agent, (n + 1) * samples_per_agent) for n in range(n_agents)]
    stacked = Dataset(
        np.stack([features[block] for block in blocks]),
        np.stack([labels[block] for block in blocks]),
    )
    return stacked, theta_true


def component_loss(kind, shard, i, theta):
    """Loss of sample ``i`` at ``theta``, from its definition.

    Quadratic: (label - row.theta)^2. Logistic: log(1 + exp(-label * row.theta)).
    """
    margin = float(shard.features[i] @ theta)
    label = float(shard.labels[i])
    if kind is LossKind.QUADRATIC:
        return (label - margin) ** 2
    return float(np.logaddexp(0.0, -label * margin))


def central_diff_grad(kind, shard, i, theta, step=1e-6):
    """Central finite difference of the per-sample loss."""
    grad = np.zeros_like(theta)
    for j in range(theta.shape[0]):
        bump = np.zeros_like(theta)
        bump[j] = step
        grad[j] = (
            component_loss(kind, shard, i, theta + bump)
            - component_loss(kind, shard, i, theta - bump)
        ) / (2.0 * step)
    return grad


def loop_agent_grad(kind, shard, theta):
    """Arithmetic mean of per-sample gradients, summed in ascending order."""
    total = np.zeros_like(theta)
    for i in range(shard.n_samples):
        total = total + component_grad(kind, shard, i, theta)
    return total / shard.n_samples


def flat_global_cost(kind, dataset, theta):
    """Double-loop evaluation of the agent-averaged mean sample loss."""
    total = 0.0
    for shard in dataset.shards:
        agent = 0.0
        for i in range(shard.n_samples):
            agent += component_loss(kind, shard, i, theta)
        total += agent / shard.n_samples
    return total / dataset.n_agents


def flat_global_grad(kind, dataset, theta):
    total = np.zeros_like(theta)
    for shard in dataset.shards:
        total = total + loop_agent_grad(kind, shard, theta)
    return total / dataset.n_agents


def loop_global_cost(kind, dataset, theta):
    """Per-shard loop, accumulating agent costs in ascending agent order."""
    total = 0.0
    for shard in dataset.shards:
        margins = shard.features @ theta
        if kind is LossKind.QUADRATIC:
            total += float(np.mean((shard.labels - margins) ** 2))
        else:
            total += float(np.mean(np.logaddexp(0.0, -shard.labels * margins)))
    return total / dataset.n_agents


def loop_global_grad(kind, dataset, theta):
    """Per-shard loop over ``agent_full_grad``, in ascending agent order."""
    grad = np.zeros(dataset.dimension)
    for shard in dataset.shards:
        grad += agent_full_grad(kind, shard, theta)
    return grad / dataset.n_agents


def loop_gram_moment(dataset):
    """Agent-weighted normal equations ``(sum_n X_n^T X_n / L_n, sum_n X_n^T y_n / L_n)``."""
    d = dataset.dimension
    gram = np.zeros((d, d))
    moment = np.zeros(d)
    for shard in dataset.shards:
        gram += shard.features.T @ shard.features / shard.n_samples
        moment += shard.features.T @ shard.labels / shard.n_samples
    return gram, moment


def loop_smoothness(kind, dataset):
    """Largest squared row norm over all shards, scaled per loss family."""
    worst = 0.0
    for shard in dataset.shards:
        worst = max(worst, float(np.max(np.sum(shard.features**2, axis=1))))
    if kind is LossKind.QUADRATIC:
        return 2.0 * worst
    return worst / 4.0


def loop_svrg_local_update(kind, shard, theta_k, params, rng, v_sq):
    """The variance-reduced solver as one scalar index draw per step.

    Writes each squared direction norm into ``v_sq[s, m]`` and returns the
    displacement, as ``svrg_local_update`` does.
    """
    n = shard.n_samples
    w_tilde = np.array(theta_k, dtype=float)
    w = w_tilde
    # Overflow on the divergence path is detected below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(params.snapshots):
            mu_tilde = agent_full_grad(kind, shard, w_tilde)
            w = w_tilde
            for m in range(params.inner_steps):
                sample = int(rng.integers(n))
                v = variance_reduced_grad(kind, shard, w, w_tilde, mu_tilde, sample)
                v_sq[s, m] = float(v @ v)
                w = w - params.stepsize * v
                if not (np.isfinite(v_sq[s, m]) and np.isfinite(w).all()):
                    raise DivergenceError(s, m)
            w_tilde = w
    return w - theta_k


def loop_sgd_local_update(kind, shard, theta_k, steps, stepsize, rng):
    """Plain SGD as one scalar index draw per step, with entrywise finiteness checks.

    Returns the displacement; a direction whose squared norm overflows
    counts as divergence.
    """
    n = shard.n_samples
    w = np.array(theta_k, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps):
            sample = int(rng.integers(n))
            g = component_grad(kind, shard, sample, w)
            g_sq = float(g @ g)
            w = w - stepsize * g
            if not (np.isfinite(g_sq) and np.isfinite(w).all()):
                raise DivergenceError(0, m)
    return w - theta_k


def svrg_outputs(solver, kind, shard, theta_k, params, rng, fill=np.nan):
    """``(delta_w, v_sq)`` of a variance-reduced ``solver`` call.

    The solver writes its direction norms into a fresh (snapshots,
    inner_steps) array of ``fill``, so an entry it never writes shows.
    """
    v_sq = np.full((params.snapshots, params.inner_steps), fill)
    return solver(kind, shard, theta_k, params, rng, v_sq), v_sq


def activation_outputs(kind, cfg, shard, theta, round_index, rng):
    """One activation of ``cfg``'s algorithm through the library's solver:
    ``(delta_w, v_sq)``, with ``v_sq`` ``None`` for the baselines."""
    if cfg.algorithm is Algorithm.FEDAVG_SVRG:
        return svrg_outputs(svrg_local_update, kind, shard, theta, cfg.svrg, rng)
    stepsize = cfg.sgd.stepsize_for_round(round_index)
    return sgd_local_update(kind, shard, theta, cfg.sgd.steps, stepsize, rng), None


def direct_activations(kind, dataset, cfg, run_index, thetas):
    """Every activation of one run as a direct solver call with its planned seed.

    Round k starts from ``thetas[k]``. Returns ``{(round, agent): (delta_w,
    v_sq)}`` in (round, ascending agent) order, as ``activation_outputs``.
    """
    outputs = {}
    for k, (indicators, _, seeds) in enumerate(_plan_rounds(cfg, dataset.n_agents, run_index)):
        for n, seed in zip(np.flatnonzero(indicators).tolist(), seeds, strict=True):
            outputs[k, n] = activation_outputs(
                kind, cfg, dataset.shards[n], thetas[k], k, rng_from_seed(seed)
            )
    return outputs


def enumerate_aggregate_mean(theta_k, deltas, probs, aggregate_fn):
    """Exact expectation of an aggregation rule over all activation patterns.

    ``aggregate_fn(theta_k, active_deltas, divisors)`` receives the active
    agents' displacements in ascending order and the divisors ``p_n * N``.
    """
    n = len(deltas)
    expected = np.zeros_like(theta_k)
    for pattern in range(2**n):
        indicators = np.array([(pattern >> j) & 1 == 1 for j in range(n)])
        weight = 1.0
        for j in range(n):
            weight *= probs[j] if indicators[j] else 1.0 - probs[j]
        active = [j for j in range(n) if indicators[j]]
        divisors = [probs[j] * n for j in active]
        expected = expected + weight * aggregate_fn(theta_k, [deltas[j] for j in active], divisors)
    return expected


def two_pass_variance(values):
    """Textbook unbiased sample variance."""
    values = list(values)
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / (len(values) - 1)


def interleaved_run_training(kind, dataset, cfg, run_index=0):
    """Rounds derived one at a time: each round draws its participation when
    it starts, and each activation builds its own stream with ``derive_rng``.

    Returns ``(indicators, theta, outputs)`` per round, where ``outputs``
    maps each active agent to its ``activation_outputs``; raises
    ``TrainingError`` at the first diverging activation.
    """
    n_agents = dataset.n_agents
    theta = np.asarray(cfg.theta0, dtype=float)
    rounds = []
    for k in range(cfg.rounds):
        part_rng = derive_rng(cfg.master_seed, PARTICIPATION_LABEL, run_index, k)
        if cfg.algorithm is Algorithm.FEDAVG_UNIFORM_BATCH:
            chosen = part_rng.choice(n_agents, size=cfg.batch_size, replace=False)
            indicators = np.zeros(n_agents, dtype=bool)
            indicators[chosen] = True
            divisors = np.full(cfg.batch_size, cfg.batch_size)
        else:
            probs = cfg.schedule.rows(k + 1, n_agents)[k]
            indicators = sample_participation(probs, part_rng)
            divisors = probs[indicators] * n_agents
        outputs = {}
        for n in np.flatnonzero(indicators).tolist():
            rng = derive_rng(cfg.master_seed, f"{GRADIENT_LABEL}/{cfg.name}", run_index, k, n)
            try:
                outputs[n] = activation_outputs(kind, cfg, dataset.shards[n], theta, k, rng)
            except DivergenceError as exc:
                raise TrainingError(cfg.name, run_index, k, n, str(exc)) from exc
        theta = aggregate(theta, [delta for delta, _ in outputs.values()], divisors)
        rounds.append((indicators, theta, outputs))
    return rounds


def per_activation_estimate_v_sq(runs, rounds, n_agents, params):
    """The bound statistics as one addition per activation, validated
    activation by activation: ``(E||v||^2 per (round, agent, snapshot,
    step), imputed)``. ``runs`` holds one ``{(round, agent): v_sq}`` mapping
    per run. Never-observed cells take the across-agent mean of their round,
    or zero.
    """
    shape = (params.snapshots, params.inner_steps)
    sums = np.zeros((rounds, n_agents) + shape)
    counts = np.zeros((rounds, n_agents))
    for cells in runs:
        for (k, agent), v_sq in cells.items():
            if not (0 <= k < rounds and 0 <= agent < n_agents):
                raise ValueError(
                    f"activation ({k}, {agent}) outside {rounds} rounds x {n_agents} agents"
                )
            if v_sq.shape != shape:
                raise ValueError(
                    f"direction norms of shape {v_sq.shape} do not match "
                    f"snapshots x inner_steps {shape}"
                )
            sums[k, agent] += v_sq
            counts[k, agent] += 1

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
