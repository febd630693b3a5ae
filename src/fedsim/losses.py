"""Finite-sum loss models over agent-partitioned data.

The global objective averages per-agent objectives, and each per-agent
objective averages per-sample losses over that agent's local shard:

    f(theta) = (1/N) * sum_n f_n(theta),
    f_n(theta) = (1/L_n) * sum_i loss(row_{n,i}, label_{n,i}, theta).

Two per-sample loss families are supported: squared residuals for
regression and the logistic loss for binary classification. Both depend on
theta only through the margin ``m = row.theta``, so each family is one entry
of the table ``_LOSSES`` keyed by ``LossKind``: ``loss(m, y)``, its
derivative in ``m`` as ``scale * residual(m, y)`` (the gradient is that times
``row``), and ``curvature``, a bound on the second derivative in ``m``. No
function branches on the family. Everything in this module is a pure
function of its inputs; the only stateful object is the caller-supplied
random generator used for data synthesis.

``Dataset`` checks the samples and ``global_cost``/``global_grad`` check
theta's shape. The per-shard kernels (``component_grad``,
``agent_full_grad``) check nothing: their callers pass a ``Dataset`` shard,
a theta of its dimension and an index drawn in range.
"""

from __future__ import annotations

import enum

import numpy as np

from .frozen import Frozen, _as_float, _as_int


class LossKind(enum.Enum):
    """Per-sample loss family."""

    QUADRATIC = "quadratic"
    LOGISTIC = "logistic"

    # Members are singletons compared by identity, so identity hashing agrees
    # with equality; Enum's own __hash__ runs in Python on every table lookup.
    __hash__ = object.__hash__


class SingularSystemError(ValueError):
    """The pooled normal equations are singular or too ill-conditioned."""


class AgentShard(Frozen):
    """One agent's samples: an unchecked view that only ``Dataset`` makes.

    features : (n_samples, dim) array, one input row per sample
    labels   : (n_samples,) array of targets
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        self.__dict__.update(features=features, labels=labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


class Dataset(Frozen):
    """Agent-partitioned samples, stored once and stacked over agents.

    features : (n_agents, n_samples, dim) array, one shard per leading index
    labels   : (n_agents, n_samples) array of targets

    Both are kept as C-contiguous float64 arrays, without a copy when they
    already are. They are checked once, here: at least one agent, sample
    and feature, and finite entries. Every shard in ``shards`` is an
    ``AgentShard`` view into the stack, so every agent holds the same number
    of samples and the same dimension.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        features = np.ascontiguousarray(features, dtype=float)
        labels = np.ascontiguousarray(labels, dtype=float)
        if features.ndim != 3:
            raise ValueError(
                f"features must be a 3-D (agents, samples, dim) array, got {features.ndim}-D"
            )
        if labels.shape != features.shape[:2]:
            raise ValueError(
                f"labels have shape {labels.shape}, expected (agents, samples) "
                f"{features.shape[:2]}"
            )
        if features.shape[0] < 1:
            raise ValueError("dataset must contain at least one agent")
        if features.shape[1] < 1:
            raise ValueError("each agent must hold at least one sample")
        if features.shape[2] < 1:
            raise ValueError("each sample must have at least one feature")
        if not (np.isfinite(features).all() and np.isfinite(labels).all()):
            raise ValueError("dataset entries must be finite")
        shards = tuple(AgentShard(f, y) for f, y in zip(features, labels))
        self.__dict__.update(shards=shards, features=features, labels=labels)

    def __reduce__(self):
        # Pickle the samples once; unpickling rebuilds the shard views.
        return (Dataset, (self.features, self.labels))

    @property
    def n_agents(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[2]


def _check_theta(dim: int, theta: np.ndarray) -> None:
    if theta.shape != (dim,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({dim},)")


def _sigmoid(z):
    # Elementwise; both branches keep the exp() argument nonpositive.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


class _Loss:
    """One ``_LOSSES`` entry; the module docstring defines the fields.

    ``scale`` stays outside ``residual`` because ``(scale / L) * (X^T r)``
    rounds unlike ``X^T (scale * r) / L``.
    """

    __slots__ = ("loss", "residual", "scale", "curvature")

    def __init__(self, loss, residual, scale, curvature):
        self.loss, self.residual, self.scale, self.curvature = loss, residual, scale, curvature


_LOSSES = {
    LossKind.QUADRATIC: _Loss(
        loss=lambda m, y: (y - m) ** 2,
        residual=lambda m, y: m - y,
        scale=2.0,
        curvature=2.0,
    ),
    LossKind.LOGISTIC: _Loss(
        loss=lambda m, y: np.logaddexp(0.0, -y * m),
        residual=lambda m, y: -y * _sigmoid(-y * m),
        scale=1.0,
        curvature=0.25,
    ),
}


def component_grad(kind: LossKind, shard: AgentShard, i: int, theta: np.ndarray) -> np.ndarray:
    """Gradient of sample ``i``'s loss with respect to ``theta``.

    Quadratic: 2 * row * (row.theta - label). Logistic: -label * sigmoid(-label * row.theta) * row.
    """
    row = shard.features[i]
    loss = _LOSSES[kind]
    # row.dot(theta) equals row @ theta bit for bit and skips matmul's dispatch.
    return loss.scale * loss.residual(float(row.dot(theta)), float(shard.labels[i])) * row


def agent_full_grad(kind: LossKind, shard: AgentShard, theta: np.ndarray) -> np.ndarray:
    """Mean of all per-sample gradients of one shard, in ascending sample order."""
    loss = _LOSSES[kind]
    features = shard.features
    residuals = loss.residual(features @ theta, shard.labels)
    return (loss.scale / shard.n_samples) * (features.T @ residuals)


def _sum_agents(per_agent: np.ndarray) -> np.ndarray:
    """Sum over the leading (agent) axis, adding in ascending agent order.

    ``np.sum`` and ``@`` sum pairwise and round differently from adding the
    agents one at a time; ``cumsum`` adds in order, so the result equals a
    per-agent loop bit for bit.
    """
    return np.cumsum(per_agent, axis=0)[-1]


def _agent_matvec(features: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Per-agent ``X_n^T v_n`` for stacked (N, L, d) features and (N, L) vectors."""
    return np.matmul(features.transpose(0, 2, 1), vectors[..., np.newaxis])[..., 0]


def global_cost(kind: LossKind, dataset: Dataset, theta: np.ndarray) -> float:
    """Average over agents of the mean per-sample loss on each shard."""
    _check_theta(dataset.dimension, theta)
    per_agent = np.mean(_LOSSES[kind].loss(dataset.features @ theta, dataset.labels), axis=1)
    return float(_sum_agents(per_agent)) / dataset.n_agents


def global_grad(kind: LossKind, dataset: Dataset, theta: np.ndarray) -> np.ndarray:
    """Average over agents of ``agent_full_grad``, in ascending agent order."""
    _check_theta(dataset.dimension, theta)
    loss = _LOSSES[kind]
    features, labels = dataset.features, dataset.labels
    residuals = loss.residual(features @ theta, labels)
    per_agent = (loss.scale / labels.shape[1]) * _agent_matvec(features, residuals)
    return _sum_agents(per_agent) / dataset.n_agents


def generate_regression_dataset(
    n_agents: int,
    samples_per_agent: int,
    dimension: int,
    noise_std: float,
    rng: np.random.Generator,
) -> tuple[Dataset, np.ndarray]:
    """Synthesize a linear-regression dataset split evenly across agents.

    Features and the generating parameter are i.i.d. standard normal;
    labels are row.theta_true plus N(0, noise_std^2) noise. Samples are
    assigned to agents in contiguous equal blocks. The result is a pure
    function of the generator state. Each argument keeps the rule of the
    config's ``data`` key of its name, or ``ConfigError`` names it.
    """
    n_agents = _as_int(n_agents, "n_agents", minimum=1)
    samples_per_agent = _as_int(samples_per_agent, "samples_per_agent", minimum=1)
    dimension = _as_int(dimension, "dimension", minimum=1)
    noise_std = _as_float(noise_std, "noise_std", minimum=0.0)
    total = n_agents * samples_per_agent
    features = rng.standard_normal((total, dimension))
    theta_true = rng.standard_normal(dimension)
    labels = features @ theta_true + noise_std * rng.standard_normal(total)
    dataset = Dataset(
        features.reshape(n_agents, samples_per_agent, dimension),
        labels.reshape(n_agents, samples_per_agent),
    )
    return dataset, theta_true


def least_squares_oracle(dataset: Dataset) -> tuple[np.ndarray, float]:
    """Exact minimizer and optimal value of the quadratic global objective.

    Solves the agent-weighted normal equations
    ``sum_n X_n^T X_n / L_n theta = sum_n X_n^T y_n / L_n`` and verifies the
    solution by checking that the global gradient vanishes to 1e-8.
    """
    features, labels = dataset.features, dataset.labels
    n_samples = labels.shape[1]
    gram = _sum_agents(np.matmul(features.transpose(0, 2, 1), features) / n_samples)
    moment = _sum_agents(_agent_matvec(features, labels) / n_samples)
    try:
        theta_star = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"normal equations are singular: {exc}") from exc
    residual = float(np.linalg.norm(global_grad(LossKind.QUADRATIC, dataset, theta_star)))
    if not np.isfinite(residual) or residual > 1e-8:
        raise SingularSystemError(
            f"normal equations too ill-conditioned: gradient norm {residual:.3e} at solution"
        )
    return theta_star, global_cost(LossKind.QUADRATIC, dataset, theta_star)


def smoothness_constant(kind: LossKind, dataset: Dataset) -> float:
    """Gradient-Lipschitz upper bound valid for every per-sample and per-agent loss.

    Quadratic: max over samples of 2 * ||row||^2. Logistic: max over
    samples of ||row||^2 / 4. Both dominate the corresponding averaged
    curvature, so one constant serves the per-sample, per-agent and global
    objectives alike.
    """
    return _LOSSES[kind].curvature * float(np.max(np.sum(dataset.features**2, axis=2)))
