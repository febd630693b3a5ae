import ctypes
from pathlib import Path

import numpy as np
import pytest

from fedsim.losses import Dataset, generate_regression_dataset


def blas_core_name() -> str:
    """The OpenBLAS kernel numpy's bundled library runs on this CPU, else ``"unknown"``.

    Byte-pinned outputs depend on it: OpenBLAS's dot, gemv and gemm kernels
    round differently from one CPU family to the next, and
    ``OPENBLAS_CORETYPE`` selects another kernel for one process.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def make_shard(features, labels):
    """The one shard of a single-agent Dataset: shards exist only as Dataset views."""
    return Dataset(np.asarray(features)[np.newaxis], np.asarray(labels)[np.newaxis]).shards[0]


def random_shard(rng, n_samples=6, dim=4, pm_one_labels=False):
    features = rng.standard_normal((n_samples, dim))
    if pm_one_labels:
        labels = rng.choice([-1.0, 1.0], size=n_samples)
    else:
        labels = rng.standard_normal(n_samples)
    return make_shard(features, labels)


def stacked_dataset(shards):
    """A Dataset holding the given equal-size shards, stacked in agent order."""
    shards = tuple(shards)
    return Dataset(
        np.stack([shard.features for shard in shards]),
        np.stack([shard.labels for shard in shards]),
    )


def random_dataset(rng, n_agents=3, n_samples=4, dim=3, pm_one_labels=False):
    return stacked_dataset(
        random_shard(rng, n_samples, dim, pm_one_labels) for _ in range(n_agents)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def noiseless():
    """Small exactly-solvable regression problem: (dataset, true parameter)."""
    gen = np.random.default_rng(7)
    return generate_regression_dataset(3, 8, 3, 0.0, gen)
