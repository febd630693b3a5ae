"""Benchmark workloads: fedsim experiment configs generated from a workload seed.

Every workload uses the paper's synthetic least-squares setup (50 samples per
agent, dimension 10, label noise 1, theta0 = 0.5) and the three paper
algorithms. The baselines take the equal-work default of ``local_steps``
(snapshots x inner steps) and the ``per_round`` stepsize decay: with the
constant decay of ``paper_case2`` their costs reach 1e68 to 1e145 depending
on the seed, too close to float overflow for a benchmark that must not fail.

The seed picks the dataset, the drawn participation probabilities and every
training stream; the shape of the work is fixed per workload, so every run
of a workload attempts the same operations whatever its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """The fixed make-up of one workload's experiment."""

    n_agents: int
    prob_low: float
    prob_high: float
    rounds: int
    snapshots: int
    inner_steps: int
    batch_size: int
    runs: int

    @property
    def steps_per_activation(self) -> int:
        """Local stochastic steps one activation takes, for every algorithm."""
        return self.snapshots * self.inner_steps


# paper_case2's shape, with the Monte Carlo runs cut from 20 to 4. A
# repetition then takes about 9 s: long enough to average over the host's
# speed swings within it, short enough for 3 in a run.
LOCAL_HEAVY = Shape(
    n_agents=10, prob_low=0.7, prob_high=1.0, rounds=100,
    snapshots=10, inner_steps=5, batch_size=5, runs=4,
)
# Many agents that rarely take part, with light local work: every round still
# evaluates the global cost and gradient over all 200 shards.
SPARSE_AGENTS = Shape(
    n_agents=200, prob_low=0.01, prob_high=0.1, rounds=120,
    snapshots=1, inner_steps=2, batch_size=10, runs=4,
)


@dataclass(frozen=True)
class Workload:
    name: str
    shape_name: str
    shape: Shape
    workers: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("local_heavy", "local_heavy", LOCAL_HEAVY, workers=1),
        Workload("sparse_agents", "sparse_agents", SPARSE_AGENTS, workers=1),
        # The inputs of local_heavy, through run_experiment's process pool.
        Workload("local_heavy_pool2", "local_heavy", LOCAL_HEAVY, workers=2),
    )
}

SAMPLES_PER_AGENT = 50
DIMENSION = 10
NOISE_STD = 1.0
THETA0 = 0.5
STEPSIZE = 0.1


def config_doc(workload: Workload, seed: int) -> dict:
    """The JSON config document of ``workload`` for workload seed ``seed``.

    The seeds depend on the shape, not the workload name, so
    ``local_heavy_pool2`` runs exactly the inputs of ``local_heavy``.
    """
    shape = workload.shape
    data_seed, master_seed, schedule_seed = (
        int(v)
        for v in np.random.SeedSequence([seed, *workload.shape_name.encode()]).generate_state(3)
    )
    common = {"rounds": shape.rounds}
    sgd = {**common, "base_stepsize": STEPSIZE, "decay": "per_round"}
    return {
        "name": workload.shape_name,
        "data": {
            "n_agents": shape.n_agents,
            "samples_per_agent": SAMPLES_PER_AGENT,
            "dimension": DIMENSION,
            "noise_std": NOISE_STD,
            "data_seed": data_seed,
        },
        "runs": shape.runs,
        "master_seed": master_seed,
        "theta0": THETA0,
        "schedule": {
            "kind": "per_agent_uniform_draw",
            "low": shape.prob_low,
            "high": shape.prob_high,
            "seed": schedule_seed,
        },
        "algorithms": [
            {
                "name": "fedavg_svrg",
                "kind": "fedavg_svrg",
                **common,
                "snapshots": shape.snapshots,
                "inner_steps": shape.inner_steps,
                "stepsize": STEPSIZE,
            },
            {"name": "fedavg_prob_sgd", "kind": "fedavg_prob_sgd", **sgd},
            {
                "name": "fedavg_uniform_batch",
                "kind": "fedavg_uniform_batch",
                **sgd,
                "batch_size": shape.batch_size,
            },
        ],
    }
