"""perfbench's traced repetition passes its own checks on a tiny workload.

``perfbench/run.py --trace 1`` wraps the bindings listed in
``tracing.TARGETS``, runs one experiment and compares the call counts with
the activations in the trace CSVs: one ``run_round`` per (run, round), one
solver call per activation, 2 * snapshots * inner_steps ``component_grad``
calls per SVRG activation. It also reads ``RoundRecord.local_traces``. A
change that bypasses a counted binding or drops one of those names fails
here instead of in a traced benchmark run. perfbench's reference optimum
reads ``Dataset.shards``; a change to what a shard holds fails here too.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import fedsim
from fedsim.losses import least_squares_oracle

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _import_perfbench():
    """perfbench's run, workloads and checks modules, imported without changing them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up in sys.modules.
        sys.modules[spec.name] = run
        spec.loader.exec_module(run)
        import checks
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, workloads, checks


def _tiny(workloads, workers):
    """A tiny workload, its config and its dataset at workload seed 1."""
    shape = workloads.Shape(
        n_agents=5, prob_low=0.5, prob_high=1.0, rounds=4,
        snapshots=2, inner_steps=3, batch_size=2, runs=2,
    )
    workload = workloads.Workload("tiny", "tiny", shape, workers=workers)
    # Built from the fedsim already imported: run.set_up would re-import it.
    config = fedsim.parse_config(workloads.config_doc(workload, 1))
    dataset, _ = fedsim.build_dataset(config)
    return workload, config, dataset


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_layers_pass_their_checks(workers, tmp_path):
    run, workloads, _ = _import_perfbench()
    workload, config, dataset = _tiny(workloads, workers)
    env = run.SetUp(fedsim, config, dataset)
    metrics, failures = run.traced_layers(
        env, workload, tmp_path / "traced", tmp_path / "workers", run_median=0.0
    )
    assert failures == []
    assert metrics["local_update.svrg_local_update.calls"][0] > 0


def test_reference_reads_the_dataset_fedsim_solves():
    _, workloads, checks = _import_perfbench()
    _, config, dataset = _tiny(workloads, 1)
    ref = checks.Reference.from_dataset(dataset, workloads.THETA0, config.schedule.per_agent)
    theta_star, f_star = least_squares_oracle(dataset)
    # The tolerances perfbench's own summary check applies to fedsim's oracle.
    assert np.allclose(theta_star, ref.theta_star, rtol=1e-8, atol=1e-10)
    assert f_star == pytest.approx(ref.f_star, rel=checks.ORACLE_RTOL)
