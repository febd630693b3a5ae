"""perfbench's traced repetition passes its own checks on a tiny workload.

``perfbench/run.py --trace 1`` wraps the bindings listed in
``tracing.TARGETS``, runs one experiment and compares the call counts with
the activations in the trace CSVs: one ``run_round`` per (run, round), one
solver call per activation, 2 * snapshots * inner_steps ``component_grad``
calls per SVRG activation. It also reads ``RoundRecord.local_traces``. A
change that bypasses a counted binding or drops one of those names fails
here instead of in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import fedsim

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _import_perfbench():
    """perfbench's run and workloads modules, imported without changing them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up in sys.modules.
        sys.modules[spec.name] = run
        spec.loader.exec_module(run)
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, workloads


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_layers_pass_their_checks(workers, tmp_path):
    run, workloads = _import_perfbench()
    shape = workloads.Shape(
        n_agents=5, prob_low=0.5, prob_high=1.0, rounds=4,
        snapshots=2, inner_steps=3, batch_size=2, runs=2,
    )
    workload = workloads.Workload("tiny", "tiny", shape, workers=workers)
    # Built from the fedsim already imported: run.set_up would re-import it.
    config = fedsim.parse_config(workloads.config_doc(workload, 1))
    dataset, _ = fedsim.build_dataset(config)
    env = run.SetUp(fedsim, config, dataset)
    metrics, failures = run.traced_layers(
        env, workload, tmp_path / "traced", tmp_path / "workers", run_median=0.0
    )
    assert failures == []
    assert metrics["local_update.svrg_local_update.calls"][0] > 0
