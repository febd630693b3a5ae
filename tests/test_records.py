import copy
import dataclasses
import enum
import importlib
import pickle
import pkgutil
import subprocess
import sys
import types

import numpy as np
import pytest

import fedsim
from fedsim import (
    Algorithm,
    BoundCheck,
    DataConfig,
    Dataset,
    DivergenceError,
    McSummary,
    ParticipationSchedule,
    RoundRecord,
    RunConfig,
    RunTrace,
    SgdParams,
    SvrgParams,
    TrainingError,
    build_dataset,
    load_builtin_config,
    run_training,
)
from fedsim.losses import LossKind

PUBLIC_NAMES = [
    "Algorithm", "BoundCheck", "ConfigError", "DataConfig", "Dataset", "DivergenceError",
    "ExperimentConfig", "ExperimentResult", "LossKind", "McSummary", "ParticipationSchedule",
    "RoundRecord", "RunConfig", "RunTrace", "SgdParams", "SingularSystemError", "SvrgParams",
    "TrainingError", "aggregate", "build_dataset", "generate_regression_dataset", "global_cost",
    "global_grad", "least_squares_oracle", "load_builtin_config", "load_config", "parse_config",
    "run_experiment", "run_training", "sample_participation", "smoothness_constant",
    "summarize_runs", "theorem_bound_check",
]


def test_public_surface_is_exactly_the_listed_names():
    # Adding or removing an export is a deliberate change to this list.
    exported = sorted(
        name for name, value in vars(fedsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def fedsim_classes():
    for info in pkgutil.iter_modules(fedsim.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module(f"fedsim.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def test_no_fedsim_class_is_a_dataclass():
    # A dataclass builds its methods with exec on every import, and the bytecode
    # cache cannot hold them: with the 14 that fedsim had, importing it again
    # from cached bytecode took 14-20 ms instead of about 3 on a 2-core host.
    classes = list(fedsim_classes())
    assert len(classes) > 14
    assert [c.__name__ for c in classes if dataclasses.is_dataclass(c)] == []


def test_import_does_not_load_dataclasses():
    proc = subprocess.run(
        [sys.executable, "-c", "import fedsim, sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def schedule():
    return ParticipationSchedule(np.array([0.5, 1.0]))


def svrg_config():
    return RunConfig(
        "svrg", Algorithm.FEDAVG_SVRG, 2, schedule(), [0.0, 1.0], 7, SvrgParams(1, 2, 0.1)
    )


FROZEN = {
    "AgentShard": lambda: Dataset(np.ones((1, 2, 2)), np.ones((1, 2))).shards[0],
    "Dataset": lambda: Dataset(np.ones((1, 2, 2)), np.ones((1, 2))),
    "SvrgParams": lambda: SvrgParams(1, 2, 0.1),
    "ParticipationSchedule": schedule,
    "SgdParams": lambda: SgdParams(3),
    "RunConfig": svrg_config,
    "DataConfig": lambda: DataConfig(2, 5, 3, 1.0, 11),
    "ExperimentConfig": lambda: load_builtin_config("paper_case1"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_refuse_assignment_and_deletion(name):
    record = FROZEN[name]()
    assert type(record).__name__ == name
    field = next(iter(vars(record)))
    before = vars(record)[field]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert vars(record)[field] is before


def test_mutable_defaults_are_fresh_per_instance():
    a = RoundRecord(0, np.ones(2, dtype=bool), np.zeros(2), 1.0, 2.0)
    b = RoundRecord(0, np.ones(2, dtype=bool), np.zeros(2), 1.0, 2.0)
    assert a.local_traces == {} and a.local_traces is not b.local_traces


def test_positional_order_and_defaults():
    params = SvrgParams(5, 2, 0.1)
    assert (params.snapshots, params.inner_steps, params.stepsize) == (5, 2, 0.1)
    sgd = SgdParams(3)
    assert (sgd.steps, sgd.base_stepsize, sgd.decay) == (3, 0.1, "per_round")
    cfg = svrg_config()
    assert (cfg.name, cfg.algorithm, cfg.rounds, cfg.master_seed) == (
        "svrg", Algorithm.FEDAVG_SVRG, 2, 7
    )
    assert cfg.theta0.dtype == float and cfg.theta0.tolist() == [0.0, 1.0]
    assert (cfg.sgd, cfg.batch_size) == (None, None)
    batch = RunConfig(
        "b", Algorithm.FEDAVG_UNIFORM_BATCH, 2, schedule(), np.zeros(2), 7, None, sgd, 2
    )
    assert (batch.svrg, batch.sgd, batch.batch_size) == (None, sgd, 2)
    assert BoundCheck(1.0, 2.0, 3.0, 4.0, 5.0).imputed_cells == 0
    assert RunTrace(np.zeros(2), 1.0, 2.0, []).v_sq_norms is None
    summary = McSummary(np.zeros(2), None, 0.0, 0.0)
    assert np.isnan(summary.avg_grad_norm_sq)
    # The bound lives in its BoundCheck only; the summary keeps no copy of it.
    assert list(vars(summary)) == [
        "mean_cost_error", "var_cost", "cep_radius", "cep_radius_2d", "avg_grad_norm_sq"
    ]


def same(a, b):
    """Field-by-field equality of records, arrays compared by bytes."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if hasattr(a, "__dict__") and not isinstance(a, enum.Enum):
        return type(a) is type(b) and same(vars(a), vars(b))
    return a == b


ROUND_TRIPS = pytest.mark.parametrize(
    "round_trip", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy], ids=["pickle", "deepcopy"]
)


@pytest.fixture(scope="module")
def records():
    config = load_builtin_config("paper_case1")
    dataset, _ = build_dataset(config)
    trace = run_training(LossKind.QUADRATIC, dataset, config.algorithms[0], run_index=0)
    return {"RunConfig": config.algorithms[0], "ExperimentConfig": config,
            "Dataset": dataset, "RunTrace": trace}


@pytest.mark.parametrize("name", ["RunConfig", "ExperimentConfig", "Dataset", "RunTrace"])
@ROUND_TRIPS
def test_pickle_and_deepcopy_keep_every_field(records, name, round_trip):
    record = records[name]
    clone = round_trip(record)
    assert clone is not record
    assert list(vars(clone)) == list(vars(record))
    assert same(clone, record)


@pytest.mark.parametrize("error", [
    TrainingError("svrg", 1, 6, 3, "non-finite iterate at snapshot 0, inner step 2"),
    DivergenceError(4, 2),
], ids=["TrainingError", "DivergenceError"])
@ROUND_TRIPS
def test_errors_survive_a_round_trip_with_every_field(error, round_trip):
    # A worker process sends a failed run's error back to the parent by pickle.
    clone = round_trip(error)
    assert type(clone) is type(error)
    assert vars(clone) == vars(error)
    assert str(clone) == str(error)
