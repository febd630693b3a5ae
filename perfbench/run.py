"""fedsim benchmark: time Monte Carlo experiments and check their artifacts.

Usage, from the root of a fedsim checkout:

    python3 perfbench/run.py --workload local_heavy --seed 1 --seconds 40 --trace 0

The workload seed generates the experiment config (see workloads.py). For
about ``--seconds`` the benchmark alternates set-ups (import fedsim, parse the
config, build the dataset, oracle and smoothness constant) with
``run_experiment`` calls on that config, then checks the artifacts against
computations made apart from fedsim (see checks.py). ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` also makes one traced repetition and
reports the per-layer split instead (see tracing.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (counts of (algorithm, run) jobs) and
``metrics``. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import multiprocessing
import os
import pickle
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import (
    ALGORITHMS,
    ARTIFACTS,
    Reference,
    check_artifacts,
    differing_files,
    n_active_sums,
)
from tracing import TARGETS, Tracer, traced
from workloads import THETA0, WORKLOADS, Workload, config_doc

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_REP = 7
MIN_RUN_REPS = 3
SETUP_LAYERS = (
    "config.parse_config.s",
    "experiment.build_dataset.s",
    "losses.least_squares_oracle.s",
    "losses.smoothness_constant.s",
)


@dataclass
class SetUp:
    """What one set-up produced: the fedsim package, the config and the dataset."""

    fedsim: object
    config: object
    dataset: object


def set_up(doc: dict) -> tuple[SetUp, float, tuple[float, ...]]:
    """Import fedsim afresh and prepare an experiment as ``run_experiment`` would.

    Returns what it made, its duration and the duration of each SETUP_LAYERS
    step.
    """
    for name in [m for m in sys.modules if m == "fedsim" or m.startswith("fedsim.")]:
        del sys.modules[name]
    start = time.perf_counter()
    fedsim = importlib.import_module("fedsim")
    marks = [time.perf_counter()]
    config = fedsim.parse_config(doc)
    marks.append(time.perf_counter())
    dataset, _ = fedsim.build_dataset(config)
    marks.append(time.perf_counter())
    fedsim.least_squares_oracle(dataset)
    marks.append(time.perf_counter())
    fedsim.smoothness_constant(fedsim.LossKind.QUADRATIC, dataset)
    marks.append(time.perf_counter())
    steps = tuple(b - a for a, b in zip(marks, marks[1:]))
    return SetUp(fedsim, config, dataset), marks[-1] - start, steps


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any waited-for child, in MiB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def traced_layers(env: SetUp, workload: Workload, out_dir: Path, worker_dir: Path,
                  run_median: float) -> tuple[dict, list[str]]:
    """One traced repetition: the per-layer metrics and the failures of its own checks."""
    fedsim = env.fedsim
    modules = {name: sys.modules[f"fedsim.{name}"] for name in ("federation", "local_update", "experiment")}
    before = {(m, attr): getattr(modules[m], attr) for m, attr, _, _ in TARGETS}
    tracer = Tracer()
    with traced(modules, tracer, worker_dir):
        with tracer.span("experiment.run_experiment"):
            result = fedsim.run_experiment(env.config, output_dir=out_dir, workers=workload.workers)
        n_workers = tracer.merge_workers()

    failures = []
    if any(getattr(modules[m], attr) is not fn for (m, attr), fn in before.items()):
        failures.append("a traced binding was not restored")
    shape = workload.shape
    active = n_active_sums(out_dir)
    svrg_active = active["fedavg_svrg"]
    sgd_active = sum(active.values()) - svrg_active
    per = shape.steps_per_activation
    expected_calls = {
        "federation.run_round": len(ALGORITHMS) * shape.runs * shape.rounds,
        "local_update.svrg_local_update": svrg_active,
        "local_update.sgd_local_update": sgd_active,
        # An anchored SVRG step evaluates two component gradients, an SGD step one.
        "losses.component_grad": 2 * svrg_active * per + sgd_active * per,
        "losses.agent_full_grad": svrg_active * shape.snapshots,
    }
    for layer, calls in expected_calls.items():
        if tracer.get(layer)[1] != calls:
            failures.append(f"traced {layer} calls {tracer.get(layer)[1]} != {calls} from the CSVs")
    if workload.workers > 1 and n_workers < 1:
        failures.append("no worker process left its traced totals")

    traces = [t for runs in result.traces.values() for t in runs]
    records = [rec for t in traces for rec in t.records]
    local = [lt for rec in records for lt in rec.local_traces.values()]
    local_bytes = sum(
        sys.getsizeof(lt) + sys.getsizeof(lt.__dict__)
        + sys.getsizeof(lt.v_sq_norms) + sys.getsizeof(lt.delta_w)
        for lt in local
    ) + sum(sys.getsizeof(rec.local_traces) for rec in records)
    pickle_bytes = sum(len(pickle.dumps(t)) for t in traces)

    metrics = {}
    for layer in ("local_update.svrg_local_update", "local_update.sgd_local_update",
                  "losses.global_cost", "losses.global_grad", "seeding.derive_rng",
                  "federation.sample_participation", "federation.aggregate"):
        s, calls, _ = tracer.get(layer)
        metrics[f"{layer}.s"] = (s, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
    metrics["losses.component_grad.calls"] = (tracer.get("losses.component_grad")[1], "count")
    metrics["losses.agent_full_grad.calls"] = (tracer.get("losses.agent_full_grad")[1], "count")
    metrics["federation.run_round.self_s"] = (tracer.get("federation.run_round")[2], "s")
    for layer in ("metrics.theorem_bound_check", "metrics.summarize_runs", "experiment.write_trace_csv"):
        metrics[f"{layer}.s"] = (tracer.get(layer)[0], "s")
    metrics["federation.local_traces.count"] = (len(local), "count")
    metrics["federation.local_traces.mb"] = (local_bytes / 2**20, "MiB")
    metrics["experiment.result_pickle_mb"] = (pickle_bytes / 2**20, "MiB")
    total, _, self_s = tracer.get("experiment.run_experiment")
    metrics["experiment.run_experiment.self_s"] = (self_s, "s")
    metrics["trace.overhead_s"] = (total - run_median, "s")
    return metrics, failures


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    doc = config_doc(workload, seed)
    shape = workload.shape
    setup_times: list[float] = []
    setup_steps: list[tuple[float, ...]] = []
    run_dir = out_root / "run"
    run_times: list[float] = []
    digests: set[str] = set()
    attempted = failed = 0
    failures: list[str] = []
    # Set-ups are interleaved with the repetitions, so both medians sample the
    # same stretch of the host's speed. A repetition starts only if one as
    # long as the last still ends within the run's seconds.
    deadline = time.perf_counter() + seconds
    while len(run_times) < MIN_RUN_REPS or time.perf_counter() + run_times[-1] <= deadline:
        for _ in range(SETUPS_PER_REP):
            env, seconds_taken, steps = set_up(doc)
            setup_times.append(seconds_taken)
            setup_steps.append(steps)
        jobs = len(env.config.algorithms) * env.config.runs
        attempted += jobs
        start = time.perf_counter()
        try:
            env.fedsim.run_experiment(env.config, output_dir=run_dir, workers=workload.workers)
        except env.fedsim.TrainingError as exc:
            failed += jobs
            failures.append(f"run_experiment failed: {exc}")
            break
        run_times.append(time.perf_counter() - start)
        digests.add(digest(run_dir))

    if not failed:
        ref = Reference.from_dataset(env.dataset, THETA0, env.config.schedule.per_agent)
        failures += check_artifacts(run_dir, shape, ref)
        if len(digests) != 1:
            failures.append(f"artifacts differ between the {len(run_times)} repetitions")
        if workload.workers > 1:
            serial_dir = out_root / "serial"
            attempted += jobs
            env.fedsim.run_experiment(env.config, output_dir=serial_dir, workers=1)
            differ = differing_files(run_dir, serial_dir, ARTIFACTS)
            if differ:
                failures.append(f"workers={workload.workers} differs from workers=1 in {differ}")

    run_median = statistics.median(run_times) if run_times else float("nan")
    print(
        f"{workload.name} seed={seed}: {len(run_times)} repetition(s) of {jobs} jobs, "
        f"run_s median {run_median:.4f}, setup_s median "
        f"{statistics.median(setup_times):.5f}; run_s "
        f"{' '.join(f'{t:.3f}' for t in run_times)}",
        file=sys.stderr,
    )
    if trace and not failed:
        attempted += jobs
        traced_dir = out_root / "traced"
        metrics, trace_failures = traced_layers(env, workload, traced_dir, out_root / "workers", run_median)
        failures += trace_failures
        differ = differing_files(run_dir, traced_dir, ARTIFACTS)
        if differ:
            failures.append(f"the traced repetition differs from the untraced ones in {differ}")
        for i, layer in enumerate(SETUP_LAYERS):
            metrics[layer] = (statistics.median(s[i] for s in setup_steps), "s")
    elif not failed:
        steps = sum(n_active_sums(run_dir).values()) * shape.steps_per_activation
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_median, "s"),
            "agent_steps_per_s": (steps / run_median, "steps/s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
    else:
        metrics = {}

    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _stop_children() -> None:
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()


def _exit_on_term(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fedsim" / "__init__.py").is_file():
        print(f"fedsim sources not found under {src}; run from a fedsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # An installed package imports from cached bytecode; without this,
    # PYTHONDONTWRITEBYTECODE makes every set-up compile fedsim from source.
    sys.dont_write_bytecode = False
    signal.signal(signal.SIGTERM, _exit_on_term)

    workload = WORKLOADS[args.workload]
    out_root = ROOT / ".perfbench_out" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), out_root)
    finally:
        _stop_children()
    print(json.dumps(result))
    if result["correct"]:
        shutil.rmtree(out_root, ignore_errors=True)
    else:
        print(f"artifacts kept in {out_root}", file=sys.stderr)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
