"""Per-layer tracing of one run_experiment call, from outside fedsim.

Each traced function is wrapped at the name its caller looks up (for example
``federation.global_cost``, the binding ``run_round`` calls, not
``losses.global_cost``), and every binding is put back when the ``traced``
block ends. Layers are named after the module that defines the function.

A timed layer records its total time, its call count and its self time (its
time minus that of the timed layers it called). A counted layer records calls
only: ``component_grad`` runs about a million times per experiment, and
timing each call would distort the layers around it.

``run_experiment`` with ``workers > 1`` runs jobs in forked worker processes,
which inherit the wrapped bindings. Each worker starts from empty totals and
writes them to ``worker_dir`` when it exits; ``merge_workers`` adds them in.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from multiprocessing import util
from pathlib import Path

# (module, attribute, layer, timed): what to wrap, where its caller finds it.
TARGETS = (
    ("federation", "run_round", "federation.run_round", True),
    ("federation", "svrg_local_update", "local_update.svrg_local_update", True),
    ("federation", "sgd_local_update", "local_update.sgd_local_update", True),
    ("local_update", "component_grad", "losses.component_grad", False),
    ("local_update", "agent_full_grad", "losses.agent_full_grad", False),
    ("federation", "global_cost", "losses.global_cost", True),
    ("federation", "global_grad", "losses.global_grad", True),
    ("federation", "derive_rng", "seeding.derive_rng", True),
    ("federation", "sample_participation", "federation.sample_participation", True),
    ("federation", "aggregate", "federation.aggregate", True),
    ("experiment", "theorem_bound_check", "metrics.theorem_bound_check", True),
    ("experiment", "summarize_runs", "metrics.summarize_runs", True),
    ("experiment", "write_trace_csv", "experiment.write_trace_csv", True),
)


class Tracer:
    """Accumulated time, calls and self time per layer, for one process."""

    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # layer -> [s, calls, self_s]
        self._children: list[float] = []  # time of timed callees, per open span
        self.worker_dir: Path | None = None

    def _add(self, layer: str, seconds: float, calls: int, self_s: float) -> None:
        entry = self.stats.setdefault(layer, [0.0, 0, 0.0])
        entry[0] += seconds
        entry[1] += calls
        entry[2] += self_s

    @contextmanager
    def span(self, layer: str):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            children = self._children.pop()
            self._add(layer, elapsed, 1, elapsed - children)
            if self._children:
                self._children[-1] += elapsed

    def timed(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)
        return wrapper

    def counted(self, layer: str, fn):
        entry = self.stats.setdefault(layer, [0.0, 0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry[1] += 1
            return fn(*args, **kwargs)
        return wrapper

    def get(self, layer: str) -> tuple[float, int, float]:
        s, calls, self_s = self.stats.get(layer, (0.0, 0, 0.0))
        return s, int(calls), self_s

    def _after_fork(self) -> None:
        # Runs in each forked worker: count only the worker's own calls and
        # leave them in a file when the worker exits.
        if self.worker_dir is None:
            return
        for entry in self.stats.values():
            entry[:] = [0.0, 0, 0.0]
        self._children.clear()
        util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.stats), encoding="utf-8")

    def merge_workers(self) -> int:
        """Add the totals the worker processes left; returns how many there were."""
        paths = sorted(self.worker_dir.glob("worker-*.json"))
        for path in paths:
            for layer, (s, calls, self_s) in json.loads(path.read_text(encoding="utf-8")).items():
                self._add(layer, s, calls, self_s)
        return len(paths)


@contextmanager
def traced(modules: dict, tracer: Tracer, worker_dir: Path):
    """Wrap every target in ``modules`` (name -> module) for the block's duration."""
    originals = []
    tracer.worker_dir = worker_dir
    worker_dir.mkdir(parents=True, exist_ok=True)
    util.register_after_fork(tracer, Tracer._after_fork)
    try:
        for module_name, attr, layer, timed in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.timed(layer, fn) if timed else tracer.counted(layer, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
        tracer.worker_dir = None
