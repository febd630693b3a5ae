"""Monte Carlo experiment driver and artifact writers.

One experiment generates a single dataset from ``data_seed`` that every
algorithm and every run shares (paired comparison), executes each
(algorithm, run) pair on a stream derived from the master seed, and writes
per-round CSV traces, a JSON summary and the fully resolved config. All
outputs are a pure function of the config: rerunning the same config, with
any worker count, reproduces the same bytes.
"""

from __future__ import annotations

import csv
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .federation import Algorithm, RunTrace, run_training
from .losses import (
    Dataset,
    LossKind,
    generate_regression_dataset,
    least_squares_oracle,
    smoothness_constant,
)
from .metrics import BoundCheck, McSummary, summarize_runs, theorem_bound_check

logger = logging.getLogger(__name__)


class ExperimentResult:
    """In-memory view of a completed experiment."""

    def __init__(
        self, config: ExperimentConfig, dataset: Dataset, theta_true: np.ndarray,
        theta_star: np.ndarray, f_star: float, smoothness: float,
        traces: dict[str, list[RunTrace]], summaries: dict[str, McSummary],
        bounds: dict[str, BoundCheck], output_dir: Path,
    ):
        self.config = config
        self.dataset = dataset
        self.theta_true = theta_true
        self.theta_star = theta_star
        self.f_star = f_star
        self.smoothness = smoothness
        self.traces = traces
        self.summaries = summaries
        self.bounds = bounds
        self.output_dir = output_dir


def build_dataset(config: ExperimentConfig) -> tuple[Dataset, np.ndarray]:
    """Materialize the experiment's shared dataset from its data seed."""
    data = config.data
    rng = np.random.default_rng(data.data_seed)
    return generate_regression_dataset(
        data.n_agents, data.samples_per_agent, data.dimension, data.noise_std, rng
    )


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_trace_csv(path: Path, traces: list[RunTrace], f_star: float) -> None:
    """Per-round CSV: run,round,cost,cost_error,grad_norm_sq,n_active."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "round", "cost", "cost_error", "grad_norm_sq", "n_active"])
        for run_index, trace in enumerate(traces):
            for rec in trace.records:
                writer.writerow([
                    run_index,
                    rec.round_index,
                    _format_float(rec.cost),
                    _format_float(rec.cost - f_star),
                    _format_float(rec.grad_norm_sq),
                    rec.n_active,
                ])


def _summary_payload(result: "ExperimentResult") -> dict:
    algorithms = {}
    for name, summary in result.summaries.items():
        bound = result.bounds.get(name)
        algorithms[name] = {
            "final_mean_cost_error": summary.final_mean_cost_error,
            "final_variance": summary.final_variance,
            "cep_radius": summary.cep_radius,
            "cep_radius_2d": summary.cep_radius_2d,
            "avg_grad_norm_sq": summary.avg_grad_norm_sq,
            "bound_lhs": None if bound is None else bound.lhs,
            "bound_rhs": None if bound is None else bound.rhs,
            "bound_imputed_cells": None if bound is None else bound.imputed_cells,
        }
    return {
        "experiment": result.config.name,
        "runs": result.config.runs,
        "f_star": result.f_star,
        "smoothness": result.smoothness,
        "theta_star": [float(v) for v in result.theta_star],
        "algorithms": algorithms,
    }


def _finite_or_null(value):
    """Copy of a JSON payload with every non-finite float replaced by ``None``."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _write_json(path: Path, payload: dict) -> None:
    # Strict JSON has no Infinity or NaN; a diverged statistic is written as null.
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def run_experiment(
    config: ExperimentConfig,
    output_dir: str | Path | None = None,
    workers: int = 1,
) -> ExperimentResult:
    """Execute every (algorithm, run) pair of an experiment and write artifacts.

    Jobs are independent pure functions of their derived seeds, so they may
    execute on up to ``workers`` processes; results are collected and
    written in deterministic (algorithm, run) order either way. An
    ``output_dir`` argument overrides the config's and is echoed in
    ``config_resolved.json`` so the written config reproduces this run.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if output_dir is not None:
        config = config.with_overrides(output_dir=str(output_dir))
    out_dir = Path(config.output_dir)
    dataset, theta_true = build_dataset(config)
    theta_star, f_star = least_squares_oracle(dataset)
    smoothness = smoothness_constant(LossKind.QUADRATIC, dataset)
    logger.info(
        "experiment %s: %d agents x %d samples, f_star=%.6g, smoothness=%.6g",
        config.name, dataset.n_agents, config.data.samples_per_agent, f_star, smoothness,
    )

    # One job per (algorithm, run), in that order: each algorithm's runs are consecutive.
    run_configs = [alg for alg in config.algorithms for _ in range(config.runs)]
    run_indices = list(range(config.runs)) * len(config.algorithms)
    job_args = (repeat(LossKind.QUADRATIC), repeat(dataset), run_configs, run_indices)
    # The pool forks all its workers at the first submit; more than one per job idles.
    workers = min(workers, len(run_configs))
    if workers <= 1:
        results = list(map(run_training, *job_args))
    else:
        # Executor.map raises the first failure in job order and cancels the jobs still queued.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_training, *job_args))

    traces: dict[str, list[RunTrace]] = {}
    summaries: dict[str, McSummary] = {}
    bounds: dict[str, BoundCheck] = {}
    for i, alg in enumerate(config.algorithms):
        alg_traces = results[i * config.runs:(i + 1) * config.runs]
        traces[alg.name] = alg_traces
        activations = sum(rec.n_active for trace in alg_traces for rec in trace.records)
        svrg = alg.algorithm is Algorithm.FEDAVG_SVRG
        steps = alg.svrg.snapshots * alg.svrg.inner_steps if svrg else alg.sgd.steps
        logger.info(
            "algorithm %s: %d activations, %d local agent-steps across %d runs",
            alg.name, activations, activations * steps, config.runs,
        )
        if svrg:
            bounds[alg.name] = theorem_bound_check(
                alg_traces,
                smoothness,
                alg_traces[0].initial_cost,
                f_star,
                alg.svrg,
                alg.schedule.rows(alg.rounds, dataset.n_agents),
            )
            logger.info(
                "algorithm %s: stepsize * smoothness (delta*L) %.6g",
                alg.name, alg.svrg.stepsize * smoothness,
            )
        summaries[alg.name] = summarize_runs(alg_traces, f_star)
        logger.info(
            "algorithm %s: final mean cost error %.6g, CEP %.6g",
            alg.name, summaries[alg.name].final_mean_cost_error, summaries[alg.name].cep_radius,
        )

    result = ExperimentResult(
        config=config,
        dataset=dataset,
        theta_true=theta_true,
        theta_star=theta_star,
        f_star=f_star,
        smoothness=smoothness,
        traces=traces,
        summaries=summaries,
        bounds=bounds,
        output_dir=out_dir,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, alg_traces in traces.items():
        write_trace_csv(out_dir / f"trace_{name}.csv", alg_traces, f_star)
    _write_json(out_dir / "summary.json", _summary_payload(result))
    _write_json(out_dir / "config_resolved.json", config.to_dict())
    logger.info("wrote results to %s", out_dir)
    return result
