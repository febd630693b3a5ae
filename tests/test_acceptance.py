"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two benchmark
experiments (cases 1 and 2) execute once per session and are shared by the
criteria that consume them.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fedsim.config import load_builtin_config
from fedsim.experiment import run_experiment
from fedsim.federation import aggregate
from fedsim.local_update import SvrgParams, variance_reduced_grad
from fedsim.losses import (
    Dataset,
    LossKind,
    agent_full_grad,
    component_grad,
    generate_regression_dataset,
)
from fedsim.metrics import bound_initial_term
from conftest import blas_core_name
from oracles import central_diff_grad, enumerate_aggregate_mean

LAST_ROUNDS = 20
DIGESTS = Path(__file__).parent / "data" / "output_digests.json"


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {number:02d}] {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def timed_experiment(name, tmp_path_factory, workers=4):
    config = load_builtin_config(name)
    start = time.perf_counter()
    result = run_experiment(config, output_dir=tmp_path_factory.mktemp(name), workers=workers)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def case1(tmp_path_factory):
    return timed_experiment("paper_case1", tmp_path_factory)


@pytest.fixture(scope="session")
def case2(tmp_path_factory):
    return timed_experiment("paper_case2", tmp_path_factory)


def last_window_variance(summary):
    return float(np.mean(summary.var_cost[-LAST_ROUNDS:]))


def test_criterion_1_variance_reduced_gradient_unbiasedness():
    rng = np.random.default_rng(101)
    dataset, _ = generate_regression_dataset(1, 50, 10, 1.0, rng)
    shard = dataset.shards[0]
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        w = rng.standard_normal(10)
        w_tilde = rng.standard_normal(10)
        mu = agent_full_grad(LossKind.QUADRATIC, shard, w_tilde)
        mean_v = np.mean(
            [
                variance_reduced_grad(LossKind.QUADRATIC, shard, w, w_tilde, mu, i)
                for i in range(shard.n_samples)
            ],
            axis=0,
        )
        worst = max(worst, float(np.max(np.abs(
            mean_v - agent_full_grad(LossKind.QUADRATIC, shard, w)
        ))))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"exhaustive mean vs full gradient, max dev {worst:.3e} "
        f"(tol 1e-12), {elapsed:.2f}s",
    )


def test_criterion_2_aggregation_unbiasedness():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for n_agents in range(2, 9):
        theta = rng.standard_normal(3)
        deltas = [rng.standard_normal(3) for _ in range(n_agents)]
        probs = rng.uniform(0.05, 1.0, n_agents)
        expected = enumerate_aggregate_mean(theta, deltas, probs, aggregate)
        plain_mean = theta + np.mean(deltas, axis=0)
        worst = max(worst, float(np.max(np.abs(expected - plain_mean))))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-12 and elapsed < 1.0,
        f"2^N enumeration vs plain mean for N=2..8, max dev {worst:.3e} "
        f"(tol 1e-12), {elapsed:.2f}s",
    )


def test_criterion_3_convergence_bound_holds(case1):
    result, elapsed = case1
    bound = result.bounds["fedavg_svrg"]
    report(
        3,
        bound.lhs <= bound.rhs and elapsed < 120.0,
        f"lhs {bound.lhs:.4g} <= rhs {bound.rhs:.4g} "
        f"(imputed cells {bound.imputed_cells}), experiment took {elapsed:.1f}s",
    )


def test_criterion_4_rate_scaling(case1):
    result, _ = case1
    params = SvrgParams(snapshots=5, inner_steps=2, stepsize=0.1)
    f0 = result.traces["fedavg_svrg"][0].initial_cost
    ratio_k = bound_initial_term(f0, result.f_star, params, 50) / bound_initial_term(
        f0, result.f_star, params, 100
    )
    svrg = result.summaries["fedavg_svrg"].avg_grad_norm_sq
    sgd = result.summaries["fedavg_prob_sgd"].avg_grad_norm_sq
    report(
        4,
        abs(ratio_k - 2.0) <= 1e-9 and sgd >= 2.0 * svrg,
        f"initial term K=50/K=100 ratio {ratio_k:.12f} (tol 1e-9); "
        f"mean squared gradient norm {svrg:.4g} vs baseline {sgd:.4g} "
        f"(factor {sgd / svrg:.1f} >= 2)",
    )


def test_criterion_5_variance_ordering(case1, case2):
    lines = []
    ok = True
    for label, (result, _) in (("case1", case1), ("case2", case2)):
        svrg = last_window_variance(result.summaries["fedavg_svrg"])
        sgd = last_window_variance(result.summaries["fedavg_prob_sgd"])
        ok = ok and svrg < sgd and svrg <= 0.25 * sgd
        lines.append(f"{label}: {svrg:.4g} vs {sgd:.4g} (ratio {svrg / sgd:.3g})")
    report(5, ok, "last-20-round variance svrg vs prob-sgd, " + "; ".join(lines))


def test_criterion_6_cep_ordering(case1, case2):
    lines = []
    ok = True
    for label, (result, _) in (("case1", case1), ("case2", case2)):
        svrg = result.summaries["fedavg_svrg"].cep_radius
        sgd = result.summaries["fedavg_prob_sgd"].cep_radius
        ok = ok and svrg < sgd and svrg <= 0.25 * sgd
        lines.append(f"{label}: {svrg:.4g} vs {sgd:.4g} (ratio {svrg / sgd:.3g})")
    report(6, ok, "final-iterate CEP svrg vs prob-sgd, " + "; ".join(lines))


def test_criterion_7_convergence_to_optimum(case1):
    result, _ = case1
    error = result.summaries["fedavg_svrg"].final_mean_cost_error
    budget = 0.01 * result.f_star
    report(
        7,
        error <= budget,
        f"mean final cost error {error:.4g} <= 1% of f_star ({budget:.4g})",
    )


def test_criterion_8_uniform_batch_comparison(case1):
    result, _ = case1
    svrg = result.summaries["fedavg_svrg"]
    batch = result.summaries["fedavg_uniform_batch"]
    var_svrg = last_window_variance(svrg)
    var_batch = last_window_variance(batch)
    report(
        8,
        svrg.final_mean_cost_error <= batch.final_mean_cost_error
        and var_svrg < var_batch,
        f"final error {svrg.final_mean_cost_error:.4g} <= "
        f"{batch.final_mean_cost_error:.4g}; last-20 variance "
        f"{var_svrg:.4g} < {var_batch:.4g}",
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    doc = {
        "name": "determinism",
        "data": {"n_agents": 4, "samples_per_agent": 6, "dimension": 3,
                 "noise_std": 1.0, "data_seed": 5},
        "runs": 4,
        "master_seed": 99,
        "theta0": 0.0,
        "schedule": {"kind": "per_agent", "probs": [0.5, 0.8, 1.0, 0.7]},
        "algorithms": [
            {"kind": "fedavg_svrg", "rounds": 6, "snapshots": 2, "inner_steps": 2,
             "stepsize": 0.05},
            {"kind": "fedavg_prob_sgd", "rounds": 6, "base_stepsize": 0.05},
        ],
    }
    path = tmp_path / "determinism.json"
    path.write_text(json.dumps(doc))
    outputs = {}
    for tag, workers in (("a", 1), ("b", 1), ("par", 8)):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "fedsim", "run", str(path),
             "--output-dir", str(out), "--workers", str(workers)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[tag] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.suffix == ".csv"
        }
    identical_reruns = outputs["a"] == outputs["b"]
    identical_parallel = outputs["a"] == outputs["par"]
    report(
        9,
        identical_reruns and identical_parallel,
        f"rerun identical: {identical_reruns}; workers 1 vs 8 identical: "
        f"{identical_parallel} ({len(outputs['a'])} CSV files compared)",
    )


@pytest.mark.parametrize("case", ["case1", "case2"])
def test_outputs_match_pinned_digests(case, request):
    # Pins the bytes of summary.json and every trace CSV of both paper
    # configs, taken from the session runs above at --workers 4.
    result, _ = request.getfixturevalue(case)
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    paths = [result.output_dir / "summary.json", *sorted(result.output_dir.glob("trace_*.csv"))]
    actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert actual == pinned["sha256"][result.config.name], (
        f"{result.config.name}: outputs differ from the digests pinned with numpy "
        f"{pinned['numpy']} and {pinned['blas']}; this is numpy {np.__version__} "
        f"on the OpenBLAS kernel {blas_core_name()}"
    )


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst = 0.0
    for kind in (LossKind.QUADRATIC, LossKind.LOGISTIC):
        dataset, _ = generate_regression_dataset(2, 10, 6, 1.0, rng)
        if kind is LossKind.LOGISTIC:
            labels = dataset.labels
            dataset = Dataset(dataset.features, np.sign(labels) + (labels == 0))
        shards = dataset.shards
        for _ in range(50):
            shard = shards[int(rng.integers(len(shards)))]
            i = int(rng.integers(shard.n_samples))
            theta = rng.standard_normal(6)
            grad = component_grad(kind, shard, i, theta)
            approx = central_diff_grad(kind, shard, i, theta)
            rel = float(
                np.linalg.norm(grad - approx) / max(1.0, np.linalg.norm(approx))
            )
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        10,
        worst <= 1e-5 and elapsed < 1.0,
        f"100 finite-difference probes, worst relative error {worst:.3e} "
        f"(tol 1e-5), {elapsed:.2f}s",
    )
