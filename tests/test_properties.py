"""Property tests over generated inputs (hypothesis).

Examples are derandomized, so every run of the suite checks the same cases.
"""

import json
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fedsim import metrics  # noqa: E402
from fedsim.config import PROB_FLOOR, parse_config  # noqa: E402
from fedsim.federation import RoundRecord, RunTrace, aggregate  # noqa: E402
from fedsim.local_update import (  # noqa: E402
    DivergenceError,
    LocalTrace,
    SvrgParams,
    sgd_local_update,
    svrg_local_update,
)
from fedsim.losses import LossKind  # noqa: E402
from conftest import make_shard  # noqa: E402
from oracles import (  # noqa: E402
    enumerate_aggregate_mean,
    loop_sgd_local_update,
    loop_svrg_local_update,
    per_activation_estimate_v_sq,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
probability = st.floats(PROB_FLOOR, 1.0)


@st.composite
def aggregation_cases(draw):
    n = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 3))
    theta = draw(arrays(np.float64, dim, elements=finite))
    deltas = draw(arrays(np.float64, (n, dim), elements=finite))
    probs = draw(arrays(np.float64, n, elements=st.floats(0.01, 1.0)))
    return theta, list(deltas), probs


@SETTINGS
@given(aggregation_cases())
def test_aggregate_is_unbiased(case):
    theta, deltas, probs = case
    expected = enumerate_aggregate_mean(theta, deltas, probs, aggregate)
    np.testing.assert_allclose(expected, theta + np.mean(deltas, axis=0), rtol=0.0, atol=1e-9)


@st.composite
def schedules(draw, n_agents, max_rounds):
    kind = draw(st.sampled_from(["constant", "per_agent", "per_round", "per_agent_uniform_draw"]))
    if kind == "constant":
        return {"kind": kind, "p": draw(probability)}
    if kind == "per_agent":
        return {"kind": kind, "probs": draw(st.lists(probability, min_size=n_agents, max_size=n_agents))}
    if kind == "per_round":
        row = st.lists(probability, min_size=n_agents, max_size=n_agents)
        return {"kind": kind, "probs": draw(st.lists(row, min_size=max_rounds, max_size=max_rounds + 2))}
    low, high = sorted(draw(st.lists(probability, min_size=2, max_size=2)))
    return {"kind": kind, "low": low, "high": high, "seed": draw(st.integers(0, 2**32))}


@st.composite
def algorithm_entries(draw, n_agents):
    entries = []
    if draw(st.booleans()):
        entries.append({
            "kind": "fedavg_svrg",
            "rounds": draw(st.integers(1, 4)),
            "snapshots": draw(st.integers(1, 3)),
            "inner_steps": draw(st.integers(1, 3)),
            "stepsize": draw(st.floats(1e-6, 1.0)),
        })
    # Without exactly one svrg entry to match work against, local_steps is required.
    steps_optional = len(entries) == 1
    for kind in draw(st.lists(st.sampled_from(["fedavg_prob_sgd", "fedavg_uniform_batch"]),
                              min_size=0 if entries else 1, max_size=3)):
        entry = {"kind": kind, "rounds": draw(st.integers(1, 4))}
        if not steps_optional or draw(st.booleans()):
            entry["local_steps"] = draw(st.integers(1, 5))
        if draw(st.booleans()):
            entry["base_stepsize"] = draw(st.floats(1e-6, 1.0))
        if draw(st.booleans()):
            entry["decay"] = draw(st.sampled_from(["per_round", "constant"]))
        if kind == "fedavg_uniform_batch":
            entry["batch_size"] = draw(st.integers(1, n_agents))
        entries.append(entry)
    for i, entry in enumerate(entries):
        entry["name"] = f"alg{i}"
    return entries


@st.composite
def config_docs(draw):
    n_agents = draw(st.integers(1, 5))
    dimension = draw(st.integers(1, 4))
    algorithms = draw(algorithm_entries(n_agents))
    max_rounds = max(entry["rounds"] for entry in algorithms)
    doc = {
        "data": {
            "n_agents": n_agents,
            "samples_per_agent": draw(st.integers(1, 5)),
            "dimension": dimension,
            "noise_std": draw(st.floats(0.0, 10.0)),
            "data_seed": draw(st.integers(0, 2**32)),
        },
        "runs": draw(st.integers(1, 5)),
        "master_seed": draw(st.integers(0, 2**64 - 1)),
        "theta0": draw(finite | st.lists(finite, min_size=dimension, max_size=dimension)),
        "schedule": draw(schedules(n_agents, max_rounds)),
        "algorithms": algorithms,
    }
    if draw(st.booleans()):
        doc["name"] = draw(st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True))
    return doc


@SETTINGS
@given(config_docs())
def test_parse_config_round_trips(doc):
    resolved = parse_config(doc).to_dict()
    assert parse_config(resolved).to_dict() == resolved
    assert parse_config(json.loads(json.dumps(resolved))).to_dict() == resolved


@st.composite
def solver_cases(draw):
    kind = draw(st.sampled_from(list(LossKind)))
    n_samples = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 4))
    features = draw(arrays(np.float64, (n_samples, dim), elements=finite))
    if kind is LossKind.LOGISTIC:
        labels = draw(arrays(np.float64, n_samples, elements=st.sampled_from([-1.0, 1.0])))
    else:
        labels = draw(arrays(np.float64, n_samples, elements=finite))
    theta = draw(arrays(np.float64, dim, elements=finite))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    # Large stepsizes drive the update into overflow, so divergence is covered too.
    stepsize = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 10.0, 1e100]))
    return kind, make_shard(features, labels), theta, shape, stepsize, draw(st.integers(0, 2**32))


def _outcome(solver, *args):
    try:
        trace = solver(*args)
    except DivergenceError as exc:
        return ("diverged", exc.snapshot, exc.step)
    return ("ok", trace.delta_w.tobytes(), trace.v_sq_norms.tobytes())


@SETTINGS
@given(solver_cases())
def test_solvers_match_scalar_loops(case):
    kind, shard, theta, (snapshots, inner_steps), stepsize, seed = case
    params = SvrgParams(snapshots, inner_steps, stepsize)
    rngs = [np.random.default_rng(seed) for _ in range(4)]
    assert _outcome(svrg_local_update, kind, shard, theta, params, rngs[0]) == _outcome(
        loop_svrg_local_update, kind, shard, theta, params, rngs[1]
    )
    steps = snapshots * inner_steps
    assert _outcome(sgd_local_update, kind, shard, theta, steps, stepsize, rngs[2]) == _outcome(
        loop_sgd_local_update, kind, shard, theta, steps, stepsize, rngs[3]
    )


@st.composite
def bound_statistics_cases(draw):
    runs = draw(st.integers(1, 4))
    rounds = draw(st.integers(2, 5))
    n_agents = draw(st.integers(1, 5))
    params = SvrgParams(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.floats(1e-3, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    indicators = rng.random((runs, rounds, n_agents)) < draw(st.sampled_from([0.2, 0.5, 0.9]))
    # One round silent in every run, and in another round one agent that no run observed.
    silent_round, unseen_round = draw(st.permutations(range(rounds)))[:2]
    indicators[:, silent_round] = False
    indicators[:, unseen_round, draw(st.integers(0, n_agents - 1))] = False
    # Norms spread over twelve decades, so the order of the additions shows in the bits.
    shape = (int(indicators.sum()), params.snapshots, params.inner_steps)
    norms = rng.random(shape) * 10.0 ** rng.integers(-6, 7, shape)
    probs = rng.uniform(PROB_FLOOR, 1.0, (rounds, n_agents))
    grad_norms = rng.random((runs, rounds + 1))
    return indicators, norms, probs, grad_norms, params


def _streamed_and_per_activation(indicators, norms, grad_norms):
    """The same runs twice: as run_training keeps them (one norms array per
    run, no local traces) and with one LocalTrace per activation."""
    streamed, per_activation = [], []
    start = 0
    for run, grads in zip(indicators, grad_norms):
        run_norms = norms[start:start + int(run.sum())]
        start += len(run_norms)
        rows = iter(run_norms)
        records, local_records = [], []
        for k, active in enumerate(run):
            state = dict(round_index=k, indicators=active, theta=np.zeros(1),
                         cost=0.0, grad_norm_sq=float(grads[k + 1]))
            locals_ = {n: LocalTrace(v_sq_norms=next(rows), delta_w=np.zeros(1))
                       for n in np.flatnonzero(active).tolist()}
            records.append(RoundRecord(**state))
            local_records.append(RoundRecord(**state, local_traces=locals_))
        streamed.append(RunTrace(np.zeros(1), 3.0, float(grads[0]), records, run_norms))
        per_activation.append(RunTrace(np.zeros(1), 3.0, float(grads[0]), local_records))
    return streamed, per_activation


@SETTINGS
@given(bound_statistics_cases())
def test_streamed_bound_statistics_match_per_activation_loop(case):
    indicators, norms, probs, grad_norms, params = case
    _, rounds, n_agents = indicators.shape
    streamed, per_activation = _streamed_and_per_activation(indicators, norms, grad_norms)

    est, imputed = metrics._estimate_v_sq(streamed, rounds, n_agents, params)
    want_est, want_imputed = per_activation_estimate_v_sq(per_activation, rounds, n_agents, params)
    assert est.tobytes() == want_est.tobytes()
    assert imputed == want_imputed >= n_agents + 1

    got = metrics.theorem_bound_check(streamed, 2.5, 3.0, 1.0, params, probs)
    with mock.patch.object(metrics, "_estimate_v_sq", per_activation_estimate_v_sq):
        want = metrics.theorem_bound_check(per_activation, 2.5, 3.0, 1.0, params, probs)
    assert (got.init_term, got.drift_term, got.variance_term, got.imputed_cells) == (
        want.init_term, want.drift_term, want.variance_term, want.imputed_cells,
    )
    assert (got.lhs, got.rhs) == (want.lhs, want.rhs)
