import re

import numpy as np
import pytest

from fedsim.federation import (
    Algorithm,
    ParticipationSchedule,
    RoundRecord,
    RunConfig,
    RunTrace,
    SgdParams,
    run_round,
    run_training,
)
from fedsim.local_update import SvrgParams
from fedsim.losses import LossKind, generate_regression_dataset, global_cost, least_squares_oracle
from fedsim.metrics import (
    _estimate_v_sq,
    bound_initial_term,
    cep_radius,
    cep_radius_2d,
    cost_error_trace,
    mc_variance_trace,
    mean_sq_grad_norm,
    summarize_runs,
    theorem_bound_check,
)
from oracles import per_activation_estimate_v_sq, two_pass_variance


def synthetic_traces(rng, runs=3, rounds=4, n_agents=3, snapshots=3, inner_steps=4,
                     silent_agent=None):
    """Handmade traces with random squared norms and random participation."""
    traces = []
    for _ in range(runs):
        records = []
        rows = []
        for k in range(rounds):
            indicators = rng.random(n_agents) < 0.6
            if silent_agent is not None:
                indicators[silent_agent] = False
            rows.extend(rng.random((snapshots, inner_steps)) for _ in np.flatnonzero(indicators))
            records.append(RoundRecord(
                round_index=k,
                indicators=indicators,
                theta=rng.standard_normal(2),
                cost=float(rng.random()),
                grad_norm_sq=float(rng.random()),
            ))
        traces.append(RunTrace(
            theta0=np.zeros(2),
            initial_cost=2.0,
            initial_grad_norm_sq=float(rng.random()),
            records=records,
            v_sq_norms=np.array(rows).reshape(len(rows), snapshots, inner_steps),
        ))
    return traces


def activation_norms(trace):
    """``{(round, agent): row}``: the trace's norms rows, dealt out over its
    indicator matrix one round, then one agent, at a time."""
    cells = {}
    rows = iter(trace.v_sq_norms)
    for k, rec in enumerate(trace.records):
        for n in range(len(rec.indicators)):
            if rec.indicators[n]:
                cells[k, n] = next(rows)
    assert next(rows, None) is None
    return cells


def oracle_bound_terms(traces, smoothness, params, probs):
    """Literal nested-loop evaluation of the two trace-driven bound terms."""
    rounds, n_agents = probs.shape
    s_count, m_count = params.snapshots, params.inner_steps
    delta = params.stepsize

    norms = [activation_norms(t) for t in traces]
    est = np.zeros((rounds, n_agents, s_count, m_count))
    for k in range(rounds):
        observed = []
        for n in range(n_agents):
            cells = [run[k, n] for run in norms if (k, n) in run]
            if cells:
                est[k, n] = sum(cells) / len(cells)
                observed.append(n)
        for n in range(n_agents):
            if n not in observed:
                est[k, n] = (
                    sum(est[k, o] for o in observed) / len(observed)
                    if observed else 0.0
                )

    nested = 0.0
    for k in range(rounds):
        for n in range(n_agents):
            for s in range(s_count):
                for m in range(m_count):
                    for s2 in range(s + 1):
                        for m2 in range(m):
                            nested += delta**2 * est[k, n, s2, m2]
    drift = (
        delta**2 * smoothness**2 * (m_count - 1) * (s_count - 1)
        / (rounds * s_count * m_count * n_agents)
    ) * nested

    weighted = 0.0
    for k in range(rounds):
        for n in range(n_agents):
            weighted += est[k, n].sum() / probs[k, n]
    variance = delta * smoothness / (rounds * n_agents) * weighted
    return drift, variance


def tiny_experiment(rounds=5, runs=3, snapshots=2, inner_steps=3, stepsize=0.05,
                    probs=(0.6, 0.9)):
    gen = np.random.default_rng(23)
    dataset, _ = generate_regression_dataset(len(probs), 8, 2, 1.0, gen)
    schedule = ParticipationSchedule(np.array(probs))
    cfg = RunConfig(
        name="svrg", algorithm=Algorithm.FEDAVG_SVRG, rounds=rounds,
        schedule=schedule, theta0=np.zeros(2), master_seed=5,
        svrg=SvrgParams(snapshots, inner_steps, stepsize),
    )
    traces = [
        run_training(LossKind.QUADRATIC, dataset, cfg, run_index=r) for r in range(runs)
    ]
    probs_matrix = np.vstack([schedule.rows(k + 1, len(probs))[k] for k in range(rounds)])
    return dataset, cfg, traces, probs_matrix


class TestCostErrorTrace:
    def test_run_started_at_optimum_is_all_zero(self):
        gen = np.random.default_rng(31)
        dataset, theta_true = generate_regression_dataset(2, 6, 2, 0.0, gen)
        theta_star, f_star = least_squares_oracle(dataset)
        cfg = RunConfig(
            name="svrg", algorithm=Algorithm.FEDAVG_SVRG, rounds=4,
            schedule=ParticipationSchedule(1.0),
            theta0=theta_star, master_seed=2,
            svrg=SvrgParams(2, 2, 0.05),
        )
        trace = run_training(LossKind.QUADRATIC, dataset, cfg)
        errors = cost_error_trace([trace], f_star)
        assert np.allclose(errors, 0.0, atol=1e-18)

    def test_single_run_is_cost_column_minus_optimum(self, rng):
        traces = synthetic_traces(rng, runs=1)
        errors = cost_error_trace(traces, 0.25)
        assert np.allclose(errors[0], traces[0].costs - 0.25, atol=1e-16)

    def test_matches_recomputed_costs(self):
        dataset, _, traces, _ = tiny_experiment()
        _, f_star = least_squares_oracle(dataset)
        errors = cost_error_trace(traces, f_star)
        for r, trace in enumerate(traces):
            for k, rec in enumerate(trace.records):
                recomputed = global_cost(LossKind.QUADRATIC, dataset, rec.theta)
                assert abs(errors[r, k] - (recomputed - f_star)) <= 1e-12


class TestMcVarianceTrace:
    def test_identical_runs_have_zero_variance(self):
        costs = np.tile(np.array([3.0, 2.0, 1.5]), (4, 1))
        assert np.array_equal(mc_variance_trace(costs), np.zeros(3))

    def test_two_point_example(self):
        costs = np.array([[0.0], [2.0]])
        assert mc_variance_trace(costs)[0] == pytest.approx(2.0, abs=1e-15)

    def test_matches_two_pass_oracle(self, rng):
        costs = rng.random((6, 5))
        got = mc_variance_trace(costs)
        for k in range(5):
            assert got[k] == pytest.approx(two_pass_variance(costs[:, k]), abs=1e-12)

    def test_invariant_under_constant_shift(self, rng):
        costs = rng.random((5, 4))
        shifted = costs + 17.25
        assert np.allclose(
            mc_variance_trace(costs), mc_variance_trace(shifted), atol=1e-12
        )

    def test_requires_two_runs(self):
        with pytest.raises(ValueError):
            mc_variance_trace(np.ones((1, 4)))


class TestCepRadius:
    def test_coincident_points(self):
        assert cep_radius([np.array([1.0, 2.0])] * 5) == 0.0

    def test_symmetric_one_dimensional_points(self):
        pts = [np.array([0.0]), np.array([0.0]), np.array([2.0]), np.array([2.0])]
        assert cep_radius(pts) == pytest.approx(1.0, abs=1e-15)

    def test_median_coverage_counting(self, rng):
        pts = [rng.standard_normal(3) for _ in range(20)]
        radius = cep_radius(pts)
        center = np.mean(pts, axis=0)
        dists = np.sort([np.linalg.norm(p - center) for p in pts])
        assert np.sum(dists <= radius) >= 10
        assert np.sum(dists <= dists[9] - 1e-12) < 10

    def test_translation_invariance(self, rng):
        pts = [rng.standard_normal(4) for _ in range(7)]
        shift = rng.standard_normal(4)
        shifted = [p + shift for p in pts]
        assert cep_radius(pts) == pytest.approx(cep_radius(shifted), abs=1e-12)

    def test_2d_projection_uses_first_two_coordinates(self, rng):
        pts = [rng.standard_normal(5) for _ in range(9)]
        projected = [p[:2] for p in pts]
        assert cep_radius_2d(pts) == pytest.approx(cep_radius(projected), abs=1e-15)


class TestBoundCheck:
    def test_initial_term_halves_when_rounds_double(self):
        params = SvrgParams(5, 2, 0.1)
        ratio = bound_initial_term(14.0, 1.0, params, 50) / bound_initial_term(
            14.0, 1.0, params, 100
        )
        assert abs(ratio - 2.0) <= 1e-9

    def test_drift_term_vanishes_without_inner_history(self):
        for snapshots, inner_steps in ((1, 3), (3, 1)):
            _, cfg, traces, probs = tiny_experiment(
                snapshots=snapshots, inner_steps=inner_steps
            )
            check = theorem_bound_check(traces, 4.0, 2.0, 1.0, cfg.svrg, probs)
            assert check.drift_term == 0.0

    def test_terms_match_nested_loop_oracle(self, rng):
        params = SvrgParams(3, 4, 0.07)
        traces = synthetic_traces(rng, runs=3, rounds=4, n_agents=3,
                                  snapshots=3, inner_steps=4, silent_agent=2)
        probs = rng.uniform(0.3, 1.0, size=(4, 3))
        smoothness = 5.5
        check = theorem_bound_check(traces, smoothness, 2.0, 1.0, params, probs)
        drift, variance = oracle_bound_terms(traces, smoothness, params, probs)
        assert check.drift_term == pytest.approx(drift, rel=1e-12)
        assert check.variance_term == pytest.approx(variance, rel=1e-12)
        never_active = sum(
            all(not t.records[k].indicators[n] for t in traces)
            for k in range(4)
            for n in range(3)
        )
        assert never_active >= 4  # agent 2 silent in every round
        assert check.imputed_cells == never_active
        assert check.rhs == pytest.approx(
            check.init_term + drift + variance, rel=1e-12
        )

    def test_real_runs_match_per_activation_reference(self):
        dataset, cfg, traces, probs = tiny_experiment(rounds=8, runs=3, probs=(0.3, 0.9))
        replayed = []
        for r, trace in enumerate(traces):
            records = []
            theta_k = trace.theta0
            for k in range(cfg.rounds):
                records.append(run_round(LossKind.QUADRATIC, dataset, cfg, theta_k, k, run_index=r))
                theta_k = records[-1].theta
            replayed.append(RunTrace(trace.theta0, trace.initial_cost,
                                     trace.initial_grad_norm_sq, records))
        est, imputed = _estimate_v_sq(traces, 8, 2, cfg.svrg)
        want_est, want_imputed = per_activation_estimate_v_sq(replayed, 8, 2, cfg.svrg)
        assert est.tobytes() == want_est.tobytes()
        assert imputed == want_imputed

    def test_lhs_matches_recorded_gradient_norms(self, rng):
        traces = synthetic_traces(rng, runs=2, rounds=3)
        expected = np.mean([
            np.mean([t.initial_grad_norm_sq] + [r.grad_norm_sq for r in t.records[:-1]])
            for t in traces
        ])
        assert mean_sq_grad_norm(traces) == pytest.approx(expected, rel=1e-14)

    def test_bound_holds_on_small_run(self):
        dataset, cfg, traces, probs = tiny_experiment(rounds=10, runs=4)
        from fedsim.losses import smoothness_constant

        smoothness = smoothness_constant(LossKind.QUADRATIC, dataset)
        _, f_star = least_squares_oracle(dataset)
        check = theorem_bound_check(
            traces, smoothness, traces[0].initial_cost, f_star, cfg.svrg, probs
        )
        assert check.lhs <= check.rhs

    def test_shape_mismatches_rejected(self, rng):
        params = SvrgParams(3, 4, 0.1)
        traces = synthetic_traces(rng, snapshots=2, inner_steps=2)
        with pytest.raises(ValueError):
            theorem_bound_check(traces, 1.0, 2.0, 1.0, params, np.full((4, 3), 0.5))
        good = synthetic_traces(rng, snapshots=3, inner_steps=4)
        with pytest.raises(ValueError):
            theorem_bound_check(good, 1.0, 2.0, 1.0, params, np.full((9, 3), 0.5))


class TestBoundStatisticsValidation:
    """Each trace is checked once: round count, indicator width and the
    shape of its norms array."""

    PARAMS = SvrgParams(3, 4, 0.1)

    def check(self, traces, rounds=4, n_agents=3):
        probs = np.full((rounds, n_agents), 0.5)
        return theorem_bound_check(traces, 1.0, 2.0, 1.0, self.PARAMS, probs)

    def test_baseline_run_rejected(self):
        dataset, cfg, traces, probs = tiny_experiment(rounds=3, runs=1)
        sgd = RunConfig(
            name="sgd", algorithm=Algorithm.FEDAVG_PROB_SGD, rounds=3,
            schedule=cfg.schedule, theta0=np.zeros(2), master_seed=5,
            sgd=SgdParams(steps=6),
        )
        baseline = run_training(LossKind.QUADRATIC, dataset, sgd)
        active = sum(rec.n_active for rec in baseline.records)
        with pytest.raises(ValueError, match=re.escape(f"shape None, expected ({active}, 2, 3)")):
            theorem_bound_check([baseline], 1.0, 2.0, 1.0, cfg.svrg, probs)

    @pytest.mark.parametrize("cut", [lambda a: a[:-1], lambda a: a[:, :2], lambda a: a[0]])
    def test_misshaped_norms_rejected(self, rng, cut):
        traces = synthetic_traces(rng)
        expected = traces[0].v_sq_norms.shape
        traces[0].v_sq_norms = cut(traces[0].v_sq_norms)
        bad = traces[0].v_sq_norms.shape
        with pytest.raises(ValueError, match=re.escape(f"shape {bad}, expected {expected}")):
            self.check(traces)

    def test_round_count_checked(self, rng):
        traces = synthetic_traces(rng, rounds=3)
        with pytest.raises(ValueError, match="trace has 3 rounds, expected 4"):
            self.check(traces)

    def test_indicator_width_checked(self, rng):
        traces = synthetic_traces(rng, n_agents=2)
        with pytest.raises(ValueError, match=re.escape("covers [2] agents, expected 3")):
            self.check(traces)


class TestSummarize:
    def test_summary_fields_are_consistent(self):
        dataset, cfg, traces, probs = tiny_experiment(rounds=6, runs=3)
        _, f_star = least_squares_oracle(dataset)
        summary = summarize_runs(traces, f_star)
        errors = cost_error_trace(traces, f_star)
        assert np.allclose(summary.mean_cost_error, errors.mean(axis=0), atol=1e-15)
        assert np.allclose(summary.var_cost, mc_variance_trace(errors), atol=1e-15)
        assert summary.cep_radius == cep_radius([t.final_theta for t in traces])
        assert summary.final_mean_cost_error == pytest.approx(
            float(errors.mean(axis=0)[-1]), rel=1e-14
        )

    def test_single_run_has_no_variance(self):
        _, _, traces, _ = tiny_experiment(runs=1)
        summary = summarize_runs(traces[:1], 0.9)
        assert summary.var_cost is None
        assert summary.final_variance is None
        assert summary.cep_radius == 0.0
