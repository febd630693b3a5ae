import copy
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedsim.federation as federation
from fedsim.federation import (
    Algorithm,
    ParticipationSchedule,
    RunConfig,
    SgdParams,
    TrainingError,
    _plan_rounds,
    aggregate,
    run_round,
    run_training,
    sample_participation,
)
from fedsim.frozen import ConfigError
from fedsim.local_update import SvrgParams, svrg_local_update
from fedsim.losses import (
    Dataset,
    LossKind,
    generate_regression_dataset,
    global_cost,
    global_grad,
    smoothness_constant,
)
from conftest import blas_core_name
from oracles import direct_activations, enumerate_aggregate_mean, interleaved_run_training

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.json"


def small_dataset(noise=1.0, seed=99, n_agents=2, n_samples=6, dim=2):
    gen = np.random.default_rng(seed)
    return generate_regression_dataset(n_agents, n_samples, dim, noise, gen)


def norms_block(cfg, plan):
    """The rows of ``RunTrace.v_sq_norms`` that ``run_round`` fills for ``plan``'s
    active agents, NaN until written; ``None`` for the baselines."""
    if cfg.algorithm is not Algorithm.FEDAVG_SVRG:
        return None
    return np.full((len(plan[1]), cfg.svrg.snapshots, cfg.svrg.inner_steps), np.nan)


def svrg_config(schedule, rounds=3, snapshots=2, inner_steps=2, stepsize=0.05,
                master_seed=1234, name="svrg", dim=2):
    return RunConfig(
        name=name,
        algorithm=Algorithm.FEDAVG_SVRG,
        rounds=rounds,
        schedule=schedule,
        theta0=np.zeros(dim),
        master_seed=master_seed,
        svrg=SvrgParams(snapshots=snapshots, inner_steps=inner_steps, stepsize=stepsize),
    )


class TestParticipationSchedule:
    def test_constant_one_activates_everyone(self):
        schedule = ParticipationSchedule(1.0)
        rng = np.random.default_rng(0)
        for k in range(5):
            assert sample_participation(schedule.rows(k + 1, 7)[k], rng).all()

    def test_empirical_frequency_near_probability(self):
        schedule = ParticipationSchedule(0.5)
        rng = np.random.default_rng(314)
        draws = np.array([
            sample_participation(schedule.rows(1, 2)[0], rng) for _ in range(10_000)
        ])
        freq = draws.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 0.02)
        joint = np.mean(draws[:, 0] & draws[:, 1])
        assert abs(joint - 0.25) < 0.02

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValueError):
            ParticipationSchedule(0.0)
        with pytest.raises(ValueError):
            ParticipationSchedule(1.5)
        with pytest.raises(ValueError):
            ParticipationSchedule(np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match=r"\[1e-06, 1\]"):
            ParticipationSchedule(5e-7)

    def test_direct_construction_is_validated(self):
        with pytest.raises(ValueError):
            ParticipationSchedule(5.0)
        with pytest.raises(ValueError):
            ParticipationSchedule(np.full((2, 3, 4), 0.5))
        with pytest.raises(ValueError):
            ParticipationSchedule(np.empty((0, 3)))
        with pytest.raises(ValueError):
            ParticipationSchedule(np.array([0.5, np.nan]))

    def test_later_writes_to_the_source_array_do_not_reach_the_schedule(self):
        probs = np.array([0.5, 0.6, 0.7])
        schedule = ParticipationSchedule(probs)
        probs[0] = 2.0
        assert schedule.rows(2, 3)[0].tolist() == [0.5, 0.6, 0.7]
        assert schedule.per_agent.tolist() == [0.5, 0.6, 0.7]

    @pytest.mark.parametrize("round_trip", [
        lambda s: s, lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy,
    ], ids=["built", "pickle", "deepcopy"])
    def test_probabilities_are_read_only(self, round_trip):
        schedule = round_trip(ParticipationSchedule(np.array([0.5, 0.6, 0.7])))
        with pytest.raises(ValueError, match="read-only"):
            schedule.probs[1] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            schedule.per_agent[0] = 2.0
        assert schedule.probs.tolist() == [0.5, 0.6, 0.7]

    def test_matrix_bounds_checked(self):
        schedule = ParticipationSchedule(np.full((2, 3), 0.5))
        rng = np.random.default_rng(0)
        sample_participation(schedule.rows(2, 3)[1], rng)
        with pytest.raises(ValueError):
            sample_participation(schedule.rows(3, 3)[2], rng)
        with pytest.raises(ValueError):
            sample_participation(schedule.rows(1, 4)[0], rng)

    def test_per_agent_length_checked(self):
        schedule = ParticipationSchedule(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            schedule.rows(1, 3)[0]

    @pytest.mark.parametrize("schedule", [
        ParticipationSchedule(0.25),
        ParticipationSchedule(np.array([0.5, 0.75, 1.0])),
        ParticipationSchedule(np.linspace(0.1, 0.9, 15).reshape(5, 3)),
    ], ids=["constant", "per_agent", "per_round"])
    def test_rows_hold_every_round_in_order(self, schedule):
        rows = schedule.rows(4, 3)
        assert rows.shape == (4, 3)
        for k, row in enumerate(rows):
            if schedule.probs.ndim == 0:
                expected = np.full(3, schedule.probs)
            elif schedule.probs.ndim == 1:
                expected = schedule.per_agent
            else:
                expected = schedule.probs[k]
            assert row.tobytes() == expected.tobytes()
        assert schedule.rows(0, 3).shape == (0, 3)


class TestAggregate:
    def test_empty_active_set_keeps_parameter(self):
        theta = np.array([1.0, -2.0])
        out = aggregate(theta, [], [])
        assert np.array_equal(out, theta)
        assert out is not theta

    def test_all_active_unit_probabilities_is_plain_mean(self, rng):
        theta = rng.standard_normal(3)
        deltas = [rng.standard_normal(3) for _ in range(4)]
        out = aggregate(theta, deltas, np.full(4, 4.0))
        assert np.allclose(out, theta + np.mean(deltas, axis=0), atol=1e-14)

    def test_two_agent_enumeration_is_unbiased(self, rng):
        theta = rng.standard_normal(2)
        deltas = [rng.standard_normal(2), rng.standard_normal(2)]
        probs = np.array([0.5, 0.5])
        expected = enumerate_aggregate_mean(theta, deltas, probs, aggregate)
        assert np.allclose(expected, theta + np.mean(deltas, axis=0), atol=1e-12, rtol=0.0)

    def test_rejects_nonpositive_probabilities(self):
        # Probabilities are checked once, when the schedule that supplies
        # the divisors is built.
        with pytest.raises(ValueError):
            ParticipationSchedule(np.array([0.0]))

    def test_rejects_mismatched_divisors(self):
        with pytest.raises(ValueError):
            aggregate(np.zeros(2), [np.zeros(2)], [2.0, 2.0])


class TestRunRound:
    def test_single_round_all_active_is_global_gradient_step(self):
        dataset, _ = small_dataset()
        cfg = svrg_config(
            ParticipationSchedule(1.0),
            rounds=1, snapshots=1, inner_steps=1, stepsize=0.05,
        )
        trace = run_training(LossKind.QUADRATIC, dataset, cfg)
        theta0 = np.zeros(2)
        expected = theta0 - 0.05 * global_grad(LossKind.QUADRATIC, dataset, theta0)
        assert np.allclose(trace.records[0].theta, expected, atol=1e-13)

    def test_round_without_active_agents_carries_state(self):
        dataset, _ = small_dataset()
        cfg = svrg_config(
            ParticipationSchedule(np.array([1e-6, 1e-6])), rounds=1
        )
        trace = run_training(LossKind.QUADRATIC, dataset, cfg)
        rec = trace.records[0]
        assert rec.n_active == 0
        assert np.array_equal(rec.theta, trace.theta0)
        assert rec.cost == trace.initial_cost

    def test_uniform_batch_round_is_plain_batch_mean(self):
        dataset, _ = small_dataset(n_agents=5)
        cfg = RunConfig(
            name="uniform",
            algorithm=Algorithm.FEDAVG_UNIFORM_BATCH,
            rounds=1,
            schedule=ParticipationSchedule(0.5),
            theta0=np.zeros(2),
            master_seed=7,
            sgd=SgdParams(steps=3, base_stepsize=0.1, decay="constant"),
            batch_size=2,
        )
        trace = run_training(LossKind.QUADRATIC, dataset, cfg)
        rec = trace.records[0]
        assert rec.n_active == 2
        (plan,) = _plan_rounds(cfg, dataset.n_agents, 0)
        direct = run_round(LossKind.QUADRATIC, dataset, cfg, trace.theta0, 0, 0, plan, None)
        assert direct.theta.tobytes() == rec.theta.tobytes()
        outputs = direct_activations(LossKind.QUADRATIC, dataset, cfg, 0, [trace.theta0])
        assert [n for _, n in outputs] == np.flatnonzero(rec.indicators).tolist()
        rebuilt = np.zeros(2)
        for delta_w, _ in outputs.values():
            rebuilt = rebuilt + delta_w / 2
        assert np.allclose(rec.theta, rebuilt, atol=1e-14)

    def test_uniform_batch_divides_by_batch_size_exactly(self):
        # (15 / 22) * 22 != 15 in floating point, so a divisor built from a
        # batch probability B/N would change these bits.
        assert (15 / 22) * 22 != 15
        dataset, _ = small_dataset(n_agents=22)
        cfg = RunConfig(
            name="uniform",
            algorithm=Algorithm.FEDAVG_UNIFORM_BATCH,
            rounds=1,
            schedule=ParticipationSchedule(1.0),
            theta0=np.zeros(2),
            master_seed=11,
            sgd=SgdParams(steps=2, base_stepsize=0.1, decay="constant"),
            batch_size=15,
        )
        theta_k = np.array([0.25, -0.5])
        (plan,) = _plan_rounds(cfg, dataset.n_agents, 0)
        rec = run_round(LossKind.QUADRATIC, dataset, cfg, theta_k, 0, 0, plan, None)
        assert rec.n_active == 15
        expected = theta_k.copy()
        outputs = direct_activations(LossKind.QUADRATIC, dataset, cfg, 0, [theta_k])
        for delta_w, _ in outputs.values():
            expected += delta_w / 15
        assert rec.theta.tobytes() == expected.tobytes()

    def test_divergence_carries_identity(self):
        dataset, _ = small_dataset()
        cfg = svrg_config(
            ParticipationSchedule(1.0), stepsize=1e200, name="boom"
        )
        with pytest.raises(TrainingError) as err:
            run_training(LossKind.QUADRATIC, dataset, cfg, run_index=4)
        assert err.value.algorithm == "boom"
        assert err.value.run_index == 4
        assert err.value.round_index == 0
        assert 0 <= err.value.agent < dataset.n_agents


class TestRunTraining:
    @pytest.mark.parametrize("rounds", [0, -1])
    def test_zero_rounds_are_rejected(self, rounds):
        # A run has at least one round, as a config's ``rounds`` must be.
        with pytest.raises(ValueError, match=re.escape(f"rounds: must be >= 1, got {rounds}")):
            svrg_config(ParticipationSchedule(1.0), rounds=rounds)

    def test_one_round_run(self):
        dataset, _ = small_dataset()
        cfg = svrg_config(ParticipationSchedule(1.0), rounds=1)
        trace = run_training(LossKind.QUADRATIC, dataset, cfg)
        assert len(trace.records) == 1
        assert trace.final_theta is trace.records[0].theta
        assert trace.initial_cost == global_cost(LossKind.QUADRATIC, dataset, np.zeros(2))

    def test_same_seed_is_bit_identical(self):
        dataset, _ = small_dataset()
        cfg = svrg_config(ParticipationSchedule(np.array([0.4, 0.8])))
        a = run_training(LossKind.QUADRATIC, dataset, cfg, run_index=1)
        b = run_training(LossKind.QUADRATIC, dataset, cfg, run_index=1)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.theta, rb.theta)
            assert ra.cost == rb.cost
            assert ra.grad_norm_sq == rb.grad_norm_sq
            assert np.array_equal(ra.indicators, rb.indicators)

    def test_full_participation_depends_only_on_gradient_streams(self):
        dataset, _ = small_dataset()
        constant = svrg_config(ParticipationSchedule(1.0))
        per_agent = svrg_config(ParticipationSchedule(np.ones(2)))
        a = run_training(LossKind.QUADRATIC, dataset, constant)
        b = run_training(LossKind.QUADRATIC, dataset, per_agent)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.theta, rb.theta)

    def test_noiseless_all_active_single_step_cost_never_increases(self):
        dataset, _ = small_dataset(noise=0.0, seed=17, n_agents=3, n_samples=8, dim=3)
        bound = smoothness_constant(LossKind.QUADRATIC, dataset)
        cfg = RunConfig(
            name="monotone",
            algorithm=Algorithm.FEDAVG_SVRG,
            rounds=20,
            schedule=ParticipationSchedule(1.0),
            theta0=np.zeros(3),
            master_seed=3,
            svrg=SvrgParams(snapshots=1, inner_steps=1, stepsize=0.9 / bound),
        )
        trace = run_training(LossKind.QUADRATIC, dataset, cfg)
        costs = np.concatenate([[trace.initial_cost], trace.costs])
        assert np.all(np.diff(costs) <= 1e-12)

    def test_inactive_agents_never_run_local_updates(self, monkeypatch):
        dataset, _ = small_dataset(n_agents=4)
        shard_to_agent = {id(shard): n for n, shard in enumerate(dataset.shards)}
        calls = []

        def counting(kind, shard, theta_k, params, rng, v_sq):
            calls.append(shard_to_agent[id(shard)])
            return svrg_local_update(kind, shard, theta_k, params, rng, v_sq)

        monkeypatch.setattr(federation, "svrg_local_update", counting)
        cfg = svrg_config(
            ParticipationSchedule(np.array([1e-6, 0.9, 0.4, 1.0])),
            rounds=6, dim=2,
        )
        trace = run_training(LossKind.QUADRATIC, dataset, cfg)
        active_slots = [
            (k, n)
            for k, rec in enumerate(trace.records)
            for n in np.flatnonzero(rec.indicators)
        ]
        assert len(calls) == len(active_slots)
        assert sorted(calls) == sorted(n for _, n in active_slots)

    def test_parameter_motion_implies_activity(self):
        dataset, _ = small_dataset()
        cfg = svrg_config(ParticipationSchedule(np.array([0.3, 0.6])),
                          rounds=10)
        trace = run_training(LossKind.QUADRATIC, dataset, cfg)
        theta_prev = trace.theta0
        for rec in trace.records:
            if not np.array_equal(rec.theta, theta_prev):
                assert rec.n_active >= 1
            theta_prev = rec.theta

    def test_theta0_dimension_checked(self):
        dataset, _ = small_dataset()
        cfg = svrg_config(ParticipationSchedule(1.0), dim=3)
        with pytest.raises(ValueError, match=re.escape("theta has shape (3,), expected (2,)")):
            run_training(LossKind.QUADRATIC, dataset, cfg)


class TestRunConfigValidation:
    def test_svrg_requires_params(self):
        with pytest.raises(ValueError):
            RunConfig(
                name="x", algorithm=Algorithm.FEDAVG_SVRG, rounds=1,
                schedule=ParticipationSchedule(1.0),
                theta0=np.zeros(2), master_seed=0,
            )

    def test_batch_algorithm_requires_batch_size(self):
        with pytest.raises(ValueError):
            RunConfig(
                name="x", algorithm=Algorithm.FEDAVG_UNIFORM_BATCH, rounds=1,
                schedule=ParticipationSchedule(1.0),
                theta0=np.zeros(2), master_seed=0,
                sgd=SgdParams(steps=1),
            )

    def test_later_writes_to_the_source_array_do_not_reach_the_config(self):
        theta0 = np.zeros(2)
        cfg = RunConfig("x", Algorithm.FEDAVG_PROB_SGD, 1, ParticipationSchedule(1.0), theta0, 0,
                        sgd=SgdParams(steps=1))
        theta0[0] = np.nan
        assert cfg.theta0.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("round_trip", [
        lambda c: c, lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy,
    ], ids=["built", "pickle", "deepcopy"])
    def test_theta0_is_read_only(self, round_trip):
        cfg = round_trip(svrg_config(ParticipationSchedule(1.0)))
        with pytest.raises(ValueError, match="read-only"):
            cfg.theta0[0] = np.nan
        assert cfg.theta0.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("field", ["rounds", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2.0)])
    def test_rejects_non_integer_counts(self, field, value):
        def build(**counts):
            return RunConfig(
                "b", Algorithm.FEDAVG_UNIFORM_BATCH, schedule=ParticipationSchedule(1.0),
                theta0=np.zeros(2), master_seed=0, sgd=SgdParams(steps=1),
                **{"rounds": 2, "batch_size": 2, **counts},
            )

        assert getattr(build(**{field: np.int64(3)}), field) == 3
        message = f"{field}: expected an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2.0)])
    def test_sgd_rejects_non_integer_steps(self, value):
        assert SgdParams(np.int32(3)).steps == 3
        with pytest.raises(ValueError, match=re.escape(f"steps: expected an integer, got {value!r}")):
            SgdParams(value)

    @pytest.mark.parametrize("value, shown", [
        (True, "expected a number, got True"),
        ("0.1", "expected a number, got '0.1'"),
        (None, "expected a number, got None"),
        (0.0, "must be > 0.0, got 0.0"),
        (float("nan"), "must be finite"),
    ])
    def test_sgd_rejects_bad_stepsizes(self, value, shown):
        with pytest.raises(ConfigError) as err:
            SgdParams(3, value)
        assert str(err.value) == f"base_stepsize: {shown}"

    @pytest.mark.parametrize("seed, shown", [
        (1.9, "expected an integer, got 1.9"),
        (True, "expected an integer, got True"),
        (-5, "must be >= 0, got -5"),
        (2**64, f"must be <= {2**64 - 1}, got {2**64}"),
    ])
    def test_master_seed_is_checked_as_config_master_seed(self, seed, shown):
        # The same check and bounds as a config's master_seed, named by the field.
        with pytest.raises(ConfigError) as err:
            svrg_config(ParticipationSchedule(1.0), master_seed=seed)
        assert str(err.value) == f"master_seed: {shown}"

    def test_master_seed_keeps_numpy_integers_as_int(self):
        cfg = svrg_config(ParticipationSchedule(1.0), master_seed=np.uint64(2**64 - 1))
        assert type(cfg.master_seed) is int and cfg.master_seed == 2**64 - 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta0_is_rejected_by_name(self, bad):
        with pytest.raises(ConfigError, match=re.escape("theta0[1]: must be finite")):
            RunConfig("x", Algorithm.FEDAVG_PROB_SGD, 1, ParticipationSchedule(1.0),
                      [0.0, bad], 0, sgd=SgdParams(steps=1))

    def test_decay_modes(self):
        per_round = SgdParams(steps=1, base_stepsize=0.2, decay="per_round")
        assert per_round.stepsize_for_round(0) == pytest.approx(0.2)
        assert per_round.stepsize_for_round(3) == pytest.approx(0.1)
        constant = SgdParams(steps=1, base_stepsize=0.2, decay="constant")
        assert constant.stepsize_for_round(99) == 0.2
        message = "decay: expected 'per_round' or 'constant', got 'bogus'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            SgdParams(steps=1, decay="bogus")


class TestRoundPlanning:
    """run_training draws every round's participation and gradient seeds
    before its first round; run_round replays one round of that plan."""

    PROBS = [0.2, 0.5, 0.9, 0.35, 0.6]

    @staticmethod
    def config(algorithm, probs, rounds=6, master_seed=2024, stepsize=0.05):
        common = dict(
            name=algorithm.value, algorithm=algorithm, rounds=rounds,
            schedule=ParticipationSchedule(np.array(probs)),
            theta0=np.zeros(2), master_seed=master_seed,
        )
        if algorithm is Algorithm.FEDAVG_SVRG:
            svrg = SvrgParams(snapshots=2, inner_steps=3, stepsize=stepsize)
            return RunConfig(**common, svrg=svrg)
        sgd = SgdParams(steps=4, base_stepsize=stepsize, decay="per_round")
        if algorithm is Algorithm.FEDAVG_UNIFORM_BATCH:
            return RunConfig(**common, sgd=sgd, batch_size=2)
        return RunConfig(**common, sgd=sgd)

    def check_run(self, dataset, cfg, run_index):
        """Each round of run_training equals a direct run_round of its plan
        and the oracle. Each active agent's displacement and direction norms
        are a direct solver call with the plan's seed; run_round writes those
        norms into its block, and an SVRG run's norms rows are all of them in
        (round, ascending agent) order."""
        trace = run_training(LossKind.QUADRATIC, dataset, cfg, run_index=run_index)
        reference = interleaved_run_training(LossKind.QUADRATIC, dataset, cfg, run_index)
        plans = _plan_rounds(cfg, dataset.n_agents, run_index)
        assert len(reference) == len(plans) == len(trace.records) == cfg.rounds
        thetas = [trace.theta0] + [rec.theta for rec in trace.records[:-1]]
        direct = direct_activations(LossKind.QUADRATIC, dataset, cfg, run_index, thetas)
        for k, (rec, plan, (indicators, theta, outputs)) in enumerate(
            zip(trace.records, plans, reference)
        ):
            block = norms_block(cfg, plan)
            replayed = run_round(
                LossKind.QUADRATIC, dataset, cfg, thetas[k], k, run_index, plan, block
            )
            for got in (rec, replayed):
                assert got.theta.tobytes() == theta.tobytes()
                assert got.indicators.tobytes() == indicators.tobytes()
            assert (replayed.cost, replayed.grad_norm_sq) == (rec.cost, rec.grad_norm_sq)
            assert [n for j, n in direct if j == k] == list(outputs)
            for j, (n, (want_delta, want_v_sq)) in enumerate(outputs.items()):
                delta_w, v_sq = direct[k, n]
                assert delta_w.tobytes() == want_delta.tobytes()
                if block is None:
                    assert v_sq is None and want_v_sq is None
                else:
                    assert v_sq.tobytes() == want_v_sq.tobytes() == block[j].tobytes()
        if cfg.algorithm is Algorithm.FEDAVG_SVRG:
            rows = [v_sq for _, v_sq in direct.values()]
            shape = (len(rows), cfg.svrg.snapshots, cfg.svrg.inner_steps)
            assert trace.v_sq_norms.shape == shape
            assert trace.v_sq_norms.tobytes() == b"".join(row.tobytes() for row in rows)
        else:
            assert trace.v_sq_norms is None
        return trace

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_run_round_reproduces_each_round_of_run_training(self, algorithm):
        dataset, _ = small_dataset(n_agents=5)
        trace = self.check_run(dataset, self.config(algorithm, self.PROBS), run_index=3)
        assert sum(rec.n_active for rec in trace.records) > 0

    @pytest.mark.parametrize("algorithm", [Algorithm.FEDAVG_SVRG, Algorithm.FEDAVG_PROB_SGD])
    def test_some_rounds_without_active_agents(self, algorithm):
        dataset, _ = small_dataset(n_agents=3)
        cfg = self.config(algorithm, [0.15, 0.2, 0.1], rounds=10)
        trace = self.check_run(dataset, cfg, run_index=1)
        active = [rec.n_active for rec in trace.records]
        assert 0 in active and max(active) > 0

    @pytest.mark.parametrize("algorithm", [Algorithm.FEDAVG_SVRG, Algorithm.FEDAVG_PROB_SGD])
    def test_no_round_has_active_agents(self, algorithm):
        dataset, _ = small_dataset(n_agents=3)
        cfg = self.config(algorithm, [1e-6, 1e-6, 1e-6], rounds=5)
        trace = self.check_run(dataset, cfg, run_index=0)
        assert all(rec.n_active == 0 for rec in trace.records)
        assert all(rec.theta.tobytes() == trace.theta0.tobytes() for rec in trace.records)

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_training_error_names_the_diverging_activation(self, algorithm):
        # Agent 3's samples are scaled so far that its local iterate
        # overflows whenever it runs; the others stay finite. The run fails
        # in the first round that activates agent 3, after later rounds'
        # participation has already been drawn.
        base, _ = small_dataset(n_agents=5)
        scale = np.where(np.arange(base.n_agents) == 3, 1e60, 1.0)
        dataset = Dataset(base.features * scale[:, np.newaxis, np.newaxis], base.labels)
        cfg = self.config(algorithm, self.PROBS, rounds=12, master_seed=5)
        with pytest.raises(TrainingError) as expected:
            interleaved_run_training(LossKind.QUADRATIC, dataset, cfg, run_index=2)
        with pytest.raises(TrainingError) as err:
            run_training(LossKind.QUADRATIC, dataset, cfg, run_index=2)
        assert (err.value.algorithm, err.value.run_index) == (algorithm.value, 2)
        assert (err.value.round_index, err.value.agent, err.value.reason) == (
            expected.value.round_index, expected.value.agent, expected.value.reason,
        )
        assert err.value.agent == 3
        assert err.value.round_index > 0


class TestRunPayload:
    """What run_training hands back, and a worker pickles: per-round state
    and, for SVRG, one norms array (its rows are pinned by
    TestRoundPlanning.check_run); no per-agent traces."""

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_records_hold_no_local_traces(self, algorithm):
        # perfbench's traced repetition reads the field, so it stays, empty,
        # on the records of run_training and of run_round alike.
        dataset, _ = small_dataset(n_agents=5)
        cfg = TestRoundPlanning.config(algorithm, TestRoundPlanning.PROBS)
        trace = run_training(LossKind.QUADRATIC, dataset, cfg, run_index=1)
        assert sum(rec.n_active for rec in trace.records) > 0
        records = list(trace.records)
        theta_k = trace.theta0
        for k, plan in enumerate(_plan_rounds(cfg, dataset.n_agents, 1)):
            records.append(run_round(LossKind.QUADRATIC, dataset, cfg, theta_k, k, 1, plan,
                                     norms_block(cfg, plan)))
            theta_k = records[-1].theta
        assert len(records) == 2 * cfg.rounds
        assert all(rec.local_traces == {} for rec in records)

    @pytest.mark.parametrize("algorithm", [Algorithm.FEDAVG_PROB_SGD, Algorithm.FEDAVG_UNIFORM_BATCH])
    def test_baseline_payload_does_not_grow_with_local_steps(self, algorithm):
        dataset, _ = small_dataset(n_agents=5)
        sizes = []
        for steps in (2, 40):
            base = TestRoundPlanning.config(algorithm, TestRoundPlanning.PROBS)
            cfg = RunConfig(
                base.name, base.algorithm, base.rounds, base.schedule, base.theta0,
                base.master_seed, sgd=SgdParams(steps=steps, base_stepsize=0.05),
                batch_size=base.batch_size,
            )
            trace = run_training(LossKind.QUADRATIC, dataset, cfg, run_index=0)
            assert trace.v_sq_norms is None
            sizes.append(len(pickle.dumps(trace)))
        assert sizes[0] == sizes[1]


class TestGoldenTrace:
    def test_blas_core_name_follows_the_forced_kernel(self):
        # The name the replay's failure message reports must be the kernel
        # that ran; OPENBLAS_CORETYPE forces one for a single process.
        if blas_core_name() == "unknown":
            pytest.skip("numpy's bundled OpenBLAS is not found")
        code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                "from conftest import blas_core_name; print(blas_core_name())")
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "Haswell"

    def test_tiny_run_replays_exactly(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        dataset, _ = small_dataset(
            noise=golden["noise"], seed=golden["data_seed"],
            n_agents=golden["n_agents"], n_samples=golden["samples_per_agent"],
            dim=golden["dimension"],
        )
        cfg = svrg_config(
            ParticipationSchedule(np.array(golden["probs"])),
            rounds=golden["rounds"],
            snapshots=golden["snapshots"],
            inner_steps=golden["inner_steps"],
            stepsize=golden["stepsize"],
            master_seed=golden["master_seed"],
            dim=golden["dimension"],
        )
        trace = run_training(LossKind.QUADRATIC, dataset, cfg)
        # The bits follow the BLAS kernel, so a failure names the one that ran.
        why = f"golden trace differs on the OpenBLAS kernel {blas_core_name()}"
        assert trace.initial_cost == golden["initial_cost"], why
        assert trace.initial_grad_norm_sq == golden["initial_grad_norm_sq"], why
        assert len(trace.records) == len(golden["rounds_data"]), why
        for rec, expected in zip(trace.records, golden["rounds_data"]):
            where = f"round {rec.round_index}: {why}"
            assert rec.cost == expected["cost"], where
            assert rec.grad_norm_sq == expected["grad_norm_sq"], where
            assert list(rec.theta) == expected["theta"], where
            assert [bool(b) for b in rec.indicators] == expected["indicators"], where


class TestReadmeLibrary:
    def test_library_example_runs(self):
        # README's "Library" block uses only the public API, so a renamed or
        # removed export fails here rather than in a reader's session.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {"__name__": "readme_library"}
        exec(compile(code, "README.md#Library", "exec"), namespace)
        assert len(namespace["trace"].records) == namespace["cfg"].rounds
