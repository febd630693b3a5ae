import re

import numpy as np
import pytest

import fedsim.local_update as local_update
from conftest import make_shard, random_shard
from fedsim.federation import (
    Algorithm,
    ParticipationSchedule,
    RunConfig,
    SgdParams,
    run_training,
)
from fedsim.frozen import ConfigError
from fedsim.local_update import (
    DivergenceError,
    SvrgParams,
    sgd_local_update,
    svrg_local_update,
    variance_reduced_grad,
)
from fedsim.losses import (
    Dataset,
    LossKind,
    agent_full_grad,
    component_grad,
    generate_regression_dataset,
    least_squares_oracle,
)
from fedsim.seeding import derive_rng
from oracles import loop_sgd_local_update, loop_svrg_local_update, svrg_outputs


class FixedIndexRng:
    """Stub generator that always picks the same sample."""

    def __init__(self, index):
        self.index = index

    def integers(self, n, size=None):
        assert self.index < n
        return self.index if size is None else np.full(size, self.index)


class TestSvrgParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SvrgParams(snapshots=0, inner_steps=1, stepsize=0.1)
        with pytest.raises(ValueError):
            SvrgParams(snapshots=1, inner_steps=0, stepsize=0.1)
        with pytest.raises(ValueError):
            SvrgParams(snapshots=1, inner_steps=1, stepsize=-0.1)
        with pytest.raises(ValueError):
            SvrgParams(snapshots=1, inner_steps=1, stepsize=float("nan"))
        for value in (True, "0.1", None):
            message = f"stepsize: expected a number, got {value!r}"
            with pytest.raises(ConfigError, match=re.escape(message)):
                SvrgParams(snapshots=1, inner_steps=1, stepsize=value)

    @pytest.mark.parametrize("field", ["snapshots", "inner_steps"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(3.0)])
    def test_rejects_non_integer_counts(self, field, value):
        fields = {"snapshots": 2, "inner_steps": 3, "stepsize": 0.1}
        assert getattr(SvrgParams(**{**fields, field: np.int64(4)}), field) == 4
        message = f"{field}: expected an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SvrgParams(**{**fields, field: value})


class TestVarianceReducedGrad:
    def test_equal_points_return_anchor_gradient(self, rng):
        shard = random_shard(rng, n_samples=5, dim=3)
        w = rng.standard_normal(3)
        mu = agent_full_grad(LossKind.QUADRATIC, shard, w)
        v = variance_reduced_grad(LossKind.QUADRATIC, shard, w, w, mu, 2)
        assert np.array_equal(v, mu)

    @pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
    def test_exhaustive_mean_is_full_gradient(self, kind, rng):
        shard = random_shard(rng, n_samples=12, dim=4,
                             pm_one_labels=kind is LossKind.LOGISTIC)
        w = rng.standard_normal(4)
        w_tilde = rng.standard_normal(4)
        mu = agent_full_grad(kind, shard, w_tilde)
        stack = [
            variance_reduced_grad(kind, shard, w, w_tilde, mu, i)
            for i in range(shard.n_samples)
        ]
        assert np.allclose(
            np.mean(stack, axis=0),
            agent_full_grad(kind, shard, w),
            atol=1e-12, rtol=0.0,
        )

    def test_matches_hand_expansion_two_samples(self):
        rows = np.array([[1.0, 2.0], [3.0, -1.0]])
        labels = np.array([1.0, -2.0])
        shard = make_shard(rows, labels)
        w = np.array([0.4, -0.7])
        w_tilde = np.array([-0.2, 0.3])
        # Hand expansion of the two-sample quadratic case.
        grad_at = lambda row, label, x: 2.0 * row * (row @ x - label)
        mu = 0.5 * (grad_at(rows[0], labels[0], w_tilde) + grad_at(rows[1], labels[1], w_tilde))
        for i in range(2):
            expected = grad_at(rows[i], labels[i], w) - grad_at(rows[i], labels[i], w_tilde) + mu
            got = variance_reduced_grad(
                LossKind.QUADRATIC, shard, w, w_tilde,
                agent_full_grad(LossKind.QUADRATIC, shard, w_tilde), i,
            )
            assert np.allclose(got, expected, atol=1e-13)


class TestSvrgLocalUpdate:
    def test_zero_stepsize_never_moves(self, rng):
        shard = random_shard(rng, n_samples=6, dim=3)
        theta = rng.standard_normal(3)
        params = SvrgParams(snapshots=3, inner_steps=4, stepsize=0.0)
        delta_w, v_sq = svrg_outputs(
            svrg_local_update, LossKind.QUADRATIC, shard, theta, params, rng
        )
        assert np.array_equal(delta_w, np.zeros(3))
        mu = agent_full_grad(LossKind.QUADRATIC, shard, theta)
        assert np.allclose(v_sq, float(mu @ mu), rtol=1e-14)

    def test_fixed_point_at_exact_optimum(self):
        gen = np.random.default_rng(3)
        dataset, _ = generate_regression_dataset(1, 10, 3, 0.0, gen)
        theta_star, _ = least_squares_oracle(dataset)
        params = SvrgParams(snapshots=2, inner_steps=3, stepsize=0.05)
        delta_w, v_sq = svrg_outputs(
            svrg_local_update, LossKind.QUADRATIC, dataset.shards[0], theta_star, params,
            np.random.default_rng(0),
        )
        assert np.allclose(delta_w, np.zeros(3), atol=1e-10)
        assert np.all(v_sq <= 1e-20)

    def test_single_snapshot_single_step_is_full_gradient_step(self, rng):
        shard = random_shard(rng, n_samples=7, dim=4)
        theta = rng.standard_normal(4)
        params = SvrgParams(snapshots=1, inner_steps=1, stepsize=0.3)
        for sample in range(shard.n_samples):
            delta_w, _ = svrg_outputs(
                svrg_local_update, LossKind.QUADRATIC, shard, theta, params, FixedIndexRng(sample)
            )
            expected = -0.3 * agent_full_grad(LossKind.QUADRATIC, shard, theta)
            # (theta - step) - theta re-rounds the last bit, so not bitwise.
            assert np.allclose(delta_w, expected, atol=1e-14, rtol=1e-12)

    def test_first_step_of_each_cycle_uses_anchor_gradient(self, rng):
        shard = random_shard(rng, n_samples=6, dim=3)
        theta = rng.standard_normal(3)
        params = SvrgParams(snapshots=3, inner_steps=2, stepsize=0.1)
        _, v_sq = svrg_outputs(
            svrg_local_update, LossKind.QUADRATIC, shard, theta, params, FixedIndexRng(2)
        )
        # Replay the same deterministic path step by step.
        w_tilde = theta
        for s in range(params.snapshots):
            mu = agent_full_grad(LossKind.QUADRATIC, shard, w_tilde)
            assert v_sq[s, 0] == float(mu @ mu)
            w = w_tilde
            for _ in range(params.inner_steps):
                v = variance_reduced_grad(LossKind.QUADRATIC, shard, w, w_tilde, mu, 2)
                w = w - params.stepsize * v
            w_tilde = w

    def test_trace_shape_and_triangle_inequality(self, rng):
        shard = random_shard(rng, n_samples=9, dim=5)
        theta = rng.standard_normal(5)
        params = SvrgParams(snapshots=3, inner_steps=4, stepsize=0.05)
        delta_w, v_sq = svrg_outputs(
            svrg_local_update, LossKind.QUADRATIC, shard, theta, params, rng
        )
        assert v_sq.shape == (3, 4)
        assert np.all(v_sq >= 0.0)
        assert np.all(np.isfinite(v_sq))
        budget = params.stepsize * np.sum(np.sqrt(v_sq))
        assert np.linalg.norm(delta_w) <= budget * (1.0 + 1e-12)

    def test_identical_rng_state_is_bit_identical(self, rng):
        shard = random_shard(rng, n_samples=8, dim=4)
        theta = rng.standard_normal(4)
        params = SvrgParams(snapshots=2, inner_steps=5, stepsize=0.1)
        a = svrg_outputs(
            svrg_local_update, LossKind.QUADRATIC, shard, theta, params, derive_rng(1, "t", 0)
        )
        b = svrg_outputs(
            svrg_local_update, LossKind.QUADRATIC, shard, theta, params, derive_rng(1, "t", 0)
        )
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_divergence_reports_position(self, rng):
        shard = random_shard(rng, n_samples=5, dim=3)
        theta = rng.standard_normal(3)
        params = SvrgParams(snapshots=2, inner_steps=4, stepsize=1e200)
        with pytest.raises(DivergenceError) as err:
            svrg_outputs(svrg_local_update, LossKind.QUADRATIC, shard, theta, params,
                         derive_rng(5, "d", 0))
        assert err.value.snapshot >= 0
        assert err.value.step >= 0
        assert "snapshot" in str(err.value)
        with pytest.raises(DivergenceError) as ref:
            svrg_outputs(loop_svrg_local_update, LossKind.QUADRATIC, shard, theta, params,
                         derive_rng(5, "d", 0))
        assert (err.value.snapshot, err.value.step) == (ref.value.snapshot, ref.value.step)

    def test_variance_vanishes_at_anchor_but_not_for_raw_sgd(self):
        gen = np.random.default_rng(11)
        dataset, _ = generate_regression_dataset(1, 20, 4, 1.0, gen)
        shard = dataset.shards[0]
        theta_star, _ = least_squares_oracle(dataset)
        mu = agent_full_grad(LossKind.QUADRATIC, shard, theta_star)
        anchored = np.array([
            variance_reduced_grad(LossKind.QUADRATIC, shard, theta_star, theta_star, mu, i)
            for i in range(shard.n_samples)
        ])
        # Every anchored draw equals the full gradient; np.var's internal
        # mean rounding leaves at most ~1e-64 residue.
        assert float(np.var(anchored, axis=0).sum()) < 1e-30
        raw = np.array([
            component_grad(LossKind.QUADRATIC, shard, i, theta_star)
            for i in range(shard.n_samples)
        ])
        assert float(np.var(raw, axis=0).sum()) > 0.0


class TestSgdLocalUpdate:
    def test_zero_stepsize_never_moves(self, rng):
        shard = random_shard(rng, n_samples=6, dim=3)
        theta = rng.standard_normal(3)
        delta_w = sgd_local_update(LossKind.QUADRATIC, shard, theta, 5, 0.0, rng)
        assert np.array_equal(delta_w, np.zeros(3))

    def test_single_forced_step(self, rng):
        shard = random_shard(rng, n_samples=6, dim=3)
        theta = rng.standard_normal(3)
        delta_w = sgd_local_update(
            LossKind.QUADRATIC, shard, theta, 1, 0.2, FixedIndexRng(3)
        )
        expected = -0.2 * component_grad(LossKind.QUADRATIC, shard, 3, theta)
        assert np.allclose(delta_w, expected, atol=1e-14, rtol=1e-12)

    def test_expected_single_step_is_full_gradient_step(self, rng):
        shard = random_shard(rng, n_samples=7, dim=4)
        theta = rng.standard_normal(4)
        deltas = [
            sgd_local_update(LossKind.QUADRATIC, shard, theta, 1, 0.1, FixedIndexRng(i))
            for i in range(shard.n_samples)
        ]
        assert np.allclose(
            np.mean(deltas, axis=0),
            -0.1 * agent_full_grad(LossKind.QUADRATIC, shard, theta),
            atol=1e-12, rtol=0.0,
        )

    def test_divergence_raises(self, rng):
        shard = random_shard(rng, n_samples=5, dim=3)
        theta = rng.standard_normal(3)
        with pytest.raises(DivergenceError):
            sgd_local_update(LossKind.QUADRATIC, shard, theta, 10, 1e200, rng)


def _positions(solver, *args):
    with pytest.raises(DivergenceError) as err:
        solver(*args)
    return err.value.snapshot, err.value.step


class TestSolversMatchLoops:
    """The solvers against their one-draw-per-step loops in ``oracles``, bit for bit.

    Each SVRG side writes its direction norms into an array of a different
    fill, so equal arrays show that both wrote every entry.
    """

    SHAPES = [(1, 1), (1, 7), (3, 4), (5, 50)]
    STEPSIZES = [0.0, 1e-3, 0.05, 0.3]

    @staticmethod
    def shard(kind, n_samples, seed):
        gen = np.random.default_rng(seed)
        return random_shard(gen, n_samples=n_samples, dim=4,
                            pm_one_labels=kind is LossKind.LOGISTIC)

    @pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
    @pytest.mark.parametrize("snapshots, inner_steps", SHAPES)
    @pytest.mark.parametrize("n_samples", [1, 2, 7, 50])
    def test_svrg_is_bit_equal(self, kind, snapshots, inner_steps, n_samples):
        shard = self.shard(kind, n_samples, snapshots * 100 + inner_steps)
        theta = np.linspace(-1.0, 1.0, 4)
        for stepsize in self.STEPSIZES:
            params = SvrgParams(snapshots, inner_steps, stepsize)
            rng_a, rng_b = derive_rng(3, "svrg", n_samples), derive_rng(3, "svrg", n_samples)
            got = svrg_outputs(svrg_local_update, kind, shard, theta, params, rng_a)
            want = svrg_outputs(loop_svrg_local_update, kind, shard, theta, params, rng_b, -1.0)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
    @pytest.mark.parametrize("steps", [1, 2, 25, 250])
    @pytest.mark.parametrize("n_samples", [1, 2, 7, 50])
    def test_sgd_is_bit_equal(self, kind, steps, n_samples):
        shard = self.shard(kind, n_samples, steps)
        theta = np.linspace(-1.0, 1.0, 4)
        for stepsize in self.STEPSIZES:
            rng_a, rng_b = derive_rng(3, "sgd", n_samples), derive_rng(3, "sgd", n_samples)
            got = sgd_local_update(kind, shard, theta, steps, stepsize, rng_a)
            want = loop_sgd_local_update(kind, shard, theta, steps, stepsize, rng_b)
            assert np.array_equal(got, want)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestDivergencePosition:
    """Where the first non-finite value shows, the solver stops at the loop's (snapshot, step).

    Each case records every anchored direction the solver takes, to show
    that the case exercises what its name says.
    """

    ROWS = np.array([[1.0, 2.0], [3.0, -1.0], [-2.0, 0.5]])

    @staticmethod
    def run_recorded(monkeypatch, shard, theta, params, seed):
        steps = []
        inner = local_update.variance_reduced_grad

        def recorded(kind, shard, w, w_tilde, mu_tilde, sample):
            v = inner(kind, shard, w, w_tilde, mu_tilde, sample)
            steps.append((w, v))
            return v

        monkeypatch.setattr(local_update, "variance_reduced_grad", recorded)
        position = _positions(
            svrg_outputs, svrg_local_update, LossKind.QUADRATIC, shard, theta, params,
            np.random.default_rng(seed),
        )
        monkeypatch.undo()
        expected = _positions(
            svrg_outputs, loop_svrg_local_update, LossKind.QUADRATIC, shard, theta, params,
            np.random.default_rng(seed),
        )
        assert position == expected
        return position, steps

    def test_direction_norm_overflows(self, monkeypatch):
        shard = make_shard(self.ROWS, [1.0, -2.0, 0.5])
        params = SvrgParams(snapshots=3, inner_steps=4, stepsize=1.0)
        position, steps = self.run_recorded(monkeypatch, shard, np.array([1e150, -1e150]), params, 0)
        assert position == (1, 0)
        w, v = steps[-1]
        with np.errstate(over="ignore"):
            assert np.isfinite(v).all() and v @ v == np.inf
            assert all(np.isfinite(x @ x) for x, _ in steps)

    def test_huge_but_finite_iterate_continues(self, monkeypatch):
        # w @ w overflows while every entry of w is finite: the entrywise
        # fallback must let the update go on to the next step.
        shard = make_shard(self.ROWS, [1.0, -2.0, 0.5])
        params = SvrgParams(snapshots=3, inner_steps=4, stepsize=1e100)
        position, steps = self.run_recorded(monkeypatch, shard, np.array([1.0, -1.0]), params, 0)
        assert position == (0, 2)
        w, _ = steps[2]
        with np.errstate(over="ignore"):
            assert np.isfinite(w).all() and w @ w == np.inf

    def test_nan_from_inf_minus_inf(self, monkeypatch):
        # Samples 0 and 1 share a row and carry labels +-1e308, so their
        # residual gradients overflow to -inf and +inf while the full gradient
        # stays finite; the first anchored step on either gives inf - inf.
        rows = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, -1.0]])
        shard = make_shard(rows, [1e308, -1e308, 0.5])
        params = SvrgParams(snapshots=2, inner_steps=3, stepsize=0.05)
        position, steps = self.run_recorded(monkeypatch, shard, np.array([0.3, -0.2]), params, 4)
        assert position == (1, 0)
        w, v = steps[-1]
        assert np.isfinite(w).all() and np.isnan(v).all()


class TestTracedCallCounts:
    """The scalar calls perfbench's ``--trace 1`` counts per activation.

    The counters wrap ``fedsim.local_update``'s module attributes, the
    names the solvers look up and the ones perfbench wraps.
    """

    @staticmethod
    def count_calls(monkeypatch):
        counts = {"component_grad": 0, "agent_full_grad": 0}
        for name in counts:
            inner = getattr(local_update, name)

            def counted(*args, _name=name, _inner=inner):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(local_update, name, counted)
        return counts

    def test_svrg_activation(self, monkeypatch):
        dataset, _ = generate_regression_dataset(4, 6, 3, 1.0, np.random.default_rng(5))
        cfg = RunConfig(
            name="svrg", algorithm=Algorithm.FEDAVG_SVRG, rounds=3,
            schedule=ParticipationSchedule(0.6), theta0=np.zeros(3),
            master_seed=8, svrg=SvrgParams(snapshots=3, inner_steps=5, stepsize=0.01),
        )
        counts = self.count_calls(monkeypatch)
        trace = run_training(LossKind.QUADRATIC, dataset, cfg)
        activations = sum(rec.n_active for rec in trace.records)
        assert activations > 0
        assert counts == {"component_grad": 2 * 3 * 5 * activations,
                          "agent_full_grad": 3 * activations}

    def test_sgd_activation(self, monkeypatch):
        dataset, _ = generate_regression_dataset(4, 6, 3, 1.0, np.random.default_rng(5))
        cfg = RunConfig(
            name="sgd", algorithm=Algorithm.FEDAVG_PROB_SGD, rounds=3,
            schedule=ParticipationSchedule(0.6), theta0=np.zeros(3),
            master_seed=8, sgd=SgdParams(steps=7, base_stepsize=0.01),
        )
        counts = self.count_calls(monkeypatch)
        trace = run_training(LossKind.QUADRATIC, dataset, cfg)
        activations = sum(rec.n_active for rec in trace.records)
        assert activations > 0
        assert counts == {"component_grad": 7 * activations, "agent_full_grad": 0}
