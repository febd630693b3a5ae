import math
import pickle

import numpy as np
import pytest

from conftest import make_shard, random_dataset, random_shard, stacked_dataset
from fedsim.losses import (
    Dataset,
    LossKind,
    SingularSystemError,
    agent_full_grad,
    component_grad,
    component_loss,
    generate_regression_dataset,
    global_cost,
    global_grad,
    least_squares_oracle,
    smoothness_constant,
)
from oracles import (
    central_diff_grad,
    flat_global_cost,
    flat_global_grad,
    loop_agent_grad,
    loop_global_cost,
    loop_global_grad,
    loop_gram_moment,
    loop_smoothness,
    sliced_regression_dataset,
)

KINDS = [LossKind.QUADRATIC, LossKind.LOGISTIC]
THETA_SCALES = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)


def single_sample_shard(row, label):
    return make_shard([row], [label])


class TestDatasetStack:
    @pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3, 1), ()])
    def test_rejects_features_that_are_not_3d(self, shape):
        features = np.ones(shape)
        with pytest.raises(ValueError, match="3-D"):
            Dataset(features, np.ones(shape[:2]))

    @pytest.mark.parametrize("shape", [(2,), (2, 5), (3, 4), (2, 4, 1)])
    def test_rejects_labels_that_are_not_agents_by_samples(self, shape):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.ones((2, 4, 3)), np.ones(shape))

    def test_rejects_zero_agents(self):
        with pytest.raises(ValueError, match="at least one agent"):
            Dataset(np.ones((0, 2, 2)), np.ones((0, 2)))

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Dataset(np.ones((3, 0, 2)), np.ones((3, 0)))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match="at least one feature"):
            Dataset(np.ones((2, 3, 0)), np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["features", "labels"])
    @pytest.mark.parametrize("agent", [0, 2, -1], ids=["first", "middle", "last"])
    def test_rejects_a_nonfinite_entry_in_any_agent(self, bad, field, agent, rng):
        # One stack-wide check must catch a bad entry wherever it sits.
        features = rng.standard_normal((5, 4, 3))
        labels = rng.standard_normal((5, 4))
        if field == "features":
            features[agent, -1, -1] = bad
        else:
            labels[agent, -1] = bad
        with pytest.raises(ValueError, match="finite"):
            Dataset(features, labels)

    def test_stores_c_contiguous_float64_with_dimension_from_shape(self):
        features = np.asfortranarray(np.arange(24).reshape(2, 4, 3))
        dataset = Dataset(features, np.zeros((2, 4), dtype=np.int32))
        for array in (dataset.features, dataset.labels):
            assert array.dtype == np.float64 and array.flags.c_contiguous
        assert np.array_equal(dataset.features, features)
        assert (dataset.n_agents, dataset.dimension) == (2, 3)
        assert all(shard.n_samples == 4 and shard.features.shape == (4, 3) for shard in dataset.shards)

    def test_shards_are_views_into_the_stack(self, rng):
        built = random_dataset(rng, n_agents=3, n_samples=4, dim=2)
        generated, _ = generate_regression_dataset(5, 6, 3, 1.0, rng)
        assert built.features.shape == (3, 4, 2) and built.labels.shape == (3, 4)
        assert generated.features.shape == (5, 6, 3) and generated.labels.shape == (5, 6)
        for dataset in (built, generated):
            for n, shard in enumerate(dataset.shards):
                assert np.shares_memory(shard.features, dataset.features)
                assert np.shares_memory(shard.labels, dataset.labels)
                assert np.array_equal(shard.features, dataset.features[n])
                assert np.array_equal(shard.labels, dataset.labels[n])

    @pytest.mark.parametrize("kind", KINDS)
    def test_global_evaluations_reject_misshaped_theta(self, kind, rng):
        dataset = random_dataset(rng, n_agents=3, n_samples=4, dim=2)
        for theta in (np.zeros((2, 1)), np.zeros(3)):
            with pytest.raises(ValueError):
                global_cost(kind, dataset, theta)
            with pytest.raises(ValueError):
                global_grad(kind, dataset, theta)

    @pytest.mark.parametrize("kind", KINDS)
    def test_pickle_roundtrip_keeps_bits_and_views(self, kind, rng):
        dataset = random_dataset(rng, n_agents=7, n_samples=9, dim=3,
                                 pm_one_labels=kind is LossKind.LOGISTIC)
        restored = pickle.loads(pickle.dumps(dataset))
        for shard in restored.shards:
            assert np.shares_memory(shard.features, restored.features)
            assert np.shares_memory(shard.labels, restored.labels)
        for scale in THETA_SCALES:
            theta = scale * rng.standard_normal(3)
            assert global_cost(kind, restored, theta) == global_cost(kind, dataset, theta)
            assert (global_grad(kind, restored, theta).tobytes()
                    == global_grad(kind, dataset, theta).tobytes())

    def test_pickle_holds_the_samples_once(self, rng):
        # The shards are views into the stack; pickling them as well would
        # hold every sample twice.
        dataset = random_dataset(rng, n_agents=20, n_samples=30, dim=5)
        samples = dataset.features.nbytes + dataset.labels.nbytes
        assert len(pickle.dumps(dataset)) < 1.5 * samples


class TestBatchedMatchesLoops:
    """The stacked evaluations reproduce the per-shard loops bit for bit."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_agents", [1, 3, 200])
    @pytest.mark.parametrize("n_samples", [5, 50])
    def test_global_cost_and_grad(self, kind, n_agents, n_samples, rng):
        dataset = random_dataset(rng, n_agents=n_agents, n_samples=n_samples, dim=4,
                                 pm_one_labels=kind is LossKind.LOGISTIC)
        for scale in THETA_SCALES:
            for _ in range(4):
                theta = scale * rng.standard_normal(4)
                assert global_cost(kind, dataset, theta) == loop_global_cost(kind, dataset, theta)
                assert np.array_equal(
                    global_grad(kind, dataset, theta), loop_global_grad(kind, dataset, theta)
                )

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_agents", [1, 3, 200])
    def test_smoothness_constant(self, kind, n_agents, rng):
        dataset = random_dataset(rng, n_agents=n_agents, n_samples=6, dim=4)
        assert smoothness_constant(kind, dataset) == loop_smoothness(kind, dataset)

    @pytest.mark.parametrize("n_agents", [1, 3, 200])
    def test_least_squares_oracle(self, n_agents, rng):
        dataset = random_dataset(rng, n_agents=n_agents, n_samples=6, dim=4)
        theta_star, f_star = least_squares_oracle(dataset)
        expected = np.linalg.solve(*loop_gram_moment(dataset))
        assert np.array_equal(theta_star, expected)
        assert f_star == loop_global_cost(LossKind.QUADRATIC, dataset, expected)


class TestComponentLoss:
    def test_quadratic_residual(self):
        shard = single_sample_shard([1.0, 0.0], 2.0)
        assert component_loss(LossKind.QUADRATIC, shard, 0, np.zeros(2)) == 4.0

    def test_quadratic_exact_fit(self):
        shard = single_sample_shard([1.0, 0.0], 2.0)
        assert component_loss(LossKind.QUADRATIC, shard, 0, np.array([2.0, 5.0])) == 0.0

    def test_logistic_zero_margin(self):
        shard = single_sample_shard([1.0, -2.0], 1.0)
        value = component_loss(LossKind.LOGISTIC, shard, 0, np.zeros(2))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)


class TestComponentGrad:
    def test_quadratic_single_coordinate(self):
        shard = single_sample_shard([1.0, 0.0], 2.0)
        grad = component_grad(LossKind.QUADRATIC, shard, 0, np.zeros(2))
        assert np.array_equal(grad, np.array([-4.0, 0.0]))

    def test_quadratic_zero_at_exact_fit(self):
        shard = single_sample_shard([1.0, 0.0], 2.0)
        grad = component_grad(LossKind.QUADRATIC, shard, 0, np.array([2.0, -3.0]))
        assert np.array_equal(grad, np.zeros(2))

    @pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
    def test_matches_central_differences(self, kind, rng):
        shard = random_shard(rng, n_samples=8, dim=5, pm_one_labels=kind is LossKind.LOGISTIC)
        for _ in range(10):
            i = int(rng.integers(shard.n_samples))
            theta = rng.standard_normal(5)
            grad = component_grad(kind, shard, i, theta)
            approx = central_diff_grad(kind, shard, i, theta)
            assert np.linalg.norm(grad - approx) <= 1e-5 * max(1.0, np.linalg.norm(approx))


class TestAgentFullGrad:
    def test_single_sample_equals_component(self, rng):
        shard = random_shard(rng, n_samples=1, dim=3)
        theta = rng.standard_normal(3)
        assert np.allclose(
            agent_full_grad(LossKind.QUADRATIC, shard, theta),
            component_grad(LossKind.QUADRATIC, shard, 0, theta),
            atol=1e-15,
        )

    def test_opposite_residuals_cancel(self):
        shard = make_shard([[1.0, 2.0], [1.0, 2.0]], [1.5, -1.5])
        grad = agent_full_grad(LossKind.QUADRATIC, shard, np.zeros(2))
        assert np.allclose(grad, np.zeros(2), atol=1e-15)

    @pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
    def test_matches_explicit_mean(self, kind, rng):
        shard = random_shard(rng, n_samples=5, dim=4, pm_one_labels=kind is LossKind.LOGISTIC)
        theta = rng.standard_normal(4)
        assert np.allclose(
            agent_full_grad(kind, shard, theta),
            loop_agent_grad(kind, shard, theta),
            atol=1e-12, rtol=0.0,
        )


class TestGlobalObjective:
    def test_single_agent_degenerates(self, rng):
        shard = random_shard(rng, n_samples=6, dim=3)
        dataset = stacked_dataset((shard,))
        theta = rng.standard_normal(3)
        assert global_cost(LossKind.QUADRATIC, dataset, theta) == pytest.approx(
            float(np.mean((shard.labels - shard.features @ theta) ** 2)), rel=1e-14
        )
        assert np.allclose(
            global_grad(LossKind.QUADRATIC, dataset, theta),
            agent_full_grad(LossKind.QUADRATIC, shard, theta),
            atol=1e-15,
        )

    def test_zero_cost_at_generating_parameter(self, noiseless):
        dataset, theta_true = noiseless
        assert global_cost(LossKind.QUADRATIC, dataset, theta_true) < 1e-24

    @pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
    def test_matches_flat_double_loop(self, kind, rng):
        dataset = random_dataset(rng, n_agents=3, n_samples=4, dim=3,
                                 pm_one_labels=kind is LossKind.LOGISTIC)
        theta = rng.standard_normal(3)
        assert global_cost(kind, dataset, theta) == pytest.approx(
            flat_global_cost(kind, dataset, theta), abs=1e-12
        )
        assert np.allclose(
            global_grad(kind, dataset, theta),
            flat_global_grad(kind, dataset, theta),
            atol=1e-12, rtol=0.0,
        )


class TestGenerator:
    def test_shapes_match_request(self):
        rng = np.random.default_rng(0)
        dataset, theta_true = generate_regression_dataset(10, 50, 10, 1.0, rng)
        assert dataset.n_agents == 10
        assert dataset.dimension == 10
        assert theta_true.shape == (10,)
        assert all(shard.n_samples == 50 for shard in dataset.shards)

    def test_noiseless_data_is_consistent(self, noiseless):
        dataset, theta_true = noiseless
        assert global_cost(LossKind.QUADRATIC, dataset, theta_true) < 1e-24

    def test_same_seed_is_bit_identical(self):
        a, theta_a = generate_regression_dataset(4, 5, 3, 1.0, np.random.default_rng(42))
        b, theta_b = generate_regression_dataset(4, 5, 3, 1.0, np.random.default_rng(42))
        assert np.array_equal(theta_a, theta_b)
        for sa, sb in zip(a.shards, b.shards):
            assert np.array_equal(sa.features, sb.features)
            assert np.array_equal(sa.labels, sb.labels)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (4, 5, 3), (10, 50, 10), (200, 50, 10)])
    def test_matches_per_shard_stacking(self, shape):
        dataset, theta_true = generate_regression_dataset(*shape, 1.0, np.random.default_rng(3))
        expected, expected_theta = sliced_regression_dataset(
            *shape, 1.0, np.random.default_rng(3)
        )
        assert theta_true.tobytes() == expected_theta.tobytes()
        assert dataset.features.tobytes() == expected.features.tobytes()
        assert dataset.labels.tobytes() == expected.labels.tobytes()

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_regression_dataset(0, 5, 3, 1.0, rng)
        with pytest.raises(ValueError):
            generate_regression_dataset(2, 5, 3, -0.5, rng)


class TestLeastSquaresOracle:
    def test_noiseless_recovery(self, noiseless):
        dataset, theta_true = noiseless
        theta_star, f_star = least_squares_oracle(dataset)
        assert np.allclose(theta_star, theta_true, atol=1e-8)
        assert abs(f_star) < 1e-16

    def test_one_dimensional_mean(self):
        shard = make_shard([[1.0], [1.0]], [0.0, 2.0])
        theta_star, f_star = least_squares_oracle(stacked_dataset((shard,)))
        assert theta_star == pytest.approx(np.array([1.0]), abs=1e-12)
        assert f_star == pytest.approx(1.0, abs=1e-12)

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(5)
        dataset, _ = generate_regression_dataset(10, 50, 10, 1.0, rng)
        theta_star, _ = least_squares_oracle(dataset)
        grad = global_grad(LossKind.QUADRATIC, dataset, theta_star)
        assert np.linalg.norm(grad) <= 1e-8

    def test_singular_system_raises(self):
        shard = make_shard([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        with pytest.raises(SingularSystemError):
            least_squares_oracle(stacked_dataset((shard,)))

    def test_benchmark_optimum_tracks_noise_level(self):
        # For pooled least squares on standard-normal data the optimal
        # mean squared residual concentrates near
        # noise_std^2 * (total - dim) / total, about 0.98 here.
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            dataset, _ = generate_regression_dataset(10, 50, 10, 1.0, rng)
            _, f_star = least_squares_oracle(dataset)
            assert 0.7 <= f_star <= 1.3


class TestSmoothnessConstant:
    def test_quadratic_single_row(self):
        dataset = stacked_dataset((single_sample_shard([1.0, 0.0], 3.0),))
        assert smoothness_constant(LossKind.QUADRATIC, dataset) == 2.0

    def test_logistic_single_row(self):
        dataset = stacked_dataset((single_sample_shard([2.0], 1.0),))
        assert smoothness_constant(LossKind.LOGISTIC, dataset) == 1.0

    @pytest.mark.parametrize("kind", [LossKind.QUADRATIC, LossKind.LOGISTIC])
    def test_never_violated_on_random_pairs(self, kind, rng):
        dataset = random_dataset(rng, n_agents=2, n_samples=6, dim=4,
                                 pm_one_labels=kind is LossKind.LOGISTIC)
        bound = smoothness_constant(kind, dataset)
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            shard_idx = int(rng.integers(dataset.n_agents))
            shard = dataset.shards[shard_idx]
            i = int(rng.integers(shard.n_samples))
            lhs = np.linalg.norm(
                component_grad(kind, shard, i, x) - component_grad(kind, shard, i, y)
            )
            assert lhs <= bound * np.linalg.norm(x - y) * (1.0 + 1e-12)
            agent_lhs = np.linalg.norm(
                agent_full_grad(kind, shard, x) - agent_full_grad(kind, shard, y)
            )
            assert agent_lhs <= bound * np.linalg.norm(x - y) * (1.0 + 1e-12)
