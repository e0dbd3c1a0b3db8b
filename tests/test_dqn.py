import numpy as np
import pytest

from cpssperso.dqn import (
    DivergenceError,
    DqnHyperparams,
    EmptyBatchError,
    MlpParams,
    ReplayBuffer,
    ReplayItem,
    ShapeError,
    encode_features,
    feature_size,
    forward,
    forward_batch,
    init_mlp,
    load_params,
    loss_and_grad,
    save_params,
    sgd_step,
    sync_target,
    train_dqn,
)
from cpssperso.workshop_env import (
    EnvParams,
    WorkerProfile,
    WorkerState,
    WorkshopEnv,
    WorkshopState,
    decode_state,
    Emotion,
    CognitiveLoad,
    Pace,
)

PROFILE = WorkerProfile()


def item(features, action, reward, next_features, done=False):
    return ReplayItem(
        np.asarray(features, dtype=float),
        action,
        reward,
        np.asarray(next_features, dtype=float),
        done,
    )


def flatten(params: MlpParams) -> np.ndarray:
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def unflatten(template: MlpParams, flat: np.ndarray) -> MlpParams:
    weights, biases, off = [], [], 0
    for w, b in zip(template.weights, template.biases):
        weights.append(flat[off : off + w.size].reshape(w.shape).copy())
        off += w.size
        biases.append(flat[off : off + b.size].copy())
        off += b.size
    return MlpParams(weights, biases)


def numeric_gradient(params, target, batch, gamma, step=1e-5):
    base = flatten(params)
    grad = np.zeros_like(base)
    for i in range(base.size):
        plus, minus = base.copy(), base.copy()
        plus[i] += step
        minus[i] -= step
        lp, _ = loss_and_grad(unflatten(params, plus), target, batch, gamma)
        lm, _ = loss_and_grad(unflatten(params, minus), target, batch, gamma)
        grad[i] = (lp - lm) / (2 * step)
    return grad


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        params = MlpParams(
            [np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)]
        )
        assert np.array_equal(forward(params, np.ones(3)), np.zeros(2))

    def test_identity_single_layer(self):
        params = MlpParams([np.eye(3)], [np.zeros(3)])
        x = np.array([0.2, -1.0, 3.0])
        assert np.array_equal(forward(params, x), x)

    def test_hand_computed_two_layer_pass(self):
        params = MlpParams(
            [np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[2.0, 0.5], [-1.0, 1.5]])],
            [np.array([0.1, -0.2]), np.array([0.3, -0.4])],
        )
        out = forward(params, np.array([0.6, -0.3]))
        # hidden pre-activation [1.0, -0.5] -> relu [1.0, 0.0] -> output
        assert out == pytest.approx([2.3, -1.4], abs=1e-12)

    def test_shape_mismatch_rejected(self):
        params = MlpParams([np.eye(3)], [np.zeros(3)])
        with pytest.raises(ShapeError):
            forward(params, np.ones(4))
        with pytest.raises(ShapeError):
            forward_batch(params, np.ones((2, 5)))

    def test_mismatched_layer_chain_rejected(self):
        with pytest.raises(ShapeError):
            MlpParams([np.zeros((4, 3)), np.zeros((2, 5))], [np.zeros(4), np.zeros(2)])


class TestLossAndGrad:
    def test_zero_residual_means_zero_loss_and_gradients(self):
        params = MlpParams([np.zeros((2, 3))], [np.zeros(2)])
        batch = [item([1, 0, 0], 0, 0.0, [0, 1, 0], done=True)]
        loss, grads = loss_and_grad(params, sync_target(params), batch, 0.9)
        assert loss == 0.0
        assert not flatten(grads).any()

    def test_single_linear_unit_hand_derivation(self):
        params = MlpParams([np.array([[0.7]])], [np.array([0.2])])
        batch = [item([0.5], 0, 1.0, [0.0], done=True)]
        loss, grads = loss_and_grad(params, sync_target(params), batch, 0.9)
        # residual = 0.7*0.5 + 0.2 - 1.0 = -0.45
        assert loss == pytest.approx(0.2025)
        assert grads.weights[0][0, 0] == pytest.approx(-0.45)
        assert grads.biases[0][0] == pytest.approx(-0.9)

    def test_target_network_supplies_bootstrap(self):
        params = MlpParams([np.zeros((1, 1))], [np.zeros(1)])
        target = MlpParams([np.zeros((1, 1))], [np.array([4.0])])
        batch = [item([1.0], 0, 1.0, [1.0], done=False)]
        loss, _ = loss_and_grad(params, target, batch, 0.5)
        assert loss == pytest.approx((1.0 + 0.5 * 4.0) ** 2)

    def test_done_suppresses_bootstrap(self):
        params = MlpParams([np.zeros((1, 1))], [np.zeros(1)])
        target = MlpParams([np.zeros((1, 1))], [np.array([4.0])])
        batch = [item([1.0], 0, 1.0, [1.0], done=True)]
        loss, _ = loss_and_grad(params, target, batch, 0.5)
        assert loss == pytest.approx(1.0)

    def test_empty_batch_rejected(self):
        params = MlpParams([np.zeros((1, 1))], [np.zeros(1)])
        with pytest.raises(EmptyBatchError):
            loss_and_grad(params, params, [], 0.9)

    def test_gradients_match_central_finite_differences(self):
        rng = np.random.default_rng(5)
        params = init_mlp([2, 2, 2], rng)  # 12 parameters
        target = init_mlp([2, 2, 2], rng)
        batch = [
            item(rng.normal(size=2), int(rng.integers(2)), float(rng.normal()),
                 rng.normal(size=2), bool(rng.integers(2)))
            for _ in range(8)
        ]
        _, grads = loss_and_grad(params, target, batch, 0.9)
        analytic = flatten(grads)
        numeric = numeric_gradient(params, target, batch, 0.9)
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    def test_linear_network_loss_is_quadratic_least_squares(self):
        # with the target frozen, one exact least-squares solve zeroes the loss
        rng = np.random.default_rng(9)
        n_features, n_actions = 4, 3
        params = init_mlp([n_features, n_actions], rng)
        target = sync_target(params)
        batch = [
            item(rng.normal(size=n_features), int(rng.integers(n_actions)),
                 float(rng.normal()), rng.normal(size=n_features), True)
            for _ in range(8)
        ]
        x = np.stack([it.state_features for it in batch])
        y = np.array([it.reward for it in batch])
        actions = np.array([it.action_index for it in batch])
        solved_w = np.zeros((n_actions, n_features))
        solved_b = np.zeros(n_actions)
        design = np.hstack([x, np.ones((len(batch), 1))])
        for a in range(n_actions):
            mask = actions == a
            if not mask.any():
                continue
            theta, *_ = np.linalg.lstsq(design[mask], y[mask], rcond=None)
            solved_w[a] = theta[:-1]
            solved_b[a] = theta[-1]
        loss, _ = loss_and_grad(MlpParams([solved_w], [solved_b]), target, batch, 0.9)
        assert loss < 1e-12


class TestSgdAndTarget:
    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(0)
        params = init_mlp([3, 2], rng)
        grads = init_mlp([3, 2], rng)
        stepped = sgd_step(params, grads, 0.0)
        assert np.array_equal(flatten(stepped), flatten(params))

    def test_zero_gradient_keeps_parameters(self):
        params = init_mlp([3, 2], np.random.default_rng(0))
        zeros = MlpParams(
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
        )
        assert np.array_equal(flatten(sgd_step(params, zeros, 0.5)), flatten(params))

    def test_scalar_update_arithmetic(self):
        params = MlpParams([np.array([[1.0]])], [np.zeros(1)])
        grads = MlpParams([np.array([[2.0]])], [np.zeros(1)])
        assert sgd_step(params, grads, 0.1).weights[0][0, 0] == pytest.approx(0.8)

    def test_sync_is_a_deep_copy(self):
        params = init_mlp([3, 2], np.random.default_rng(1))
        copy = sync_target(params)
        assert np.array_equal(flatten(copy), flatten(params))
        params.weights[0][0, 0] += 123.0
        assert copy.weights[0][0, 0] != params.weights[0][0, 0]

    def test_repeated_sync_without_updates_identical(self):
        params = init_mlp([3, 2], np.random.default_rng(2))
        assert np.array_equal(flatten(sync_target(params)), flatten(sync_target(params)))


class TestReplayBuffer:
    def test_ring_keeps_most_recent_items(self):
        buf = ReplayBuffer(capacity=5)
        items = [item([float(i)], 0, float(i), [0.0]) for i in range(8)]
        for it in items:
            buf.push(it)
        assert len(buf) == 5
        kept = sorted(it.reward for it in buf.items())
        assert kept == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_sampling_requires_enough_items(self):
        buf = ReplayBuffer(capacity=4)
        buf.push(item([0.0], 0, 0.0, [0.0]))
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_sampling_is_deterministic_given_stream(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(10):
            buf.push(item([float(i)], 0, float(i), [0.0]))
        a = [it.reward for it in buf.sample(4, np.random.default_rng(3))]
        b = [it.reward for it in buf.sample(4, np.random.default_rng(3))]
        assert a == b


class TestFeatures:
    def test_one_hot_blocks_each_sum_to_one(self):
        params = EnvParams()
        state = decode_state(37, params)
        f = encode_features(state, PROFILE)
        assert f.shape == (feature_size(1),) == (15,)
        blocks = [f[0:2], f[2:5], f[5:8], f[8:11], f[11:13], f[13:15]]
        assert all(b.sum() == 1.0 for b in blocks)

    def test_observation_features_use_inferred_worker(self):
        state = decode_state(0, EnvParams())
        obs = WorkshopState(
            WorkerState(Emotion.STRESSED, CognitiveLoad.HIGH, Pace.FAST),
            state.team,
            state.contexts,
        )
        f = encode_features(obs, PROFILE)
        assert f[1] == 1.0 and f[4] == 1.0 and f[7] == 1.0


class TestTraining:
    def test_hyperparams_validation(self):
        with pytest.raises(ValueError):
            DqnHyperparams(buffer_capacity=8, batch_size=32)
        with pytest.raises(ValueError):
            DqnHyperparams(target_sync=0)

    def test_zero_steps_returns_initial_parameters(self):
        env = WorkshopEnv(EnvParams(seed=0))
        hp = DqnHyperparams(total_steps=0, seed=4)
        params, metrics = train_dqn(env, hp)
        fresh = init_mlp(
            (feature_size(1), 32, 32, env.num_actions), np.random.default_rng([4, 2])
        )
        assert metrics == []
        assert np.array_equal(flatten(params), flatten(fresh))

    def test_identical_seeds_give_identical_loss_curves(self):
        runs = []
        for _ in range(2):
            env = WorkshopEnv(EnvParams(seed=2))
            hp = DqnHyperparams(total_steps=1500, seed=2)
            runs.append(train_dqn(env, hp)[1])
        assert runs[0] == runs[1]

    def test_divergence_raises_rather_than_propagating(self):
        env = WorkshopEnv(EnvParams(seed=0))
        hp = DqnHyperparams(total_steps=2000, learning_rate=1e3, seed=0)
        with pytest.raises(DivergenceError):
            train_dqn(env, hp)

    def test_parameters_stay_finite_at_default_rate(self):
        env = WorkshopEnv(EnvParams(seed=3))
        params, _ = train_dqn(env, DqnHyperparams(total_steps=2000, seed=3))
        assert params.all_finite()

    def test_partial_observation_mode_runs(self):
        env = WorkshopEnv(EnvParams(seed=1, alpha=0.8))
        params, metrics = train_dqn(
            env, DqnHyperparams(total_steps=600, seed=1), partial_obs=True
        )
        assert params.all_finite() and metrics

    def test_trained_greedy_policy_mostly_agrees_with_oracle(self):
        from cpssperso.rl_core import FiniteMdp, greedy_policy, value_iteration

        params_env = EnvParams(seed=1)
        mdp = FiniteMdp.from_env(params_env, PROFILE)
        oracle = greedy_policy(value_iteration(mdp, params_env.gamma, 1e-9))
        env = WorkshopEnv(params_env, PROFILE)
        net, _ = train_dqn(env, DqnHyperparams(seed=1))
        agree = sum(
            int(np.argmax(forward(net, encode_features(decode_state(s, params_env), PROFILE)))) == oracle[s]
            for s in range(mdp.num_states)
        ) / mdp.num_states
        assert agree >= 0.8


class TestPersistence:
    def test_round_trip(self, tmp_path):
        params = init_mlp([5, 4, 3], np.random.default_rng(8))
        path = tmp_path / "net.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.layer_sizes == params.layer_sizes
        assert np.array_equal(flatten(loaded), flatten(params))

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "net.bin"
        path.write_bytes(b"QTB1" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_params(path)
