import tracemalloc

import numpy as np
import pytest

from cpssperso import dqn
from cpssperso.dqn import (
    DivergenceError,
    DqnHyperparams,
    EmptyBatchError,
    EpsilonDecay,
    FeatureEncoder,
    MlpParams,
    ReplayBuffer,
    ShapeError,
    Workspace,
    encode_features,
    feature_size,
    forward,
    forward_batch,
    greedy_policy,
    init_mlp,
    load_params,
    loss_and_grad,
    save_params,
    sgd_step,
    sync_target,
    train_dqn,
)
from cpssperso.workshop_env import (
    EMOTIONS,
    LOADS,
    PACES,
    ContextConfig,
    EnvParams,
    MachineCondition,
    Pressure,
    num_states,
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


def batch_of(*rows):
    """The arrays (x, actions, rewards, next_x, done) that loss_and_grad
    takes, from (features, action, reward, next features, done) rows."""
    x, actions, rewards, next_x, done = zip(*rows)
    return (
        np.array(x, dtype=float),
        np.array(actions, dtype=np.int64),
        np.array(rewards, dtype=float),
        np.array(next_x, dtype=float),
        np.array(done, dtype=bool),
    )


def random_batch(rng, n, n_features, n_actions):
    """n random rows, drawn row by row, with done=True and done=False mixed."""
    return batch_of(*[
        (rng.normal(size=n_features), int(rng.integers(n_actions)), float(rng.normal()),
         rng.normal(size=n_features), bool(rng.integers(2)))
        for _ in range(n)
    ])


def numeric_gradient(params, target, batch, gamma, step=1e-5):
    base = params.flat
    grad = np.zeros_like(base)
    for i in range(base.size):
        plus, minus = base.copy(), base.copy()
        plus[i] += step
        minus[i] -= step
        lp, _ = loss_and_grad(MlpParams.from_flat(params.layer_sizes, plus), target, *batch, gamma)
        lm, _ = loss_and_grad(MlpParams.from_flat(params.layer_sizes, minus), target, *batch, gamma)
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
        batch = batch_of(([1, 0, 0], 0, 0.0, [0, 1, 0], True))
        loss, grad = loss_and_grad(params, sync_target(params), *batch, 0.9)
        assert loss == 0.0
        assert not grad.any()

    def test_single_linear_unit_hand_derivation(self):
        params = MlpParams([np.array([[0.7]])], [np.array([0.2])])
        batch = batch_of(([0.5], 0, 1.0, [0.0], True))
        loss, grad = loss_and_grad(params, sync_target(params), *batch, 0.9)
        # residual = 0.7*0.5 + 0.2 - 1.0 = -0.45; the flat layout is (w, b)
        assert loss == pytest.approx(0.2025)
        assert grad[0] == pytest.approx(-0.45)
        assert grad[1] == pytest.approx(-0.9)

    def test_target_network_supplies_bootstrap(self):
        params = MlpParams([np.zeros((1, 1))], [np.zeros(1)])
        target = MlpParams([np.zeros((1, 1))], [np.array([4.0])])
        batch = batch_of(([1.0], 0, 1.0, [1.0], False))
        loss, _ = loss_and_grad(params, target, *batch, 0.5)
        assert loss == pytest.approx((1.0 + 0.5 * 4.0) ** 2)

    def test_done_suppresses_bootstrap(self):
        params = MlpParams([np.zeros((1, 1))], [np.zeros(1)])
        target = MlpParams([np.zeros((1, 1))], [np.array([4.0])])
        batch = batch_of(([1.0], 0, 1.0, [1.0], True))
        loss, _ = loss_and_grad(params, target, *batch, 0.5)
        assert loss == pytest.approx(1.0)

    def test_empty_batch_rejected(self):
        params = MlpParams([np.zeros((1, 1))], [np.zeros(1)])
        empty = (np.zeros((0, 1)), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros((0, 1)), np.zeros(0, dtype=bool))
        with pytest.raises(EmptyBatchError):
            loss_and_grad(params, params, *empty, 0.9)

    def test_gradients_match_central_finite_differences(self):
        rng = np.random.default_rng(5)
        params = init_mlp([2, 2, 2], rng)  # 12 parameters
        target = init_mlp([2, 2, 2], rng)
        batch = random_batch(rng, 8, 2, 2)
        _, analytic = loss_and_grad(params, target, *batch, 0.9)
        numeric = numeric_gradient(params, target, batch, 0.9)
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    def test_gradient_is_laid_out_like_the_parameters(self):
        rng = np.random.default_rng(6)
        params = init_mlp([3, 4, 2], rng)
        _, grad = loss_and_grad(params, params.copy(), *random_batch(rng, 5, 3, 2), 0.9)
        assert grad.shape == params.flat.shape
        views = MlpParams.from_flat(params.layer_sizes, grad)
        assert [w.shape for w in views.weights] == [w.shape for w in params.weights]

    def test_linear_network_loss_is_quadratic_least_squares(self):
        # with the target frozen, one exact least-squares solve zeroes the loss
        rng = np.random.default_rng(9)
        n_features, n_actions = 4, 3
        params = init_mlp([n_features, n_actions], rng)
        target = sync_target(params)
        x, actions, y, next_x, _ = random_batch(rng, 8, n_features, n_actions)
        done = np.ones(len(y), dtype=bool)
        solved_w = np.zeros((n_actions, n_features))
        solved_b = np.zeros(n_actions)
        design = np.hstack([x, np.ones((len(y), 1))])
        for a in range(n_actions):
            mask = actions == a
            if not mask.any():
                continue
            theta, *_ = np.linalg.lstsq(design[mask], y[mask], rcond=None)
            solved_w[a] = theta[:-1]
            solved_b[a] = theta[-1]
        loss, _ = loss_and_grad(MlpParams([solved_w], [solved_b]), target, x, actions, y, next_x, done, 0.9)
        assert loss < 1e-12


class TestWorkspace:
    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3)], ids=["linear", "one-hidden", "two-hidden"])
    def test_reused_workspace_matches_a_fresh_call(self, hidden):
        rng = np.random.default_rng(11)
        sizes = (3, *hidden, 2)
        params, target = init_mlp(sizes, rng), init_mlp(sizes, rng)
        ws = Workspace(sizes, 6)
        for _ in range(5):
            batch = random_batch(rng, 6, 3, 2)
            fresh_loss, fresh_grad = loss_and_grad(params, target, *batch, 0.9)
            loss, grad = loss_and_grad(params, target, *batch, 0.9, ws)
            assert grad is ws.grad
            assert loss == fresh_loss
            assert np.array_equal(grad, fresh_grad)

    @pytest.mark.parametrize(
        "sizes, n", [((3, 4, 2), 5), ((3, 5, 2), 6), ((4, 4, 2), 6), ((3, 2), 6)],
        ids=["batch", "hidden", "input", "depth"],
    )
    def test_workspace_of_another_shape_rejected(self, sizes, n):
        rng = np.random.default_rng(12)
        params = init_mlp((3, 4, 2), rng)
        batch = random_batch(rng, 6, 3, 2)
        with pytest.raises(ShapeError):
            loss_and_grad(params, params.copy(), *batch, 0.9, Workspace(sizes, n))

    def test_target_of_another_shape_rejected(self):
        rng = np.random.default_rng(13)
        params = init_mlp((3, 4, 2), rng)
        with pytest.raises(ShapeError):
            loss_and_grad(params, init_mlp((3, 5, 2), rng), *random_batch(rng, 6, 3, 2), 0.9)

    @pytest.mark.parametrize("sizes, n", [((15, 32, 32, 5), 32), ((3, 2), 1), ((7, 4, 3, 2), 5)])
    def test_nbytes_counts_every_buffer(self, sizes, n):
        ws = Workspace(sizes, n)
        owned = [
            a for value in vars(ws).values() for a in (value if isinstance(value, list) else [value])
            if isinstance(a, np.ndarray) and a.base is None
        ]
        assert sum(a.nbytes for a in owned) == Workspace.nbytes(sizes, n)


class TestParams:
    def test_weights_and_biases_are_views_of_the_flat_vector(self):
        params = init_mlp([3, 4, 2], np.random.default_rng(0))
        assert params.flat.size == (3 + 1) * 4 + (4 + 1) * 2
        params.flat[:] = np.arange(params.flat.size)
        assert params.weights[0][0, 1] == 1.0 and params.biases[0][0] == 12.0
        assert params.weights[1][0, 0] == 16.0 and params.biases[1][1] == 25.0

    def test_from_flat_rejects_a_wrong_length(self):
        with pytest.raises(ShapeError):
            MlpParams.from_flat((3, 2), np.zeros(7))
        with pytest.raises(ShapeError):
            MlpParams.from_flat((3, 0), np.zeros(0))


class TestSgdAndTarget:
    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(0)
        params = init_mlp([3, 2], rng)
        before = params.flat.copy()
        sgd_step(params, init_mlp([3, 2], rng).flat, 0.0)
        assert np.array_equal(params.flat, before)

    def test_zero_gradient_keeps_parameters(self):
        params = init_mlp([3, 2], np.random.default_rng(0))
        before = params.flat.copy()
        sgd_step(params, np.zeros_like(params.flat), 0.5)
        assert np.array_equal(params.flat, before)

    def test_scalar_update_arithmetic(self):
        params = MlpParams([np.array([[1.0]])], [np.zeros(1)])
        sgd_step(params, np.array([2.0, 0.0]), 0.1)
        assert params.weights[0][0, 0] == pytest.approx(0.8)

    def test_gradient_of_another_shape_rejected(self):
        params = init_mlp([3, 2], np.random.default_rng(0))
        with pytest.raises(ShapeError):
            sgd_step(params, np.zeros(params.flat.size + 1), 0.1)

    def test_sync_is_a_deep_copy(self):
        params = init_mlp([3, 2], np.random.default_rng(1))
        copy = sync_target(params)
        assert np.array_equal(copy.flat, params.flat)
        params.weights[0][0, 0] += 123.0
        assert copy.weights[0][0, 0] != params.weights[0][0, 0]

    def test_repeated_sync_without_updates_identical(self):
        params = init_mlp([3, 2], np.random.default_rng(2))
        assert np.array_equal(sync_target(params).flat, sync_target(params).flat)


class TestReplayBuffer:
    def test_ring_keeps_most_recent_items(self):
        buf = ReplayBuffer(capacity=5)
        for i in range(8):
            buf.push(i, 0, float(i), 0)
        assert len(buf) == 5
        assert sorted(buf.rewards) == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_ring_overwrites_oldest_row_in_place(self):
        buf = ReplayBuffer(capacity=3)
        for i in range(7):
            buf.push(10 + i, i % 5, float(i), 20 + i)
        # pushes 0..6 land on rows 0,1,2,0,1,2,0
        assert buf.states.tolist() == [16, 14, 15]
        assert buf.actions.tolist() == [1, 4, 0]
        assert buf.rewards.tolist() == [6.0, 4.0, 5.0]
        assert buf.next_states.tolist() == [26, 24, 25]

    def test_sample_draws_one_integers_call_over_the_filled_rows(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(6):
            buf.push(i, i % 5, float(i), i + 1)
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        states, actions, rewards, next_states = buf.sample(4, rng)
        idx = ref.integers(6, size=4)
        assert states.tolist() == idx.tolist()
        assert actions.tolist() == (idx % 5).tolist()
        assert rewards.tolist() == idx.astype(float).tolist()
        assert next_states.tolist() == (idx + 1).tolist()
        assert rng.random() == ref.random()  # nothing else was drawn

    def test_sampling_requires_enough_items(self):
        buf = ReplayBuffer(capacity=4)
        buf.push(0, 0, 0.0, 0)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_sampling_is_deterministic_given_stream(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(10):
            buf.push(i, 0, float(i), 0)
        a = buf.sample(4, np.random.default_rng(3))[2].tolist()
        b = buf.sample(4, np.random.default_rng(3))[2].tolist()
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

    @pytest.mark.parametrize("pref", list(Pace))
    def test_id_rows_match_one_hot_blocks_of_the_decoded_state(self, pref):
        params = EnvParams(
            contexts=(ContextConfig("m1"), ContextConfig("m2", False), ContextConfig("m3"))
        )
        profile = WorkerProfile(pref)
        rows = FeatureEncoder(3, profile)(np.arange(num_states(params)))
        for s, row in enumerate(rows):
            st = decode_state(s, params)
            hot = [
                EMOTIONS.index(st.worker.emotional),
                2 + LOADS.index(st.worker.cognitive_load),
                5 + PACES.index(st.worker.pace),
                8 + PACES.index(pref),
                11 + (st.team.pressure is Pressure.HIGH),
            ] + [13 + 2 * i + (c.machine is MachineCondition.DEGRADED) for i, c in enumerate(st.contexts)]
            expected = np.zeros(feature_size(3))
            expected[hot] = 1.0
            assert np.array_equal(row, expected), s
            assert np.array_equal(encode_features(st, profile), expected)


class TestTraining:
    def test_hyperparams_validation(self):
        with pytest.raises(ValueError):
            DqnHyperparams(buffer_capacity=8, batch=32)
        with pytest.raises(ValueError):
            DqnHyperparams(target_sync=0)
        for bad in ({"hidden": (0,)}, {"hidden": (32, -1)}, {"seed": -1}):
            with pytest.raises(ValueError):
                DqnHyperparams(**bad)
        with pytest.raises(ValueError):
            EpsilonDecay(decay_steps=-1)

    def test_zero_steps_returns_initial_parameters(self):
        env = WorkshopEnv(EnvParams(seed=0))
        hp = DqnHyperparams(total_steps=0, seed=4)
        params, metrics = train_dqn(env, hp)
        fresh = init_mlp(
            (feature_size(1), 32, 32, env.num_actions), np.random.default_rng([4, 2])
        )
        assert metrics == []
        assert np.array_equal(params.flat, fresh.flat)

    def test_batch_above_the_steps_allocates_no_batch(self):
        # no update can run, so nothing of the batch's size is allocated
        env = WorkshopEnv(EnvParams(seed=0))
        hp = DqnHyperparams(batch=10**6, buffer_capacity=10**6, total_steps=100, seed=4)
        tracemalloc.start()
        try:
            params, _ = train_dqn(env, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fresh = init_mlp((feature_size(1), 32, 32, env.num_actions), np.random.default_rng([4, 2]))
        assert np.array_equal(params.flat, fresh.flat)
        assert peak < hp.batch * feature_size(1) * 8 / 100

    def test_identical_seeds_give_identical_loss_curves(self):
        runs = []
        for _ in range(2):
            env = WorkshopEnv(EnvParams(seed=2))
            hp = DqnHyperparams(total_steps=1500, seed=2)
            runs.append(train_dqn(env, hp)[1])
        assert runs[0] == runs[1]

    def test_divergence_raises_rather_than_propagating(self):
        env = WorkshopEnv(EnvParams(seed=0))
        hp = DqnHyperparams(total_steps=2000, lr=1e3, seed=0)
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


class TestGreedyPolicy:
    @staticmethod
    def one_forward_per_state(net, params, profile):
        """The readout that the batched one replaced: the argmax of one
        ``forward`` per decoded state."""
        return np.array([
            np.argmax(forward(net, encode_features(decode_state(s, params), profile)))
            for s in range(num_states(params))
        ])

    @pytest.mark.parametrize("k", [1, 3])
    def test_trained_network_matches_one_forward_per_state(self, k):
        params = EnvParams(
            contexts=tuple(ContextConfig(f"m{i}", i != 1) for i in range(k)), machine_degrade_p=0.2, seed=7
        )
        profile = WorkerProfile(Pace.SLOW)
        net, _ = train_dqn(WorkshopEnv(params, profile), DqnHyperparams(total_steps=400, seed=7))
        pi = greedy_policy(net, params, profile)
        assert pi.shape == (num_states(params),)
        assert np.array_equal(pi, self.one_forward_per_state(net, params, profile))

    def test_random_network_matches_beyond_one_chunk(self):
        k = 7  # 4608 states
        params = EnvParams(contexts=tuple(ContextConfig(f"m{i}", i % 2 == 0) for i in range(k)))
        assert num_states(params) > dqn._READOUT_CHUNK
        net = init_mlp((feature_size(k), 16, 16, 5), np.random.default_rng(3))
        pi = greedy_policy(net, params, PROFILE)
        assert np.array_equal(pi, self.one_forward_per_state(net, params, PROFILE))
        assert len(np.unique(pi)) > 1


class TestPersistence:
    def test_round_trip(self, tmp_path):
        params = init_mlp([5, 4, 3], np.random.default_rng(8))
        path = tmp_path / "net.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.layer_sizes == params.layer_sizes
        assert np.array_equal(loaded.flat, params.flat)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "net.bin"
        path.write_bytes(b"QTB1" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_params(path)
