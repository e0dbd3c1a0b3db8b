from dataclasses import astuple

import numpy as np
import pytest

from cpssperso.rl_core import (
    EvalSummary,
    FiniteMdp,
    InvalidToleranceError,
    LearningSchedule,
    QTable,
    bellman_residual,
    epsilon_greedy,
    evaluate_policy,
    exact_match_rate,
    greedy_policy,
    load_qtable,
    max_step_reward,
    optimistic_initial_value,
    q_update,
    save_qtable,
    train_tabular,
    value_iteration,
)
from cpssperso.workshop_env import (
    ACTIONS,
    PACES,
    ContextConfig,
    EnvParams,
    RewardMagnitudes,
    WorkerProfile,
    WorkshopEnv,
    encode_state,
    num_states,
    worker_need,
)

PROFILE = WorkerProfile()


def one_state_mdp(reward=1.0):
    return FiniteMdp(
        transitions=np.ones((1, 1, 1)),
        rewards=np.array([[reward]]),
    )


def two_state_chain():
    # s0 -> s1 with reward 1 (any action), s1 absorbing with reward 0
    p = np.zeros((2, 2, 2))
    p[0, :, 1] = 1.0
    p[1, :, 1] = 1.0
    r = np.array([[1.0, 1.0], [0.0, 0.0]])
    return FiniteMdp(p, r)


def random_mdp(rng, n_states, n_actions):
    p = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    r = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
    return FiniteMdp(p, r)


class TestValueIteration:
    def test_one_state_geometric_series(self):
        q = value_iteration(one_state_mdp(), gamma=0.5, tolerance=1e-12)
        assert q.values[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_gamma_zero_returns_immediate_rewards(self):
        mdp = two_state_chain()
        q = value_iteration(mdp, gamma=0.0, tolerance=1e-12)
        assert np.array_equal(q.values, mdp.rewards)

    def test_two_state_chain_fixed_point(self):
        q = value_iteration(two_state_chain(), gamma=0.9, tolerance=1e-12)
        assert q.values[0] == pytest.approx([1.0, 1.0], abs=1e-9)
        assert q.values[1] == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_non_positive_tolerance_rejected(self):
        with pytest.raises(InvalidToleranceError):
            value_iteration(one_state_mdp(), gamma=0.5, tolerance=0.0)

    def test_sweep_count_within_contraction_bound(self):
        # instrument sweeps by counting residual evaluations through a wrapper
        import math

        mdp = random_mdp(np.random.default_rng(0), 30, 4)
        gamma, tol = 0.9, 1e-8
        q = np.zeros_like(mdp.rewards)
        sweeps = 0
        while True:
            nxt = mdp.rewards + gamma * (mdp.transitions @ q.max(axis=1))
            sweeps += 1
            if np.max(np.abs(nxt - q)) <= tol:
                break
            q = nxt
        bound = math.ceil(math.log(tol * (1 - gamma) / mdp.rmax) / math.log(gamma)) + 1
        assert sweeps <= bound

    def test_contraction_between_sweeps(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            mdp = random_mdp(rng, int(rng.integers(2, 40)), 5)
            gamma = 0.9
            q = np.zeros_like(mdp.rewards)
            prev_delta = None
            for _ in range(60):
                nxt = mdp.rewards + gamma * (mdp.transitions @ q.max(axis=1))
                delta = float(np.max(np.abs(nxt - q)))
                if prev_delta is not None and prev_delta > 1e-12:
                    assert delta <= gamma * prev_delta + 1e-9
                prev_delta = delta
                q = nxt

    def test_values_bounded_by_reward_scale(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            mdp = random_mdp(rng, 20, 3)
            gamma = 0.95
            q = value_iteration(mdp, gamma, 1e-10)
            bound = mdp.rmax / (1 - gamma)
            assert np.all(np.abs(q.values) <= bound + 1e-9)

    def test_reward_scaling_covariance(self):
        mdp = random_mdp(np.random.default_rng(5), 25, 4)
        gamma, c = 0.9, 3.7
        q1 = value_iteration(mdp, gamma, 1e-12)
        q2 = value_iteration(FiniteMdp(mdp.transitions, c * mdp.rewards), gamma, 1e-12)
        assert np.allclose(q2.values, c * q1.values, atol=1e-8)
        assert np.array_equal(greedy_policy(q1), greedy_policy(q2))


class TestBellmanResidual:
    def test_vi_output_has_small_residual(self):
        mdp = two_state_chain()
        q = value_iteration(mdp, 0.9, 1e-9)
        assert bellman_residual(q, mdp, 0.9) <= 1e-9

    def test_zero_table_residual_is_max_reward(self):
        mdp = two_state_chain()
        q = QTable.zeros(2, 2)
        assert bellman_residual(q, mdp, 0.9) == pytest.approx(1.0)

    def test_closed_form_fixed_point(self):
        mdp = one_state_mdp()
        q = QTable(np.array([[2.0]]))
        assert bellman_residual(q, mdp, 0.5) == pytest.approx(0.0, abs=1e-12)


class TestQUpdate:
    def test_basic_update_arithmetic(self):
        q = QTable.zeros(3, 2)
        td = q_update(q, 0, 0, r=1.0, s_next=1, eta=0.5, gamma=0.9)
        assert q.values[0, 0] == pytest.approx(0.5)
        assert td == pytest.approx(1.0)

    def test_fixed_point_entry_unchanged(self):
        q = QTable(np.array([[2.0], [2.0]]))
        td = q_update(q, 0, 0, r=1.0, s_next=1, eta=0.3, gamma=0.5)
        assert td == 0.0 and q.values[0, 0] == 2.0

    def test_terminal_overwrites_with_reward(self):
        q = QTable(np.full((2, 2), 5.0))
        q_update(q, 0, 1, r=-1.0, s_next=1, eta=1.0, gamma=0.9, done=True)
        assert q.values[0, 1] == pytest.approx(-1.0)

    def test_only_target_entry_changes(self):
        q = QTable(np.arange(6, dtype=float).reshape(3, 2))
        before = q.values.copy()
        q_update(q, 1, 0, r=2.0, s_next=2, eta=0.5, gamma=0.9)
        changed = q.values != before
        assert changed.sum() == 1 and changed[1, 0]

    def test_out_of_range_indices_rejected(self):
        q = QTable.zeros(2, 2)
        with pytest.raises(IndexError):
            q_update(q, 5, 0, 0.0, 0, 0.1, 0.9)
        with pytest.raises(IndexError):
            q_update(q, 0, 7, 0.0, 0, 0.1, 0.9)


class TestPolicies:
    def test_greedy_picks_argmax(self):
        q = QTable(np.array([[0.1, 0.9, 0.3, 0.0, 0.0]]))
        rng = np.random.default_rng(0)
        assert epsilon_greedy(q, 0, 0.0, rng) == 1

    def test_ties_resolve_to_lowest_index(self):
        q = QTable(np.zeros((1, 5)))
        rng = np.random.default_rng(0)
        assert epsilon_greedy(q, 0, 0.0, rng) == 0
        assert greedy_policy(q)[0] == 0

    def test_full_exploration_is_uniform(self):
        q = QTable(np.array([[0.0, 100.0, 0.0, 0.0, 0.0]]))
        rng = np.random.default_rng(1)
        n = 100_000
        counts = np.bincount(
            [epsilon_greedy(q, 0, 1.0, rng) for _ in range(n)], minlength=5
        )
        se = np.sqrt(0.2 * 0.8 / n)
        assert np.all(np.abs(counts / n - 0.2) <= 3 * se)

    def test_greedy_policy_on_solved_chain(self):
        p = np.zeros((2, 2, 2))
        p[0, :, 1] = 1.0
        p[1, :, 1] = 1.0
        r = np.array([[1.0, 0.2], [0.0, -0.5]])  # action 0 uniquely optimal
        q = value_iteration(FiniteMdp(p, r), 0.9, 1e-10)
        assert list(greedy_policy(q)) == [0, 0]


class TestSchedule:
    def test_epsilon_decays_linearly_then_floors(self):
        s = LearningSchedule(epsilon_start=1.0, epsilon_end=0.05, decay_steps=100, episodes=200)
        assert s.epsilon_at(0) == 1.0
        assert s.epsilon_at(50) == pytest.approx(0.525)
        assert s.epsilon_at(100) == pytest.approx(0.05)
        assert s.epsilon_at(199) == pytest.approx(0.05)
        assert LearningSchedule(epsilon_end=0.2, decay_steps=0).epsilon_at(0) == 0.2

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            LearningSchedule(learning_rate=0.0)
        with pytest.raises(ValueError):
            LearningSchedule(epsilon_start=0.1, epsilon_end=0.5)


class TestTrainTabular:
    def test_zero_episodes_is_noop(self):
        env = WorkshopEnv(EnvParams(seed=0))
        q, metrics = train_tabular(env, LearningSchedule(episodes=0), 0.95)
        assert metrics == [] and not q.values.any()

    def test_identical_seeds_give_identical_metrics(self):
        runs = []
        for _ in range(2):
            env = WorkshopEnv(EnvParams(seed=11))
            runs.append(train_tabular(env, LearningSchedule(episodes=40), 0.95)[1])
        assert runs[0] == runs[1]

    def test_learning_approaches_oracle_values(self):
        # compare against exact value iteration on the same model
        params = EnvParams(seed=0)
        mdp = FiniteMdp.from_env(params, PROFILE)
        q_star = value_iteration(mdp, params.gamma, 1e-9)
        env = WorkshopEnv(params, PROFILE)
        q, _ = train_tabular(
            env,
            LearningSchedule(),
            params.gamma,
            initial_q=optimistic_initial_value(params),
        )
        bound = 0.05 * mdp.rmax / (1 - params.gamma)
        assert np.max(np.abs(q.values - q_star.values)) <= bound

    def test_partial_observation_mode_runs(self):
        env = WorkshopEnv(EnvParams(seed=1, alpha=0.8))
        q, metrics = train_tabular(env, LearningSchedule(episodes=30), 0.95, partial_obs=True)
        assert len(metrics) == 30


class TestHelpers:
    def test_max_step_reward_default(self):
        assert max_step_reward(EnvParams()) == pytest.approx(1.25)

    def test_optimistic_value_is_horizon_limited_bound(self):
        params = EnvParams()
        expected = 1.25 * (1 - 0.95**50) / 0.05
        assert optimistic_initial_value(params) == pytest.approx(expected)

    def test_exact_match_rate_of_oracle_policy(self):
        params = EnvParams()
        mdp = FiniteMdp.from_env(params, PROFILE)
        q = value_iteration(mdp, params.gamma, 1e-9)
        assert exact_match_rate(greedy_policy(q), params, PROFILE) >= 0.95

    def test_oracle_rollouts_match_worker_needs(self):
        params = EnvParams()
        mdp = FiniteMdp.from_env(params, PROFILE)
        q = value_iteration(mdp, params.gamma, 1e-9)
        summary = evaluate_policy(params, PROFILE, greedy_policy(q), episodes=20)
        assert summary.worker_match_rate >= 0.9
        assert summary.mean_return > 0

    def test_zero_episode_evaluation_is_empty(self):
        summary = evaluate_policy(EnvParams(), PROFILE, np.zeros(72, dtype=int), episodes=0)
        assert summary.episodes == 0 and summary.mean_return == 0.0


def evaluate_on_states(params, profile, actions, episodes):
    """The ``WorkshopState`` loop that ``evaluate_policy`` replaced: act on
    the true state through ``reset``/``step``, match against ``worker_need``
    and count a violation where a context term of the reward is non-zero."""
    if episodes <= 0:
        return EvalSummary(0, 0.0, 0.0, 0.0)
    env = WorkshopEnv(params, profile)
    returns, matches, violations, steps = [], 0, 0, 0
    for i in range(episodes):
        state, _ = env.reset(seed=params.seed + 100_000 + i)
        total = 0.0
        for _ in range(params.horizon):
            action = ACTIONS[int(actions[encode_state(state)])]
            matches += action is worker_need(state, profile)
            state, _, reward, done = env.step(action)
            violations += any(rc != 0.0 for rc in reward.r_context)
            total += reward.total
            steps += 1
            if done:
                break
        returns.append(total)
    return EvalSummary(episodes, float(np.mean(returns)), matches / steps, violations / steps)


def sampled_config(rng, i):
    """A random workshop whose first samples cover the edges: no safety
    penalty, a machine that does not influence the worker, a noisy channel
    and one-step episodes."""
    k = int(rng.integers(5))
    if i == 1:
        k = max(k, 1)
    contexts = tuple(ContextConfig(f"m{j}", bool(rng.random() < 0.7) and not (i == 1 and j == 0)) for j in range(k))
    unsafe = 0.0 if i == 0 or rng.random() < 0.2 else -float(rng.uniform(0.5, 3.0))
    params = EnvParams(
        alpha=0.6 if i == 2 else float(rng.choice([1.0, rng.uniform(0.2, 1.0)])),
        noise_p=float(rng.random()),
        horizon=1 if i == 3 else int(rng.integers(1, 30)),
        contexts=contexts,
        seed=int(rng.integers(1000)),
        pressure_flip_p=float(rng.random()),
        machine_degrade_p=float(rng.choice([0.0, 1.0, rng.random()])),
        rewards=RewardMagnitudes(context_unsafe=unsafe),
    )
    return params, WorkerProfile(PACES[int(rng.integers(3))])


class TestEvaluatePolicy:
    @pytest.mark.parametrize("k", [1, 3, 5, 6])
    def test_oracle_policy_matches_the_state_loop(self, k):
        params = EnvParams(
            contexts=tuple(ContextConfig(f"m{i}", i != 1) for i in range(k)), machine_degrade_p=0.2, seed=k
        )
        pi = greedy_policy(value_iteration(FiniteMdp.from_env(params, PROFILE), params.gamma, 1e-9))
        summary = evaluate_policy(params, PROFILE, pi, episodes=20)
        assert summary == evaluate_on_states(params, PROFILE, pi, episodes=20)

    def test_random_policies_match_the_state_loop(self):
        rng = np.random.default_rng(2026)
        violated = 0
        for i in range(40):
            params, profile = sampled_config(rng, i)
            pi = rng.integers(len(ACTIONS), size=num_states(params))
            episodes = int(rng.integers(1, 6))
            summary = evaluate_policy(params, profile, pi, episodes)
            assert summary == evaluate_on_states(params, profile, pi, episodes), (i, params)
            assert all(type(value) is float for value in astuple(summary)[1:])
            violated += summary.safety_violation_rate > 0
        assert violated >= 5

    def test_policy_of_another_shape_rejected(self):
        with pytest.raises(ValueError):
            evaluate_policy(EnvParams(), PROFILE, np.zeros(36, dtype=int), episodes=1)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        q = QTable(np.arange(10, dtype=float).reshape(5, 2))
        path = tmp_path / "q.bin"
        save_qtable(q, 0.9, path)
        loaded, gamma = load_qtable(path)
        assert gamma == 0.9
        assert np.array_equal(loaded.values, q.values)

    def test_truncated_file_rejected(self, tmp_path):
        q = QTable(np.zeros((4, 3)))
        path = tmp_path / "q.bin"
        save_qtable(q, 0.9, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_qtable(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "q.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_qtable(path)

    def test_non_finite_table_not_persisted(self, tmp_path):
        q = QTable(np.array([[np.inf, 0.0]]))
        with pytest.raises(ValueError):
            save_qtable(q, 0.9, tmp_path / "q.bin")
