import math
from dataclasses import replace

import numpy as np
import pytest

from cpssperso.workshop_env import (
    ACTIONS,
    Action,
    CognitiveLoad,
    ContextConfig,
    ContextElement,
    Emotion,
    EnvParams,
    EpisodeOverError,
    InvalidParamsError,
    MAX_MACHINES,
    MachineCondition,
    Pace,
    Pressure,
    RewardWeights,
    WORKER_INDEX,
    WORKER_STATES,
    TeamState,
    WorkerProfile,
    WorkerState,
    WorkshopEnv,
    WorkshopState,
    composite_total,
    decode_state,
    encode_state,
    enumerate_states,
    env_params_from_config,
    initial_state,
    num_states,
    reward_fn,
    transition_model,
    worker_need,
)

PROFILE = WorkerProfile()


def make_state(
    emotional=Emotion.CALM,
    load=CognitiveLoad.LOW,
    pace=Pace.NORMAL,
    pressure=Pressure.LOW,
    machine=MachineCondition.OK,
    influences=True,
):
    return WorkshopState(
        worker=WorkerState(emotional, load, pace),
        team=TeamState(pressure),
        contexts=(ContextElement("machine1", machine, influences),),
    )


class TestParams:
    def test_defaults_valid(self):
        params = EnvParams()
        assert params.gamma == 0.95 and params.horizon == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weights": RewardWeights(0.5, 0.5, 0.5)},
            {"weights": RewardWeights(0.4, 0.5, 0.3)},
            {"weights": RewardWeights(1.0, 0.5, 1.0)},
            {"alpha": 0.0},
            {"alpha": 1.2},
            {"gamma": 1.0},
            {"noise_p": -0.1},
            {"horizon": 0},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InvalidParamsError):
            EnvParams(**kwargs)

    def test_config_parsing_rejects_unknown_keys(self):
        for raw, match in [
            ({"gamma": 0.9, "horizn": 10}, "unknown"),
            ({"weights": {"w_wroker": 0.1}}, "unknown"),
            ({"rewards": {"team_okk": 0.5}}, "unknown"),
            ({"profile": {"pace_preferense": "fast"}}, "unknown"),
            ({"profile": {"skill": "skilled"}}, "unknown"),
            ({"contexts": [{"id": "machine1", "influences_workr": False}]}, "unknown"),
            # a JSON string is not a boolean, whatever it says
            ({"contexts": [{"id": "machine1", "influences_worker": "false"}]}, "true or false"),
        ]:
            with pytest.raises(InvalidParamsError, match=match):
                env_params_from_config(raw)

    def test_config_parsing_takes_only_integers_on_int_fields(self):
        for raw in ({"horizon": 2.5}, {"horizon": True}, {"seed": False}, {"horizon": float("nan")}, {"horizon": "7"}):
            with pytest.raises(InvalidParamsError, match="integer"):
                env_params_from_config(raw)
        for raw in ({"noise_p": True}, {"gamma": "0.9"}, {"weights": {"w_team": "0.5"}}):
            with pytest.raises(InvalidParamsError, match="number"):
                env_params_from_config(raw)
        params, _ = env_params_from_config({"horizon": 5.0, "seed": 3})
        assert (params.horizon, params.seed) == (5, 3) and type(params.horizon) is int

    def test_config_round_trip_defaults(self):
        params, profile = env_params_from_config({})
        assert params == EnvParams()
        assert profile == WorkerProfile(Pace.NORMAL)

    def test_state_count_limit(self):
        machines = tuple(ContextConfig(f"m{i}") for i in range(MAX_MACHINES))
        assert num_states(EnvParams(contexts=machines)) == 2_359_296
        with pytest.raises(InvalidParamsError, match="machines"):
            env_params_from_config({"contexts": [{"id": f"m{i}"} for i in range(30)]})


class TestWorkerNeed:
    def test_stress_dominates(self):
        state = make_state(emotional=Emotion.STRESSED, load=CognitiveLoad.HIGH, pace=Pace.FAST)
        assert worker_need(state, PROFILE) is Action.SLOW_DOWN

    def test_pace_above_preference_needs_slow_down(self):
        assert worker_need(make_state(pace=Pace.FAST), PROFILE) is Action.SLOW_DOWN

    def test_pace_below_preference_needs_speed_up(self):
        assert worker_need(make_state(pace=Pace.SLOW), PROFILE) is Action.SPEED_UP

    def test_high_load_needs_assist(self):
        assert worker_need(make_state(load=CognitiveLoad.HIGH), PROFILE) is Action.ASSIST

    def test_medium_load_needs_hold(self):
        assert worker_need(make_state(load=CognitiveLoad.MEDIUM), PROFILE) is Action.HOLD

    def test_recovered_worker_gets_handover_when_machines_ok(self):
        assert worker_need(make_state(), PROFILE) is Action.HANDOVER

    def test_degraded_machine_needs_assist_before_handover(self):
        state = make_state(machine=MachineCondition.DEGRADED)
        assert worker_need(state, PROFILE) is Action.ASSIST

    def test_total_over_all_states(self):
        params = EnvParams()
        for pref in Pace:
            profile = WorkerProfile(pace_preference=pref)
            for state in enumerate_states(params):
                assert worker_need(state, profile) in ACTIONS


class TestTransitionModel:
    def test_no_noise_is_point_mass(self):
        params = EnvParams(noise_p=0.0, pressure_flip_p=0.0, machine_degrade_p=0.0)
        dist = transition_model(make_state(pace=Pace.FAST), Action.SLOW_DOWN, params, PROFILE)
        assert len(dist) == 1 and dist[0][1] == 1.0

    def test_matched_slow_down_moves_pace_toward_preference(self):
        params = EnvParams(noise_p=0.0, pressure_flip_p=0.0, machine_degrade_p=0.0)
        (nxt, p), = transition_model(make_state(pace=Pace.FAST), Action.SLOW_DOWN, params, PROFILE)
        assert nxt.worker.pace is Pace.NORMAL and p == 1.0

    def test_degraded_machine_stresses_worker_on_speed_up(self):
        params = EnvParams(noise_p=0.0)
        state = make_state(pace=Pace.SLOW, machine=MachineCondition.DEGRADED)
        for nxt, _ in transition_model(state, Action.SPEED_UP, params, PROFILE):
            assert nxt.worker.emotional is Emotion.STRESSED

    def test_binary_dimension_noise_gives_two_point_support(self):
        params = EnvParams(noise_p=0.2, pressure_flip_p=0.0, machine_degrade_p=0.0)
        state = make_state(emotional=Emotion.STRESSED)
        dist = transition_model(state, Action.SLOW_DOWN, params, PROFILE)
        probs = sorted(p for _, p in dist)
        assert probs == [pytest.approx(0.2), pytest.approx(0.8)]

    def test_distributions_sum_to_one_over_full_sweep(self):
        params = EnvParams()
        for state in enumerate_states(params):
            for action in ACTIONS:
                total = sum(p for _, p in transition_model(state, action, params, PROFILE))
                assert abs(total - 1.0) <= 1e-12

    def test_assist_repairs_machines(self):
        params = EnvParams(noise_p=0.0, pressure_flip_p=0.0)
        state = make_state(load=CognitiveLoad.HIGH, machine=MachineCondition.DEGRADED)
        for nxt, _ in transition_model(state, Action.ASSIST, params, PROFILE):
            assert nxt.contexts[0].machine is MachineCondition.OK

    def test_non_influencing_machine_does_not_stress_worker(self):
        params = EnvParams(
            noise_p=0.0,
            pressure_flip_p=0.0,
            machine_degrade_p=0.0,
            contexts=(ContextConfig("m2", influences_worker=False),),
        )
        state = make_state(pace=Pace.SLOW, machine=MachineCondition.DEGRADED, influences=False)
        for nxt, _ in transition_model(state, Action.SPEED_UP, params, PROFILE):
            assert nxt.worker.emotional is Emotion.CALM


class TestRewards:
    def test_matched_slow_down_for_stressed_worker(self):
        params = EnvParams()
        br = reward_fn(make_state(emotional=Emotion.STRESSED), Action.SLOW_DOWN, params, PROFILE)
        assert br.r_worker == 1.0
        assert br.r_team == 0.5
        assert br.r_context == (0.0,)
        assert br.total == pytest.approx(1.25)

    def test_unsafe_action_next_to_degraded_machine(self):
        params = EnvParams()
        state = make_state(pace=Pace.SLOW, machine=MachineCondition.DEGRADED)
        br = reward_fn(state, Action.SPEED_UP, params, PROFILE)
        assert -2.0 in br.r_context

    def test_hold_under_pressure_breaks_throughput(self):
        params = EnvParams()
        state = make_state(load=CognitiveLoad.MEDIUM, pressure=Pressure.HIGH)
        br = reward_fn(state, Action.HOLD, params, PROFILE)
        assert br.r_team == -0.5 and br.r_worker == 1.0

    def test_composite_zero_terms_zero_total(self):
        assert composite_total(0.0, 0.0, [0.0], RewardWeights(1.0, 1.0, 1.0)) == 0.0

    def test_totals_match_weighted_sum_over_full_sweep(self):
        params = EnvParams()
        for state in enumerate_states(params):
            for action in ACTIONS:
                br = reward_fn(state, action, params, PROFILE)
                expected = (
                    params.weights.w_worker * br.r_worker
                    + params.weights.w_team * br.r_team
                )
                for rc in br.r_context:
                    expected += params.weights.w_context * rc
                assert br.total == expected  # bit-exact

    def test_non_influencing_context_contributes_nothing(self):
        params = EnvParams(
            contexts=(ContextConfig("m1", True), ContextConfig("m2", False)),
        )
        for state in enumerate_states(params):
            for action in ACTIONS:
                toggled = replace(
                    state,
                    contexts=(
                        state.contexts[0],
                        replace(
                            state.contexts[1],
                            machine=MachineCondition.DEGRADED
                            if state.contexts[1].machine is MachineCondition.OK
                            else MachineCondition.OK,
                        ),
                    ),
                )
                a = reward_fn(state, action, params, PROFILE)
                b = reward_fn(toggled, action, params, PROFILE)
                assert (a.r_worker, a.r_team, a.r_context, a.total) == (
                    b.r_worker,
                    b.r_team,
                    b.r_context,
                    b.total,
                )
                assert len(a.r_context) == 1  # one influencing element only


class TestEncoding:
    def test_round_trip_full_sweep(self):
        params = EnvParams()
        assert num_states(params) == 72
        for i in range(num_states(params)):
            assert encode_state(decode_state(i, params)) == i

    def test_two_context_space(self):
        params = EnvParams(contexts=(ContextConfig("a"), ContextConfig("b")))
        assert num_states(params) == 144
        for i in range(144):
            assert encode_state(decode_state(i, params)) == i

    def test_initial_state_encodes_to_zero_for_slow_preference(self):
        params = EnvParams()
        profile = WorkerProfile(pace_preference=Pace.SLOW)
        assert encode_state(initial_state(params, profile)) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            decode_state(72, EnvParams())
        with pytest.raises(IndexError):
            decode_state(-1, EnvParams())


class TestEnv:
    def test_reset_returns_documented_initial_state(self):
        env = WorkshopEnv(EnvParams(), WorkerProfile(pace_preference=Pace.FAST))
        state, obs = env.reset()
        assert state.worker == WorkerState(Emotion.CALM, CognitiveLoad.LOW, Pace.FAST)
        assert state.team.pressure is Pressure.LOW
        assert all(c.machine is MachineCondition.OK for c in state.contexts)

    def test_perfect_inference_observes_truth(self):
        env = WorkshopEnv(EnvParams(alpha=1.0))
        state, obs = env.reset()
        assert obs == state

    def test_equal_seeds_give_identical_trajectories(self):
        actions = [ACTIONS[i % 5] for i in range(50)]
        trajectories = []
        for _ in range(2):
            env = WorkshopEnv(EnvParams(seed=42))
            env.reset()
            run = []
            for a in actions:
                state, obs, reward, done = env.step(a)
                run.append((encode_state(state), encode_state(obs), reward.total, done))
            trajectories.append(run)
        assert trajectories[0] == trajectories[1]

    def test_reset_with_seed_replays_observation_sequence(self):
        env = WorkshopEnv(EnvParams(alpha=0.5, seed=3))
        seqs = []
        for _ in range(2):
            _, obs = env.reset(seed=99)
            seq = [obs.worker]
            for _ in range(20):
                _, obs, _, _ = env.step(Action.HOLD)
                seq.append(obs.worker)
            seqs.append(seq)
        assert seqs[0] == seqs[1]

    def test_horizon_one_finishes_immediately(self):
        env = WorkshopEnv(EnvParams(horizon=1))
        env.reset()
        _, _, _, done = env.step(Action.HOLD)
        assert done
        with pytest.raises(EpisodeOverError):
            env.step(Action.HOLD)

    def test_step_before_reset_rejected(self):
        env = WorkshopEnv(EnvParams())
        with pytest.raises(EpisodeOverError):
            env.step(Action.HOLD)

    def test_observation_channel_accuracy(self):
        alpha = 0.7
        env = WorkshopEnv(EnvParams(alpha=alpha, seed=1))
        state, _ = env.reset()
        n = 30_000
        hits = sum(env.observe(state).worker == state.worker for _ in range(n))
        se = math.sqrt(alpha * (1 - alpha) / n)
        assert abs(hits / n - alpha) <= 3 * se

    def test_wrong_inferences_are_spread_over_other_states(self):
        env = WorkshopEnv(EnvParams(alpha=0.1, seed=2))
        state, _ = env.reset()
        observed = [env.observe(state) for _ in range(5_000)]
        assert len({obs.worker for obs in observed}) == 18
        # team and machines are read exactly
        assert all(obs.team == state.team and obs.contexts == state.contexts for obs in observed)


class TestStepIds:
    """``reset_id``/``step_id`` against ``reset``/``step`` and against the
    channel and the sampling written out on ``WorkshopState``s."""

    K3 = EnvParams(
        seed=5,
        horizon=30,
        contexts=(ContextConfig("m1"), ContextConfig("m2", False), ContextConfig("m3")),
        machine_degrade_p=0.2,
    )
    STEPS = 2_000

    def actions(self):
        return np.random.default_rng(17).integers(len(ACTIONS), size=self.STEPS).tolist()

    def run_ids(self, params):
        env = WorkshopEnv(params, PROFILE)
        out = [env.reset_id()]
        for a in self.actions():
            s, obs, total, done = env.step_id(a)
            out.append((s, obs, total, done))
            if done:
                out.append(env.reset_id())
        return out

    def run_states(self, params):
        env = WorkshopEnv(params, PROFILE)
        state, obs = env.reset()
        out = [(encode_state(state), encode_state(obs))]
        for a in self.actions():
            state, obs, reward, done = env.step(ACTIONS[a])
            out.append((encode_state(state), encode_state(obs), reward.total, done))
            if done:
                state, obs = env.reset()
                out.append((encode_state(state), encode_state(obs)))
        return out

    def run_reference(self, params):
        """One ``random()`` for the transition over ``transition_model``'s
        cumulative probabilities, then ``random()`` for the channel and
        ``integers(17)`` on a miss."""
        rng = np.random.default_rng([params.seed, 0])

        def observe(state):
            if rng.random() < params.alpha:
                return state
            j = int(rng.integers(17))
            if j >= WORKER_INDEX[state.worker]:
                j += 1
            return WorkshopState(WORKER_STATES[j], state.team, state.contexts)

        def start():
            state = initial_state(params, PROFILE)
            return state, (encode_state(state), encode_state(observe(state)))

        state, first = start()
        out, t = [first], 0
        for a in self.actions():
            dist = transition_model(state, ACTIONS[a], params, PROFILE)
            cum = np.cumsum([p for _, p in dist])
            k = min(int(np.searchsorted(cum, rng.random(), side="right")), len(dist) - 1)
            total = reward_fn(state, ACTIONS[a], params, PROFILE).total
            state, t = dist[k][0], t + 1
            done = t >= params.horizon
            out.append((encode_state(state), encode_state(observe(state)), total, done))
            if done:
                (state, first), t = start(), 0
                out.append(first)
        return out

    @pytest.mark.parametrize("alpha", [1.0, 0.6], ids=["full", "partial"])
    def test_step_id_matches_step(self, alpha):
        params = replace(self.K3, alpha=alpha)
        ids = self.run_ids(params)
        assert ids == self.run_states(params)
        if alpha < 1.0:
            assert sum(row[0] != row[1] for row in ids) > 500  # the channel misreads

    @pytest.mark.parametrize("alpha", [1.0, 0.6], ids=["full", "partial"])
    def test_step_id_matches_the_state_level_reference(self, alpha):
        params = replace(self.K3, alpha=alpha)
        assert self.run_ids(params) == self.run_reference(params)

    def test_misread_keeps_pressure_and_machine_bits(self):
        env = WorkshopEnv(replace(self.K3, alpha=0.05), PROFILE)
        s, _ = env.reset_id()
        low = (1 << 4) - 1  # pressure bit + 3 machine bits
        for a in self.actions()[:200]:
            s, obs, _, done = env.step_id(a)
            assert obs & low == s & low and 0 <= obs >> 4 < 18
            if done:
                s, _ = env.reset_id()

    @pytest.mark.parametrize("a", [-1, 5])
    def test_action_out_of_range_rejected(self, a):
        env = WorkshopEnv(self.K3, PROFILE)
        env.reset_id()
        with pytest.raises(IndexError):
            env.step_id(a)
        assert not env._rows  # no row cached under the bad index
        # neither the stream nor the step count moved
        fresh = WorkshopEnv(self.K3, PROFILE)
        fresh.reset_id()
        assert env.step_id(0) == fresh.step_id(0)

    def test_step_id_before_reset_rejected(self):
        with pytest.raises(EpisodeOverError):
            WorkshopEnv(EnvParams()).step_id(0)
