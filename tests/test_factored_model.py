"""Property tests: the factored model against the readable reference.

Configs are sampled with hypothesis when it is installed and from a seeded
numpy generator otherwise.  For every sample, the dense matrix and the
reward table of ``FiniteMdp.from_env`` and every row of ``WorkshopEnv`` must
equal what ``transition_model`` and ``reward_fn`` give, bit for bit; the
matrix-free ``expect`` must match the dense product to rounding, and value
iteration through it must match value iteration on the dense matrix."""

import numpy as np
import pytest

from cpssperso.rl_core import FiniteMdp, bellman_residual, greedy_policy, value_iteration
from cpssperso.workshop_env import (
    ACTIONS,
    PACES,
    Pace,
    ContextConfig,
    EnvParams,
    FactoredModel,
    WorkerProfile,
    WorkshopEnv,
    decode_state,
    encode_state,
    num_states,
    reward_fn,
    transition_model,
)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is optional
    st = None

#: Probabilities at the edges: exactly 0 and 1, and one whose square
#: underflows to 0, so that a product of machine factors can vanish.
EDGE_PROBS = (0.0, 1.0, 1e-200, 0.05, 0.5)
EXAMPLES = 12


class RngDraw:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def choice(self, options):
        return options[int(self.rng.integers(len(options)))]

    def prob(self) -> float:
        return self.choice(EDGE_PROBS) if self.rng.random() < 0.5 else float(self.rng.random())


class HypothesisDraw:
    def __init__(self, data):
        self.data = data

    def choice(self, options):
        return self.data.draw(st.sampled_from(options))

    def prob(self) -> float:
        return self.data.draw(st.sampled_from(EDGE_PROBS) | st.floats(0.0, 1.0))


def sample_config(draw) -> tuple[EnvParams, WorkerProfile]:
    k = draw.choice(range(5))
    contexts = tuple(ContextConfig(f"m{i}", draw.choice((True, False))) for i in range(k))
    params = EnvParams(
        contexts=contexts,
        noise_p=draw.prob(),
        pressure_flip_p=draw.prob(),
        machine_degrade_p=draw.prob(),
    )
    return params, WorkerProfile(draw.choice(PACES))


def reference(params: EnvParams, profile: WorkerProfile):
    """Dense (P, R) and per-(s, a) (ids, cumsum) rows from transition_model."""
    n = num_states(params)
    p = np.zeros((n, len(ACTIONS), n))
    r = np.zeros((n, len(ACTIONS)))
    rows = {}
    for s in range(n):
        state = decode_state(s, params)
        for a, action in enumerate(ACTIONS):
            dist = transition_model(state, action, params, profile)
            ids = np.array([encode_state(nxt) for nxt, _ in dist], dtype=np.int64)
            probs = np.array([prob for _, prob in dist], dtype=np.float64)
            p[s, a, ids] = probs
            r[s, a] = reward_fn(state, action, params, profile).total
            rows[s, a] = (ids, np.cumsum(probs))
    return p, r, rows


def check_against_reference(params: EnvParams, profile: WorkerProfile) -> None:
    n = num_states(params)
    for s in range(n):
        assert encode_state(decode_state(s, params)) == s
    p_ref, r_ref, rows_ref = reference(params, profile)
    mdp = FiniteMdp.from_env(params, profile)
    assert mdp.transitions.tobytes() == p_ref.tobytes()
    assert mdp.rewards.tobytes() == r_ref.tobytes()
    assert np.all(mdp.transitions >= 0.0)
    assert np.max(np.abs(mdp.transitions.sum(axis=2) - 1.0)) <= 1e-12
    env = WorkshopEnv(params, profile)
    for (s, a), (ids_ref, cum_ref) in rows_ref.items():
        ids, cum, total = env._row(s, a)
        assert ids.tobytes() == ids_ref.tobytes(), (s, a)
        assert cum.tobytes() == cum_ref.tobytes(), (s, a)
        assert total == r_ref[s, a]
        assert np.all(np.diff(cum, prepend=0.0) >= 0.0) and abs(cum[-1] - 1.0) <= 1e-12
    v = np.random.default_rng(n).normal(size=n)
    assert np.max(np.abs(mdp.expect(v) - p_ref @ v)) <= 1e-12 * np.max(np.abs(v))
    q = value_iteration(mdp, params.gamma, 1e-9)
    q_dense = value_iteration(FiniteMdp(p_ref, r_ref), params.gamma, 1e-9)
    assert np.max(np.abs(q.values - q_dense.values)) <= 1e-9
    # The greedy actions are identical wherever the best action leads the
    # runner-up.  Where two actions tie exactly (noise_p = 0 can make speed-up
    # and assist equally good), rounding picks either; both are optimal.
    pi, pi_dense = greedy_policy(q), greedy_policy(q_dense)
    top2 = np.sort(q_dense.values, axis=1)[:, -2:]
    unique = top2[:, 1] - top2[:, 0] > 2e-9
    assert np.array_equal(pi[unique], pi_dense[unique])
    assert np.all(q_dense.values[np.arange(n), pi] >= top2[:, 1] - 2e-9)


if st is not None:

    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_factored_model_matches_reference(data):
        check_against_reference(*sample_config(HypothesisDraw(data)))

else:

    @pytest.mark.parametrize("seed", range(EXAMPLES))
    def test_factored_model_matches_reference(seed):
        check_against_reference(*sample_config(RngDraw(seed)))


@pytest.mark.parametrize("prob", [0.0, 1.0], ids=["zero", "one"])
def test_factored_model_at_certain_outcomes(prob):
    contexts = (ContextConfig("m0"), ContextConfig("m1", False), ContextConfig("m2"))
    params = EnvParams(
        contexts=contexts, noise_p=prob, pressure_flip_p=prob, machine_degrade_p=prob
    )
    check_against_reference(params, WorkerProfile())


def test_ten_machines_solve_without_the_dense_matrix(monkeypatch):
    """36,864 states, whose dense matrix would take 54 GB: the solve path
    must never build it."""

    def no_dense(self):
        raise AssertionError("the solve path built the dense matrix")

    monkeypatch.setattr(FactoredModel, "dense", no_dense)
    params = EnvParams(contexts=tuple(ContextConfig(f"m{i}", i % 3 != 2) for i in range(10)))
    mdp = FiniteMdp.from_env(params, WorkerProfile())
    tolerance = 1e-9
    q = value_iteration(mdp, params.gamma, tolerance)
    assert q.values.shape == (num_states(params), len(ACTIONS)) == (36_864, 5)
    # a backup is three nested convex sums (two passes of 32 machine-bit
    # terms, one of 36 worker x pressure terms): under 128 roundings in all
    rounding = 128 * np.finfo(np.float64).eps * max(1.0, float(np.max(np.abs(q.values))))
    assert bellman_residual(q, mdp, params.gamma) <= params.gamma * tolerance + rounding


@pytest.mark.parametrize("k", [7, 11], ids=["two-chunks", "three-chunks"])
def test_expect_matches_rows_beyond_one_kronecker_chunk(k):
    """Above 5 machines ``expect`` applies the machine kernel in chunks of
    bits; check it against the sparse rows (bit-equal to the reference) on
    sampled states, where the dense matrix would be too large to build."""
    params = EnvParams(
        contexts=tuple(ContextConfig(f"m{i}", i % 3 != 1) for i in range(k)), machine_degrade_p=0.3
    )
    model = FactoredModel(params, WorkerProfile(Pace.SLOW))
    rng = np.random.default_rng(k)
    v = rng.normal(size=num_states(params))
    ev = model.expect(v)
    for s in rng.choice(num_states(params), size=40, replace=False):
        for a in range(len(ACTIONS)):
            ids, probs = model.row(int(s), a)
            assert abs(ev[s, a] - probs @ v[ids]) <= 1e-12 * np.max(np.abs(v)), (s, a)
