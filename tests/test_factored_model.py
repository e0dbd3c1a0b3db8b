"""Property tests: the factored model against the readable reference.

Configs are sampled with hypothesis when it is installed and from a seeded
numpy generator otherwise.  For every sample, the dense matrix of
``FiniteMdp.from_env`` and every row of ``WorkshopEnv`` must equal what
``transition_model`` and ``reward_fn`` give, bit for bit."""

import numpy as np
import pytest

from cpssperso.rl_core import FiniteMdp
from cpssperso.workshop_env import (
    ACTIONS,
    PACES,
    ContextConfig,
    EnvParams,
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
        ids, cum, reward = env._row(s, a)
        assert ids.tobytes() == ids_ref.tobytes(), (s, a)
        assert cum.tobytes() == cum_ref.tobytes(), (s, a)
        assert reward.total == r_ref[s, a]
        assert np.all(np.diff(cum, prepend=0.0) >= 0.0) and abs(cum[-1] - 1.0) <= 1e-12


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
