"""Each correctness check of the benchmark accepts right data and rejects a
deliberately wrong copy of it.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
from cpssperso.rl_core import FiniteMdp, value_iteration  # noqa: E402
from cpssperso.workshop_env import ContextConfig, EnvParams, WorkerProfile  # noqa: E402

PROFILE = WorkerProfile()
K1 = EnvParams()


@pytest.fixture(scope="module")
def k1_model():
    return worker.dense_model(K1, PROFILE)


@pytest.fixture(scope="module")
def oracle_actions(k1_model):
    return np.argmax(checks.solve_oracle(*k1_model, K1.gamma), axis=1)


def flipped(actions: np.ndarray, count: int) -> np.ndarray:
    """One-hot Q-table whose greedy action differs from ``actions`` on the
    first ``count`` states."""
    greedy = actions.copy()
    greedy[:count] = (greedy[:count] + 1) % 5
    return np.eye(5)[greedy]


def test_policy_agreement_rejects_one_flip_below_the_line(oracle_actions):
    n = len(oracle_actions)
    allowed = math.floor(n * (1.0 - checks.AGREEMENT_FLOOR) + 1e-9)
    assert checks.check_policy_agreement(flipped(oracle_actions, allowed), oracle_actions) == []
    assert checks.check_policy_agreement(flipped(oracle_actions, allowed + 1), oracle_actions)


def test_policy_agreement_rejects_a_wrong_state_count(oracle_actions):
    assert checks.check_policy_agreement(np.zeros((10, 5)), oracle_actions)


def test_return_ratio_rejects_a_short_or_impossible_return():
    assert checks.check_return_ratio(60.0, 62.5, 62.5) == []
    assert checks.check_return_ratio(59.0, 62.5, 62.5)
    assert checks.check_return_ratio(62.5, 63.0, 62.5)


def test_dense_model_rejects_a_row_summing_to_099():
    mdp = FiniteMdp.from_env(K1, PROFILE)
    q = value_iteration(mdp, K1.gamma, 1e-9).values
    assert checks.check_dense_model(mdp.transitions, mdp.rewards, q, K1.gamma, 1e-9) == []
    p = mdp.transitions.copy()
    p[3, 2] *= 0.99
    failures = checks.check_dense_model(p, mdp.rewards, q, K1.gamma, 1e-9)
    assert any("do not sum to 1" in f for f in failures)


def test_dense_model_rejects_an_unconverged_q():
    mdp = FiniteMdp.from_env(K1, PROFILE)
    q = value_iteration(mdp, K1.gamma, 1e-3).values
    failures = checks.check_dense_model(mdp.transitions, mdp.rewards, q, K1.gamma, 1e-9)
    assert any("Bellman residual" in f for f in failures)


def test_factor_dynamics_reject_a_wrong_degrade_probability():
    params = EnvParams(contexts=(ContextConfig("m1"), ContextConfig("m2")))
    sample = worker.sample_dynamics(params, PROFILE, 5000, worker.DYNAMICS_SEED)
    flip = params.pressure_flip_p
    assert checks.check_factor_dynamics(*sample, params.machine_degrade_p, flip) == []
    failures = checks.check_factor_dynamics(*sample, 1.5 * params.machine_degrade_p, flip)
    assert any("OK->degraded" in f for f in failures)


def test_factor_dynamics_reject_a_machine_left_degraded_by_assist():
    params = EnvParams(contexts=(ContextConfig("m1"), ContextConfig("m2")))
    assist, before, after, high0, high1 = worker.sample_dynamics(params, PROFILE, 2000, 1)
    after = after.copy()
    after[np.flatnonzero(assist)[0], 0] = True
    failures = checks.check_factor_dynamics(
        assist, before, after, high0, high1, params.machine_degrade_p, params.pressure_flip_p
    )
    assert "ASSIST left a machine degraded" in failures
