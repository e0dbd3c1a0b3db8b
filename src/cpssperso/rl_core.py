"""Tabular solvers for the workshop Q-function.

Exact value iteration sweeps the Bellman operator of the enumerated model to
its fixed point; tabular Q-learning approaches the same fixed point from sampled
transitions; both share the greedy/epsilon-greedy readout.  A finished
Q-table can be persisted as a flat binary array with a small header.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .workshop_env import (
    EnvParams,
    FactoredModel,
    WorkerProfile,
    WorkshopEnv,
    reward_table,
    safety_violation_ids,
    worker_need_ids,
)


class InvalidToleranceError(ValueError):
    """Non-positive convergence tolerance."""


@dataclass
class QTable:
    """Dense state-action values.  Exclusively owned by one training loop
    while learning; safe to share once finished."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("q-table must be 2-D (states x actions)")

    @classmethod
    def zeros(cls, n_states: int, n_actions: int) -> "QTable":
        return cls(np.zeros((n_states, n_actions), dtype=np.float64))

    @property
    def num_states(self) -> int:
        return self.values.shape[0]

    @property
    def num_actions(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "QTable":
        return QTable(self.values.copy())


class FiniteMdp:
    """A finite MDP: expected rewards (S, A) and the expectation operator
    ``expect(v)[s, a] = sum_s' P(s' | s, a) v[s']``.  Built by hand from a
    dense transitions array (S, A, S), whose product with ``v`` is the
    operator; ``from_env`` gives the workshop in factored form instead."""

    def __init__(self, transitions: np.ndarray, rewards: np.ndarray):
        self.transitions = transitions
        self.rewards = rewards

    def expect(self, v: np.ndarray) -> np.ndarray:
        return self.transitions @ v

    @property
    def num_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def num_actions(self) -> int:
        return self.rewards.shape[1]

    @property
    def rmax(self) -> float:
        return float(np.max(np.abs(self.rewards))) if self.rewards.size else 0.0

    @classmethod
    def from_env(cls, params: EnvParams, profile: WorkerProfile) -> "WorkshopMdp":
        """The workshop, exactly (no sampling): its factored transition
        model and its reward table."""
        return WorkshopMdp(FactoredModel(params, profile), reward_table(params, profile))


class WorkshopMdp(FiniteMdp):
    """The workshop as its ``FactoredModel`` plus the (S, A) rewards.
    ``expect`` never builds the dense matrix; ``transitions`` builds it with
    ``FactoredModel.dense()`` on first read and keeps it, as an oracle for
    tests and checks."""

    def __init__(self, model: FactoredModel, rewards: np.ndarray):
        self.model = model
        self.rewards = rewards

    @cached_property
    def transitions(self) -> np.ndarray:
        return self.model.dense()

    def expect(self, v: np.ndarray) -> np.ndarray:
        return self.model.expect(v)


def value_iteration(
    mdp: FiniteMdp, gamma: float, tolerance: float = 1e-9
) -> QTable:
    """Full-backup iteration of the Bellman optimality operator from zero.

    Stops once the max-norm change between sweeps is <= tolerance, which
    bounds the Bellman residual of the result by gamma * tolerance.  Reads
    only ``mdp.rewards`` and ``mdp.expect``.
    """
    if tolerance <= 0:
        raise InvalidToleranceError(f"tolerance must be positive, got {tolerance}")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0,1), got {gamma}")
    q = np.zeros_like(mdp.rewards)
    rmax = float(np.max(np.abs(mdp.rewards), initial=0.0))
    if rmax == 0.0:
        return QTable(q)
    max_sweeps = (
        math.ceil(math.log(tolerance * (1.0 - gamma) / rmax) / math.log(gamma)) + 1
        if gamma > 0.0
        else 1
    )
    for _ in range(max(max_sweeps, 1) + 2):
        nxt = mdp.rewards + gamma * mdp.expect(q.max(axis=1))
        delta = float(np.max(np.abs(nxt - q)))
        q = nxt
        if delta <= tolerance:
            return QTable(q)
    raise RuntimeError("value iteration failed to converge within its sweep bound")


def bellman_residual(q: QTable, mdp: FiniteMdp, gamma: float) -> float:
    """Max-norm deviation from the Bellman fixed point; 0 iff q is optimal.
    Reads only ``mdp.rewards`` and ``mdp.expect``."""
    backup = mdp.rewards + gamma * mdp.expect(q.values.max(axis=1))
    return float(np.max(np.abs(q.values - backup)))


def q_update(
    q: QTable,
    s: int,
    a: int,
    r: float,
    s_next: int,
    eta: float,
    gamma: float,
    done: bool = False,
) -> float:
    """One sampled Bellman update of entry (s, a) in place; returns the TD
    error.  ``done`` suppresses the bootstrap (terminal convention); horizon
    truncation in the workshop bootstraps normally."""
    _check_learning_rate(eta)
    n, m = q.values.shape
    if not (0 <= s < n and 0 <= s_next < n):
        raise IndexError(f"state index out of range [0, {n})")
    if not 0 <= a < m:
        raise IndexError(f"action index out of range [0, {m})")
    target = r if done else r + gamma * float(q.values[s_next].max())
    td = target - float(q.values[s, a])
    q.values[s, a] += eta * td
    return td


def epsilon_greedy(q: QTable, s: int, epsilon: float, rng: np.random.Generator) -> int:
    """Greedy action with probability 1 - epsilon (ties take the lowest
    index), uniform otherwise."""
    _check_epsilon(epsilon)
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q.num_actions))
    return int(np.argmax(q.values[s]))


def _check_learning_rate(eta: float) -> None:
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"learning rate must be in (0,1], got {eta}")


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0,1], got {epsilon}")


def greedy_policy(q: QTable) -> np.ndarray:
    """The policy of a q-table: its greedy action index for every state id
    (ties take the lowest index)."""
    return np.argmax(q.values, axis=1)


@dataclass(frozen=True)
class LearningSchedule:
    """Q-learning schedule: constant learning rate, linear epsilon decay
    over the first ``decay_steps`` episodes."""

    learning_rate: float = 0.1
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    decay_steps: int = 4000
    episodes: int = 5000

    def __post_init__(self) -> None:
        _check_learning_rate(self.learning_rate)
        for e in (self.epsilon_start, self.epsilon_end):
            _check_epsilon(e)
        if self.epsilon_end > self.epsilon_start:
            raise ValueError("epsilon_end must not exceed epsilon_start")
        if self.decay_steps < 0 or self.episodes < 0:
            raise ValueError("decay_steps and episodes must be non-negative")

    def epsilon_at(self, episode: int) -> float:
        return linear_decay(self.epsilon_start, self.epsilon_end, self.decay_steps, episode)


def linear_decay(start: float, end: float, steps: int, t: int) -> float:
    """``start`` moved linearly to ``end`` over the first ``steps`` of ``t``,
    then ``end``; the exploration schedule of both learners."""
    if steps <= 0:
        return end
    f = min(1.0, t / steps)
    return start + f * (end - start)


@dataclass(frozen=True)
class EpisodeMetrics:
    episode: int
    episode_return: float
    epsilon: float
    max_abs_td_error: float


def max_step_reward(params: EnvParams) -> float:
    """Largest composite reward obtainable in one step."""
    m, w = params.rewards, params.weights
    return (
        w.w_worker * max(m.worker_match, m.worker_mismatch)
        + w.w_team * max(m.team_ok, m.team_bad)
        + sum(w.w_context * max(0.0, m.context_unsafe) for c in params.contexts if c.influences_worker)
    )


def optimistic_initial_value(params: EnvParams) -> float:
    """Horizon-limited upper bound on any return: a Q-table initialised here
    explores under-visited actions until their estimates settle, which keeps
    sample-based learning from starving rarely-visited state-action pairs."""
    g, h = params.gamma, params.horizon
    return max_step_reward(params) * (1.0 - g**h) / (1.0 - g)


def train_tabular(
    env: WorkshopEnv,
    schedule: LearningSchedule,
    gamma: float,
    partial_obs: bool = False,
    initial_q: float = 0.0,
) -> tuple[QTable, list[EpisodeMetrics]]:
    """Epsilon-greedy Q-learning against the environment.

    Deterministic given the environment seed: exploration draws come from a
    dedicated stream derived from it.  With ``partial_obs`` the learner sees
    the noisy inference channel instead of the true worker state.  The table
    starts at ``initial_q`` (zeros by default; see optimistic_initial_value
    for the optimistic option).  The loop runs on state ids with
    ``epsilon_greedy`` and ``q_update`` inlined, draw for draw and float
    operation for float operation; the schedule has validated their
    arguments once, and the env only yields ids in range.
    """
    rng = np.random.default_rng([env.params.seed, 1])
    q = QTable(np.full((env.num_states, env.num_actions), float(initial_q)))
    values = q.values
    eta = schedule.learning_rate
    metrics: list[EpisodeMetrics] = []
    for episode in range(schedule.episodes):
        eps = schedule.epsilon_at(episode)
        state, obs = env.reset_id()
        s = obs if partial_obs else state
        ep_return = 0.0
        max_td = 0.0
        for _ in range(env.params.horizon):
            if eps > 0.0 and rng.random() < eps:
                a = int(rng.integers(env.num_actions))
            else:
                a = int(values[s].argmax())
            state, obs, reward, done = env.step_id(a)
            s_next = obs if partial_obs else state
            td = reward + gamma * float(values[s_next].max()) - float(values[s, a])
            values[s, a] += eta * td
            ep_return += reward
            max_td = max(max_td, abs(td))
            s = s_next
            if done:
                break
        metrics.append(EpisodeMetrics(episode, ep_return, eps, max_td))
    return q, metrics


# ---------------------------------------------------------------------------
# Policy evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalSummary:
    episodes: int
    mean_return: float
    worker_match_rate: float
    safety_violation_rate: float


def evaluate_policy(
    params: EnvParams,
    profile: WorkerProfile,
    actions: np.ndarray,
    episodes: int,
) -> EvalSummary:
    """Rollouts of the policy ``actions``, an (S,) array of action indices
    over state ids, acting on the true state.

    Reports mean undiscounted return, the fraction of steps whose action
    matched the worker-need rule, and the fraction of steps whose reward
    has a non-zero safety term (an unsafe action next to a degraded
    influencing machine).  Episode ``i`` starts from seed
    ``params.seed + 100_000 + i``.
    """
    if episodes <= 0:
        return EvalSummary(0, 0.0, 0.0, 0.0)
    env = WorkshopEnv(params, profile)
    actions = np.asarray(actions)
    if actions.shape != (env.num_states,):
        raise ValueError(f"policy of shape {actions.shape} for {env.num_states} states")
    returns = []
    visited = []
    for i in range(episodes):
        s, _ = env.reset_id(seed=params.seed + 100_000 + i)
        total, done = 0.0, False
        while not done:
            visited.append(s)
            s, _, reward, done = env.step_id(int(actions[s]))
            total += reward
        returns.append(total)
    visited = np.array(visited)
    taken = actions[visited]
    matches = int(np.count_nonzero(taken == worker_need_ids(params, profile)[visited]))
    violations = int(np.count_nonzero(safety_violation_ids(params)[visited, taken]))
    return EvalSummary(
        episodes=episodes,
        mean_return=float(np.mean(returns)),
        worker_match_rate=matches / len(visited),
        safety_violation_rate=violations / len(visited),
    )


def exact_match_rate(
    policy_actions: np.ndarray, params: EnvParams, profile: WorkerProfile
) -> float:
    """Fraction of the enumerated state space where the policy picks the
    worker-need action (no sampling)."""
    need = worker_need_ids(params, profile)
    return int(np.count_nonzero(np.asarray(policy_actions) == need)) / len(need)


# ---------------------------------------------------------------------------
# Persistence (flat binary array with a small header)
# ---------------------------------------------------------------------------

_QTABLE_MAGIC = b"QTB1"


def save_qtable(q: QTable, gamma: float, path: str | Path) -> None:
    if not np.all(np.isfinite(q.values)):
        raise ValueError("refusing to persist a q-table with non-finite entries")
    header = _QTABLE_MAGIC + struct.pack("<qqd", q.num_states, q.num_actions, gamma)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.values.astype("<f8").tobytes())


def load_qtable(path: str | Path) -> tuple[QTable, float]:
    with open(path, "rb") as fh:
        blob = fh.read()
    head = len(_QTABLE_MAGIC) + struct.calcsize("<qqd")
    if len(blob) < head or blob[: len(_QTABLE_MAGIC)] != _QTABLE_MAGIC:
        raise ValueError(f"{path}: not a q-table file")
    n, a, gamma = struct.unpack("<qqd", blob[len(_QTABLE_MAGIC) : head])
    values = np.frombuffer(blob[head:], dtype="<f8")
    if values.size != n * a:
        raise ValueError(f"{path}: truncated q-table payload")
    return QTable(values.reshape(n, a).copy()), gamma
