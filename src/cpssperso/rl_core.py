"""Tabular solvers for the workshop Q-function.

Exact value iteration sweeps the Bellman operator of the enumerated model to
its fixed point; tabular Q-learning approaches the same fixed point from sampled
transitions; both share the greedy/epsilon-greedy readout.  A finished
Q-table can be persisted as a flat binary array with a small header.
"""

from __future__ import annotations

import math
import os
import struct
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .workshop_env import (
    EnvParams,
    FactoredModel,
    ScalarDraws,
    WorkerProfile,
    WorkshopEnv,
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
    ``expect(v, out)[s, a] = sum_s' P(s' | s, a) v[s']``, written into
    ``out``, an (A, S) array, and returned as its (S, A) view.  Built by
    hand from a dense transitions array (S, A, S), whose product with ``v``
    is the operator; ``from_env`` gives the workshop in factored form
    instead."""

    def __init__(self, transitions: np.ndarray, rewards: np.ndarray):
        self.transitions = transitions
        self.rewards = rewards

    def expect(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.matmul(self.transitions, v, out=out.T)

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
        model, and its reward table on first read."""
        return WorkshopMdp(FactoredModel(params, profile))


class WorkshopMdp(FiniteMdp):
    """The workshop as the ``FactoredModel`` it is given, which alone it
    reads, plus the (S, A) rewards that the model's total cells give, built
    on first read.  ``expect`` never builds the dense matrix; ``transitions``
    builds it with ``FactoredModel.dense()`` on first read and keeps it, as
    an oracle for tests and checks."""

    def __init__(self, model: FactoredModel):
        self.model = model

    @cached_property
    def rewards(self) -> np.ndarray:
        cells = self.model.reward_cells[0].transpose(2, 0, 1)
        # take, unlike an index array on the last axis, returns a C-contiguous
        # (A, 36, 2^k) array, so the reshape is a view
        return cells.take(self.model.influence_counts, axis=2).reshape(len(cells), -1).T

    @cached_property
    def transitions(self) -> np.ndarray:
        return self.model.dense()

    def expect(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self.model.expect(v, out)

    def lumped(self) -> "LumpedMdp":
        """The same workshop on its lumped chain; builds nothing."""
        return LumpedMdp(self.model)


class LumpedMdp(FiniteMdp):
    """The workshop on the chain of (worker x pressure, number ``c`` of
    degraded influencing machines), lumped state ``(s >> k) * (m + 1) + c``
    for ``m`` influencing machines: 36 (m + 1) states in place of 36 * 2^k.

    The lumping is exact (Kemeny & Snell 1960): the worker sees the
    machines only through the flag ``c > 0`` and the reward only through
    ``c``, and under one action every machine moves by the same kernel, so
    ``c`` moves by a sum of two binomials (``c -> c + Bin(m - c, p)`` under
    the four actions other than assist, ``c -> 0`` under assist).  Machines
    that influence nothing drop out.  Q of a state id is the lumped Q of its
    lumped state, to rounding.  All is built from the model it is given, on
    first read: the count kernels and the rewards inside ``value_iteration``,
    and ``transitions``, the dense (L, A, L) matrix, an oracle."""

    def __init__(self, model: FactoredModel):
        self.model = model
        self.num_counts = model.influence_mask.bit_count() + 1

    @cached_property
    def rewards(self) -> np.ndarray:
        """The model's total cells as the (L, A) view of an (A, L) array."""
        cells = self.model.reward_cells[0]
        return np.ascontiguousarray(cells.transpose(2, 0, 1)).reshape(cells.shape[2], -1).T

    @cached_property
    def _count_kernels(self) -> np.ndarray:
        """The (A, m + 1, m + 1) count kernels, one pass per action.  Row
        ``c`` of an action's is the distribution of the next count: the next
        bits of the ``c`` degraded machines convolved with those of the
        ``m - c`` ok ones, under the action's ``model.machine_kernel``."""
        n = self.num_counts
        out = np.empty((len(self.model.machine_kernel), n, n))
        for a, kernel in enumerate(self.model.machine_kernel):
            # [bit][j]: the distribution of how many of j machines at bit go to 1
            pmfs: list[list[np.ndarray]] = [[np.ones(1)], [np.ones(1)]]
            for _ in range(n - 1):
                for bit in (0, 1):
                    pmfs[bit].append(np.convolve(pmfs[bit][-1], kernel[bit]))
            out[a] = [np.convolve(pmfs[1][c], pmfs[0][n - 1 - c]) for c in range(n)]
        return out

    @cached_property
    def _operators(self) -> tuple[np.ndarray, np.ndarray]:
        """What ``expect`` needs, built once: the count kernels as one
        (A (m + 1) 2, m + 1) array, whose row (a, c, f) is row ``c`` of
        action ``a``'s kernel where ``f`` is the flag ``c > 0`` and zero
        where it is not, and the (A, 36, 2 * 36) worker x pressure kernels
        of both flags side by side."""
        wt = self.model.worker_team
        _, n_a, n_wt, _ = wt.shape
        n = self.num_counts
        masked = np.zeros((n_a, n, 2, n))
        masked[:, 0, 0] = self._count_kernels[:, 0]
        masked[:, 1:, 1] = self._count_kernels[:, 1:]
        both = np.ascontiguousarray(wt.transpose(1, 2, 0, 3)).reshape(n_a, n_wt, 2 * n_wt)
        return masked.reshape(-1, n), both

    @cached_property
    def transitions(self) -> np.ndarray:
        wt = self.model.worker_team
        flags = (np.arange(self.num_counts) > 0).astype(np.intp)
        # [worker x pressure, count, action, next worker x pressure, next count]
        p = np.einsum("caij,acd->icajd", wt[flags], self._count_kernels)
        return p.reshape(self.num_states, wt.shape[1], -1)

    def expect(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``transitions @ v`` as an (L, A) array, without building the
        matrix, in two products: the count kernels on ``v`` as a (36, m + 1)
        array, each row into the slot of its flag, then per action both
        flags' worker x pressure kernels on those, written straight into
        ``out``, a C-contiguous (A, L) float64 array, whose (L, A) view is
        returned.  Where a flag does not hold, its slot is zero, which
        changes no sum."""
        masked, both = self._operators
        n_a, n_wt, _ = both.shape
        n = self.num_counts
        if out.shape != (n_a, n_wt * n) or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float64 array of shape {(n_a, n_wt * n)}")
        # [action, count, flag x worker x pressure]
        z = (masked @ v.reshape(n_wt, n).T).reshape(n_a, n, 2 * n_wt)
        np.matmul(both, z.transpose(0, 2, 1), out=out.reshape(n_a, n_wt, n))
        return out.T

    def expand(self, lumped: np.ndarray) -> np.ndarray:
        """An array over lumped states, such as a policy or a Q-table, as
        the array over state ids that takes each id's lumped entry: the
        count is the model's ``influence_counts`` of the id's machine bits."""
        k = self.model.num_machines
        rows = lumped.reshape(-1, self.num_counts, *lumped.shape[1:])
        return rows.take(self.model.influence_counts, axis=1).reshape(len(rows) << k, *lumped.shape[1:])


def value_iteration(
    mdp: FiniteMdp, gamma: float, tolerance: float = 1e-9
) -> QTable:
    """Full-backup iteration of the Bellman optimality operator from zero.

    Stops once the max-norm change between sweeps is <= tolerance, which
    bounds the Bellman residual of the result by gamma * tolerance.  Reads
    only ``mdp.rewards`` and ``mdp.expect``.

    Sweeps run action-major: Q and the next Q are two (A, S) C-contiguous
    buffers, allocated once and swapped every sweep, so the max over actions
    and every elementwise step run along the state axis, and ``expect``
    writes into the next-Q buffer (its ``out``).  The workshop's rewards are
    the (S, A) view of an (A, S) array too, so adding them is contiguous;
    any other layout gives the same bytes, more slowly.  Each step is
    elementwise or an exact max, and ``gamma * E[v] + r`` equals
    ``r + gamma * E[v]`` bit for bit, so Q is bit-identical to the
    state-major backup ``rewards + gamma * expect(q.max(axis=1))``.  The
    returned table views the last buffer as (S, A).
    """
    if tolerance <= 0:
        raise InvalidToleranceError(f"tolerance must be positive, got {tolerance}")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0,1), got {gamma}")
    q = np.zeros(mdp.rewards.shape[::-1])
    rmax = float(np.max(np.abs(mdp.rewards), initial=0.0))
    if rmax == 0.0:
        return QTable(q.T)
    max_sweeps = (
        math.ceil(math.log(tolerance * (1.0 - gamma) / rmax) / math.log(gamma)) + 1
        if gamma > 0.0
        else 1
    )
    nxt = np.empty_like(q)
    v = np.empty(q.shape[1])
    for _ in range(max(max_sweeps, 1) + 2):
        _backup(mdp, gamma, np.maximum.reduce(q, axis=0, out=v), nxt)
        # |nxt - q| goes into q's buffer, which is not read again
        delta = float(np.maximum.reduce(np.abs(np.subtract(nxt, q, out=q), out=q), axis=None))
        q, nxt = nxt, q
        if delta <= tolerance:
            return QTable(q.T)
    raise RuntimeError("value iteration failed to converge within its sweep bound")


def _backup(mdp: FiniteMdp, gamma: float, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The Bellman backup of state values ``v`` into the (A, S) array
    ``out``: ``gamma * expect(v) + rewards``, transposed.  ``expect``
    writes into ``out`` itself: an array of Q's size made and freed every
    sweep can be mapped afresh each time, and those page faults took about
    half of a 10-machine solve (1.4 against 0.74 s on a 2-vCPU host)."""
    mdp.expect(v, out)
    out *= gamma
    out += mdp.rewards.T
    return out


def bellman_residual(q: QTable, mdp: FiniteMdp, gamma: float) -> float:
    """Max-norm deviation from the Bellman fixed point; 0 iff q is optimal.
    Reads only ``mdp.rewards`` and ``mdp.expect``, through value iteration's
    backup."""
    backup = _backup(mdp, gamma, q.values.max(axis=1), np.empty(q.values.shape[::-1]))
    return float(np.max(np.abs(q.values.T - backup)))


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
    """Q-learning schedule, the `schedule` section of a config: constant
    learning rate, linear epsilon decay over the first ``decay_steps``
    episodes, and the value ``initial_q`` that every Q-table entry starts
    at (zeros by default; see optimistic_initial_value)."""

    learning_rate: float = 0.1
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    decay_steps: int = 4000
    episodes: int = 5000
    initial_q: float = 0.0

    def __post_init__(self) -> None:
        _check_learning_rate(self.learning_rate)
        check_linear_decay(self.epsilon_start, self.epsilon_end, self.decay_steps)
        if self.episodes < 0:
            raise ValueError(f"episodes must be non-negative, got {self.episodes}")
        if not math.isfinite(self.initial_q):
            raise ValueError(f"initial_q must be finite, got {self.initial_q}")

    def epsilon_at(self, episode: int) -> float:
        return linear_decay(self.epsilon_start, self.epsilon_end, self.decay_steps, episode)


def check_linear_decay(start: float, end: float, steps: int) -> None:
    """The rule of both learners' epsilon decay: both rates in [0, 1], the
    end no greater than the start, and a non-negative number of steps."""
    for e in (start, end):
        _check_epsilon(e)
    if end > start:
        raise ValueError(f"epsilon end {end} must not exceed its start {start}")
    if steps < 0:
        raise ValueError(f"epsilon decay steps must be non-negative, got {steps}")


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
    partial_obs: bool = False,
) -> tuple[QTable, list[EpisodeMetrics]]:
    """Epsilon-greedy Q-learning against the environment, discounted by
    ``env.params.gamma``.

    Deterministic given the environment seed: exploration draws come from a
    dedicated stream derived from it, a ``ScalarDraws`` with the values of
    ``np.random.default_rng([seed, 1])``.  With ``partial_obs`` the learner
    sees the noisy inference channel instead of the true worker state.  The
    table starts at ``schedule.initial_q``.  The loop runs on
    state ids with ``epsilon_greedy`` and ``q_update`` inlined, draw for
    draw and float operation for float operation; the schedule has
    validated their arguments once, and the env only yields ids in range.
    While learning, the table is one flat ``array`` of S x A floats, read
    and written as Python floats; the returned ``QTable`` views the same
    memory.
    """
    rng = ScalarDraws([env.params.seed, 1])
    n_a = env.num_actions
    values = array("d", [schedule.initial_q]) * (env.num_states * n_a)
    eta = schedule.learning_rate
    gamma = env.params.gamma
    step = env.step_id
    metrics: list[EpisodeMetrics] = []
    for episode in range(schedule.episodes):
        eps = schedule.epsilon_at(episode)
        state, obs = env.reset_id()
        i = (obs if partial_obs else state) * n_a
        ep_return = 0.0
        max_td = 0.0
        for _ in range(env.params.horizon):
            if eps > 0.0 and rng.random() < eps:
                a = rng.integers(n_a)
            else:
                row = values[i : i + n_a]
                a = row.index(max(row))  # the first maximum, as argmax
            state, obs, reward, done = step(a)
            j = (obs if partial_obs else state) * n_a
            td = reward + gamma * max(values[j : j + n_a]) - values[i + a]
            values[i + a] += eta * td
            ep_return += reward
            max_td = max(max_td, abs(td))
            i = j
            if done:
                break
        metrics.append(EpisodeMetrics(episode, ep_return, eps, max_td))
    return QTable(np.frombuffer(values).reshape(env.num_states, n_a)), metrics


# ---------------------------------------------------------------------------
# Policy evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalSummary:
    episodes: int
    mean_return: float
    worker_match_rate: float
    safety_violation_rate: float


def _check_policy(actions: np.ndarray, n_states: int) -> np.ndarray:
    """``actions`` as an array if it is a policy over ``n_states`` ids, else ``ValueError``."""
    actions = np.asarray(actions)
    n_actions = WorkshopEnv.num_actions
    if actions.shape != (n_states,):
        raise ValueError(f"policy of shape {actions.shape} for {n_states} states")
    if actions.dtype.kind not in "iu":
        raise ValueError(f"policy of dtype {actions.dtype}, not of action indices")
    if actions.min() < 0 or actions.max() >= n_actions:
        raise ValueError(f"policy actions outside [0, {n_actions})")
    return actions


def evaluate_policy(
    env: WorkshopEnv,
    actions: np.ndarray,
    episodes: int,
    partial_obs: bool = False,
) -> EvalSummary:
    """Rollouts on ``env`` of the policy ``actions``, an (S,) array of action
    indices over state ids, acting on the true state, or with
    ``partial_obs`` on the observed one (``actions[obs]``), through the
    inference channel it was trained on.  Both make the same draws in the
    same order.  A policy of another shape, of a non-integer dtype or with
    an index outside ``[0, 5)`` raises ``ValueError``.

    Reports mean undiscounted return, the fraction of steps whose action
    matched the worker-need rule of the true state, and the fraction of
    steps whose reward has a non-zero safety term (an unsafe action next to
    a degraded influencing machine), both read off the env model's
    ``reward_cells`` at the steps taken.  Episode ``i`` reseeds the env
    with ``params.seed + 100_000 + i``, and a row depends only on the state
    and the action, so an env that training stepped scores as a new one.
    """
    if episodes <= 0:
        return EvalSummary(0, 0.0, 0.0, 0.0)
    actions = _check_policy(actions, env.num_states)
    returns = []
    visited = []
    acted_on = []
    for i in range(episodes):
        s, obs = env.reset_id(seed=env.params.seed + 100_000 + i)
        total, done = 0.0, False
        while not done:
            visited.append(s)
            acted_on.append(obs if partial_obs else s)
            s, obs, reward, done = env.step_id(int(actions[acted_on[-1]]))
            total += reward
        returns.append(total)
    visited, k = np.array(visited), env.model.num_machines
    cells = visited >> k, env.model.influence_counts[visited & ((1 << k) - 1)], actions[acted_on]
    _, match, violation = env.model.reward_cells
    return EvalSummary(
        episodes=episodes,
        mean_return=float(np.mean(returns)),
        worker_match_rate=int(np.count_nonzero(match[cells])) / len(visited),
        safety_violation_rate=int(np.count_nonzero(violation[cells])) / len(visited),
    )


def exact_match_rate(policy_actions: np.ndarray, model: FactoredModel) -> float:
    """Fraction of the enumerated state space where the policy picks the
    worker-need action (no sampling), from the match cells of the model's
    ``reward_cells``; the policy is checked as by ``evaluate_policy``."""
    _, match, _ = model.reward_cells
    policy = _check_policy(policy_actions, len(match) << model.num_machines)
    wp = np.arange(len(match))[:, None]
    hits = match[wp, model.influence_counts, policy.reshape(len(match), -1)]
    return int(np.count_nonzero(hits)) / policy.size


# ---------------------------------------------------------------------------
# Persistence (flat binary array with a small header)
# ---------------------------------------------------------------------------

#: The first four bytes of a q-table file.
QTABLE_MAGIC = b"QTB1"


@contextmanager
def replacing(path: str | Path, mode: str = "wb", **kwargs):
    """A file opened with ``mode`` beside ``path``, that ``os.replace``
    moves onto ``path`` when the block ends without an error.  So ``path``
    holds its old content or the whole new one, never a part: an error or
    an interruption removes the temporary file and leaves ``path`` as it
    was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_qtable(q: QTable, gamma: float, path: str | Path) -> None:
    if not np.all(np.isfinite(q.values)):
        raise ValueError("refusing to persist a q-table with non-finite entries")
    header = QTABLE_MAGIC + struct.pack("<qqd", q.num_states, q.num_actions, gamma)
    with replacing(path) as fh:
        fh.write(header)
        fh.write(q.values.astype("<f8").tobytes())


def load_qtable(path: str | Path) -> tuple[QTable, float]:
    with open(path, "rb") as fh:
        blob = fh.read()
    head = len(QTABLE_MAGIC) + struct.calcsize("<qqd")
    if len(blob) < head or blob[: len(QTABLE_MAGIC)] != QTABLE_MAGIC:
        raise ValueError(f"{path}: not a q-table file")
    n, a, gamma = struct.unpack("<qqd", blob[len(QTABLE_MAGIC) : head])
    values = np.frombuffer(blob[head:], dtype="<f8")
    if values.size != n * a:
        raise ValueError(f"{path}: truncated q-table payload")
    return QTable(values.reshape(n, a).copy()), gamma
