"""Desk-scale smart-workshop MDP for cobot personalisation.

The state combines a worker (emotional state, cognitive load, working pace),
the surrounding team (pressure) and one machine per context element.  The
cobot picks one of five discrete actions per step.  The reward is a weighted
sum of a worker term (did the action match what the worker currently needs),
a team throughput term, and per-machine safety penalties; the worker weight
must strictly dominate the others.

The transition structure is an explicit, fully enumerable distribution
(`transition_model`, the readable reference).  `FactoredModel` holds the same
distribution as per-factor tables on integer state ids; the environment
samples its rows, and exact solvers take expectations from it factor by
factor, with ``reward_table`` as their rewards.  What the cobot perceives
is a ``WorkshopState`` too, read through a noisy inference channel: with
probability ``alpha`` the observed worker state is the true one, otherwise
it is uniform over the remaining worker states; team and machines are read
exactly.  States carry no time: the environment counts the steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, is_dataclass, replace
from enum import Enum
from typing import Iterator, Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np


class InvalidParamsError(ValueError):
    """Environment parameters violating a constraint (weight priority, ranges)."""


class EpisodeOverError(RuntimeError):
    """step() called on a finished episode."""


class Emotion(str, Enum):
    CALM = "calm"
    STRESSED = "stressed"


class CognitiveLoad(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class Pace(str, Enum):
    SLOW = "slow"
    NORMAL = "normal"
    FAST = "fast"


class Pressure(str, Enum):
    LOW = "low"
    HIGH = "high"


class MachineCondition(str, Enum):
    OK = "ok"
    DEGRADED = "degraded"


class Action(str, Enum):
    SLOW_DOWN = "slow_down"
    SPEED_UP = "speed_up"
    HOLD = "hold"
    ASSIST = "assist"
    HANDOVER = "handover"


ACTIONS: tuple[Action, ...] = tuple(Action)
ACTION_INDEX: dict[Action, int] = {a: i for i, a in enumerate(ACTIONS)}

EMOTIONS = (Emotion.CALM, Emotion.STRESSED)
LOADS = (CognitiveLoad.LOW, CognitiveLoad.MEDIUM, CognitiveLoad.HIGH)
PACES = (Pace.SLOW, Pace.NORMAL, Pace.FAST)

_EMO_IDX = {v: i for i, v in enumerate(EMOTIONS)}
_LOAD_IDX = {v: i for i, v in enumerate(LOADS)}
_PACE_IDX = {v: i for i, v in enumerate(PACES)}


@dataclass(frozen=True, slots=True)
class WorkerProfile:
    """Fixed per-episode traits of the worker being personalised for."""

    pace_preference: Pace = Pace.NORMAL


@dataclass(frozen=True, slots=True)
class WorkerState:
    emotional: Emotion
    cognitive_load: CognitiveLoad
    pace: Pace


#: All 18 worker states in lexicographic (emotional, load, pace) order.
WORKER_STATES: tuple[WorkerState, ...] = tuple(
    WorkerState(e, l, p) for e in EMOTIONS for l in LOADS for p in PACES
)
WORKER_INDEX: dict[WorkerState, int] = {w: i for i, w in enumerate(WORKER_STATES)}


@dataclass(frozen=True, slots=True)
class TeamState:
    pressure: Pressure


@dataclass(frozen=True, slots=True)
class ContextElement:
    """State of one context element (a machine) plus whether it influences
    the worker.  Elements that do not influence the worker never touch the
    worker's dynamics or any reward term."""

    id: str
    machine: MachineCondition
    influences_worker: bool


@dataclass(frozen=True, slots=True)
class WorkshopState:
    worker: WorkerState
    team: TeamState
    contexts: tuple[ContextElement, ...]


@dataclass(frozen=True, slots=True)
class RewardBreakdown:
    """Per-entity reward terms; ``r_context`` holds one entry per influencing
    context element.  ``total`` is the weighted composite."""

    r_worker: float
    r_team: float
    r_context: tuple[float, ...]
    total: float


@dataclass(frozen=True)
class RewardWeights:
    w_worker: float = 1.0
    w_team: float = 0.5
    w_context: float = 0.5


@dataclass(frozen=True)
class RewardMagnitudes:
    worker_match: float = 1.0
    worker_mismatch: float = -1.0
    team_ok: float = 0.5
    team_bad: float = -0.5
    context_unsafe: float = -2.0


@dataclass(frozen=True)
class ContextConfig:
    id: str
    influences_worker: bool = True


# 36 << 16 = 2,359,296 states, whose float64 Q-table over 5 actions takes
# 94 MB; every further machine doubles both, so larger configs cannot be solved.
MAX_MACHINES = 16


@dataclass(frozen=True)
class EnvParams:
    """Everything that defines one workshop instance.

    ``weights.w_worker`` must be strictly greater than both other weights:
    the worker term is the prioritised one.  At most ``MAX_MACHINES``
    context elements.
    """

    gamma: float = 0.95
    alpha: float = 0.9
    noise_p: float = 0.1
    horizon: int = 50
    weights: RewardWeights = field(default_factory=RewardWeights)
    contexts: tuple[ContextConfig, ...] = (ContextConfig("machine1", True),)
    seed: int = 0
    pressure_flip_p: float = 0.1
    machine_degrade_p: float = 0.05
    rewards: RewardMagnitudes = field(default_factory=RewardMagnitudes)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise InvalidParamsError(f"gamma must be in (0,1), got {self.gamma}")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParamsError(f"alpha must be in (0,1], got {self.alpha}")
        if not 0.0 <= self.noise_p <= 1.0:
            raise InvalidParamsError(f"noise_p must be in [0,1], got {self.noise_p}")
        if self.horizon < 1:
            raise InvalidParamsError(f"horizon must be positive, got {self.horizon}")
        if self.seed < 0:
            raise InvalidParamsError(f"seed must be non-negative, got {self.seed}")
        w = self.weights
        if w.w_worker <= 0 or w.w_team <= 0 or w.w_context <= 0:
            raise InvalidParamsError("all reward weights must be positive")
        if w.w_worker <= w.w_team or w.w_worker <= w.w_context:
            raise InvalidParamsError(
                "worker weight must strictly dominate team and context weights "
                f"(got {w.w_worker}, {w.w_team}, {w.w_context})"
            )
        for p in (self.pressure_flip_p, self.machine_degrade_p):
            if not 0.0 <= p <= 1.0:
                raise InvalidParamsError(f"probability out of [0,1]: {p}")
        ids = [c.id for c in self.contexts]
        if len(ids) > MAX_MACHINES:
            raise InvalidParamsError(f"at most {MAX_MACHINES} machines, got {len(ids)}")
        if len(set(ids)) != len(ids):
            raise InvalidParamsError(f"context ids must be unique: {ids}")


def num_states(params: EnvParams) -> int:
    """Size of the tabular state space: 18 worker x 2 pressure x 2^machines."""
    return 36 << len(params.contexts)


def worker_need(state: WorkshopState, profile: WorkerProfile) -> Action:
    """Deterministic ground truth of the action the worker needs right now.

    Checked in order (first match wins): slow down when stressed or pacing
    above preference; speed up when calm and pacing below preference; assist
    on high cognitive load; hold on medium load at preferred pace.  A fully
    recovered worker gets the task handed over, except that a degraded
    influencing machine needs assistance before any handover.
    """
    worker = state.worker
    pref = _PACE_IDX[profile.pace_preference]
    pace = _PACE_IDX[worker.pace]
    if worker.emotional is Emotion.STRESSED or pace > pref:
        return Action.SLOW_DOWN
    if pace < pref:
        return Action.SPEED_UP
    if worker.cognitive_load is CognitiveLoad.HIGH:
        return Action.ASSIST
    if worker.cognitive_load is CognitiveLoad.MEDIUM:
        return Action.HOLD
    if any(
        c.influences_worker and c.machine is MachineCondition.DEGRADED
        for c in state.contexts
    ):
        return Action.ASSIST
    return Action.HANDOVER


# ---------------------------------------------------------------------------
# Transition model
# ---------------------------------------------------------------------------

_DIM_LEVELS: dict[str, tuple] = {
    "emotional": EMOTIONS,
    "cognitive_load": LOADS,
    "pace": PACES,
}


def _step_toward(levels: tuple, current, goal):
    i, g = levels.index(current), levels.index(goal)
    if i > g:
        return levels[i - 1]
    if i < g:
        return levels[i + 1]
    return current


def _step_away(levels: tuple, current, goal):
    i, g = levels.index(current), levels.index(goal)
    if i >= g:
        return levels[min(i + 1, len(levels) - 1)]
    return levels[max(i - 1, 0)]


def _matched_move(worker: WorkerState, profile: WorkerProfile, action: Action):
    """Dimension/target pair for an action that matches the worker's need;
    None when there is nothing left to improve (handover on an ideal state)."""
    if action is Action.SLOW_DOWN:
        if worker.emotional is Emotion.STRESSED:
            return "emotional", Emotion.CALM
        return "pace", _step_toward(PACES, worker.pace, profile.pace_preference)
    if action is Action.SPEED_UP:
        return "pace", _step_toward(PACES, worker.pace, profile.pace_preference)
    if action is Action.ASSIST or action is Action.HOLD:
        return "cognitive_load", _step_toward(LOADS, worker.cognitive_load, CognitiveLoad.LOW)
    return None


def _generic_degrade(worker: WorkerState, profile: WorkerProfile):
    """First degradable dimension, most-violated first (stress dominates load
    dominates pace), cascading past saturated dimensions; None when the
    worker is already fully degraded."""
    pref = profile.pace_preference
    order: list[str] = []
    if worker.emotional is Emotion.STRESSED:
        order.append("emotional")
    if worker.cognitive_load is not CognitiveLoad.LOW:
        order.append("cognitive_load")
    if worker.pace is not pref:
        order.append("pace")
    for dim in ("emotional", "cognitive_load", "pace"):
        if dim not in order:
            order.append(dim)
    for dim in order:
        if dim == "emotional" and worker.emotional is Emotion.CALM:
            return "emotional", Emotion.STRESSED
        if dim == "cognitive_load" and worker.cognitive_load is not CognitiveLoad.HIGH:
            return "cognitive_load", LOADS[_LOAD_IDX[worker.cognitive_load] + 1]
        if dim == "pace" and worker.pace is not pref:
            away = _step_away(PACES, worker.pace, pref)
            if away is not worker.pace:
                return "pace", away
    return None


def _degrade_move(worker: WorkerState, profile: WorkerProfile, action: Action):
    """Dimension/target pair for a mismatched action.

    The pace-control actions act on the pace itself (an unwanted speed-up or
    slow-down pushes the line off preference, saturating at the extremes);
    unneeded assistance is wasted support but does not harm the worker; the
    remaining mismatches degrade the most-violated dimension.
    """
    if action is Action.SPEED_UP or action is Action.SLOW_DOWN:
        idx = _PACE_IDX[worker.pace] + (1 if action is Action.SPEED_UP else -1)
        if 0 <= idx < len(PACES):
            return "pace", PACES[idx]
        return _generic_degrade(worker, profile)
    if action is Action.ASSIST:
        return None
    return _generic_degrade(worker, profile)


def _neighbors(levels: tuple, value) -> tuple:
    i = levels.index(value)
    out = []
    if i > 0:
        out.append(levels[i - 1])
    if i < len(levels) - 1:
        out.append(levels[i + 1])
    return tuple(out)


def _worker_outcomes(
    state: WorkshopState, action: Action, params: EnvParams, profile: WorkerProfile
) -> list[tuple[WorkerState, float]]:
    need = worker_need(state, profile)
    move = (
        _matched_move(state.worker, profile, action)
        if action is need
        else _degrade_move(state.worker, profile, action)
    )
    if move is not None and getattr(state.worker, move[0]) is move[1]:
        move = None  # targeting the current level is a no-op (e.g. assist
        # matched purely to repair a machine for an already-unloaded worker)
    acc: dict[WorkerState, float] = {}

    def add(w: WorkerState, p: float) -> None:
        if p > 0.0:
            acc[w] = acc.get(w, 0.0) + p

    if move is None:
        add(state.worker, 1.0)
    else:
        dim, target = move
        levels = _DIM_LEVELS[dim]
        add(replace(state.worker, **{dim: target}), 1.0 - params.noise_p)
        nbrs = _neighbors(levels, target)
        for nb in nbrs:
            add(replace(state.worker, **{dim: nb}), params.noise_p / len(nbrs))

    # A degraded machine that matters to the worker is a stressor under speed-up.
    if action is Action.SPEED_UP and any(
        c.influences_worker and c.machine is MachineCondition.DEGRADED
        for c in state.contexts
    ):
        stressed: dict[WorkerState, float] = {}
        for w, p in acc.items():
            sw = replace(w, emotional=Emotion.STRESSED)
            stressed[sw] = stressed.get(sw, 0.0) + p
        acc = stressed
    return list(acc.items())


def _pressure_outcomes(state: WorkshopState, params: EnvParams) -> list[tuple[Pressure, float]]:
    q = params.pressure_flip_p
    cur = state.team.pressure
    other = Pressure.HIGH if cur is Pressure.LOW else Pressure.LOW
    if q <= 0.0:
        return [(cur, 1.0)]
    if q >= 1.0:
        return [(other, 1.0)]
    return [(cur, 1.0 - q), (other, q)]


def _machine_outcomes(
    ctx: ContextElement, action: Action, params: EnvParams
) -> list[tuple[MachineCondition, float]]:
    if action is Action.ASSIST:
        return [(MachineCondition.OK, 1.0)]  # assist repairs
    if ctx.machine is MachineCondition.DEGRADED:
        return [(MachineCondition.DEGRADED, 1.0)]  # stays broken until repaired
    q = params.machine_degrade_p
    if q <= 0.0:
        return [(MachineCondition.OK, 1.0)]
    if q >= 1.0:
        return [(MachineCondition.DEGRADED, 1.0)]
    return [(MachineCondition.OK, 1.0 - q), (MachineCondition.DEGRADED, q)]


def transition_model(
    state: WorkshopState,
    action: Action,
    params: EnvParams,
    profile: WorkerProfile,
) -> list[tuple[WorkshopState, float]]:
    """Exact next-state distribution for one step, as (state, probability)
    pairs sorted by encoded state index.  Matched actions move the violated
    worker dimension one level toward its good value with probability
    ``1 - noise_p`` (noise lands on a uniform neighbour of the target);
    mismatched actions degrade the most-violated dimension.  Team pressure
    flips independently, machines degrade independently and are repaired by
    assist.
    """
    worker_out = _worker_outcomes(state, action, params, profile)
    pressure_out = _pressure_outcomes(state, params)
    machines_out = [_machine_outcomes(c, action, params) for c in state.contexts]

    acc: dict[int, tuple[WorkshopState, float]] = {}
    for w, pw in worker_out:
        for pr, pp in pressure_out:
            combos: list[tuple[tuple[MachineCondition, ...], float]] = [((), 1.0)]
            for m_out in machines_out:
                combos = [
                    (bits + (m,), pb * pm) for bits, pb in combos for m, pm in m_out
                ]
            for bits, pm in combos:
                prob = pw * pp * pm
                if prob <= 0.0:
                    continue
                contexts = tuple(
                    replace(c, machine=m) for c, m in zip(state.contexts, bits)
                )
                nxt = WorkshopState(w, TeamState(pr), contexts)
                key = encode_state(nxt)
                if key in acc:
                    acc[key] = (nxt, acc[key][1] + prob)
                else:
                    acc[key] = (nxt, prob)
    return [acc[k] for k in sorted(acc)]


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------

_UNSAFE_ACTIONS = frozenset({Action.SPEED_UP, Action.HANDOVER})
#: (A,) booleans: the unsafe actions by action index
_UNSAFE_INDEX = np.isin(np.arange(len(ACTIONS)), [ACTION_INDEX[a] for a in _UNSAFE_ACTIONS])


def composite_total(
    r_worker: float, r_team: float, r_context: Sequence[float], weights: RewardWeights
) -> float:
    """The prioritised weighted sum of per-entity reward terms."""
    total = weights.w_worker * r_worker + weights.w_team * r_team
    for rc in r_context:
        total += weights.w_context * rc
    return total


def reward_fn(
    state: WorkshopState,
    action: Action,
    params: EnvParams,
    profile: WorkerProfile,
) -> RewardBreakdown:
    """Composite reward for taking ``action`` in ``state``.

    Worker term: +match / -mismatch against the worker-need rule.  Team term:
    throughput is maintained unless the cobot holds under high pressure.
    Context terms (influencing elements only): a safety penalty when the
    action is unsafe next to a degraded machine (speed-up or handover).
    """
    mags = params.rewards
    r_worker = (
        mags.worker_match
        if action is worker_need(state, profile)
        else mags.worker_mismatch
    )
    throughput_ok = state.team.pressure is Pressure.LOW or action is not Action.HOLD
    r_team = mags.team_ok if throughput_ok else mags.team_bad
    r_context = tuple(
        mags.context_unsafe
        if c.machine is MachineCondition.DEGRADED and action in _UNSAFE_ACTIONS
        else 0.0
        for c in state.contexts
        if c.influences_worker
    )
    total = composite_total(r_worker, r_team, r_context, params.weights)
    return RewardBreakdown(r_worker, r_team, r_context, total)


# ---------------------------------------------------------------------------
# State encoding (bijection onto [0, num_states))
# ---------------------------------------------------------------------------


def encode_state(state: WorkshopState) -> int:
    """Lexicographic index over (emotional, load, pace, pressure, machines)."""
    idx = WORKER_INDEX[state.worker]
    idx = idx * 2 + (0 if state.team.pressure is Pressure.LOW else 1)
    for c in state.contexts:
        idx = idx * 2 + (0 if c.machine is MachineCondition.OK else 1)
    return idx


def decode_state(index: int, params: EnvParams) -> WorkshopState:
    """Inverse of encode_state."""
    total = num_states(params)
    if not 0 <= index < total:
        raise IndexError(f"state index {index} out of range [0, {total})")
    rem = index
    bits = []
    for _ in params.contexts:
        rem, b = divmod(rem, 2)
        bits.append(b)
    bits.reverse()
    rem, pressure_bit = divmod(rem, 2)
    worker = WORKER_STATES[rem]
    contexts = tuple(
        ContextElement(
            cfg.id,
            MachineCondition.DEGRADED if b else MachineCondition.OK,
            cfg.influences_worker,
        )
        for cfg, b in zip(params.contexts, bits)
    )
    return WorkshopState(
        worker,
        TeamState(Pressure.HIGH if pressure_bit else Pressure.LOW),
        contexts,
    )


def enumerate_states(params: EnvParams) -> Iterator[WorkshopState]:
    for i in range(num_states(params)):
        yield decode_state(i, params)


def initial_state(params: EnvParams, profile: WorkerProfile) -> WorkshopState:
    """Deterministic episode start: calm, unloaded, at preferred pace, low
    pressure, all machines ok."""
    worker = WorkerState(Emotion.CALM, CognitiveLoad.LOW, profile.pace_preference)
    contexts = tuple(
        ContextElement(c.id, MachineCondition.OK, c.influences_worker)
        for c in params.contexts
    )
    return WorkshopState(worker, TeamState(Pressure.LOW), contexts)


# ---------------------------------------------------------------------------
# Factored transition model on integer state ids
# ---------------------------------------------------------------------------


#: Machine bits per Kronecker power in ``FactoredModel.expect``: a (32, 32)
#: matrix, a few times more flops than one 2 x 2 pass per bit but one matrix
#: product in place of five rounds of array operations.
_KRON_BITS = 5


class FactoredModel:
    """``transition_model`` as per-factor tables on ``encode_state`` ids.

    The worker sees the machines only through the flag "any influencing
    machine degraded", so worker x pressure is one (36, 36) matrix per flag
    and action, and every machine moves by the same outcomes per action.
    The tables come from ``_worker_outcomes``, ``_pressure_outcomes`` and
    ``_machine_outcomes``.  Products are taken in ``transition_model``'s
    order, ``(p_worker * p_pressure) * ((m1 * m2) * ...)``, and zero outcomes
    are dropped, so rows and the dense matrix are bit-equal to it.  ``expect``
    takes expectations under the kernel without building that matrix.
    """

    def __init__(self, params: EnvParams, profile: WorkerProfile):
        self.num_machines = len(params.contexts)
        self.influence_mask = _influence_mask(params)
        n_w, n_a = len(WORKER_STATES), len(ACTIONS)
        worker = np.zeros((2, n_a, n_w, n_w))
        #: [action][machine bit]: (next machine bit, probability) pairs, ascending
        self.machine_outcomes: list[list[list[tuple[int, float]]]] = [[] for _ in ACTIONS]
        # one influencing probe machine: its condition is the worker's flag
        # and the current bit of the machine kernel
        for flag, condition in enumerate((MachineCondition.OK, MachineCondition.DEGRADED)):
            probe = ContextElement("probe", condition, True)
            for a, action in enumerate(ACTIONS):
                for w, ws in enumerate(WORKER_STATES):
                    state = WorkshopState(ws, TeamState(Pressure.LOW), (probe,))
                    for nxt, p in _worker_outcomes(state, action, params, profile):
                        worker[flag, a, w, WORKER_INDEX[nxt]] = p
                self.machine_outcomes[a].append([
                    (int(nxt is MachineCondition.DEGRADED), p)
                    for nxt, p in _machine_outcomes(probe, action, params)
                ])
        pressure = np.zeros((2, 2))
        for i, level in enumerate((Pressure.LOW, Pressure.HIGH)):
            state = WorkshopState(WORKER_STATES[0], TeamState(level), ())
            for nxt, p in _pressure_outcomes(state, params):
                pressure[i, int(nxt is Pressure.HIGH)] = p
        #: [flag, action, worker * 2 + pressure, next worker * 2 + next pressure]
        self.worker_team = (worker[..., :, None, :, None] * pressure[:, None, :]).reshape(
            2, n_a, 2 * n_w, 2 * n_w
        )

    def _worker_team(self, a: int, bits: int) -> np.ndarray:
        """The (36, 36) worker x pressure kernel of action ``a`` next to the
        machine bits ``bits``."""
        return self.worker_team[int((bits & self.influence_mask) != 0), a]

    def _machines(self, a: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
        """Reachable next machine bits, ascending, and their probabilities."""
        combos = [(0, 1.0)]
        for shift in range(self.num_machines - 1, -1, -1):
            outcomes = self.machine_outcomes[a][(bits >> shift) & 1]
            combos = [(i * 2 + j, p * q) for i, p in combos for j, q in outcomes]
        return (
            np.array([i for i, _ in combos], dtype=np.int64),
            np.array([p for _, p in combos], dtype=np.float64),
        )

    def row(self, s: int, a: int) -> tuple[np.ndarray, np.ndarray]:
        """Next-state ids of (s, a), ascending, and their probabilities."""
        k = self.num_machines
        bits = s & ((1 << k) - 1)
        wt = self._worker_team(a, bits)[s >> k]
        wt_ids = np.flatnonzero(wt)
        m_ids, m_probs = self._machines(a, bits)
        ids = ((wt_ids[:, None] << k) | m_ids).ravel()
        probs = np.multiply.outer(wt[wt_ids], m_probs).ravel()
        keep = probs > 0.0
        return ids[keep], probs[keep]

    def dense(self) -> np.ndarray:
        """The (S, A, S) transition matrix, written one (action, machine bits)
        block at a time into its own view so that no full-size temporary
        sits beside it."""
        _, n_a, n_wt, _ = self.worker_team.shape
        n_m = 1 << self.num_machines
        p = np.empty((n_wt * n_m, n_a, n_wt * n_m))
        blocks = p.reshape(n_wt, n_m, n_a, n_wt, n_m)
        m_row = np.empty(n_m)
        for a in range(n_a):
            for bits in range(n_m):
                m_ids, m_probs = self._machines(a, bits)
                m_row.fill(0.0)
                m_row[m_ids] = m_probs
                np.multiply(self._worker_team(a, bits)[:, :, None], m_row, out=blocks[:, bits, a])
        return p

    def expect(self, v: np.ndarray) -> np.ndarray:
        """``dense() @ v`` as an (S, A) array, without building the dense
        matrix: each action's machine kernel is applied to ``v`` over the
        machine bits, then its worker x pressure kernel over the worker and
        pressure, with the kernel of each machine-bit column's flag.  The
        sums run in another order than the matrix product's, so the two
        agree to rounding, not bit for bit."""
        _, n_a, n_wt, _ = self.worker_team.shape
        n_m = 1 << self.num_machines
        flags = (np.arange(n_m) & self.influence_mask) != 0
        # every column takes the kernel of the commoner flag, then the
        # columns of the other flag are done again with their own
        major = int(2 * np.count_nonzero(flags) > n_m)
        minor = np.flatnonzero(flags != major)
        out = np.empty((n_a, n_wt, n_m))
        for actions, powers in self._machine_kernels:
            u = v.reshape(n_wt, n_m)
            for power in powers:
                # sum over the lowest bits, then move them to the front so
                # that the next ones are lowest; after the last, the order is back
                n = len(power)
                u = (u.reshape(-1, n) @ power.T).reshape(n_wt, -1, n).transpose(0, 2, 1)
            u = u.reshape(n_wt, n_m)
            out[actions] = self.worker_team[major, actions] @ u
            if minor.size:
                block = np.ix_(actions, np.arange(n_wt), minor)
                out[block] = self.worker_team[1 - major, actions] @ u[:, minor]
        return out.transpose(1, 2, 0).reshape(-1, n_a)

    @functools.cached_property
    def _machine_kernels(self) -> list[tuple[np.ndarray, list[np.ndarray]]]:
        """The actions that share each distinct (bit, next bit) machine
        kernel, and Kronecker powers of that kernel that together cover the
        machine bits, ``_KRON_BITS`` bits at most each."""
        groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
        for a, outcomes in enumerate(self.machine_outcomes):
            kernel = np.zeros((2, 2))
            for bit, pairs in enumerate(outcomes):
                for nxt, p in pairs:
                    kernel[bit, nxt] = p
            groups.setdefault(kernel.tobytes(), (kernel, []))[1].append(a)
        full, rest = divmod(self.num_machines, _KRON_BITS)
        chunks = [_KRON_BITS] * full + ([rest] if rest else [])
        return [
            (np.array(actions), [functools.reduce(np.kron, [kernel] * g) for g in chunks])
            for kernel, actions in groups.values()
        ]


def _influence_mask(params: EnvParams) -> int:
    """The machine bits of the influencing machines: machine ``i`` of the
    config is bit ``k - 1 - i`` of a state id."""
    k = len(params.contexts)
    return sum(1 << (k - 1 - i) for i, c in enumerate(params.contexts) if c.influences_worker)


def worker_need_ids(params: EnvParams, profile: WorkerProfile) -> np.ndarray:
    """The action index of ``worker_need`` for every state id, from an
    (18, 2) table over the worker and the flag "any influencing machine
    degraded", the only way the rule sees the machines."""
    table = np.empty((len(WORKER_STATES), 2), dtype=np.intp)
    for flag, condition in enumerate((MachineCondition.OK, MachineCondition.DEGRADED)):
        probe = (ContextElement("probe", condition, True),)
        for w, ws in enumerate(WORKER_STATES):
            need = worker_need(WorkshopState(ws, TeamState(Pressure.LOW), probe), profile)
            table[w, flag] = ACTION_INDEX[need]
    k = len(params.contexts)
    flags = (np.arange(1 << k) & _influence_mask(params)) != 0
    # state id = (worker * 2 + pressure) << k | machine bits
    return np.repeat(table[:, flags.astype(np.intp)], 2, axis=0).ravel()


def safety_violation_ids(params: EnvParams) -> np.ndarray:
    """(S, A) booleans: where ``reward_fn`` has a non-zero context term, an
    unsafe action next to a degraded influencing machine."""
    degraded = (np.arange(num_states(params)) & _influence_mask(params)) != 0
    return degraded[:, None] & _UNSAFE_INDEX & (params.rewards.context_unsafe != 0.0)


def reward_table(params: EnvParams, profile: WorkerProfile) -> np.ndarray:
    """``reward_fn(...).total`` for every (state id, action index), as an
    (S, A) array.  Each term is built from its factors and they are summed
    with the float operations of ``composite_total``, in its order, so the
    table is bit-equal to ``reward_fn``."""
    mags, weights = params.rewards, params.weights
    k = len(params.contexts)
    ids = np.arange(num_states(params))[:, None]
    actions = np.arange(len(ACTIONS))
    matched = worker_need_ids(params, profile)[:, None] == actions
    r_worker = np.where(matched, float(mags.worker_match), float(mags.worker_mismatch))
    held_under_pressure = ((ids >> k) & 1 == 1) & (actions == ACTION_INDEX[Action.HOLD])
    r_team = np.where(held_under_pressure, float(mags.team_bad), float(mags.team_ok))
    total = weights.w_worker * r_worker + weights.w_team * r_team
    for i, c in enumerate(params.contexts):
        if c.influences_worker:
            degraded = (ids >> (k - 1 - i)) & 1 == 1
            total += weights.w_context * np.where(degraded & _UNSAFE_INDEX, float(mags.context_unsafe), 0.0)
    return total


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


class WorkshopEnv:
    """Episodic environment over the workshop MDP.

    Owns a private random stream seeded from ``params.seed`` at construction;
    ``reset()`` starts a new episode on the continuing stream, while
    ``reset(seed=...)`` reseeds first (two environments built from equal
    params produce bit-identical trajectories for equal action sequences).
    The current state is held as its ``encode_state`` id, next to the count
    of steps taken in the episode.  ``reset_id``/``step_id`` work on ids
    and action indices; ``reset``/``step``/``observe`` wrap them for callers
    who want ``WorkshopState``s.  Instances are single-threaded; run
    independent instances in parallel.
    """

    num_actions = len(ACTIONS)

    def __init__(self, params: EnvParams, profile: WorkerProfile | None = None):
        self.params = params
        self.profile = profile if profile is not None else WorkerProfile()
        self._rng = np.random.default_rng([params.seed, 0])
        self._start = encode_state(initial_state(params, self.profile))
        self._s: int | None = None
        self._t = 0
        # the machine bits and the pressure bit sit below the worker index
        self._worker_shift = len(params.contexts) + 1
        self._model = FactoredModel(params, self.profile)
        self._rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, float]] = {}
        self._decoded: dict[int, WorkshopState] = {}

    @property
    def num_states(self) -> int:
        return num_states(self.params)

    def reset_id(self, seed: int | None = None) -> tuple[int, int]:
        """Start an episode; returns the initial state id and its observed id."""
        if seed is not None:
            self._rng = np.random.default_rng([seed, 0])
        self._s, self._t = self._start, 0
        return self._start, self._observe_id(self._start)

    def step_id(self, a: int) -> tuple[int, int, float, bool]:
        """Take the action of index ``a``; returns the next state id, its
        observed id, the reward total and whether the horizon is reached.
        Draws one ``random()`` for the transition, then the channel's."""
        if self._s is None:
            raise EpisodeOverError("call reset() or reset_id() before stepping")
        if self._t >= self.params.horizon:
            raise EpisodeOverError(f"episode is over (horizon {self.params.horizon})")
        next_ids, cum, reward = self._row(self._s, a)
        u = self._rng.random()
        k = min(int(np.searchsorted(cum, u, side="right")), len(next_ids) - 1)
        s = self._s = int(next_ids[k])
        self._t += 1
        return s, self._observe_id(s), reward, self._t >= self.params.horizon

    def _observe_id(self, s: int) -> int:
        """The inference channel on state ids (consumes the stream): ``s``
        itself when the worker is read correctly (one ``random()``),
        otherwise ``s`` with the worker replaced by one of the 17 others
        (one more ``integers(17)``)."""
        if self._rng.random() < self.params.alpha:
            return s
        shift = self._worker_shift
        j = int(self._rng.integers(len(WORKER_STATES) - 1))
        if j >= s >> shift:
            j += 1
        return (j << shift) | (s & ((1 << shift) - 1))

    def reset(self, seed: int | None = None) -> tuple[WorkshopState, WorkshopState]:
        """Start an episode; returns the initial state and its observation."""
        s, obs = self.reset_id(seed)
        return self._decode_cached(s), self._decode_cached(obs)

    def observe(self, state: WorkshopState) -> WorkshopState:
        """Sample the inference channel for ``state`` (consumes the stream):
        ``state`` when the worker is read correctly, otherwise ``state``
        with a misread worker."""
        return self._decode_cached(self._observe_id(encode_state(state)))

    def step(
        self, action: Action
    ) -> tuple[WorkshopState, WorkshopState, RewardBreakdown, bool]:
        """Take ``action``; returns the next state, its observation, the
        reward with its terms and whether the horizon is reached."""
        s = self._s
        nxt, obs, _, done = self.step_id(ACTION_INDEX[action])
        reward = reward_fn(self._decode_cached(s), action, self.params, self.profile)
        return self._decode_cached(nxt), self._decode_cached(obs), reward, done

    def _decode_cached(self, index: int) -> WorkshopState:
        st = self._decoded.get(index)
        if st is None:
            st = decode_state(index, self.params)
            self._decoded[index] = st
        return st

    def _row(self, s_idx: int, a_idx: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Next-state ids, their cumulative probabilities and the reward
        total of (s, a), built once per pair."""
        key = (s_idx, a_idx)
        row = self._rows.get(key)
        if row is None:
            ids, probs = self._model.row(s_idx, a_idx)
            reward = reward_fn(self._decode_cached(s_idx), ACTIONS[a_idx], self.params, self.profile)
            row = (ids, np.cumsum(probs), reward.total)
            self._rows[key] = row
        return row


# ---------------------------------------------------------------------------
# Config parsing (the `env` section of an experiment config)
# ---------------------------------------------------------------------------


def dataclass_from_config(cls, raw, where: str):
    """An instance of the dataclass ``cls`` from the keys that ``raw`` sets,
    each cast to its field's type.  Every other field keeps its default, and
    unknown keys are rejected so that typos do not silently fall back to it."""
    if not isinstance(raw, Mapping):
        raise InvalidParamsError(f"{where} must be an object, got {raw!r}")
    types = get_type_hints(cls)
    unknown = set(raw) - set(types)
    if unknown:
        raise InvalidParamsError(f"unknown {where} keys: {sorted(unknown)}")
    return cls(**{key: _cast(types[key], value, f"{where}.{key}") for key, value in raw.items()})


def _cast(tp, value, where: str):
    if is_dataclass(tp):
        return dataclass_from_config(tp, value, where)
    if get_origin(tp) is tuple:  # tuple[ContextConfig, ...] or tuple[int, ...]
        return tuple(_cast(get_args(tp)[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is bool and not isinstance(value, bool):
        raise InvalidParamsError(f"{where} must be true or false, got {value!r}")
    if tp is int or tp is float:
        # the casts would read true as 1 and "7" as 7, and int() would
        # truncate 2.5 to 2; JSON's NaN and Infinity are not values either
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if number and isinstance(value, float):
            number = value.is_integer() if tp is int else math.isfinite(value)
        if not number:
            kind = "an integer" if tp is int else "a finite number"
            raise InvalidParamsError(f"{where} must be {kind}, got {value!r}")
    return tp(value)  # float, int, str, bool or an enum


def env_params_from_config(raw: Mapping) -> tuple[EnvParams, WorkerProfile]:
    """Build (EnvParams, WorkerProfile) from the `env` section of a config:
    its `profile` key holds the WorkerProfile fields, every other key is an
    EnvParams field."""
    if not isinstance(raw, Mapping):
        raise InvalidParamsError(f"env must be an object, got {raw!r}")
    rest = dict(raw)
    profile = dataclass_from_config(WorkerProfile, rest.pop("profile", {}), "env.profile")
    return dataclass_from_config(EnvParams, rest, "env"), profile
