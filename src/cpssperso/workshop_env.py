"""Desk-scale smart-workshop MDP for cobot personalisation.

The state combines a worker (emotional state, cognitive load, working pace),
the surrounding team (pressure) and one machine per context element.  The
cobot picks one of five discrete actions per step.  The reward is a weighted
sum of a worker term (did the action match what the worker currently needs),
a team throughput term, and per-machine safety penalties; the worker weight
must strictly dominate the others.

The transition structure is an explicit, fully enumerable distribution
(`transition_model`, the readable reference).  `FactoredModel` holds the same
distribution as per-factor tables on integer state ids, beside the reward
terms of ``reward_cells``; the environment samples its rows, and exact
solvers take expectations and rewards from it.  What the cobot perceives
is a ``WorkshopState`` too, read through a noisy inference channel: with
probability ``alpha`` the observed worker state is the true one, otherwise
it is uniform over the remaining worker states; team and machines are read
exactly.  States carry no time: the environment counts the steps.
"""

from __future__ import annotations

import functools
import math
import types
from array import array
from bisect import bisect_right
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
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
    context elements.  Twice the return bound must be finite.
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
        r = self.rewards
        step = w.w_worker * max(abs(r.worker_match), abs(r.worker_mismatch))
        step += w.w_team * max(abs(r.team_ok), abs(r.team_bad))
        step += sum(c.influences_worker for c in self.contexts) * w.w_context * abs(r.context_unsafe)
        if not math.isfinite(2.0 * step / (1.0 - self.gamma)):
            raise InvalidParamsError(f"rewards too large: 2 * {step:g} / (1 - gamma) is not finite")


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

#: How far apart two ``WORKER_STATES`` indices one level apart in a dimension are.
_DIM_STRIDE = {"emotional": 9, "cognitive_load": 3, "pace": 1}


def _worker_kernel(params: EnvParams, profile: WorkerProfile) -> np.ndarray:
    """``_worker_outcomes`` as a (2, A, 18, 18) array over the flag "any
    influencing machine degraded", the action, the worker and the next
    worker, bit-equal to it, with no ``WorkshopState`` built per entry: the
    need comes from ``_worker_need_table`` and the move from the same rules
    on the ``WorkerState``, and the noise and the stress of a speed-up next
    to a degraded machine move worker indices, summed in
    ``_worker_outcomes``'s order."""
    n_w, n_a = len(WORKER_STATES), len(ACTIONS)
    need = _worker_need_table(profile).tolist()
    noise = params.noise_p
    #: flat indices into the kernel, and their probabilities
    at: list[int] = []
    probs: list[float] = []
    for a, action in enumerate(ACTIONS):
        for w, worker in enumerate(WORKER_STATES):
            for flag in (0, 1):
                move = (
                    _matched_move(worker, profile, action)
                    if need[w][flag] == a
                    else _degrade_move(worker, profile, action)
                )
                acc: dict[int, float] = {}
                if move is None or getattr(worker, move[0]) is move[1]:
                    acc[w] = 1.0
                else:
                    dim, target = move
                    levels, stride = _DIM_LEVELS[dim], _DIM_STRIDE[dim]
                    t = levels.index(target)
                    base = w - levels.index(getattr(worker, dim)) * stride
                    nbrs = [i for i in (t - 1, t + 1) if 0 <= i < len(levels)]
                    for i, p in [(t, 1.0 - noise)] + [(i, noise / len(nbrs)) for i in nbrs]:
                        if p > 0.0:
                            acc[base + i * stride] = p
                if flag and action is Action.SPEED_UP:
                    stressed: dict[int, float] = {}
                    for j, p in acc.items():
                        j = j % 9 + 9  # the same worker, stressed
                        stressed[j] = stressed.get(j, 0.0) + p
                    acc = stressed
                row = ((flag * n_a + a) * n_w + w) * n_w
                at.extend(row + j for j in acc)
                probs.extend(acc.values())
    kernel = np.zeros((2, n_a, n_w, n_w))
    kernel.ravel()[at] = probs
    return kernel


class FactoredModel:
    """``transition_model`` as per-factor tables on ``encode_state`` ids.

    The worker sees the machines only through the flag "any influencing
    machine degraded", so worker x pressure is one (36, 36) matrix per flag
    and action, and every machine moves by one (2, 2) kernel per action.
    The tables come from ``_worker_outcomes`` (its rules, on worker indices:
    ``_worker_kernel``), ``_pressure_outcomes`` and ``_machine_outcomes``
    (``machine_kernel``).  Products are taken in ``transition_model``'s
    order, ``(p_worker * p_pressure) * ((m1 * m2) * ...)``, and zero outcomes
    are dropped, so rows and the dense matrix are bit-equal to it.  ``expect``,
    the full-state oracle's operator, takes expectations without that matrix.
    It also holds ``reward_cells`` and ``rows``, the cache that ``row`` fills.
    """

    def __init__(self, params: EnvParams, profile: WorkerProfile):
        self.num_machines = len(params.contexts)
        self.influence_mask = _influence_mask(params)
        self.reward_cells = reward_cells(params, profile)
        #: s * num_actions + a -> the row of (s, a), see ``row``
        self.rows: dict[int, tuple[array, array, float]] = {}
        n_w, n_a = len(WORKER_STATES), len(ACTIONS)
        worker = _worker_kernel(params, profile)
        #: [action, machine bit, next machine bit]: the probability that
        #: moves every machine, from one probe machine at each bit
        self.machine_kernel = np.zeros((n_a, 2, 2))
        for bit, condition in enumerate((MachineCondition.OK, MachineCondition.DEGRADED)):
            probe = ContextElement("probe", condition, True)
            for a, action in enumerate(ACTIONS):
                for nxt, p in _machine_outcomes(probe, action, params):
                    self.machine_kernel[a, bit, int(nxt is MachineCondition.DEGRADED)] = p
        # A machine with one outcome reaches it with probability 1.0, a factor
        # that changes no product, so the probabilities of a row depend only
        # on the action and on how many machines have two outcomes; under one
        # action those machines all share the current bit, hence one pair.
        #: [action]: the current bit whose machines have two outcomes (-1 if
        #: none), and the next bit of a one-outcome machine at bit 0 and at bit 1
        self._moves: list[tuple[int, int, int]] = []
        for kernel in self.machine_kernel.tolist():
            two = [b for b, row in enumerate(kernel) if row[0] and row[1]]
            assert len(two) <= 1 and all(b in two or sorted(row) == [0.0, 1.0] for b, row in enumerate(kernel))
            nxt = [0 if b in two else row.index(1.0) for b, row in enumerate(kernel)]
            self._moves.append((two[0] if two else -1, *nxt))
        #: (action, number of two-outcome machines) -> the row's machine
        #: probabilities, the first machine's outcome outermost
        self._folds: dict[tuple[int, int], np.ndarray] = {}
        #: (flag, action, worker * 2 + pressure, number of two-outcome
        #: machines) -> what the rows of that key share: see ``row``
        self._parts: dict[tuple[int, int, int, int], tuple[np.ndarray, np.ndarray | None, array]] = {}
        pressure = np.zeros((2, 2))
        for i, level in enumerate((Pressure.LOW, Pressure.HIGH)):
            state = WorkshopState(WORKER_STATES[0], TeamState(level), ())
            for nxt, p in _pressure_outcomes(state, params):
                pressure[i, int(nxt is Pressure.HIGH)] = p
        #: [flag, action, worker * 2 + pressure, next worker * 2 + next pressure]
        self.worker_team = (worker[..., :, None, :, None] * pressure[:, None, :]).reshape(
            2, n_a, 2 * n_w, 2 * n_w
        )

    def _machines(self, a: int, bits: int) -> tuple[np.ndarray, int]:
        """Reachable next machine bits, ascending (may be shared: do not write
        to them), and the number ``n`` of machines with two outcomes (the
        ``free`` bits), which run over both, with probabilities ``_fold(a, n)``;
        every other machine takes its one outcome (the ``fixed`` bits)."""
        two, nxt_ok, nxt_degraded = self._moves[a]
        by_bit = (((1 << self.num_machines) - 1) & ~bits, bits)
        free = by_bit[two] if two >= 0 else 0
        fixed = (by_bit[0] if nxt_ok else 0) | (by_bit[1] if nxt_degraded else 0)
        n = free.bit_count()
        if n == 0:
            return np.array([fixed], dtype=np.int64), n
        if n == self.num_machines:
            return self._all_ids, n
        return ((self._all_ids & ~free) == fixed).nonzero()[0], n

    def _fold(self, a: int, n: int) -> np.ndarray:
        """``n`` outer products by the two-outcome row of ``machine_kernel[a]``
        (see ``_folds``), kept per (a, n): do not write to it."""
        probs = self._folds.get((a, n))
        if probs is None:
            probs = np.ones(1)
            for _ in range(n):
                probs = np.multiply.outer(probs, self.machine_kernel[a, self._moves[a][0]]).ravel()
            self._folds[a, n] = probs
        return probs

    @functools.cached_property
    def _all_ids(self) -> np.ndarray:
        """Every machine-bit pattern, ``arange(2^k)``."""
        return np.arange(1 << self.num_machines, dtype=np.int64)

    def row(self, s: int, a: int) -> tuple[array, array, float]:
        """Build, cache in ``rows`` and return the row of (s, a): its next-state
        ids, ascending, as an ``array('q')``, their cumulative probabilities
        and the reward total.  The probabilities are fixed by four facts: the
        flag, the action, the worker x pressure index ``s >> k`` and the
        number of two-outcome machines.  Every row with the same four holds
        the same cumulative ``array('d')``, built on the first of them: do
        not write to it.  The ids are that key's nonzero worker x pressure
        ids, shifted above the machine bits, joined with the machine ids."""
        k = self.num_machines
        bits = s & ((1 << k) - 1)
        count = (bits & self.influence_mask).bit_count()
        flag = int(count > 0)
        m_ids, n = self._machines(a, bits)
        key = (flag, a, s >> k, n)
        part = self._parts.get(key)
        if part is None:
            part = self._parts[key] = self._part(self.worker_team[flag, a, s >> k], self._fold(a, n))
        high, keep, cum = part
        ids = (high[:, None] | m_ids).ravel()
        ids = array("q", (ids if keep is None else ids[keep]).tobytes())
        row = self.rows[s * len(ACTIONS) + a] = (ids, cum, float(self.reward_cells[0][s >> k, count, a]))
        return row

    def _part(self, wt: np.ndarray, m_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, array]:
        """The parts of the rows whose worker x pressure probabilities are
        ``wt`` and whose machine probabilities are ``m_probs``: the nonzero
        worker x pressure ids shifted above the machine bits, the entries
        whose product is nonzero (``None`` when all are: a fold can
        underflow to 0.0), and the cumulative probabilities of those."""
        wt_ids = np.flatnonzero(wt)
        probs = np.multiply.outer(wt[wt_ids], m_probs).ravel()
        keep = probs > 0.0
        probs = probs[keep]
        # written in place through a numpy view: no temporary copy
        cum = array("d", [0.0]) * len(probs)
        np.cumsum(probs, out=np.frombuffer(cum))
        return wt_ids << self.num_machines, (None if keep.all() else keep), cum

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
                m_ids, n = self._machines(a, bits)
                m_row.fill(0.0)
                m_row[m_ids] = self._fold(a, n)
                flag = int((bits & self.influence_mask) != 0)
                np.multiply(self.worker_team[flag, a][:, :, None], m_row, out=blocks[:, bits, a])
        return p

    def expect(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``dense() @ v`` as an (S, A) array, without building the dense
        matrix: each distinct machine kernel goes over the machine bits of
        ``v`` once, then each of its actions' worker x pressure kernels, of
        each machine-bit column's flag.  The sums run in another order than
        the matrix product's, so the two agree to rounding, not bit for bit.
        Written into ``out``, a C-contiguous (A, S) float64 array, one
        product per action into its block, the ``minor`` columns gathered
        and scattered back, so no array of ``out``'s size is allocated;
        returns ``out``'s (S, A) view."""
        _, n_a, n_wt, _ = self.worker_team.shape
        n_m = 1 << self.num_machines
        major, minor, groups = self._machine_kernels
        if out.shape != (n_a, n_wt * n_m) or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float64 array of shape {(n_a, n_wt * n_m)}")
        blocks = out.reshape(n_a, n_wt, n_m)
        for actions, powers in groups:
            u = v.reshape(n_wt, n_m)
            for power in powers:
                # sum over the lowest bits, then move them to the front so
                # that the next ones are lowest; after the last, the order is back
                n = len(power)
                u = (u.reshape(-1, n) @ power.T).reshape(n_wt, -1, n).transpose(0, 2, 1)
            u = u.reshape(n_wt, n_m)
            for a in actions:
                np.matmul(self.worker_team[major, a], u, out=blocks[a])
                if minor.size:
                    blocks[a][:, minor] = self.worker_team[1 - major, a] @ u[:, minor]
        return out.T

    @functools.cached_property
    def _machine_kernels(self) -> tuple[int, np.ndarray, list[tuple[list[int], list[np.ndarray]]]]:
        """What ``expect`` needs, built once: the commoner flag ``major``,
        whose worker x pressure kernel every machine-bit column takes, the
        ``minor`` columns of the other flag, and, per distinct (2, 2) kernel
        of ``machine_kernel``, its actions and its Kronecker powers, of
        ``_KRON_BITS`` bits at most each, that together cover the bits."""
        full, rest = divmod(self.num_machines, _KRON_BITS)
        chunks = [_KRON_BITS] * full + ([rest] if rest else [])
        n_m = 1 << self.num_machines
        flags = (np.arange(n_m) & self.influence_mask) != 0
        major = int(2 * np.count_nonzero(flags) > n_m)
        groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
        for a, kernel in enumerate(self.machine_kernel):
            groups.setdefault(kernel.tobytes(), (kernel, []))[1].append(a)
        return major, np.flatnonzero(flags != major), [
            (actions, [functools.reduce(np.kron, [kernel] * g) for g in chunks]) for kernel, actions in groups.values()
        ]


def _influence_mask(params: EnvParams) -> int:
    """The machine bits of the influencing machines: machine ``i`` of the
    config is bit ``k - 1 - i`` of a state id."""
    k = len(params.contexts)
    return sum(1 << (k - 1 - i) for i, c in enumerate(params.contexts) if c.influences_worker)


def _worker_need_table(profile: WorkerProfile) -> np.ndarray:
    """The action index of ``worker_need`` as an (18, 2) table over the
    worker and the flag "any influencing machine degraded", the only way
    the rule sees the machines."""
    table = np.empty((len(WORKER_STATES), 2), dtype=np.intp)
    for flag, condition in enumerate((MachineCondition.OK, MachineCondition.DEGRADED)):
        probe = (ContextElement("probe", condition, True),)
        for w, ws in enumerate(WORKER_STATES):
            need = worker_need(WorkshopState(ws, TeamState(Pressure.LOW), probe), profile)
            table[w, flag] = ACTION_INDEX[need]
    return table


#: The number of set bits of each byte: two lookups count the machine bits
#: of an id, of which there are at most ``MAX_MACHINES`` = 16.
_BYTE_BITS = np.array([i.bit_count() for i in range(256)], dtype=np.intp)


def influence_counts(params: EnvParams) -> np.ndarray:
    """The number of degraded influencing machines in every machine-bit
    pattern, an (2^k,) array: two ``_BYTE_BITS`` lookups each."""
    influencing = np.arange(1 << len(params.contexts)) & _influence_mask(params)
    return _BYTE_BITS[influencing & 0xFF] + _BYTE_BITS[influencing >> 8]


def reward_cells(params: EnvParams, profile: WorkerProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``reward_fn``'s terms as three (36, m + 1, A) tables over worker x
    pressure, the number of degraded influencing machines (of ``m``) and
    the action: the total, whether the action is ``worker_need``'s, and
    whether a context term is non-zero.  Each total is computed on one
    representative, whose first ``c`` influencing machines are degraded,
    from the terms' factors (the worker-need rule per worker and flag, the
    pressure bit, one influencing machine at a time) summed with the float
    operations of ``composite_total``, in its order.  The total depends on
    the count alone, bit for bit: an ok machine adds +0.0, which leaves a
    nonzero sum as it is, and the sign of a zero sum depends only on how
    many of its terms are +0.0."""
    mags, weights = params.rewards, params.weights
    m = sum(c.influences_worker for c in params.contexts)
    wp = np.arange(2 * len(WORKER_STATES))[:, None, None]
    count = np.arange(m + 1)[:, None]
    actions = np.arange(len(ACTIONS))
    match = _worker_need_table(profile)[wp >> 1, (count > 0).astype(np.intp)] == actions
    r_worker = np.where(match, float(mags.worker_match), float(mags.worker_mismatch))
    held_under_pressure = (wp & 1 == 1) & (actions == ACTION_INDEX[Action.HOLD])
    r_team = np.where(held_under_pressure, float(mags.team_bad), float(mags.team_ok))
    total = weights.w_worker * r_worker + weights.w_team * r_team
    for i in range(m):
        total += weights.w_context * np.where((count > i) & _UNSAFE_INDEX, float(mags.context_unsafe), 0.0)
    violation = (count > 0) & _UNSAFE_INDEX & (mags.context_unsafe != 0.0)
    return total, match, np.broadcast_to(violation, total.shape)


# ---------------------------------------------------------------------------
# Scalar random draws
# ---------------------------------------------------------------------------

#: 64-bit words per ``random_raw`` call of ``ScalarDraws``, held as two
#: 8 KB ``array``s.
_DRAW_BLOCK = 1024


class ScalarDraws:
    """``np.random.default_rng(seed).random()`` and ``.integers(n)``, one
    value per call, with the values and stream consumption of those calls.

    The words of the generator's PCG64 stream are drawn ``_DRAW_BLOCK`` at a
    time by one ``random_raw`` call, the first block on the first draw, and
    read as Python scalars from ``array``s.  ``random()`` is a word's upper
    53 bits times 2**-53.  ``integers(n)`` is numpy's bounded draw on 32-bit
    values (Lemire 2019): a value is the low half of a word, and the high
    half is kept for the next one, as PCG64 does.  Calls of either kind may
    be mixed in any order, as on a ``Generator``.
    """

    __slots__ = ("_bitgen", "_words", "_floats", "_i", "_half")

    def __init__(self, seed):
        self._bitgen = np.random.default_rng(seed).bit_generator
        self._words = array("Q")
        self._floats = array("d")
        self._i = _DRAW_BLOCK  # the first draw fills the first block
        #: the high half of the last word split for a 32-bit value, if unread
        self._half: int | None = None

    def _refill(self) -> None:
        raw = self._bitgen.random_raw(_DRAW_BLOCK)
        self._words = array("Q", raw.tobytes())
        self._floats = array("d", ((raw >> np.uint64(11)) * 2.0**-53).tobytes())

    def random(self) -> float:
        """A float in [0, 1), as ``Generator.random()``."""
        i = self._i
        if i == _DRAW_BLOCK:
            self._refill()
            i = 0
        self._i = i + 1
        return self._floats[i]

    def _next32(self) -> int:
        """The kept high half of a word if there is one, else the low half
        of the next word."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        i = self._i
        if i == _DRAW_BLOCK:
            self._refill()
            i = 0
        self._i = i + 1
        word = self._words[i]
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        """An int in [0, n), as ``Generator.integers(n)``, for
        ``1 <= n <= 2**32``; ``integers(1)`` is 0 and draws nothing.  Any
        other ``n`` raises ``ValueError``."""
        if not 2 <= n < 1 << 32:
            if n == 1:
                return 0
            if n == 1 << 32:
                return self._next32()
            raise ValueError(f"n must be in [1, 2**32], got {n}")
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return m >> 32


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


class WorkshopEnv:
    """Episodic environment over the workshop MDP.

    Owns a private random stream seeded from ``params.seed`` at construction
    (a ``ScalarDraws``, the values of ``np.random.default_rng([seed, 0])``);
    ``reset()`` starts a new episode on the continuing stream, while
    ``reset(seed=...)`` reseeds first (two environments built from equal
    params produce bit-identical trajectories for equal action sequences).
    The env holds only what a rollout changes: the state as its
    ``encode_state`` id, the steps taken in the episode and the draws; its
    rows come from ``model``, the ``FactoredModel`` of its params and
    profile.  ``reset_id``/``step_id`` work on ids and action indices;
    ``reset``/``step``/``observe`` wrap them for callers who want
    ``WorkshopState``s.  Instances are single-threaded; run
    independent instances in parallel.
    """

    num_actions = len(ACTIONS)

    def __init__(self, params: EnvParams, profile: WorkerProfile | None = None):
        self.params = params
        self.profile = profile if profile is not None else WorkerProfile()
        self._rng = ScalarDraws([params.seed, 0])
        self._start = encode_state(initial_state(params, self.profile))
        self._s: int | None = None
        self._t = 0
        # the machine bits and the pressure bit sit below the worker index
        self._worker_shift = len(params.contexts) + 1
        self._horizon = params.horizon
        self.model = FactoredModel(params, self.profile)
        # the model's row cache, one attribute lookup away on the per-step path
        self._rows = self.model.rows

    @property
    def num_states(self) -> int:
        return num_states(self.params)

    def reset_id(self, seed: int | None = None) -> tuple[int, int]:
        """Start an episode; returns the initial state id and its observed id."""
        if seed is not None:
            self._rng = ScalarDraws([seed, 0])
        self._s, self._t = self._start, 0
        return self._start, self._observe_id(self._start)

    def step_id(self, a: int) -> tuple[int, int, float, bool]:
        """Take the action of index ``a``; returns the next state id, its
        observed id, the reward total and whether the horizon is reached.
        Draws one ``random()`` for the transition, then the channel's, from
        the env's ``ScalarDraws``, bit-identical to ``Generator`` calls.  The
        next state is the first whose cumulative probability exceeds the
        draw (``bisect_right``), the last one should rounding leave the
        sum below it.  An action outside ``[0, num_actions)`` raises
        ``IndexError``."""
        s, t = self._s, self._t
        if s is None:
            raise EpisodeOverError("call reset() or reset_id() before stepping")
        if t >= self._horizon:
            raise EpisodeOverError(f"episode is over (horizon {self._horizon})")
        if not 0 <= a < self.num_actions:  # else the key would name another row
            raise IndexError(f"action index {a} out of range [0, {self.num_actions})")
        row = self._rows.get(s * self.num_actions + a)
        if row is None:
            row = self.model.row(s, a)
        next_ids, cum, reward = row
        u = self._rng.random()
        s = self._s = next_ids[min(bisect_right(cum, u), len(next_ids) - 1)]
        self._t = t = t + 1
        return s, self._observe_id(s), reward, t >= self._horizon

    def _observe_id(self, s: int) -> int:
        """The inference channel on state ids (consumes the stream): ``s``
        itself when the worker is read correctly (one ``random()``),
        otherwise ``s`` with the worker replaced by one of the 17 others
        (one more ``integers(17)``)."""
        if self._rng.random() < self.params.alpha:
            return s
        shift = self._worker_shift
        j = self._rng.integers(len(WORKER_STATES) - 1)
        if j >= s >> shift:
            j += 1
        return (j << shift) | (s & ((1 << shift) - 1))

    def reset(self, seed: int | None = None) -> tuple[WorkshopState, WorkshopState]:
        """Start an episode; returns the initial state and its observation."""
        s, obs = self.reset_id(seed)
        return decode_state(s, self.params), decode_state(obs, self.params)

    def observe(self, state: WorkshopState) -> WorkshopState:
        """Sample the inference channel for ``state`` (consumes the stream):
        ``state`` when the worker is read correctly, otherwise ``state``
        with a misread worker."""
        return decode_state(self._observe_id(encode_state(state)), self.params)

    def step(
        self, action: Action
    ) -> tuple[WorkshopState, WorkshopState, RewardBreakdown, bool]:
        """Take ``action``; returns the next state, its observation, the
        reward with its terms and whether the horizon is reached."""
        s = self._s
        nxt, obs, _, done = self.step_id(ACTION_INDEX[action])
        reward = reward_fn(decode_state(s, self.params), action, self.params, self.profile)
        return decode_state(nxt, self.params), decode_state(obs, self.params), reward, done


# ---------------------------------------------------------------------------
# Config parsing (the `env` section of an experiment config)
# ---------------------------------------------------------------------------


def dataclass_from_config(cls, raw, where: str):
    """An instance of the dataclass ``cls`` from the keys that ``raw`` sets,
    each cast to its field's type.  Every other field keeps its default, and
    unknown keys are rejected so that typos do not silently fall back to it.
    A field without a default must be set; the error names its config path."""
    if not isinstance(raw, Mapping):
        raise InvalidParamsError(f"{where} must be an object, got {raw!r}")
    types = get_type_hints(cls)
    unknown = set(raw) - set(types)
    if unknown:
        raise InvalidParamsError(f"unknown {where} keys: {sorted(unknown)}")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
            raise InvalidParamsError(f"{where}.{f.name} is required")
    return cls(**{key: _cast(types[key], value, f"{where}.{key}") for key, value in raw.items()})


def _cast(tp, value, where: str):
    if isinstance(tp, types.UnionType):  # T | None
        if value is None:
            return None
        (tp,) = (t for t in get_args(tp) if t is not type(None))
    if is_dataclass(tp):
        return dataclass_from_config(tp, value, where)
    if get_origin(tp) is tuple:  # tuple[ContextConfig, ...] or tuple[int, ...]
        if not isinstance(value, (list, tuple)):  # a string would read as its characters
            raise InvalidParamsError(f"{where} must be a list, got {value!r}")
        return tuple(_cast(get_args(tp)[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is bool and not isinstance(value, bool):
        raise InvalidParamsError(f"{where} must be true or false, got {value!r}")
    if tp is str and not isinstance(value, str):  # str() would read 5 as "5"
        raise InvalidParamsError(f"{where} must be a string, got {value!r}")
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
