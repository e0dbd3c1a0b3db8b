"""Neural Q-function approximation, from scratch on numpy.

A small fully-connected network (rectifier hidden layers, identity output)
maps one-hot state features to per-action values.  Training minimises the
squared Bellman residual against targets computed with a lagged frozen copy
of the parameters, over uniform samples from a ring replay buffer.  All
gradients are exact analytic derivatives (no autodiff), which keeps the
backward pass auditable against finite differences.

Training owns its env, buffer and parameters on one thread and updates the
parameters in place; only the MlpParams that train_dqn returns are safe to
share for evaluation.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .rl_core import linear_decay
from .workshop_env import (
    EnvParams,
    WorkerProfile,
    WorkshopEnv,
    WorkshopState,
    EMOTIONS,
    LOADS,
    PACES,
    WORKER_STATES,
    dataclass_from_config,
    encode_state,
    num_states,
)


class ShapeError(ValueError):
    """Mismatched array shapes in a forward/backward pass."""


class EmptyBatchError(ValueError):
    """loss_and_grad called with an empty batch."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite parameter."""


class MlpParams:
    """Per-layer weight matrices (out x in) and bias vectors, all views of
    one flat float64 vector in file order (w0, b0, w1, b1, ...).  Built from
    the per-layer arrays, which are copied, or with ``from_flat`` around an
    existing vector, which is not."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(weights) != len(biases) or not weights:
            raise ShapeError("weights and biases must pair up, one layer at least")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {i}: weight {w.shape} / bias {b.shape}")
            if i > 0 and w.shape[1] != weights[i - 1].shape[0]:
                raise ShapeError(
                    f"layer {i} input dim {w.shape[1]} != layer {i-1} output "
                    f"dim {weights[i - 1].shape[0]}"
                )
        sizes = (weights[0].shape[1],) + tuple(w.shape[0] for w in weights)
        self._bind(sizes, np.concatenate([part for w, b in zip(weights, biases) for part in (w.ravel(), b)]))

    @classmethod
    def from_flat(cls, layer_sizes: Sequence[int], flat: np.ndarray) -> "MlpParams":
        """The network of ``layer_sizes`` whose parameters are ``flat``
        itself (a float64 vector in file order), not a copy."""
        params = cls.__new__(cls)
        params._bind(tuple(int(n) for n in layer_sizes), flat)
        return params

    def _bind(self, sizes: tuple[int, ...], flat: np.ndarray) -> None:
        if len(sizes) < 2 or min(sizes) < 1:
            raise ShapeError(f"need at least input and output sizes, each positive: {sizes}")
        if flat.dtype != np.float64 or flat.shape != (_num_params(sizes),):
            raise ShapeError(
                f"expected {_num_params(sizes)} float64 parameters, got {flat.dtype} {flat.shape}"
            )
        self.layer_sizes = sizes
        self.flat = flat
        self.weights, self.biases = _layer_views(sizes, flat)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_actions(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpParams":
        return MlpParams.from_flat(self.layer_sizes, self.flat.copy())

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def _num_params(layer_sizes: Sequence[int]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))


def _layer_views(
    layer_sizes: Sequence[int], flat: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The weight matrices (out x in) and bias vectors of a flat vector in
    file order, as views of it."""
    weights, biases, off = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[off : off + fan_in * fan_out].reshape(fan_out, fan_in))
        off += fan_in * fan_out
        biases.append(flat[off : off + fan_out])
        off += fan_out
    return weights, biases


def init_mlp(layer_sizes: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Symmetric uniform init in +-sqrt(6 / (fan_in + fan_out)), zero biases."""
    if len(layer_sizes) < 2:
        raise ShapeError("need at least input and output sizes")
    params = MlpParams.from_flat(layer_sizes, np.zeros(_num_params(layer_sizes)))
    for w in params.weights:
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    return params


def forward(params: MlpParams, features: np.ndarray) -> np.ndarray:
    """Action values for one feature vector."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (params.input_dim,):
        raise ShapeError(f"expected features of shape ({params.input_dim},), got {x.shape}")
    return forward_batch(params, x[None, :])[0]


def forward_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Action values for a batch (N, input_dim) -> (N, num_actions)."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.input_dim:
        raise ShapeError(f"expected batch of shape (N, {params.input_dim}), got {h.shape}")
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T + b
        if i < last:
            h = np.maximum(h, 0.0)
    return h


class ReplayBuffer:
    """Fixed-capacity ring of transitions (state id, action index, reward,
    next state id) in four preallocated arrays, with a uniform sampler."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.states = np.zeros(capacity, dtype=np.int64)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity, dtype=np.float64)
        self.next_states = np.zeros(capacity, dtype=np.int64)
        self._len = 0
        self._cursor = 0

    def push(self, s: int, a: int, r: float, s_next: int) -> None:
        i = self._cursor
        self.states[i] = s
        self.actions[i] = a
        self.rewards[i] = r
        self.next_states[i] = s_next
        self._cursor = (i + 1) % self.capacity
        if self._len < self.capacity:
            self._len += 1

    def sample(
        self, size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(state ids, actions, rewards, next state ids) of ``size`` rows
        drawn uniformly with replacement, in one ``integers`` draw."""
        if size > self._len:
            raise ValueError(f"cannot sample {size} items from buffer of {self._len}")
        idx = rng.integers(self._len, size=size)
        return self.states[idx], self.actions[idx], self.rewards[idx], self.next_states[idx]

    def __len__(self) -> int:
        return self._len


def loss_and_grad(
    params: MlpParams,
    target_params: MlpParams,
    x: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    next_x: np.ndarray,
    done: np.ndarray,
    gamma: float,
) -> tuple[float, np.ndarray]:
    """Mean squared Bellman residual over a batch and its exact gradient, a
    flat vector in the layout of ``params.flat``.

    The batch is its feature rows ``x`` (N, input_dim), action indices,
    rewards, next feature rows and done flags.  Targets are r for done
    rows, else r + gamma * max_a' Q(s'; target params); no gradient flows
    through the target network.
    """
    n = len(x)
    if n == 0:
        raise EmptyBatchError("need at least one transition")
    q_next = forward_batch(target_params, next_x).max(axis=1)
    y = rewards + gamma * np.where(done, 0.0, q_next)

    # forward pass keeping pre-activations for the backward sweep
    last = len(params.weights) - 1
    activations = [np.asarray(x, dtype=np.float64)]
    pre: list[np.ndarray] = []
    h = activations[0]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < last else z
        activations.append(h)

    rows = np.arange(n)
    q_sa = h[rows, actions]
    delta = q_sa - y
    loss = float(np.mean(delta**2))

    g = np.zeros_like(h)
    g[rows, actions] = 2.0 * delta / n
    grad = np.empty_like(params.flat)
    grad_w, grad_b = _layer_views(params.layer_sizes, grad)
    for i in range(last, -1, -1):
        np.matmul(g.T, activations[i], out=grad_w[i])
        g.sum(axis=0, out=grad_b[i])
        if i > 0:
            g = (g @ params.weights[i]) * (pre[i - 1] > 0.0)
    return loss, grad


def sgd_step(params: MlpParams, grad: np.ndarray, learning_rate: float) -> None:
    """theta <- theta - lr * grad, elementwise, in place on ``params.flat``."""
    if grad.shape != params.flat.shape:
        raise ShapeError(f"gradient shape {grad.shape} != parameter shape {params.flat.shape}")
    params.flat -= learning_rate * grad


def sync_target(params: MlpParams) -> MlpParams:
    """Deep copy for use as the lagged target network."""
    return params.copy()


# ---------------------------------------------------------------------------
# Feature encoding: concatenated one-hot blocks, built from state ids
# ---------------------------------------------------------------------------

#: Width of the worker x pressure part of a feature row: emotional 2 +
#: load 3 + pace 3 + pace preference 3 + pressure 2.
_BLOCK_WIDTH = 13


def feature_size(num_contexts: int) -> int:
    # the blocks above + 2 per machine
    return _BLOCK_WIDTH + 2 * num_contexts


@functools.lru_cache(maxsize=None)
def _block_table(profile: WorkerProfile) -> np.ndarray:
    """The (36, 13) first blocks of a feature row for each worker x
    pressure index ``s >> k`` of a state id ``s``."""
    table = np.zeros((2 * len(WORKER_STATES), _BLOCK_WIDTH))
    pref = PACES.index(profile.pace_preference)
    for w, ws in enumerate(WORKER_STATES):
        for pressure in (0, 1):
            row = table[2 * w + pressure]
            row[EMOTIONS.index(ws.emotional)] = 1.0
            row[2 + LOADS.index(ws.cognitive_load)] = 1.0
            row[5 + PACES.index(ws.pace)] = 1.0
            row[8 + pref] = 1.0
            row[11 + pressure] = 1.0
    table.flags.writeable = False
    return table


class FeatureEncoder:
    """Feature rows of state ids: one-hot blocks for emotional, load, pace,
    pace preference and pressure, then one (ok, degraded) block per machine.
    Each block sums to exactly 1.  Rows are built per call, from the
    worker x pressure table and the machine bits, so no (S, d) table is
    ever held."""

    def __init__(self, num_machines: int, profile: WorkerProfile):
        self.num_machines = num_machines
        self.size = feature_size(num_machines)
        self._blocks = _block_table(profile)
        # machine i of the config is bit k - 1 - i of a state id
        self._shifts = np.arange(num_machines - 1, -1, -1)

    def __call__(self, ids: np.ndarray) -> np.ndarray:
        """The (N, size) feature rows of the N state ids ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        out = np.empty((len(ids), self.size))
        out[:, :_BLOCK_WIDTH] = self._blocks[ids >> self.num_machines]
        bits = (ids[:, None] >> self._shifts) & 1
        out[:, _BLOCK_WIDTH + 1 :: 2] = bits
        out[:, _BLOCK_WIDTH::2] = 1 - bits
        return out


def encode_features(state: WorkshopState, profile: WorkerProfile) -> np.ndarray:
    """The feature row of ``encode_state(state)``."""
    return FeatureEncoder(len(state.contexts), profile)([encode_state(state)])[0]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DqnHyperparams:
    hidden: tuple[int, ...] = (32, 32)
    learning_rate: float = 1e-3
    batch_size: int = 32
    buffer_capacity: int = 10_000
    target_sync: int = 250
    total_steps: int = 20_000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.buffer_capacity < self.batch_size:
            raise ValueError(
                f"buffer capacity {self.buffer_capacity} < batch size {self.batch_size}"
            )
        if self.target_sync < 1:
            raise ValueError(f"target_sync must be >= 1, got {self.target_sync}")
        if self.batch_size < 1 or self.total_steps < 0:
            raise ValueError("batch_size must be positive and total_steps non-negative")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        for e in (self.epsilon_start, self.epsilon_end):
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"epsilon must be in [0,1], got {e}")
        if self.epsilon_end > self.epsilon_start:
            raise ValueError("epsilon_end must not exceed epsilon_start")
        if self.epsilon_decay_steps < 0:
            raise ValueError(f"epsilon decay_steps must be non-negative, got {self.epsilon_decay_steps}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden layer widths must be at least 1, got {list(self.hidden)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def epsilon_at(self, step: int) -> float:
        return linear_decay(self.epsilon_start, self.epsilon_end, self.epsilon_decay_steps, step)


#: Key of the `dqn` config section -> DqnHyperparams field.  The `epsilon`
#: object holds the epsilon_* fields under the keys of _EPSILON_KEYS.
_DQN_KEYS = {
    "hidden": "hidden",
    "lr": "learning_rate",
    "batch": "batch_size",
    "buffer_capacity": "buffer_capacity",
    "target_sync": "target_sync",
    "total_steps": "total_steps",
    "seed": "seed",
    "epsilon": "epsilon",
}
_EPSILON_KEYS = {"start": "epsilon_start", "end": "epsilon_end", "decay_steps": "epsilon_decay_steps"}


def _renamed(raw, keys: Mapping[str, str], where: str) -> dict:
    if not isinstance(raw, Mapping):
        raise ValueError(f"{where} must be an object, got {raw!r}")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    return {keys[key]: value for key, value in raw.items()}


def hyperparams_from_config(raw: Mapping) -> DqnHyperparams:
    """DqnHyperparams from the keys that the `dqn` section of a config sets;
    every other field keeps its default, and unknown keys are rejected."""
    fields = _renamed(raw, _DQN_KEYS, "dqn")
    fields.update(_renamed(fields.pop("epsilon", {}), _EPSILON_KEYS, "dqn.epsilon"))
    return dataclass_from_config(DqnHyperparams, fields, "dqn")


@dataclass(frozen=True)
class StepMetrics:
    """One record per finished episode: global step at completion, episode
    return, latest update loss, current epsilon."""

    step: int
    episode_return: float
    loss: float
    epsilon: float


def train_dqn(
    env: WorkshopEnv,
    hp: DqnHyperparams,
    partial_obs: bool = False,
) -> tuple[MlpParams, list[StepMetrics]]:
    """Epsilon-greedy acting on the network's values, uniform replay, one
    gradient step per environment step, target sync every ``target_sync``
    steps.  Deterministic given (env seed, hp seed).  Raises DivergenceError
    on the first non-finite parameter.

    Runs on state ids: the replay holds ids, and feature rows are built
    for the acting state and the sampled batch only."""
    encode = FeatureEncoder(len(env.params.contexts), env.profile)
    sizes = (encode.size, *hp.hidden, env.num_actions)
    params = init_mlp(sizes, np.random.default_rng([hp.seed, 2]))
    target = sync_target(params)
    # a ring that never wraps holds the same rows as one sized for the run
    buffer = ReplayBuffer(max(1, min(hp.buffer_capacity, hp.total_steps)))
    explore_rng = np.random.default_rng([hp.seed, 1])
    replay_rng = np.random.default_rng([hp.seed, 3])
    gamma = env.params.gamma
    # horizon truncation is not a terminal state: bootstrap normally
    not_done = np.zeros(hp.batch_size, dtype=bool)

    metrics: list[StepMetrics] = []
    state, obs = env.reset_id()
    s = obs if partial_obs else state
    ep_return = 0.0
    last_loss = 0.0
    for step in range(hp.total_steps):
        eps = hp.epsilon_at(step)
        if explore_rng.random() < eps:
            a = int(explore_rng.integers(env.num_actions))
        else:
            a = int(np.argmax(forward(params, encode([s])[0])))
        state, obs, reward, done = env.step_id(a)
        s_next = obs if partial_obs else state
        buffer.push(s, a, reward, s_next)
        ep_return += reward
        s = s_next

        if len(buffer) >= hp.batch_size:
            ids, actions, rewards, next_ids = buffer.sample(hp.batch_size, replay_rng)
            # overflow here is an abort path, not something to propagate
            with np.errstate(over="ignore", invalid="ignore"):
                last_loss, grad = loss_and_grad(
                    params, target, encode(ids), actions, rewards, encode(next_ids), not_done, gamma
                )
                sgd_step(params, grad, hp.learning_rate)
            if not np.isfinite(last_loss) or not params.all_finite():
                raise DivergenceError(
                    f"non-finite parameters after update at step {step}"
                )
        if (step + 1) % hp.target_sync == 0:
            np.copyto(target.flat, params.flat)

        if done:
            metrics.append(StepMetrics(step + 1, ep_return, last_loss, eps))
            state, obs = env.reset_id()
            s = obs if partial_obs else state
            ep_return = 0.0
    return params, metrics


#: State ids per ``forward_batch`` call of ``greedy_policy``, which bounds
#: its memory at any number of machines.
_READOUT_CHUNK = 4096


def greedy_policy(params: MlpParams, env_params: EnvParams, profile: WorkerProfile) -> np.ndarray:
    """The network's greedy action index for every state id (ties take the
    lowest index), read out ``_READOUT_CHUNK`` ids at a time."""
    encode = FeatureEncoder(len(env_params.contexts), profile)
    ids = np.arange(num_states(env_params))
    return np.concatenate([
        forward_batch(params, encode(ids[i : i + _READOUT_CHUNK])).argmax(axis=1)
        for i in range(0, len(ids), _READOUT_CHUNK)
    ])


# ---------------------------------------------------------------------------
# Persistence (flat array with a shape header)
# ---------------------------------------------------------------------------

_MLP_MAGIC = b"MLP1"


def save_params(params: MlpParams, path: str | Path) -> None:
    sizes = params.layer_sizes
    with open(path, "wb") as fh:
        fh.write(_MLP_MAGIC)
        fh.write(struct.pack("<q", len(sizes)))
        fh.write(struct.pack(f"<{len(sizes)}q", *sizes))
        fh.write(params.flat.astype("<f8").tobytes())


def load_params(path: str | Path) -> MlpParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(_MLP_MAGIC)] != _MLP_MAGIC:
        raise ValueError(f"{path}: not a network parameter file")
    off = len(_MLP_MAGIC)
    (n_sizes,) = struct.unpack_from("<q", blob, off)
    off += 8
    sizes = struct.unpack_from(f"<{n_sizes}q", blob, off)
    off += 8 * n_sizes
    flat = np.frombuffer(blob, dtype="<f8", offset=off)
    if flat.size != _num_params(sizes):
        raise ValueError(
            f"{path}: {flat.size} parameters after the header, its layer sizes need {_num_params(sizes)}"
        )
    return MlpParams.from_flat(sizes, flat.astype(np.float64))
