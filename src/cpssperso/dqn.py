"""Neural Q-function approximation, from scratch on numpy.

A small fully-connected network (rectifier hidden layers, identity output)
maps one-hot state features to per-action values.  Training minimises the
squared Bellman residual against targets computed with a lagged frozen copy
of the parameters, over uniform samples from a ring replay buffer.  All
gradients are exact analytic derivatives (no autodiff), which keeps the
backward pass auditable against finite differences.

Training owns its env, buffer and parameters on one thread; finished
MlpParams are treated as immutable and can be shared for evaluation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .rl_core import linear_decay
from .workshop_env import (
    ACTIONS,
    WorkerProfile,
    WorkshopEnv,
    WorkshopState,
    EMOTIONS,
    LOADS,
    PACES,
    MachineCondition,
    Pressure,
    dataclass_from_config,
)


class ShapeError(ValueError):
    """Mismatched array shapes in a forward/backward pass."""


class EmptyBatchError(ValueError):
    """loss_and_grad called with no replay items."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite parameter."""


@dataclass
class MlpParams:
    """Per-layer weight matrices (out x in) and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases):
            raise ShapeError("weights and biases must pair up")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {i}: weight {w.shape} / bias {b.shape}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ShapeError(
                    f"layer {i} input dim {w.shape[1]} != layer {i-1} output "
                    f"dim {self.weights[i - 1].shape[0]}"
                )

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def num_actions(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(w)) for w in self.weights) and all(
            np.all(np.isfinite(b)) for b in self.biases
        )


def init_mlp(layer_sizes: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Symmetric uniform init in +-sqrt(6 / (fan_in + fan_out)), zero biases."""
    if len(layer_sizes) < 2:
        raise ShapeError("need at least input and output sizes")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


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


@dataclass(frozen=True)
class ReplayItem:
    state_features: np.ndarray
    action_index: int
    reward: float
    next_state_features: np.ndarray
    done: bool


class ReplayBuffer:
    """Fixed-capacity ring of transitions with a uniform sampler."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: list[ReplayItem] = []
        self._cursor = 0

    def push(self, item: ReplayItem) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._cursor] = item
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, size: int, rng: np.random.Generator) -> list[ReplayItem]:
        if size > len(self._items):
            raise ValueError(f"cannot sample {size} items from buffer of {len(self._items)}")
        idx = rng.integers(len(self._items), size=size)
        return [self._items[int(i)] for i in idx]

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> list[ReplayItem]:
        return list(self._items)


def loss_and_grad(
    params: MlpParams,
    target_params: MlpParams,
    batch: Sequence[ReplayItem],
    gamma: float,
) -> tuple[float, MlpParams]:
    """Mean squared Bellman residual over the batch and its exact gradient.

    Targets are r for done items, else r + gamma * max_a' Q(s'; target
    params); no gradient flows through the target network.
    """
    if len(batch) == 0:
        raise EmptyBatchError("need at least one replay item")
    n = len(batch)
    x = np.stack([np.asarray(it.state_features, dtype=np.float64) for it in batch])
    xn = np.stack([np.asarray(it.next_state_features, dtype=np.float64) for it in batch])
    actions = np.array([it.action_index for it in batch], dtype=np.int64)
    rewards = np.array([it.reward for it in batch], dtype=np.float64)
    done = np.array([it.done for it in batch], dtype=bool)

    q_next = forward_batch(target_params, xn).max(axis=1)
    y = rewards + gamma * np.where(done, 0.0, q_next)

    # forward pass keeping pre-activations for the backward sweep
    last = len(params.weights) - 1
    activations = [x]
    pre: list[np.ndarray] = []
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < last else z
        activations.append(h)

    q_sa = h[np.arange(n), actions]
    delta = q_sa - y
    loss = float(np.mean(delta**2))

    g = np.zeros_like(h)
    g[np.arange(n), actions] = 2.0 * delta / n
    grad_w = [np.empty(0)] * len(params.weights)
    grad_b = [np.empty(0)] * len(params.biases)
    for i in range(last, -1, -1):
        grad_w[i] = g.T @ activations[i]
        grad_b[i] = g.sum(axis=0)
        if i > 0:
            g = (g @ params.weights[i]) * (pre[i - 1] > 0.0)
    return loss, MlpParams(grad_w, grad_b)


def sgd_step(params: MlpParams, grads: MlpParams, learning_rate: float) -> MlpParams:
    """theta <- theta - lr * grad, elementwise; returns fresh arrays."""
    if params.layer_sizes != grads.layer_sizes:
        raise ShapeError(
            f"gradient shape {grads.layer_sizes} != parameter shape {params.layer_sizes}"
        )
    return MlpParams(
        [w - learning_rate * gw for w, gw in zip(params.weights, grads.weights)],
        [b - learning_rate * gb for b, gb in zip(params.biases, grads.biases)],
    )


def sync_target(params: MlpParams) -> MlpParams:
    """Deep copy for use as the lagged target network."""
    return params.copy()


# ---------------------------------------------------------------------------
# Feature encoding: concatenated one-hot blocks
# ---------------------------------------------------------------------------


def feature_size(num_contexts: int) -> int:
    # emotional 2 + load 3 + pace 3 + pace preference 3 + pressure 2 + 2/machine
    return 13 + 2 * num_contexts


def encode_features(state: WorkshopState, profile: WorkerProfile) -> np.ndarray:
    """One-hot blocks: emotional, load, pace, pace preference, pressure, one
    block per machine.  Each block sums to exactly 1."""
    parts = [
        _one_hot(EMOTIONS.index(state.worker.emotional), 2),
        _one_hot(LOADS.index(state.worker.cognitive_load), 3),
        _one_hot(PACES.index(state.worker.pace), 3),
        _one_hot(PACES.index(profile.pace_preference), 3),
        _one_hot(0 if state.team.pressure is Pressure.LOW else 1, 2),
    ]
    for c in state.contexts:
        parts.append(_one_hot(0 if c.machine is MachineCondition.OK else 1, 2))
    return np.concatenate(parts)


def _one_hot(index: int, size: int) -> np.ndarray:
    v = np.zeros(size)
    v[index] = 1.0
    return v


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
    on the first non-finite parameter."""
    input_dim = feature_size(len(env.params.contexts))
    sizes = (input_dim, *hp.hidden, env.num_actions)
    params = init_mlp(sizes, np.random.default_rng([hp.seed, 2]))
    target = sync_target(params)
    buffer = ReplayBuffer(hp.buffer_capacity)
    explore_rng = np.random.default_rng([hp.seed, 1])
    replay_rng = np.random.default_rng([hp.seed, 3])

    metrics: list[StepMetrics] = []
    state, obs = env.reset()
    features = encode_features(obs if partial_obs else state, env.profile)
    ep_return = 0.0
    last_loss = 0.0
    for step in range(hp.total_steps):
        eps = hp.epsilon_at(step)
        if explore_rng.random() < eps:
            a = int(explore_rng.integers(env.num_actions))
        else:
            a = int(np.argmax(forward(params, features)))
        state, obs, reward, done = env.step(ACTIONS[a])
        next_features = encode_features(obs if partial_obs else state, env.profile)
        # horizon truncation is not a terminal state: bootstrap normally
        buffer.push(ReplayItem(features, a, reward.total, next_features, False))
        ep_return += reward.total
        features = next_features

        if len(buffer) >= hp.batch_size:
            batch = buffer.sample(hp.batch_size, replay_rng)
            # overflow here is an abort path, not something to propagate
            with np.errstate(over="ignore", invalid="ignore"):
                last_loss, grads = loss_and_grad(params, target, batch, env.params.gamma)
                params = sgd_step(params, grads, hp.learning_rate)
            if not np.isfinite(last_loss) or not params.all_finite():
                raise DivergenceError(
                    f"non-finite parameters after update at step {step}"
                )
        if (step + 1) % hp.target_sync == 0:
            target = sync_target(params)

        if done:
            metrics.append(StepMetrics(step + 1, ep_return, last_loss, eps))
            state, obs = env.reset()
            features = encode_features(obs if partial_obs else state, env.profile)
            ep_return = 0.0
    return params, metrics


def greedy_action(params: MlpParams, features: np.ndarray) -> int:
    return int(np.argmax(forward(params, features)))


def network_policy(params: MlpParams, profile: WorkerProfile):
    """Wrap network parameters as a policy callable over true states."""

    def policy(state, obs):
        return ACTIONS[greedy_action(params, encode_features(state, profile))]

    return policy


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
        for w, b in zip(params.weights, params.biases):
            fh.write(w.astype("<f8").tobytes())
            fh.write(b.astype("<f8").tobytes())


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
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = np.frombuffer(blob, dtype="<f8", count=fan_in * fan_out, offset=off)
        off += 8 * fan_in * fan_out
        b = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=off)
        off += 8 * fan_out
        weights.append(w.reshape(fan_out, fan_in).copy())
        biases.append(b.copy())
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes in parameter file")
    return MlpParams(weights, biases)
