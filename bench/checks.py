"""Correctness checks for the benchmark's workloads.

Each checker takes plain numpy data and returns a list of failure messages,
empty when the data passes.  The references are computed apart from the
program's solvers, or follow from a property the method must have; none is
a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

#: Share of states on which a learned greedy policy must agree with the
#: oracle (the criterion of acceptance test 03).
AGREEMENT_FLOOR = 0.95
#: Share of the oracle's rollout return a DQN policy must reach.
RETURN_FLOOR = 0.95
#: Sampled factor frequencies may sit this many standard errors from the
#: configured probability.
Z_LIMIT = 4.0


def solve_oracle(p: np.ndarray, r: np.ndarray, gamma: float, tolerance: float = 1e-12) -> np.ndarray:
    """Q* of a dense (S, A, S) / (S, A) model by plain value iteration."""
    q = np.zeros_like(r)
    while True:
        nxt = r + gamma * (p @ q.max(axis=1))
        delta = float(np.max(np.abs(nxt - q)))
        q = nxt
        if delta <= tolerance:
            return q


def check_policy_agreement(learned_q: np.ndarray, oracle_actions: np.ndarray) -> list[str]:
    """The learned greedy policy picks the oracle's action on at least
    AGREEMENT_FLOOR of the states."""
    if learned_q.shape[0] != oracle_actions.shape[0]:
        return [f"q-table has {learned_q.shape[0]} states, oracle {oracle_actions.shape[0]}"]
    agreement = float(np.mean(np.argmax(learned_q, axis=1) == oracle_actions))
    if agreement < AGREEMENT_FLOOR:
        return [f"greedy agreement with the oracle {agreement:.4f} < {AGREEMENT_FLOOR}"]
    return []


def check_return_ratio(learned_return: float, oracle_return: float, cap: float) -> list[str]:
    """The learned policy's mean return reaches RETURN_FLOOR of the oracle's on
    the same rollout seeds, and neither exceeds the return cap."""
    failures = []
    for label, value in (("learned", learned_return), ("oracle", oracle_return)):
        if value > cap + 1e-9:
            failures.append(f"{label} mean return {value} exceeds the cap {cap}")
    if learned_return < RETURN_FLOOR * oracle_return:
        failures.append(
            f"learned mean return {learned_return} < {RETURN_FLOOR} x oracle {oracle_return}"
        )
    return failures


def check_dense_model(
    p: np.ndarray, r: np.ndarray, q: np.ndarray, gamma: float, tolerance: float
) -> list[str]:
    """``p`` is a stochastic (S, A, S) array, ``q`` solves the Bellman
    optimality equation to the residual value iteration guarantees at
    ``tolerance``, and ``q``'s values equal the exact value of its own greedy
    policy."""
    failures = []
    if np.any(p < 0.0):
        failures.append(f"{int(np.count_nonzero(p < 0.0))} negative transition probabilities")
    row_error = np.abs(p.sum(axis=2) - 1.0)
    if np.any(row_error > 1e-12):
        failures.append(
            f"{int(np.count_nonzero(row_error > 1e-12))} rows of P do not sum to 1 "
            f"(worst off by {float(row_error.max()):.3g})"
        )
    v = q.max(axis=1)
    residual = float(np.max(np.abs(q - (r + gamma * (p @ v)))))
    rounding = p.shape[2] * np.finfo(np.float64).eps * max(1.0, float(np.max(np.abs(q))))
    if residual > gamma * tolerance + rounding:
        failures.append(f"Bellman residual {residual:.3g} > gamma * {tolerance:g} + {rounding:.2g}")
    states = np.arange(q.shape[0])
    pi = np.argmax(q, axis=1)
    v_pi = np.linalg.solve(np.eye(q.shape[0]) - gamma * p[states, pi], r[states, pi])
    gap = float(np.max(np.abs(v_pi - v)))
    if gap > 1e-6:
        failures.append(f"greedy policy's exact value differs from max Q by {gap:.3g}")
    return failures


def _rate_failure(label: str, hits: int, trials: int, p: float) -> list[str]:
    if trials == 0:
        return [f"no {label} trials sampled"]
    rate = hits / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    if abs(rate - p) > Z_LIMIT * se:
        return [f"{label} rate {rate:.5f} over {trials} trials is not {p} within {Z_LIMIT} s.e. ({se:.5f})"]
    return []


def check_factor_dynamics(
    assist: np.ndarray,
    degraded_before: np.ndarray,
    degraded_after: np.ndarray,
    high_before: np.ndarray,
    high_after: np.ndarray,
    degrade_p: float,
    flip_p: float,
) -> list[str]:
    """Sampled transitions follow the configured factor probabilities.

    ``assist`` (N,) marks steps that took ASSIST; ``degraded_*`` (N, k) hold
    each machine's condition around the step; ``high_*`` (N,) the team
    pressure.
    """
    keep = ~assist[:, None]
    ok_trials = keep & ~degraded_before
    failures = _rate_failure(
        "machine OK->degraded",
        int(np.count_nonzero(ok_trials & degraded_after)),
        int(np.count_nonzero(ok_trials)),
        degrade_p,
    )
    failures += _rate_failure(
        "pressure flip", int(np.count_nonzero(high_before != high_after)), len(high_before), flip_p
    )
    if np.any(degraded_after[assist]):
        failures.append("ASSIST left a machine degraded")
    stuck = keep & degraded_before
    if np.any(stuck & ~degraded_after):
        failures.append("a degraded machine recovered without ASSIST")
    return failures
