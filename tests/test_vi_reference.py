"""Value iteration and ``FactoredModel.expect`` against the code they
replaced, byte for byte.

``reference_value_iteration`` is the state-major loop: Q as an (S, A) array,
each sweep ``r + gamma * expect(q.max(axis=1))``.  ``reference_expect`` is
the ``expect`` that rebuilt its flags, kernel copies and index block on
every call, and scattered each kernel group's products into its output.
The solver sweeps (A, S) buffers and ``expect`` reads those constants from a
cache and writes each product in place; neither may change a byte of Q or of
the expectation, nor of the file ``save_qtable`` writes."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from cpssperso.rl_core import (
    FiniteMdp,
    InvalidToleranceError,
    QTable,
    bellman_residual,
    save_qtable,
    value_iteration,
)
from cpssperso.workshop_env import (
    _KRON_BITS,
    ContextConfig,
    EnvParams,
    FactoredModel,
    Pace,
    WorkerProfile,
    num_states,
)
from test_factored_model import EXAMPLES, HypothesisDraw, RngDraw, machine_pairs, sample_config, st


def reference_value_iteration(rewards, expect, gamma, tolerance):
    """The state-major solver: ``q`` and ``nxt`` are (S, A) arrays."""
    if tolerance <= 0:
        raise InvalidToleranceError(f"tolerance must be positive, got {tolerance}")
    q = np.zeros_like(rewards)
    rmax = float(np.max(np.abs(rewards), initial=0.0))
    if rmax == 0.0:
        return q
    max_sweeps = (
        math.ceil(math.log(tolerance * (1.0 - gamma) / rmax) / math.log(gamma)) + 1
        if gamma > 0.0
        else 1
    )
    for _ in range(max(max_sweeps, 1) + 2):
        nxt = rewards + gamma * expect(q.max(axis=1))
        delta = float(np.max(np.abs(nxt - q)))
        q = nxt
        if delta <= tolerance:
            return q
    raise RuntimeError("value iteration failed to converge within its sweep bound")


def reference_residual(q, rewards, expect, gamma):
    backup = rewards + gamma * expect(q.max(axis=1))
    return float(np.max(np.abs(q - backup)))


def reference_kernels(params: EnvParams):
    """The (actions, Kronecker powers) groups, as ``expect`` built them, from
    the outcomes of ``_machine_outcomes`` on a probe machine."""
    groups = {}
    for a, outcomes in enumerate(machine_pairs(params)):
        kernel = np.zeros((2, 2))
        for bit, pairs in enumerate(outcomes):
            for nxt, p in pairs:
                kernel[bit, nxt] = p
        groups.setdefault(kernel.tobytes(), (kernel, []))[1].append(a)
    full, rest = divmod(len(params.contexts), _KRON_BITS)
    chunks = [_KRON_BITS] * full + ([rest] if rest else [])
    return [
        (np.array(actions), [functools.reduce(np.kron, [kernel] * g) for g in chunks])
        for kernel, actions in groups.values()
    ]


def reference_expect(model: FactoredModel, v, kernels):
    """``FactoredModel.expect`` with every per-model constant rebuilt per
    call."""
    _, n_a, n_wt, _ = model.worker_team.shape
    n_m = 1 << model.num_machines
    flags = (np.arange(n_m) & model.influence_mask) != 0
    major = int(2 * np.count_nonzero(flags) > n_m)
    minor = np.flatnonzero(flags != major)
    out = np.empty((n_a, n_wt, n_m))
    for actions, powers in kernels:
        u = v.reshape(n_wt, n_m)
        for power in powers:
            n = len(power)
            u = (u.reshape(-1, n) @ power.T).reshape(n_wt, -1, n).transpose(0, 2, 1)
        u = u.reshape(n_wt, n_m)
        out[actions] = model.worker_team[major, actions] @ u
        if minor.size:
            block = np.ix_(actions, np.arange(n_wt), minor)
            out[block] = model.worker_team[1 - major, actions] @ u[:, minor]
    return out.transpose(1, 2, 0).reshape(-1, n_a)


def check_solver(mdp: FiniteMdp, expect, gamma: float, tmp_path, tolerance: float = 1e-9) -> None:
    """Q, its file and its residual equal the state-major solver's, byte for
    byte; ``expect`` is the reference operator of ``mdp``."""
    q = value_iteration(mdp, gamma, tolerance)
    q_ref = reference_value_iteration(mdp.rewards, expect, gamma, tolerance)
    assert q.values.shape == q_ref.shape
    assert q.values.tobytes() == q_ref.tobytes()
    save_qtable(q, gamma, tmp_path / "q.bin")
    save_qtable(QTable(q_ref), gamma, tmp_path / "q_ref.bin")
    assert (tmp_path / "q.bin").read_bytes() == (tmp_path / "q_ref.bin").read_bytes()
    assert bellman_residual(q, mdp, gamma) == reference_residual(q_ref, mdp.rewards, expect, gamma)


def check_workshop(params: EnvParams, profile: WorkerProfile, tmp_path, gammas=None) -> None:
    mdp = FiniteMdp.from_env(params, profile)
    assert mdp.rewards.T.flags.c_contiguous  # the sweeps add them action-major
    kernels = reference_kernels(params)
    v = np.random.default_rng(num_states(params)).normal(size=num_states(params))
    out = np.full(mdp.rewards.shape[::-1], np.nan)
    ev = mdp.expect(v, out)
    assert ev.tobytes() == out.T.tobytes() == reference_expect(mdp.model, v, kernels).tobytes()
    for gamma in gammas or (params.gamma,):
        check_solver(mdp, lambda v: reference_expect(mdp.model, v, kernels), gamma, tmp_path)


def check_lumped(params: EnvParams, profile: WorkerProfile, tmp_path) -> None:
    """The production solve, on the lumped chain, against the state-major
    solver through ``LumpedMdp.expect``, at gamma 0, 0.5 and the config's."""
    lumped = FiniteMdp.from_env(params, profile).lumped()
    for gamma in (0.0, 0.5, params.gamma):
        check_solver(lumped, lambda v: lumped.expect(v, np.empty(lumped.rewards.shape[::-1])), gamma, tmp_path)


if st is not None:
    from hypothesis import given, settings

    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_sampled_configs_match_the_state_major_solver(tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("q")
        check_workshop(*sample_config(HypothesisDraw(data)), tmp_path)

    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_sampled_lumped_chains_match_the_state_major_solver(tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("q")
        check_lumped(*sample_config(HypothesisDraw(data)), tmp_path)

else:

    @pytest.mark.parametrize("seed", range(EXAMPLES))
    def test_sampled_configs_match_the_state_major_solver(seed, tmp_path):
        check_workshop(*sample_config(RngDraw(seed)), tmp_path)

    @pytest.mark.parametrize("seed", range(EXAMPLES))
    def test_sampled_lumped_chains_match_the_state_major_solver(seed, tmp_path):
        check_lumped(*sample_config(RngDraw(seed)), tmp_path)


def test_sixteen_machine_lumped_chain_matches_the_state_major_solver(tmp_path):
    """The most machines a config may name, 12 of them influencing: 36 * 13
    lumped states in place of 36 * 2^16."""
    params = EnvParams(contexts=tuple(ContextConfig(f"m{i}", i % 4 != 1) for i in range(16)), machine_degrade_p=0.2)
    check_lumped(params, WorkerProfile(Pace.SLOW), tmp_path)


def test_one_full_kronecker_chunk(tmp_path):
    """Five influencing machines, one ``_KRON_BITS`` power and one minor
    column: the shape of the benchmark's exact-k5 solve."""
    params = EnvParams(contexts=tuple(ContextConfig(f"m{i}") for i in range(_KRON_BITS)), machine_degrade_p=0.3)
    check_workshop(params, WorkerProfile(Pace.FAST), tmp_path, gammas=(0.5, 0.95))


@pytest.mark.parametrize("k", [6, 7])
def test_beyond_one_kronecker_chunk(k, tmp_path):
    params = EnvParams(
        contexts=tuple(ContextConfig(f"m{i}", i % 3 != 1) for i in range(k)), machine_degrade_p=0.3
    )
    check_workshop(params, WorkerProfile(Pace.SLOW), tmp_path)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_workshop_at_gamma_zero(k, tmp_path):
    params = EnvParams(contexts=tuple(ContextConfig(f"m{i}", i != 1) for i in range(k)))
    check_workshop(params, WorkerProfile(), tmp_path, gammas=(0.0, 0.5))


@pytest.mark.parametrize("influences", [lambda i: True, lambda i: i % 3 != 1], ids=["all", "mixed"])
def test_expect_allocates_no_array_of_its_output_size(influences):
    """Once the kernels are cached, ``expect`` writes every product into
    ``out``: at 10 machines its machine-kernel passes peak at 0.6 of
    ``out``'s bytes, where a Q-sized temporary would read 1.0 or more."""
    k = 10
    params = EnvParams(contexts=tuple(ContextConfig(f"m{i}", influences(i)) for i in range(k)))
    model = FactoredModel(params, WorkerProfile())
    v = np.random.default_rng(k).normal(size=num_states(params))
    out = np.empty((5, num_states(params)))
    model.expect(v, out)
    tracemalloc.start()
    try:
        model.expect(v, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.7 * out.nbytes


BAD_OUTS = {
    "state-major": np.empty((36, 5)),
    "float32": np.empty((5, 36), dtype=np.float32),
    "fortran": np.empty((36, 5)).T,
    "strided": np.empty((5, 72))[:, ::2],
}


@pytest.mark.parametrize(
    "lumped, out",
    [(False, out) for out in BAD_OUTS.values()] + [(True, out) for out in BAD_OUTS.values()],
    ids=list(BAD_OUTS) + [f"lumped-{name}" for name in BAD_OUTS],
)
def test_expect_rejects_an_out_it_cannot_write_in_place(lumped, out):
    """``FactoredModel.expect`` and ``LumpedMdp.expect``: with no machine,
    both act on 36 states."""
    mdp = FiniteMdp.from_env(EnvParams(contexts=()), WorkerProfile())
    model = mdp.lumped() if lumped else mdp.model
    with pytest.raises(ValueError):
        model.expect(np.zeros(36), out)


def dense_mdps():
    one = FiniteMdp(np.ones((1, 1, 1)), np.array([[1.0]]))
    chain = np.zeros((2, 2, 2))
    chain[:, :, 1] = 1.0
    rng = np.random.default_rng(13)
    p = rng.dirichlet(np.ones(7), size=(7, 3))
    return {
        "one-state": one,
        "two-state-chain": FiniteMdp(chain, np.array([[1.0, 1.0], [0.0, 0.0]])),
        "random": FiniteMdp(p, rng.uniform(-1.0, 1.0, size=(7, 3))),
    }


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("name", list(dense_mdps()))
def test_dense_mdps(name, gamma, tmp_path):
    mdp = dense_mdps()[name]
    v = np.random.default_rng(5).normal(size=mdp.num_states)
    out = np.full(mdp.rewards.shape[::-1], np.nan)
    ev = mdp.expect(v, out)
    assert ev.tobytes() == out.T.tobytes() == (mdp.transitions @ v).tobytes()
    check_solver(mdp, lambda v: mdp.transitions @ v, gamma, tmp_path, tolerance=1e-12)


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
def test_all_zero_rewards(zero, tmp_path):
    params = EnvParams(contexts=(ContextConfig("m0"), ContextConfig("m1", False)))
    mdp = FiniteMdp.from_env(params, WorkerProfile())
    kernels = reference_kernels(params)
    mdp.rewards = np.full(mdp.rewards.shape, zero)
    check_solver(mdp, lambda v: reference_expect(mdp.model, v, kernels), 0.95, tmp_path)
    dense = dense_mdps()["random"]
    mdp = FiniteMdp(dense.transitions, np.full(dense.rewards.shape, zero))
    check_solver(mdp, lambda v: mdp.transitions @ v, 0.9, tmp_path)
