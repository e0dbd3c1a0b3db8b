"""Property tests: the factored model against the readable reference.

Configs are sampled with hypothesis when it is installed and from a seeded
numpy generator otherwise.  For every sample, the dense matrix and the
reward table of ``FiniteMdp.from_env`` and every row of ``WorkshopEnv`` must
equal what ``transition_model`` and ``reward_fn`` give, bit for bit; the
matrix-free ``expect`` must match the dense product to rounding, and value
iteration through it must match value iteration on the dense matrix."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from cpssperso import workshop_env
from cpssperso.cli import main
from cpssperso.rl_core import FiniteMdp, QTable, bellman_residual, greedy_policy, value_iteration
from cpssperso.workshop_env import (
    ACTIONS,
    PACES,
    WORKER_INDEX,
    WORKER_STATES,
    ContextConfig,
    ContextElement,
    EnvParams,
    FactoredModel,
    MachineCondition,
    Pace,
    Pressure,
    RewardMagnitudes,
    TeamState,
    WorkerProfile,
    WorkshopEnv,
    WorkshopState,
    _machine_outcomes,
    _worker_kernel,
    _worker_outcomes,
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
        ids, cum, total = env.model.row(s, a)
        assert ids.tobytes() == ids_ref.tobytes(), (s, a)
        assert cum.tobytes() == cum_ref.tobytes(), (s, a)
        assert total == r_ref[s, a]
        assert np.all(np.diff(cum, prepend=0.0) >= 0.0) and abs(cum[-1] - 1.0) <= 1e-12
    v = np.random.default_rng(n).normal(size=n)
    ev = mdp.expect(v, np.empty(mdp.rewards.shape[::-1]))
    assert np.max(np.abs(ev - p_ref @ v)) <= 1e-12 * np.max(np.abs(v))
    q = value_iteration(mdp, params.gamma, 1e-9)
    q_dense = value_iteration(FiniteMdp(p_ref, r_ref), params.gamma, 1e-9)
    assert np.max(np.abs(q.values - q_dense.values)) <= 1e-9
    assert_greedy_agrees(q_dense.values, greedy_policy(q))


def assert_greedy_agrees(q_ref: np.ndarray, pi: np.ndarray) -> None:
    """The greedy actions ``pi`` are those of ``q_ref`` wherever its best
    action leads the runner-up.  Where two actions tie exactly (noise_p = 0
    can make speed-up and assist equally good), rounding picks either; both
    are optimal."""
    top2 = np.sort(q_ref, axis=1)[:, -2:]
    unique = top2[:, 1] - top2[:, 0] > 2e-9
    assert np.array_equal(pi[unique], np.argmax(q_ref, axis=1)[unique])
    assert np.all(q_ref[np.arange(len(pi)), pi] >= top2[:, 1] - 2e-9)


if st is not None:

    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_factored_model_matches_reference(data):
        check_against_reference(*sample_config(HypothesisDraw(data)))

else:

    @pytest.mark.parametrize("seed", range(EXAMPLES))
    def test_factored_model_matches_reference(seed):
        check_against_reference(*sample_config(RngDraw(seed)))


def check_lumped(params: EnvParams, profile: WorkerProfile, dense: bool = True) -> None:
    """The solve on the lumped chain against the full-state solve: the
    expanded Q within 1e-12, the same greedy policy (up to ties), and a
    Bellman residual on the full model within value iteration's bound.
    With ``dense``, also the lumping itself: every full row, summed over the
    states of each lumped state, is the lumped row of its own state."""
    tolerance = 1e-9
    full = FiniteMdp.from_env(params, profile)
    lumped = full.lumped()
    assert lumped.num_states == 36 * (sum(c.influences_worker for c in params.contexts) + 1)
    assert lumped.expand(lumped.rewards).tobytes() == full.rewards.tobytes()
    q_lumped = value_iteration(lumped, params.gamma, tolerance)
    q = value_iteration(full, params.gamma, tolerance).values
    expanded = lumped.expand(q_lumped.values)
    assert expanded.shape == q.shape
    assert np.max(np.abs(expanded - q)) <= 1e-12
    assert_greedy_agrees(q, lumped.expand(greedy_policy(q_lumped)))
    # three nested convex sums, as in the ten-machine test below
    rounding = 128 * np.finfo(np.float64).eps * max(1.0, float(np.max(np.abs(q))))
    assert bellman_residual(QTable(expanded), full, params.gamma) <= params.gamma * tolerance + rounding
    if dense:
        p = lumped.transitions
        assert np.all(p >= 0.0) and np.max(np.abs(p.sum(axis=2) - 1.0)) <= 1e-12
        v = np.random.default_rng(lumped.num_states).normal(size=lumped.num_states)
        ev = lumped.expect(v, np.empty(lumped.rewards.shape[::-1]))
        assert np.max(np.abs(ev - p @ v)) <= 1e-12 * np.max(np.abs(v))
        ids = lumped.expand(np.arange(lumped.num_states))
        summed = full.transitions @ np.eye(lumped.num_states)[ids]
        assert np.max(np.abs(summed - p[ids])) <= 1e-12


if st is not None:

    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_lumped_solve_matches_the_full_state_solve(data):
        check_lumped(*sample_config(HypothesisDraw(data)))

else:

    @pytest.mark.parametrize("seed", range(EXAMPLES))
    def test_lumped_solve_matches_the_full_state_solve(seed):
        check_lumped(*sample_config(RngDraw(seed)))


def test_lumped_solve_at_ten_machines():
    params = EnvParams(contexts=tuple(ContextConfig(f"m{i}", i % 3 != 2) for i in range(10)), machine_degrade_p=0.2)
    check_lumped(params, WorkerProfile(Pace.FAST), dense=False)


@pytest.mark.usefixtures("no_full_state_solver")
def test_sixteen_machine_sweep_solves_on_the_lumped_chain(workshop_config, write_config, tmp_path):
    """At the most machines a config may name, ``sweep --agent vi`` never
    reaches the full-state model: 2,359,296 states, whose full solve takes
    minutes.  One rollout episode, as every rollout row is kept.  The other
    commands are checked on three machines in ``test_cli``."""
    doc = json.loads(json.dumps(workshop_config))
    doc["env"]["contexts"] = [{"id": f"machine{i}", "influences_worker": True} for i in range(16)]
    doc["output_dir"], doc["run_id"] = str(tmp_path / "runs"), "k16"
    argv = ["sweep", str(write_config(doc)), "--param", "env.noise_p", "--values", "0.1", "--agent", "vi"]
    assert main(argv + ["--episodes", "1"]) == 0
    with open(tmp_path / "runs" / "k16" / "sweep_env_noise_p.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["value"]) == 0.1 and 0.0 < float(row["match_rate"]) <= 1.0


def worker_kernel_by_states(params: EnvParams, profile: WorkerProfile) -> np.ndarray:
    """The loop that ``_worker_kernel`` replaced: ``_worker_outcomes`` on a
    ``WorkshopState`` per worker, with one influencing probe machine whose
    condition is the flag."""
    kernel = np.zeros((2, len(ACTIONS), len(WORKER_STATES), len(WORKER_STATES)))
    for flag, condition in enumerate((MachineCondition.OK, MachineCondition.DEGRADED)):
        probe = ContextElement("probe", condition, True)
        for a, action in enumerate(ACTIONS):
            for w, ws in enumerate(WORKER_STATES):
                state = WorkshopState(ws, TeamState(Pressure.LOW), (probe,))
                for nxt, p in _worker_outcomes(state, action, params, profile):
                    kernel[flag, a, w, WORKER_INDEX[nxt]] = p
    return kernel


@pytest.mark.parametrize("noise_p", [0.0, 1e-200, 0.1, 1.0])
@pytest.mark.parametrize("pace", PACES)
def test_worker_kernel_matches_the_worker_outcomes_loop(pace, noise_p):
    params, profile = EnvParams(noise_p=noise_p), WorkerProfile(pace)
    assert _worker_kernel(params, profile).tobytes() == worker_kernel_by_states(params, profile).tobytes()


#: Reward magnitudes for the row-reward test: a signed zero makes a sum
#: whose terms are dropped or reordered differ in its sign bit.
MAGNITUDES = (-0.0, 0.0, 1.0, -2.5, 0.1, 1e-300)


@pytest.mark.parametrize("seed", range(EXAMPLES))
def test_row_rewards_are_reward_fn_bit_for_bit(seed, monkeypatch):
    """A row takes its reward from the id's factors, never from a decoded
    state: on the sampled configs, with sampled reward magnitudes, every
    (s, a) row's reward is ``reward_fn(...).total`` bit for bit, and the
    row builds decode nothing (``workshop_env.decode_state`` fails while
    they run)."""
    draw = RngDraw(seed)
    params, profile = sample_config(draw)
    params = replace(params, rewards=RewardMagnitudes(*(draw.choice(MAGNITUDES) for _ in range(5))))
    env = WorkshopEnv(params, profile)
    states = [decode_state(s, params) for s in range(num_states(params))]

    def no_decode(*args):
        raise AssertionError("a row build decoded a state")

    monkeypatch.setattr(workshop_env, "decode_state", no_decode)
    for s, state in enumerate(states):
        for a, action in enumerate(ACTIONS):
            want = reward_fn(state, action, params, profile).total
            got = env.model.row(s, a)[2]
            assert type(got) is float and got.hex() == want.hex(), (s, a)


@pytest.mark.parametrize("prob", [0.0, 1.0], ids=["zero", "one"])
def test_factored_model_at_certain_outcomes(prob):
    contexts = (ContextConfig("m0"), ContextConfig("m1", False), ContextConfig("m2"))
    params = EnvParams(
        contexts=contexts, noise_p=prob, pressure_flip_p=prob, machine_degrade_p=prob
    )
    check_against_reference(params, WorkerProfile())


def test_ten_machines_solve_without_the_dense_matrix(monkeypatch):
    """36,864 states, whose dense matrix would take 54 GB: the solve path
    must never build it."""

    def no_dense(self):
        raise AssertionError("the solve path built the dense matrix")

    monkeypatch.setattr(FactoredModel, "dense", no_dense)
    params = EnvParams(contexts=tuple(ContextConfig(f"m{i}", i % 3 != 2) for i in range(10)))
    mdp = FiniteMdp.from_env(params, WorkerProfile())
    tolerance = 1e-9
    q = value_iteration(mdp, params.gamma, tolerance)
    assert q.values.shape == (num_states(params), len(ACTIONS)) == (36_864, 5)
    # a backup is three nested convex sums (two passes of 32 machine-bit
    # terms, one of 36 worker x pressure terms): under 128 roundings in all
    rounding = 128 * np.finfo(np.float64).eps * max(1.0, float(np.max(np.abs(q.values))))
    assert bellman_residual(q, mdp, params.gamma) <= params.gamma * tolerance + rounding


@pytest.mark.parametrize("k", [7, 11], ids=["two-chunks", "three-chunks"])
def test_expect_matches_rows_beyond_one_kronecker_chunk(k):
    """Above 5 machines ``expect`` applies the machine kernel in chunks of
    bits; check it against rows built by ``row_by_list_product`` on sampled
    states, where the dense matrix would be too large to build, and check
    that ``FactoredModel.row`` gives those rows bit for bit."""
    params = EnvParams(
        contexts=tuple(ContextConfig(f"m{i}", i % 3 != 1) for i in range(k)), machine_degrade_p=0.3
    )
    model = FactoredModel(params, WorkerProfile(Pace.SLOW))
    rng = np.random.default_rng(k)
    v = rng.normal(size=num_states(params))
    ev = model.expect(v, np.empty((len(ACTIONS), num_states(params))))
    for s in rng.choice(num_states(params), size=40, replace=False):
        for a in range(len(ACTIONS)):
            ids, probs = row_by_list_product(model, params, int(s), a)
            assert abs(ev[s, a] - probs @ v[ids]) <= 1e-12 * np.max(np.abs(v)), (s, a)
            got_ids, cum, _ = model.row(int(s), a)
            assert got_ids.tobytes() == ids.tobytes(), (s, a)
            assert bytes(cum) == np.cumsum(probs).tobytes(), (s, a)


def machine_pairs(params: EnvParams) -> list[list[list[tuple[int, float]]]]:
    """[action][machine bit]: the (next bit, probability) pairs of
    ``_machine_outcomes`` on one probe machine at that bit."""
    return [
        [
            [
                (int(nxt is MachineCondition.DEGRADED), p)
                for nxt, p in _machine_outcomes(ContextElement("probe", condition, True), action, params)
            ]
            for condition in (MachineCondition.OK, MachineCondition.DEGRADED)
        ]
        for action in ACTIONS
    ]


@pytest.mark.parametrize("degrade_p", EDGE_PROBS)
def test_machine_kernel_is_the_machine_outcomes_of_a_probe(degrade_p):
    """Every action's (2, 2) machine kernel holds, at each current bit,
    exactly the outcomes of ``_machine_outcomes`` on a probe machine, and
    zero elsewhere."""
    params = EnvParams(machine_degrade_p=degrade_p)
    kernel = FactoredModel(params, WorkerProfile()).machine_kernel
    assert kernel.shape == (len(ACTIONS), 2, 2) and kernel.dtype == np.float64
    got = [[[(j, p) for j, p in enumerate(row) if p != 0.0] for row in rows] for rows in kernel.tolist()]
    assert got == machine_pairs(params)


def machines_by_list_product(params: EnvParams, a: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The enumeration ``FactoredModel._machines`` replaced: every machine's
    outcomes in turn, the first machine outermost, as lists of (bits,
    probability) pairs."""
    pairs = machine_pairs(params)[a]
    combos = [(0, 1.0)]
    for shift in range(len(params.contexts) - 1, -1, -1):
        outcomes = pairs[(bits >> shift) & 1]
        combos = [(i * 2 + j, p * q) for i, p in combos for j, q in outcomes]
    return (
        np.array([i for i, _ in combos], dtype=np.int64),
        np.array([p for _, p in combos], dtype=np.float64),
    )


def row_by_list_product(model: FactoredModel, params: EnvParams, s: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Next-state ids and probabilities of (s, a) as lists: each nonzero
    worker x pressure outcome times each entry of ``machines_by_list_product``,
    in ``transition_model``'s product order, zero products dropped."""
    k = model.num_machines
    bits = s & ((1 << k) - 1)
    wt = model.worker_team[int((bits & model.influence_mask) != 0), a, s >> k]
    m_ids, m_probs = machines_by_list_product(params, a, bits)
    row = [
        ((int(w) << k) | int(m), float(wt[w]) * float(p))
        for w in np.flatnonzero(wt)
        for m, p in zip(m_ids, m_probs)
    ]
    row = [(i, p) for i, p in row if p > 0.0]
    return np.array([i for i, _ in row], dtype=np.int64), np.array([p for _, p in row])


@pytest.mark.parametrize("k", [8, 12])
def test_machines_match_the_list_product_at_scale(k):
    """At sizes the reference checks do not reach, the machine part of a row
    equals the per-machine enumeration bit for bit, at every edge probability;
    the sampled bit patterns include all-ok, all-degraded and mixed ones."""
    rng = np.random.default_rng(k)
    contexts = tuple(ContextConfig(f"m{i}", i % 4 != 3) for i in range(k))
    all_bits = (1 << k) - 1
    for degrade_p in EDGE_PROBS:
        params = EnvParams(contexts=contexts, machine_degrade_p=degrade_p)
        model = FactoredModel(params, WorkerProfile())
        patterns = [0, all_bits, 1, all_bits - 1] + [int(b) for b in rng.integers(1 << k, size=6)]
        for bits in patterns:
            for a in range(len(ACTIONS)):
                ids_ref, probs_ref = machines_by_list_product(params, a, bits)
                ids, n = model._machines(a, bits)
                probs = model._fold(a, n)
                assert ids.dtype == ids_ref.dtype and probs.dtype == probs_ref.dtype
                assert ids.tobytes() == ids_ref.tobytes(), (degrade_p, a, bits)
                assert probs.tobytes() == probs_ref.tobytes(), (degrade_p, a, bits)


#: Six machines, one of them not influencing the worker, that degrade
#: often enough for rows of every size to occur.
K6 = EnvParams(contexts=tuple(ContextConfig(f"m{i}", i != 2) for i in range(6)), machine_degrade_p=0.3)


def test_rows_of_one_key_share_their_cumulative_probabilities():
    """Two states with the same worker x pressure, flag and number of ok
    machines: every action's rows hold one cumulative array; the rows of
    an action that keeps the degraded machines degraded differ in their ids."""
    env = WorkshopEnv(K6)
    s1, s2 = (7 << 6) | 0b100000, (7 << 6) | 0b000001  # m0 or m5 degraded
    for a in range(len(ACTIONS)):
        ids1, cum1, _ = env.model.row(s1, a)
        ids2, cum2, _ = env.model.row(s2, a)
        assert cum1 is cum2, a
    assert ids1 != ids2  # handover keeps m0 / m5 degraded


def test_distinct_cumulative_arrays_are_fewer_than_rows():
    env = WorkshopEnv(K6)
    for s in range(num_states(K6)):
        for a in range(len(ACTIONS)):
            env.model.row(s, a)
    distinct = {id(cum) for _, cum, _ in env._rows.values()}
    assert len(env._rows) == num_states(K6) * len(ACTIONS)
    assert len(distinct) == len(env.model._parts) < len(env._rows) // 4


def test_rows_drop_machine_products_that_underflow():
    """With ``machine_degrade_p`` 1e-200, two degradations have probability
    1e-400, which is 0.0: the fold of three two-outcome machines holds
    exact zeros, and rows drop them as ``transition_model`` does."""
    contexts = (ContextConfig("m0"), ContextConfig("m1", False), ContextConfig("m2"))
    params = EnvParams(contexts=contexts, machine_degrade_p=1e-200)
    model = FactoredModel(params, WorkerProfile())
    fold = model._fold(0, model._machines(0, 0)[1])
    assert len(fold) == 8 and np.count_nonzero(fold == 0.0) == 4
    check_against_reference(params, WorkerProfile())


@pytest.mark.parametrize("params", [K6, replace(K6, machine_degrade_p=1e-200)], ids=["k6", "underflow"])
def test_rows_do_not_depend_on_build_order(params):
    """The parts a row shares are built by the first row that needs them:
    rows built in shuffled (s, a) order equal rows built in order, byte for
    byte."""
    in_order, shuffled = WorkshopEnv(params), WorkshopEnv(params)
    pairs = [(s, a) for s in range(num_states(params)) for a in range(len(ACTIONS))]
    for s, a in pairs:
        in_order.model.row(s, a)
    for i in np.random.default_rng(6).permutation(len(pairs)):
        shuffled.model.row(*pairs[i])
    assert in_order._rows.keys() == shuffled._rows.keys()
    for key, (ids, cum, total) in in_order._rows.items():
        got_ids, got_cum, got_total = shuffled._rows[key]
        assert got_ids.tobytes() == ids.tobytes() and bytes(got_cum) == bytes(cum), key
        assert got_total.hex() == total.hex(), key
