"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; oracles are independent of the code paths
they check (closed forms, hand-solved fixed points, finite differences,
exhaustive enumeration)."""

import itertools
import json
import math
import time

import numpy as np
import pytest

from cpssperso.cli import main as cli_main
from cpssperso.cli import parse_experiment_config, sweep_param
from cpssperso import dqn
from cpssperso.dqn import (
    DqnHyperparams,
    init_mlp,
    loss_and_grad,
    train_dqn,
)
from cpssperso.meta_model import (
    GraphValidationError,
    Relation,
    RelationKind,
    SosGraph,
    classify_sos,
    validate_graph,
)
from cpssperso.rl_core import (
    FiniteMdp,
    LearningSchedule,
    evaluate_policy,
    greedy_policy,
    optimistic_initial_value,
    train_tabular,
    value_iteration,
)
from cpssperso.workshop_env import (
    ACTIONS,
    EnvParams,
    ContextConfig,
    MachineCondition,
    WorkerProfile,
    WorkshopEnv,
    enumerate_states,
    reward_fn,
)
from conftest import CONFIGS, node_of, worker_cobot_graph

PROFILE = WorkerProfile()


def report(number: int, name: str, ok: bool, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_01_value_iteration_fixed_points():
    t0 = time.perf_counter()
    one = FiniteMdp(np.ones((1, 1, 1)), np.array([[1.0]]))
    q_one = value_iteration(one, gamma=0.5, tolerance=1e-12)
    ok = abs(q_one.values[0, 0] - 1.0 / (1.0 - 0.5)) <= 1e-9

    p = np.zeros((2, 2, 2))
    p[0, :, 1] = 1.0
    p[1, :, 1] = 1.0
    chain = FiniteMdp(p, np.array([[1.0, 1.0], [0.0, 0.0]]))
    q_chain = value_iteration(chain, gamma=0.9, tolerance=1e-12)
    ok = ok and np.all(np.abs(q_chain.values[0] - 1.0) <= 1e-9)
    ok = ok and np.all(np.abs(q_chain.values[1] - 0.0) <= 1e-9)
    report(1, "value-iteration fixed points", ok, t0, budget=1.0)


def test_02_contraction_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 73))
        mdp = FiniteMdp(
            rng.dirichlet(np.ones(n), size=(n, 5)),
            rng.uniform(-2.0, 2.0, size=(n, 5)),
        )
        gamma = float(rng.uniform(0.5, 0.99))
        q = np.zeros_like(mdp.rewards)
        prev = None
        for _ in range(80):
            nxt = mdp.rewards + gamma * (mdp.transitions @ q.max(axis=1))
            delta = float(np.max(np.abs(nxt - q)))
            if prev is not None and prev > 1e-12:
                ok = ok and delta <= gamma * prev + 1e-9
            prev = delta
            q = nxt
    report(2, "value-iteration contraction", ok, t0, budget=10.0)


def test_03_tabular_matches_oracle_policy():
    t0 = time.perf_counter()
    params0 = EnvParams()
    mdp = FiniteMdp.from_env(params0, PROFILE)
    oracle = greedy_policy(value_iteration(mdp, params0.gamma, 1e-9))
    ok = True
    for seed in range(5):
        params = EnvParams(seed=seed)
        env = WorkshopEnv(params, PROFILE)
        q, _ = train_tabular(env, LearningSchedule(initial_q=optimistic_initial_value(params)))
        agreement = float(np.mean(greedy_policy(q) == oracle))
        ok = ok and agreement >= 0.95
    report(3, "tabular argmax agreement with oracle (5 seeds)", ok, t0, budget=60.0)


def test_04_gradient_check_against_finite_differences():
    t0 = time.perf_counter()
    from test_dqn import numeric_gradient, random_batch

    rng = np.random.default_rng(77)
    ok = True
    for _ in range(10):
        sizes = [3, int(rng.integers(2, 5)), 2]
        params = init_mlp(sizes, rng)
        target = init_mlp(sizes, rng)
        batch = random_batch(rng, 8, 3, 2)
        _, analytic = loss_and_grad(params, target, *batch, 0.9)
        numeric = numeric_gradient(params, target, batch, 0.9, step=1e-5)
        scale = np.maximum(np.abs(numeric), 1e-8)
        ok = ok and float(np.max(np.abs(analytic - numeric) / scale)) < 1e-4
    report(4, "analytic gradients vs finite differences", ok, t0, budget=5.0)


def test_05_dqn_reaches_oracle_return():
    t0 = time.perf_counter()
    params = EnvParams()
    mdp = FiniteMdp.from_env(params, PROFILE)
    q_star = value_iteration(mdp, params.gamma, 1e-9)
    vi_return = evaluate_policy(WorkshopEnv(params, PROFILE), greedy_policy(q_star), 100).mean_return
    ok = vi_return > 0
    for seed in range(3):
        env = WorkshopEnv(EnvParams(seed=seed), PROFILE)
        net, _ = train_dqn(env, DqnHyperparams(seed=seed, total_steps=20_000))
        summary = evaluate_policy(WorkshopEnv(params, PROFILE), dqn.greedy_policy(net, params, PROFILE), 100)
        ok = ok and summary.mean_return >= 0.95 * vi_return
    report(5, "dqn greedy return vs oracle (3 seeds)", ok, t0, budget=300.0)


def test_06_axiom_enumeration():
    t0 = time.perf_counter()
    kinds = ("CPS", "PSS", "CSS", "CPSS")
    axiom_cases = {
        frozenset(("PSS", "CPSS")): "A1",
        frozenset(("CPS", "CPSS")): "A2",
        frozenset(("CSS", "CPSS")): "A3",
    }
    flagged = []
    valid = invalid = 0
    ok = True
    for k1, k2 in itertools.combinations_with_replacement(kinds, 2):
        for rel in RelationKind:
            graph = SosGraph(
                nodes=(node_of("n1", k1), node_of("n2", k2)),
                edges=(Relation("n1", "n2", rel),),
            )
            if validate_graph(graph):
                invalid += 1
                with pytest.raises(GraphValidationError):
                    classify_sos(graph)
                continue
            valid += 1
            result = classify_sos(graph)
            ok = ok and result.is_sos  # two independent nodes, one relation
            if result.is_true_cpss:
                flagged.append((k1, k2, rel.value))
            should_flag = rel is RelationKind.RS and frozenset((k1, k2)) in axiom_cases
            ok = ok and (result.is_true_cpss == should_flag)
            ok = ok and (bool(result.matched_axioms) == should_flag)
            if should_flag:
                ok = ok and [a.value for a in result.matched_axioms] == [
                    axiom_cases[frozenset((k1, k2))]
                ]
    ok = ok and len(flagged) == 3 and valid + invalid == 70
    rp_only = classify_sos(worker_cobot_graph(RelationKind.RP))
    ok = ok and rp_only.is_sos and not rp_only.is_true_cpss
    report(6, "axiom enumeration over two-node graphs", ok, t0, budget=1.0)


def test_07_priority_effect_is_monotone():
    t0 = time.perf_counter()
    with open(CONFIGS / "workshop.json", encoding="utf-8") as fh:
        cfg = parse_experiment_config(json.load(fh))
    rows = sweep_param(cfg, "env.weights.w_worker", [0.6, 1.0, 2.0], agent="vi", episodes=5)
    match = [r[2] for r in rows]
    ok = len(rows) == 3 and all(a <= b + 1e-12 for a, b in zip(match, match[1:]))
    report(7, "worker-weight sweep match rate non-decreasing", ok, t0, budget=10.0)


def test_08_reward_composition_exact():
    t0 = time.perf_counter()
    ok = True
    params = EnvParams(
        contexts=(ContextConfig("m1", True), ContextConfig("m2", False)),
    )
    for state in enumerate_states(params):
        for action in ACTIONS:
            br = reward_fn(state, action, params, PROFILE)
            expected = (
                params.weights.w_worker * br.r_worker
                + params.weights.w_team * br.r_team
            )
            for rc in br.r_context:
                expected += params.weights.w_context * rc
            ok = ok and br.total == expected  # bit-exact

            flipped_machine = (
                MachineCondition.DEGRADED
                if state.contexts[1].machine is MachineCondition.OK
                else MachineCondition.OK
            )
            from dataclasses import replace

            toggled = replace(
                state,
                contexts=(state.contexts[0], replace(state.contexts[1], machine=flipped_machine)),
            )
            br2 = reward_fn(toggled, action, params, PROFILE)
            ok = ok and (br.r_worker, br.r_team, br.r_context, br.total) == (
                br2.r_worker,
                br2.r_team,
                br2.r_context,
                br2.total,
            )
    report(8, "reward composition bit-exact + context filtering", ok, t0, budget=10.0)


def test_09_training_runs_are_byte_deterministic(tmp_path):
    t0 = time.perf_counter()
    with open(CONFIGS / "workshop.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    ok = True
    for agent in ("tabular", "dqn"):
        out = tmp_path / agent
        run_doc = dict(doc, output_dir=str(out))
        cfg_path = tmp_path / f"{agent}.json"
        cfg_path.write_text(json.dumps(run_doc))
        metrics_path = out / doc["run_id"] / "metrics.csv"
        blobs, hashes = [], []
        for _ in range(2):  # the second run overwrites the first in place
            ok = ok and cli_main(["train", str(cfg_path), "--agent", agent]) == 0
            blobs.append(metrics_path.read_bytes())
            manifest = json.loads((out / doc["run_id"] / "run.json").read_text())
            hashes.append(manifest["config_hash"])
        ok = ok and blobs[0] == blobs[1] and len(blobs[0]) > 0
        ok = ok and hashes[0] == hashes[1]
    report(9, "byte-identical metrics for identical manifests", ok, t0, budget=120.0)


def test_10_observation_channel_accuracy():
    t0 = time.perf_counter()
    alpha = 0.9
    env = WorkshopEnv(EnvParams(alpha=alpha, seed=5), PROFILE)
    state, _ = env.reset()
    n = 100_000
    hits = sum(env.observe(state).worker == state.worker for _ in range(n))
    se = math.sqrt(alpha * (1.0 - alpha) / n)
    ok = abs(hits / n - alpha) <= 3.0 * se
    report(10, "inference channel accuracy within 3 standard errors", ok, t0, budget=30.0)
