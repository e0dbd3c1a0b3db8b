"""One fresh process of one benchmark workload.

    python3 bench/worker.py --workload tabular-k1 --config CFG --mode run

``--mode setup`` times the set-up alone and exits.  ``--mode check`` runs
the set-up and then the checks that do not depend on a command's outputs
(the fixed-seed dynamics pass of tabular-k6).  ``--mode run`` runs the
workload's CLI command in-process through ``cpssperso.cli.main``, times it,
and checks its outputs.  ``--mode trace`` does the same with a span around
every public function of the program and writes the spans next to the
config.  The last line of standard output is one JSON object.

Only the standard library is imported before set-up is timed, so that
``setup_s`` holds the whole import of cpssperso and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: The CLI command of each workload; CONFIG stands for the config path.
COMMANDS = {
    "tabular-k1": ["train", "CONFIG", "--agent", "tabular"],
    "dqn-k1": ["train", "CONFIG", "--agent", "dqn"],
    "exact-k5": ["sweep", "CONFIG", "--param", "env.noise_p", "--values", "0.1", "--agent", "vi"],
    "tabular-k6": ["train", "CONFIG", "--agent", "tabular"],
}
#: Seed and length of the untimed pass that samples the k6 dynamics.  The
#: seed is fixed so that the pass, and its verdict, is the same in every run.
DYNAMICS_SEED = 2021
DYNAMICS_STEPS = 5000
ROLLOUTS = 100
#: The output each workload's check reads from the run directory.
ARTIFACT = {
    "tabular-k1": "qtable.bin",
    "dqn-k1": "network.bin",
    "exact-k5": "sweep_env_noise_p.csv",
    "tabular-k6": "qtable.bin",
}


def setup(workload: str, config: Path) -> dict:
    """Import, config load and parse, and the env the command builds before
    its main phase.  ``train_dqn`` builds its network and replay buffer
    itself, so those fall in dqn-k1's main phase.  Returns the parsed config
    and the timings."""
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cpssperso.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"cpssperso imported from {cli.__file__}, not from {ROOT / 'src'}")
    t1 = perf_counter()
    cfg = cli.load_experiment_config(config)
    if workload != "exact-k5":
        cli.WorkshopEnv(cfg.env_params, cfg.profile)
    t2 = perf_counter()
    return {"cfg": cfg, "setup_s": t2 - t0, "import_s": t1 - t0}


def trace_program(tracer) -> None:
    """A span around every public function of the four layers, installed at
    every place the CLI path looks the function up."""
    from cpssperso import cli, dqn, rl_core, workshop_env as we

    wrap = tracer.patch
    wrap("workshop_env.step", [(we.WorkshopEnv, "step")])
    wrap("workshop_env.observe", [(we.WorkshopEnv, "observe")])
    wrap("workshop_env.encode_state", [(we, "encode_state"), (rl_core, "encode_state")])
    wrap("workshop_env.decode_state", [(we, "decode_state"), (rl_core, "decode_state"), (cli, "decode_state")])
    wrap("workshop_env.transition_model", [(we, "transition_model"), (rl_core, "transition_model")])
    wrap("workshop_env.reward_fn", [(we, "reward_fn"), (rl_core, "reward_fn")])
    wrap("rl_core.from_env", [(rl_core.FiniteMdp, "from_env")])
    for name in ("value_iteration", "train_tabular", "evaluate_policy", "exact_match_rate"):
        wrap(f"rl_core.{name}", [(rl_core, name), (cli, name)])
    for name in ("q_update", "epsilon_greedy"):
        wrap(f"rl_core.{name}", [(rl_core, name)])
    for name in ("train_dqn", "forward", "loss_and_grad", "sgd_step", "encode_features"):
        wrap(f"dqn.{name}", [(dqn, name)])
    wrap("dqn.replay_push", [(dqn.ReplayBuffer, "push")])
    wrap("dqn.replay_sample", [(dqn.ReplayBuffer, "sample")])
    wrap("cli.parse_config", [(cli, "load_experiment_config")])
    wrap("cli.parse_config", [(cli, "parse_experiment_config")])
    for owner, name in ((cli, "_write_csv"), (cli, "_write_manifest"), (cli, "save_qtable"), (dqn, "save_params")):
        wrap("cli.write", [(owner, name)])


def time_main_phase(tracer, workload: str) -> None:
    """Spans around the main phase only: a handful of calls, no overhead."""
    from cpssperso import cli, dqn, rl_core

    if workload == "dqn-k1":
        tracer.patch("dqn.train_dqn", [(dqn, "train_dqn")])
    elif workload == "exact-k5":
        tracer.patch("rl_core.from_env", [(rl_core.FiniteMdp, "from_env")])
        tracer.patch("rl_core.value_iteration", [(cli, "value_iteration")])
    else:
        tracer.patch("rl_core.train_tabular", [(cli, "train_tabular")])


def capture_model(captured: dict) -> None:
    """Keep the dense model and the Q-table that the sweep solves."""
    from cpssperso import cli

    solve = cli.value_iteration

    def value_iteration(mdp, gamma, tolerance=1e-9):
        q = solve(mdp, gamma, tolerance)
        captured.update(mdp=mdp, q=q, tolerance=tolerance)
        return q

    cli.value_iteration = value_iteration


def main_phase_s(workload: str, spans: dict) -> float:
    if workload == "exact-k5":
        return spans["rl_core.from_env"]["s"] + spans["rl_core.value_iteration"]["s"]
    if workload == "dqn-k1":
        return spans["dqn.train_dqn"]["s"]
    return spans["rl_core.train_tabular"]["s"]


def work_units(workload: str, cfg) -> int:
    """Env steps for the training workloads, state-action rows for exact-k5."""
    from cpssperso.workshop_env import WorkshopEnv, num_states

    if workload == "exact-k5":
        return num_states(cfg.env_params) * WorkshopEnv.num_actions
    if workload == "dqn-k1":
        return cfg.dqn.total_steps
    return cfg.schedule.episodes * cfg.env_params.horizon


def layer_metrics(tracer, captured: dict, import_s: float) -> dict[str, float]:
    spans = tracer.summary()

    def get(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def rate(name: str) -> float:
        return get(name, "calls") / get(name, "s") if get(name, "s") else 0.0

    steps = get("workshop_env.step", "calls")
    built_in_step = tracer.count_children("workshop_env.transition_model", "workshop_env.step")
    mdp = captured.get("mdp")
    out = {
        "workshop_env.step.self_s": get("workshop_env.step", "self_s"),
        "workshop_env.step.per_s": rate("workshop_env.step"),
        "workshop_env.step.row_hit_ratio": 1.0 - built_in_step / steps if steps else 0.0,
        "workshop_env.transition_model.calls": get("workshop_env.transition_model", "calls"),
        "rl_core.from_env.s": get("rl_core.from_env", "s"),
        "rl_core.model_bytes": mdp.transitions.nbytes + mdp.rewards.nbytes if mdp else 0,
        "dqn.loss_and_grad.per_s": rate("dqn.loss_and_grad"),
        "cli.import_s": import_s,
        "cli.write_s": get("cli.write", "s"),
    }
    for name in ("observe", "encode_state", "transition_model", "reward_fn", "decode_state"):
        out[f"workshop_env.{name}.self_s"] = get(f"workshop_env.{name}", "self_s")
    for name in ("from_env", "q_update", "epsilon_greedy", "train_tabular"):
        out[f"rl_core.{name}.self_s"] = get(f"rl_core.{name}", "self_s")
    for name in ("value_iteration", "evaluate_policy", "exact_match_rate"):
        out[f"rl_core.{name}.s"] = get(f"rl_core.{name}", "s")
    for name in ("loss_and_grad", "forward", "sgd_step", "replay_sample", "replay_push", "encode_features", "train_dqn"):
        out[f"dqn.{name}.self_s"] = get(f"dqn.{name}", "self_s")
    out["cli.parse_config.s"] = get("cli.parse_config", "s")
    return out


# ---------------------------------------------------------------------------
# Checks: untimed, after the workload
# ---------------------------------------------------------------------------


def dense_model(params, profile):
    """(P, R) assembled here from the model's definition, not by FiniteMdp."""
    import numpy as np

    from cpssperso.workshop_env import ACTIONS, decode_state, encode_state, num_states, reward_fn, transition_model

    n = num_states(params)
    p = np.zeros((n, len(ACTIONS), n))
    r = np.zeros((n, len(ACTIONS)))
    for s in range(n):
        state = decode_state(s, params)
        for a, action in enumerate(ACTIONS):
            for nxt, prob in transition_model(state, action, params, profile):
                p[s, a, encode_state(nxt)] += prob
            r[s, a] = reward_fn(state, action, params, profile).total
    return p, r


def mean_return(params, profile, act, seeds) -> float:
    """Mean undiscounted return of ``act(state) -> Action``, one rollout per seed."""
    from cpssperso.workshop_env import WorkshopEnv

    env = WorkshopEnv(params, profile)
    total = 0.0
    for seed in seeds:
        state, _ = env.reset(seed=seed)
        done = False
        while not done:
            state, _, reward, done = env.step(act(state))
            total += reward.total
    return total / len(seeds)


def sample_dynamics(params, profile, steps: int, seed: int):
    """Uniformly random actions through a fresh env seeded with ``seed``;
    returns the arrays ``checks.check_factor_dynamics`` takes."""
    from dataclasses import replace

    import numpy as np

    from cpssperso.workshop_env import ACTIONS, Action, MachineCondition, Pressure, WorkshopEnv

    env = WorkshopEnv(replace(params, seed=seed), profile)
    picks = np.random.default_rng(seed).integers(len(ACTIONS), size=steps)
    degraded = np.zeros((steps, 2, len(params.contexts)), dtype=bool)
    high = np.zeros((steps, 2), dtype=bool)
    state, _ = env.reset()
    for i, a in enumerate(picks):
        before = state
        state, _, _, done = env.step(ACTIONS[a])
        for j, st in enumerate((before, state)):
            degraded[i, j] = [c.machine is MachineCondition.DEGRADED for c in st.contexts]
            high[i, j] = st.team.pressure is Pressure.HIGH
        if done:
            state, _ = env.reset()
    assist = picks == ACTIONS.index(Action.ASSIST)
    return assist, degraded[:, 0], degraded[:, 1], high[:, 0], high[:, 1]


def check_fixed(workload: str, cfg) -> list[str]:
    """Checks that do not depend on a command's outputs; the same in every run."""
    import checks

    if workload != "tabular-k6":
        return []
    params = cfg.env_params
    sample = sample_dynamics(params, cfg.profile, DYNAMICS_STEPS, DYNAMICS_SEED)
    return checks.check_factor_dynamics(*sample, params.machine_degrade_p, params.pressure_flip_p)


def check(workload: str, cfg, run_dir: Path, captured: dict) -> list[str]:
    """Failures found in the workload's outputs; empty when they are correct."""
    import numpy as np

    import checks
    from cpssperso import dqn
    from cpssperso.rl_core import load_qtable, max_step_reward
    from cpssperso.workshop_env import ACTIONS, encode_state, num_states

    if not (run_dir / ARTIFACT[workload]).is_file():
        return [f"the command wrote no {ARTIFACT[workload]}"]
    params, profile = cfg.env_params, cfg.profile
    if workload == "exact-k5":
        rows = (run_dir / "sweep_env_noise_p.csv").read_text(encoding="utf-8").splitlines()
        failures = [] if len(rows) == 2 else [f"sweep wrote {len(rows) - 1} rows, expected 1"]
        mdp, q = captured["mdp"], captured["q"]
        return failures + checks.check_dense_model(
            mdp.transitions, mdp.rewards, q.values, params.gamma, captured["tolerance"]
        )
    if workload == "tabular-k6":
        q, _ = load_qtable(run_dir / "qtable.bin")
        return [] if q.num_states == num_states(params) else [f"q-table has {q.num_states} states"]
    oracle = np.argmax(checks.solve_oracle(*dense_model(params, profile), params.gamma), axis=1)
    if workload == "tabular-k1":
        q, _ = load_qtable(run_dir / "qtable.bin")
        return checks.check_policy_agreement(q.values, oracle)
    net = dqn.load_params(run_dir / "network.bin")
    seeds = [params.seed + 100_000 + i for i in range(ROLLOUTS)]
    learned = mean_return(
        params, profile, lambda s: ACTIONS[int(np.argmax(dqn.forward(net, dqn.encode_features(s, profile))))], seeds
    )
    best = mean_return(params, profile, lambda s: ACTIONS[int(oracle[encode_state(s)])], seeds)
    return checks.check_return_ratio(learned, best, params.horizon * max_step_reward(params))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("setup", "check", "run", "trace"))
    args = parser.parse_args()

    done = setup(args.workload, args.config)
    result = {"setup_s": done["setup_s"]}
    if args.mode == "check":
        result["failures"] = check_fixed(args.workload, done["cfg"])
    elif args.mode != "setup":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        import cpssperso.cli as cli

        cfg = done["cfg"]
        tracer = Tracer()
        if args.mode == "trace":
            trace_program(tracer)
        else:
            time_main_phase(tracer, args.workload)
        captured: dict = {}
        capture_model(captured)
        argv = [str(args.config) if a == "CONFIG" else a for a in COMMANDS[args.workload]]
        run_dir = cfg.output_dir / cfg.run_id
        shutil.rmtree(run_dir, ignore_errors=True)  # so the checks never read an earlier run's output
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(argv)
            wall_s = perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if code != 0:
            raise SystemExit(f"cpssperso {' '.join(argv)} exited with {code}")
        result.update(wall_s=wall_s, peak_rss_mb=peak_rss_mb)
        if args.mode == "trace":
            result["layers"] = layer_metrics(tracer, captured, done["import_s"])
            tracer.write(run_dir / "trace.npz")
        else:
            result.update(main_s=main_phase_s(args.workload, tracer.summary()), work=work_units(args.workload, cfg))
        result["failures"] = check(args.workload, cfg, run_dir, captured)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
