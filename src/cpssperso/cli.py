"""Experiment runner and command-line entry point.

Subcommands: ``classify`` and ``validate`` for composition graphs, ``train``
and ``evaluate`` for agents on the workshop, ``sweep`` for single-parameter
sweeps, and ``emit-plot-data`` for learning-curve series.  Exit codes are
stable across subcommands: 0 success, 2 config/validation error, 3 I/O or
parse error.  Metrics are CSV, artifacts are flat binary arrays, and every
run writes a manifest that embeds the resolved config so the run can be
reproduced from the manifest alone.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import os
import struct
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from . import dqn as dqn_mod
from .meta_model import (
    GraphFormatError,
    InvalidSystemError,
    classify_sos,
    load_graph,
    validate_graph,
)
from .personalisation import detect_conflicts, objectives_from_config, scenario_from_dict
from .rl_core import (
    QTABLE_MAGIC,
    FiniteMdp,
    LearningSchedule,
    evaluate_policy,
    exact_match_rate,
    greedy_policy,
    load_qtable,
    optimistic_initial_value,
    replacing,
    save_qtable,
    train_tabular,
    value_iteration,
)
from .workshop_env import (
    EnvParams,
    WorkerProfile,
    WorkshopEnv,
    _cast,
    dataclass_from_config,
    env_params_from_config,
    num_states,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

SEED_ENV_VAR = "CPSSPERSO_SEED"

#: The keys of a config document; any other top-level key is an error.
CONFIG_KEYS = frozenset({"env", "schedule", "dqn", "roles", "objectives", "output_dir", "run_id"})


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """A parsed experiment config file plus the raw document it came from."""

    raw: dict
    env_params: EnvParams
    profile: WorkerProfile
    schedule: LearningSchedule
    dqn: dqn_mod.DqnHyperparams
    output_dir: Path
    run_id: str


def config_hash(raw: Mapping) -> str:
    """Stable hash of the canonical serialization of a config document."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _schedule_from_config(raw: Mapping, env_params: EnvParams) -> LearningSchedule:
    """The LearningSchedule that the `schedule` section sets, where
    ``initial_q`` may also be the string "optimistic": the horizon-limited
    return bound of ``env_params``."""
    if raw.get("initial_q") == "optimistic":
        raw = {**raw, "initial_q": optimistic_initial_value(env_params)}
    return dataclass_from_config(LearningSchedule, raw, "schedule")


def _set_seed(doc: dict, seed: int) -> None:
    """Give the run of the config document ``doc`` the seed ``seed``, in
    both of the sections that hold one."""
    doc.setdefault("env", {})["seed"] = seed
    doc.setdefault("dqn", {})["seed"] = seed


def _section(name: str, build, *args):
    """``build(*args)``, a malformed ``name`` section raising ``ConfigError``."""
    try:
        return build(*args)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {name} section: {exc}") from exc


def parse_experiment_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config document must be an object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for section in ("env", "schedule", "dqn"):
        if not isinstance(raw.get(section, {}), dict):
            raise ConfigError(f"{section} must be an object, got {raw[section]!r}")
    resolved = copy.deepcopy(raw)
    if seed_override is not None:
        _set_seed(resolved, seed_override)
    env_params, profile = _section("env", env_params_from_config, resolved.get("env", {}))
    schedule = _section("schedule", _schedule_from_config, resolved.get("schedule", {}), env_params)
    hp = _section("dqn", dataclass_from_config, dqn_mod.DqnHyperparams, resolved.get("dqn", {}), "dqn")
    need = dqn_mod.dqn_memory_bytes(hp, env_params)
    if need > dqn_mod.MAX_DQN_BYTES:
        raise ConfigError(
            f"bad dqn section: a run needs about {need >> 30} GiB, over the "
            f"{dqn_mod.MAX_DQN_BYTES >> 30} GiB budget"
        )
    _section("objectives", lambda: detect_conflicts(objectives_from_config(resolved.get("objectives", []))))
    if "roles" in resolved:
        _section("roles", scenario_from_dict, resolved["roles"])
    try:
        output_dir = _cast(str, resolved.get("output_dir", "runs"), "output_dir")
        run_id = _cast(str, resolved.get("run_id", "run"), "run_id")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the run directory is output_dir / run_id: anything but one path
    # component would write outside it, or into output_dir itself
    if run_id in ("", ".", "..") or any(c in run_id for c in "/\\\0"):
        raise ConfigError(f"run_id must be one non-empty path component, got {run_id!r}")
    return ExperimentConfig(
        raw=resolved,
        env_params=env_params,
        profile=profile,
        schedule=schedule,
        dqn=hp,
        output_dir=Path(output_dir),
        run_id=run_id,
    )


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file; seed override comes from the
    CPSSPERSO_SEED environment variable when set."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    override = os.environ.get(SEED_ENV_VAR)
    seed_override = None
    if override is not None:
        try:
            seed_override = int(override)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer: {override!r}") from exc
    return parse_experiment_config(raw, seed_override)


def _run_dir(cfg: ExperimentConfig) -> Path:
    """``output_dir / run_id``, or ``NotADirectoryError`` (exit 3) unless the
    nearest existing path up from it is a directory this process may write
    to.  Called before any work; creates nothing."""
    run_dir = path = cfg.output_dir / cfg.run_id
    while not os.path.lexists(path):
        path = path.parent
    if not (path.is_dir() and os.access(path, os.W_OK | os.X_OK)):
        raise NotADirectoryError(f"cannot create {run_dir}: {path} is not a writable directory")
    return run_dir


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with replacing(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(path: Path, doc: dict) -> None:
    """Write ``doc`` as indented JSON with sorted keys: the one writer of the
    JSON outputs, ``run.json`` and the eval summary."""
    with replacing(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# classify / validate
# ---------------------------------------------------------------------------


def cmd_classify(graph_file: str) -> int:
    graph = load_graph(graph_file)
    report = validate_graph(graph)
    if report:
        print("graph is not well-formed:")
        for v in report:
            print(f"  - {v}")
        return EXIT_CONFIG
    result = classify_sos(graph)
    axioms = ", ".join(a.value for a in result.matched_axioms) or "none"
    print(f"component union: {result.component_union.value}")
    print(f"SoS: {'yes' if result.is_sos else 'no'}")
    if result.is_true_cpss:
        print(f"true CPSS (axioms: {axioms})")
    elif result.is_sos:
        print(f"SoS, not a true CPSS (axioms: {axioms})")
    else:
        print("not a SoS")
    print(json.dumps(result.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_validate(graph_file: str) -> int:
    report = validate_graph(load_graph(graph_file))
    if not report:
        print("graph is well-formed")
        return EXIT_OK
    for v in report:
        print(str(v))
    return EXIT_CONFIG


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TABULAR_METRICS_HEADER = ("episode", "return", "epsilon", "max_abs_td_error", "seed")
DQN_METRICS_HEADER = ("step", "episode_return", "loss", "epsilon")


def cmd_train(config_file: str, agent: str, partial_obs: bool) -> int:
    cfg = load_experiment_config(config_file)
    run_dir = _run_dir(cfg)
    env = WorkshopEnv(cfg.env_params, cfg.profile)
    if agent == "tabular":
        q, metrics = train_tabular(env, cfg.schedule, partial_obs)
        seed = cfg.env_params.seed
        header = TABULAR_METRICS_HEADER
        rows = [(m.episode, m.episode_return, m.epsilon, m.max_abs_td_error, seed) for m in metrics]
        artifact = "qtable.bin"
        save = lambda path: save_qtable(q, cfg.env_params.gamma, path)  # noqa: E731
    elif agent == "dqn":
        params, metrics = dqn_mod.train_dqn(env, cfg.dqn, partial_obs)
        seed = cfg.dqn.seed
        header = DQN_METRICS_HEADER
        rows = [(m.step, m.episode_return, m.loss, m.epsilon) for m in metrics]
        artifact = "network.bin"
        save = lambda path: dqn_mod.save_params(params, path)  # noqa: E731
    else:
        raise ConfigError(f"unknown agent: {agent!r}")
    # made after training, so that a run that fails in training leaves no directory
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(run_dir / "metrics.csv", header, rows)
    save(run_dir / artifact)
    cfg_hash = config_hash(cfg.raw)
    record = {
        "run_id": cfg.run_id,
        "config_hash": cfg_hash,
        "seed": seed,
        "provenance": f"cpssperso/{__version__}+cfg.{cfg_hash[:12]}.seed{seed}",
        "metrics_files": ["metrics.csv"],
        "artifact_files": [artifact],
        "agent": agent,
        "partial_obs": partial_obs,
        "config": cfg.raw,
    }
    _write_manifest(run_dir / "run.json", record)
    print(f"run {cfg.run_id} ({agent}) -> {run_dir}")
    print(f"  config hash: {cfg_hash}")
    print(f"  seed: {seed}")
    for name in record["metrics_files"] + record["artifact_files"]:
        print(f"  wrote {name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _load_policy(artifact_file: Path, cfg: ExperimentConfig) -> np.ndarray:
    """Dispatch on the artifact header; returns the greedy action index of
    every state id."""
    with open(artifact_file, "rb") as fh:
        magic = fh.read(4)
    if magic not in (QTABLE_MAGIC, dqn_mod.MLP_MAGIC):
        raise ConfigError(f"{artifact_file}: unrecognized artifact format")
    try:
        if magic == QTABLE_MAGIC:
            q, _gamma = load_qtable(artifact_file)
        else:
            params = dqn_mod.load_params(artifact_file)
    except (ValueError, struct.error) as exc:  # truncated or corrupt payload
        raise ConfigError(str(exc)) from exc
    n_actions = WorkshopEnv.num_actions
    if magic == QTABLE_MAGIC:
        n_states = num_states(cfg.env_params)
        if q.num_actions != n_actions or q.num_states != n_states:
            raise ConfigError(
                f"q-table shape {q.num_states}x{q.num_actions} does not match the "
                f"configured workshop ({n_states}x{n_actions})"
            )
        return greedy_policy(q)
    expected = dqn_mod.feature_size(len(cfg.env_params.contexts))
    if params.num_actions != n_actions or params.input_dim != expected:
        raise ConfigError(
            f"network shape {params.input_dim}->{params.num_actions} does not "
            f"match the configured workshop ({expected}->{n_actions})"
        )
    return dqn_mod.greedy_policy(params, cfg.env_params, cfg.profile)


def _trained_on_observations(artifact: Path) -> bool:
    """Whether the run that wrote ``artifact`` trained with ``--partial-obs``,
    as its ``run.json`` records.  An artifact with no manifest beside it, or
    beside one that does not name it, acts on the true state."""
    manifest_path = artifact.with_name("run.json")
    if not manifest_path.is_file():
        return False
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        names = manifest["artifact_files"]  # `in` a string or an object would match a substring or a key
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise TypeError(f"artifact_files must be a list of names, got {names!r}")
        if artifact.name not in names:
            return False
        partial_obs = manifest["partial_obs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{manifest_path}: bad run manifest: {exc!r}") from exc
    if not isinstance(partial_obs, bool):
        raise ConfigError(f"{manifest_path}: partial_obs must be true or false, got {partial_obs!r}")
    return partial_obs


def cmd_evaluate(artifact_file: str, config_file: str, episodes: int) -> int:
    cfg = load_experiment_config(config_file)
    artifact = Path(artifact_file)
    policy = _load_policy(artifact, cfg)
    partial_obs = _trained_on_observations(artifact)
    summary = evaluate_policy(cfg.env_params, cfg.profile, policy, episodes, partial_obs)
    # an empty evaluation reports its episode count only
    out = asdict(summary) if summary.episodes else {"episodes": 0}
    print(json.dumps(out, sort_keys=True))
    _write_manifest(artifact.with_name(artifact.stem + "_eval.json"), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _resolve_key(doc: dict, dotted: str):
    """Return (container, leaf key) for a dotted path into the config."""
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"config key not found: {dotted!r}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"config key not found: {dotted!r}")
    return node, leaf


def sweep_param(
    cfg: ExperimentConfig,
    param: str,
    values: Sequence[float],
    agent: str = "vi",
    episodes: int = 20,
) -> list[tuple[float, float, float]]:
    """One run per value with seeds derived from the base seed plus the value
    index; rows are (value, mean rollout return, exact worker-match rate)."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    container, leaf = _resolve_key(cfg.raw, param)
    if not isinstance(container[leaf], (int, float)) or isinstance(container[leaf], bool):
        raise ConfigError(f"sweep key {param!r} is not numeric")
    original_is_int = isinstance(container[leaf], int)
    base_seed = cfg.env_params.seed
    rows = []
    for i, value in enumerate(values):
        doc = copy.deepcopy(cfg.raw)
        _set_seed(doc, base_seed + i)
        node, key = _resolve_key(doc, param)  # a swept seed key takes the swept value
        node[key] = int(value) if original_is_int and float(value).is_integer() else float(value)
        point = parse_experiment_config(doc)
        params, profile = point.env_params, point.profile
        if agent == "vi":
            mdp = FiniteMdp.from_env(params, profile).lumped()
            pi = mdp.expand(greedy_policy(value_iteration(mdp, params.gamma, 1e-9)))
        elif agent == "tabular":
            env = WorkshopEnv(params, profile)
            q, _ = train_tabular(env, point.schedule)
            pi = greedy_policy(q)
        elif agent == "dqn":
            net, _ = dqn_mod.train_dqn(WorkshopEnv(params, profile), point.dqn)
            pi = dqn_mod.greedy_policy(net, params, profile)
        else:
            raise ConfigError(f"unknown sweep agent: {agent!r}")
        summary = evaluate_policy(params, profile, pi, episodes)
        rows.append((float(value), summary.mean_return, exact_match_rate(pi, params, profile)))
    return rows


def cmd_sweep(config_file: str, param: str, values_csv: str, agent: str, episodes: int) -> int:
    cfg = load_experiment_config(config_file)
    out_dir = _run_dir(cfg)
    try:
        values = [float(v) for v in values_csv.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values: {exc}") from exc
    rows = sweep_param(cfg, param, values, agent, episodes)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"sweep_{param.replace('.', '_')}.csv"
    _write_csv(out_path, ("value", "mean_return", "match_rate"), rows)
    print("value,mean_return,match_rate")
    for value, mean_return, match in rows:
        print(f"{value},{mean_return},{match}")
    print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# emit-plot-data
# ---------------------------------------------------------------------------


def moving_average(values: Sequence[float], window: int) -> list[float]:
    """Trailing moving average; positions before a full window average what
    is available so the series keeps the input length."""
    out = []
    acc = 0.0
    vals = list(values)
    for i, v in enumerate(vals):
        acc += v
        if i >= window:
            acc -= vals[i - window]
        out.append(acc / min(i + 1, window))
    return out


def cmd_emit_plot_data(run_dir: str, window: int) -> int:
    if window < 1:
        raise ConfigError(f"--window must be at least 1, got {window}")
    metrics_path = Path(run_dir) / "metrics.csv"
    if not metrics_path.exists():
        raise ConfigError(f"no metrics at {metrics_path}")
    with open(metrics_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        fields = reader.fieldnames or []
    x_col = "episode" if "episode" in fields else "step"
    y_col = "return" if "return" in fields else "episode_return"
    if x_col not in fields or y_col not in fields or not rows:
        raise ConfigError(f"{metrics_path} has no learning-curve columns")
    xs = [row[x_col] for row in rows]
    try:
        ys = [float(row[y_col]) for row in rows]
    except (TypeError, ValueError) as exc:  # a short row reads as None
        raise csv.Error(f"{metrics_path}: bad {y_col} value: {exc}") from exc
    out_path = Path(run_dir) / "learning_curve.csv"
    header = (x_col, y_col, f"smoothed_{y_col}")
    if window >= len(ys) + 1:
        # window larger than the data: one aggregate row
        mean = sum(ys) / len(ys)
        _write_csv(out_path, header, [(xs[-1], mean, mean)])
    else:
        smoothed = moving_average(ys, window)
        _write_csv(out_path, header, list(zip(xs, ys, smoothed)))
    print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpssperso",
        description="Classify CPSS composition graphs and train personalised cobot policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a composition graph for SoS/CPSS emergence")
    p.add_argument("graph", help="graph JSON file")

    p = sub.add_parser("validate", help="report structural violations of a graph file")
    p.add_argument("graph", help="graph JSON file")

    p = sub.add_parser("train", help="train an agent on the configured workshop")
    p.add_argument("config", help="experiment config JSON file")
    p.add_argument("--agent", choices=("tabular", "dqn"), default="tabular")
    p.add_argument(
        "--partial-obs",
        action="store_true",
        help="learn from the noisy inference channel instead of the true state",
    )

    p = sub.add_parser("evaluate", help="greedy rollouts of a stored policy artifact")
    p.add_argument("artifact", help="qtable.bin or network.bin")
    p.add_argument("config", help="experiment config JSON file")
    p.add_argument("--episodes", type=int, default=100)

    p = sub.add_parser("sweep", help="rerun over a list of values for one numeric config key")
    p.add_argument("config", help="experiment config JSON file")
    p.add_argument("--param", required=True, help="dotted config key, e.g. env.weights.w_worker")
    p.add_argument("--values", required=True, help="comma-separated numeric values")
    p.add_argument("--agent", choices=("vi", "tabular", "dqn"), default="vi")
    p.add_argument("--episodes", type=int, default=20, help="rollout episodes per point")

    p = sub.add_parser("emit-plot-data", help="smoothed learning-curve series for a run")
    p.add_argument("rundir", help="run directory containing metrics.csv")
    p.add_argument("--window", type=int, default=100)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; the one place where exceptions become exit codes."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "episodes", 0) < 0:
            raise ConfigError(f"--episodes must be non-negative, got {args.episodes}")
        if args.command == "classify":
            return cmd_classify(args.graph)
        if args.command == "validate":
            return cmd_validate(args.graph)
        if args.command == "train":
            return cmd_train(args.config, args.agent, args.partial_obs)
        if args.command == "evaluate":
            return cmd_evaluate(args.artifact, args.config, args.episodes)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.param, args.values, args.agent, args.episodes)
        if args.command == "emit-plot-data":
            return cmd_emit_plot_data(args.rundir, args.window)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigError, InvalidSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except dqn_mod.DivergenceError as exc:
        print(f"error: dqn training diverged: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, GraphFormatError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
