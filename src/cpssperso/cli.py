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
import math
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
from .personalisation import objectives_from_config
from .rl_core import (
    FiniteMdp,
    LearningSchedule,
    evaluate_policy,
    exact_match_rate,
    greedy_policy,
    load_qtable,
    optimistic_initial_value,
    save_qtable,
    train_tabular,
    value_iteration,
)
from .workshop_env import (
    EnvParams,
    WorkerProfile,
    WorkshopEnv,
    dataclass_from_config,
    env_params_from_config,
    num_states,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

SEED_ENV_VAR = "CPSSPERSO_SEED"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """A parsed experiment config file plus the raw document it came from."""

    raw: dict
    env_params: EnvParams
    profile: WorkerProfile
    schedule: LearningSchedule
    initial_q: float
    dqn: dqn_mod.DqnHyperparams
    output_dir: Path
    run_id: str

    @property
    def config_hash(self) -> str:
        return config_hash(self.raw)


def config_hash(raw: Mapping) -> str:
    """Stable hash of the canonical serialization of a config document."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _schedule_from_config(raw: Mapping, env_params: EnvParams) -> tuple[LearningSchedule, float]:
    """The LearningSchedule that the `schedule` section sets, and its
    ``initial_q``: a finite number or the string "optimistic" (horizon-limited
    return bound), zeros by default.  Unknown keys are rejected."""
    try:
        schedule = dataclass_from_config(
            LearningSchedule, {k: v for k, v in raw.items() if k != "initial_q"}, "schedule"
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad schedule section: {exc}") from exc
    value = raw.get("initial_q", 0.0)
    if value == "optimistic":
        return schedule, optimistic_initial_value(env_params)
    try:  # isfinite takes no string and no integer too large for a float
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ConfigError(f"bad schedule.initial_q: {value!r}")
    return schedule, float(value)


def parse_experiment_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config document must be an object")
    for section in ("env", "schedule", "dqn"):
        if not isinstance(raw.get(section, {}), dict):
            raise ConfigError(f"{section} must be an object, got {raw[section]!r}")
    resolved = copy.deepcopy(raw)
    if seed_override is not None:
        resolved.setdefault("env", {})["seed"] = seed_override
        resolved.setdefault("dqn", {})["seed"] = seed_override
    try:
        env_params, profile = env_params_from_config(resolved.get("env", {}))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad env section: {exc}") from exc
    schedule, initial_q = _schedule_from_config(resolved.get("schedule", {}), env_params)
    try:
        hp = dqn_mod.hyperparams_from_config(resolved.get("dqn", {}))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad dqn section: {exc}") from exc
    try:
        objectives_from_config(resolved.get("objectives", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad objectives section: {exc}") from exc
    return ExperimentConfig(
        raw=resolved,
        env_params=env_params,
        profile=profile,
        schedule=schedule,
        initial_q=initial_q,
        dqn=hp,
        output_dir=Path(resolved.get("output_dir", "runs")),
        run_id=str(resolved.get("run_id", "run")),
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


@dataclass
class RunRecord:
    run_id: str
    config_hash: str
    seed: int
    provenance: str
    metrics_files: tuple[str, ...]
    artifact_files: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "provenance": self.provenance,
            "metrics_files": list(self.metrics_files),
            "artifact_files": list(self.artifact_files),
        }


def _provenance(cfg_hash: str, seed: int) -> str:
    return f"cpssperso/{__version__}+cfg.{cfg_hash[:12]}.seed{seed}"


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(path: Path, record: RunRecord, extra: dict) -> None:
    doc = record.to_dict()
    doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
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


def run_training(cfg: ExperimentConfig, agent: str, partial_obs: bool, run_dir: Path) -> RunRecord:
    run_dir.mkdir(parents=True, exist_ok=True)
    env = WorkshopEnv(cfg.env_params, cfg.profile)
    metrics_path = run_dir / "metrics.csv"
    if agent == "tabular":
        q, metrics = train_tabular(
            env, cfg.schedule, cfg.env_params.gamma, partial_obs, initial_q=cfg.initial_q
        )
        _write_csv(
            metrics_path,
            TABULAR_METRICS_HEADER,
            [
                (m.episode, m.episode_return, m.epsilon, m.max_abs_td_error, cfg.env_params.seed)
                for m in metrics
            ],
        )
        artifact = run_dir / "qtable.bin"
        save_qtable(q, cfg.env_params.gamma, artifact)
        seed = cfg.env_params.seed
    elif agent == "dqn":
        params, metrics = dqn_mod.train_dqn(env, cfg.dqn, partial_obs)
        _write_csv(
            metrics_path,
            DQN_METRICS_HEADER,
            [(m.step, m.episode_return, m.loss, m.epsilon) for m in metrics],
        )
        artifact = run_dir / "network.bin"
        dqn_mod.save_params(params, artifact)
        seed = cfg.dqn.seed
    else:
        raise ConfigError(f"unknown agent: {agent!r}")
    record = RunRecord(
        run_id=cfg.run_id,
        config_hash=cfg.config_hash,
        seed=seed,
        provenance=_provenance(cfg.config_hash, seed),
        metrics_files=(metrics_path.name,),
        artifact_files=(artifact.name,),
    )
    _write_manifest(
        run_dir / "run.json",
        record,
        {"agent": agent, "partial_obs": partial_obs, "config": cfg.raw},
    )
    return record


def cmd_train(config_file: str, agent: str, partial_obs: bool) -> int:
    cfg = load_experiment_config(config_file)
    run_dir = cfg.output_dir / cfg.run_id
    record = run_training(cfg, agent, partial_obs, run_dir)
    print(f"run {record.run_id} ({agent}) -> {run_dir}")
    print(f"  config hash: {record.config_hash}")
    print(f"  seed: {record.seed}")
    for name in record.metrics_files + record.artifact_files:
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
    if magic not in (b"QTB1", b"MLP1"):
        raise ConfigError(f"{artifact_file}: unrecognized artifact format")
    try:
        if magic == b"QTB1":
            q, _gamma = load_qtable(artifact_file)
        else:
            params = dqn_mod.load_params(artifact_file)
    except (ValueError, struct.error) as exc:  # truncated or corrupt payload
        raise ConfigError(str(exc)) from exc
    n_actions = WorkshopEnv.num_actions
    if magic == b"QTB1":
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


def cmd_evaluate(artifact_file: str, config_file: str, episodes: int) -> int:
    cfg = load_experiment_config(config_file)
    artifact = Path(artifact_file)
    summary = evaluate_policy(cfg.env_params, cfg.profile, _load_policy(artifact, cfg), episodes)
    # an empty evaluation reports its episode count only
    out = asdict(summary) if summary.episodes else {"episodes": 0}
    print(json.dumps(out, sort_keys=True))
    summary_path = artifact.with_name(artifact.stem + "_eval.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
        doc.setdefault("env", {})["seed"] = base_seed + i
        doc.setdefault("dqn", {})["seed"] = base_seed + i
        node, key = _resolve_key(doc, param)  # a swept seed key takes the swept value
        node[key] = int(value) if original_is_int and float(value).is_integer() else float(value)
        point = parse_experiment_config(doc)
        params, profile = point.env_params, point.profile
        if agent == "vi":
            mdp = FiniteMdp.from_env(params, profile)
            pi = greedy_policy(value_iteration(mdp, params.gamma, 1e-9))
        elif agent == "tabular":
            env = WorkshopEnv(params, profile)
            q, _ = train_tabular(env, point.schedule, params.gamma, initial_q=point.initial_q)
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
    try:
        values = [float(v) for v in values_csv.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values: {exc}") from exc
    rows = sweep_param(cfg, param, values, agent, episodes)
    out_dir = cfg.output_dir / cfg.run_id
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
