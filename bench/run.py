"""Benchmark of the cpssperso CLI: training, DQN and exact solving.

    python3 bench/run.py --workload tabular-k1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1          # every workload, one after another

Each workload writes its config from ``configs/workshop.json`` and the seed,
then starts fresh worker processes (``worker.py``): one warm-up start that
also runs the checks not tied to a command's outputs and whose timing is
dropped, SETUP_STARTS set-up-only starts whose median is ``setup_s``, and
whole runs of the workload's command until ``--seconds`` have passed.  End-to-end metrics are medians over those runs.  With
``--trace 1`` the first run is untraced and the rest are traced, and the
per-layer metrics are medians over the traced runs.

Every worker gets BLAS and OpenMP pinned to one thread.  This process
imports no numpy and stays idle while a worker runs.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BASE_CONFIG = ROOT / "configs" / "workshop.json"

WORKLOADS = ("tabular-k1", "dqn-k1", "exact-k5", "tabular-k6")
#: (machines, schedule changes) of the config each workload generates.
SHAPES = {
    "tabular-k1": (1, {}),
    "dqn-k1": (1, {}),
    "exact-k5": (5, {}),
    "tabular-k6": (6, {"episodes": 1000, "decay_steps": 800}),
}
SETUP_STARTS = 7
WORKER_TIMEOUT_S = 150
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"calls": "count", "row_hit_ratio": "ratio", "model_bytes": "bytes", "per_s": "1/s"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, crashed worker)."""


def write_config(workload: str, seed: int) -> Path:
    """The workload's config: the base config with its machine count,
    schedule, seeds and output directory replaced."""
    machines, schedule = SHAPES[workload]
    with open(BASE_CONFIG, encoding="utf-8") as fh:
        doc = json.load(fh)
    out_dir = OUT / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    doc["env"]["contexts"] = [
        {"id": f"machine{i + 1}", "influences_worker": True} for i in range(machines)
    ]
    doc["env"]["seed"] = seed
    doc["dqn"]["seed"] = seed
    doc["schedule"].update(schedule)
    doc["output_dir"] = str(out_dir)
    doc["run_id"] = "run"
    path = out_dir / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def start_worker(workload: str, config: Path, mode: str) -> dict | None:
    """Run one worker process to its end; its last output line, parsed, or
    None when it failed."""
    env = {k: v for k, v in os.environ.items() if k not in ("CPSSPERSO_SEED", "PYTHONPATH")}
    env.update(PINNED)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--config", str(config), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} {mode}: worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"{workload} {mode}: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "cpssperso" / "__init__.py").is_file() or not BASE_CONFIG.is_file():
        raise BenchError(f"no cpssperso sources or {BASE_CONFIG.name} under {ROOT}")
    config = write_config(workload, seed)
    warm_up = start_worker(workload, config, "check")
    setups = [start_worker(workload, config, "setup") for _ in range(SETUP_STARTS)]
    if warm_up is None or None in setups:
        raise BenchError(f"{workload}: set-up failed")
    wanted = 2 if trace else 1  # a traced run also needs its untraced baseline
    runs, failed = [], 0
    t0 = time.monotonic()
    while time.monotonic() - t0 < seconds or len(runs) < wanted:
        result = start_worker(workload, config, "trace" if trace and runs else "run")
        if result is not None:
            runs.append(result)
            continue
        failed += 1
        if time.monotonic() - t0 >= seconds:
            break
    if len(runs) < wanted:
        raise BenchError(f"{workload}: every run failed")
    untraced = [r for r in runs if "layers" not in r]
    traced = [r for r in runs if "layers" in r]
    failures = sorted({f for r in [warm_up, *runs] for f in r["failures"]})
    for f in failures:
        print(f"{workload}: CHECK FAILED: {f}", file=sys.stderr)
    if trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in untraced
        )
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "work_per_s": statistics.median(r["work"] / r["main_s"] for r in runs),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    attempted = len(runs) + failed
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results = {}
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            results[workload] = result
            for name, m in result["metrics"].items():
                print(f"{workload:<11} {name:<40} {m['value']:>14.6g} {m['unit']}")
            print(f"{workload:<11} attempted {result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    out = OUT / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = args.workload or "all"
    (out / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(final, indent=2) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
