"""Run-to-run spread of the benchmark: one run per seed, then the median,
quartiles and quartile spread (as a share of the median) of every metric.

    python3 bench/spread.py --workload exact-k5 --seeds 11-20

Each run measures the end-to-end metrics (``--trace 0``) for the
``run_seconds`` of BENCHMARK.json.  The spread is what a metric's bound in
BENCHMARK.json is compared with.  Results are also written to
``bench/out/spread/<workload>-<seeds>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="first-last, e.g. 1-10")
    args = parser.parse_args()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    stats = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        stats[name] = {"median": median, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / median if median else float("nan")}
        print(f"{name:<40} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {stats[name]['spread']:.4f}")
    out = BENCH / "out" / "spread"
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{args.seeds[0]}-{args.seeds[-1]}"
    (out / f"{args.workload}-{tag}.json").write_text(
        json.dumps({"runs": runs, "stats": stats}, indent=2) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
