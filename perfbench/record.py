"""Record a trajectory point: run every workload over several seeds
(untraced) and once traced, then append the medians, quartiles, per-layer
breakdown and frontiers to baseline.json.

    python3 perfbench/record.py --label seed-commit --seeds 1-10

Each run is a separate `run.py` process, exactly as the benchmark is
driven; run-to-run spread is reported as (Q3 - Q1) / median with the
quartiles of `statistics.quantiles(values, n=4)`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"

sys.path.insert(0, str(BENCH))
import jobs  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-1500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed {result['failed']} jobs: {done.stderr[-1500:]}")
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(jobs.WORKLOADS))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = seed_range(args.seeds)
    point = {
        "label": args.label,
        "revision": revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "date": time.strftime("%Y-%m-%d"),
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        metrics = {
            m["name"]: spread([r["metrics"][m["name"]]["value"] for r in results]) for m in spec["end_to_end"]
        }
        run(workload, seeds[0], seconds, 1)
        trace = json.loads((ROOT / ".perfbench_out" / f"trace-{workload}-{seeds[0]}.json").read_text())
        wanted = [m["name"] for m in spec["per_layer"]]
        point["workloads"][workload] = {
            "end_to_end": metrics,
            "per_layer": {name: trace["layers"].get(name, 0) for name in wanted},
            "layer_shares": trace["shares"],
            "frontiers": {name: {"n": n, "stop": why} for name, (n, why) in trace["frontiers"].items()},
        }
        for name, s in metrics.items():
            print(f"{workload:13s} {name:12s} median {s['median']:.5g}  spread {s['iqr_share']:.4f}")
    history = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"trajectory": []}
    history["trajectory"].append(point)
    BASELINE.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
