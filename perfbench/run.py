"""Benchmark entry point.

    python3 perfbench/run.py --workload derive --seed 1 --seconds 12 --trace 0

Runs the workload's seeded job list as a closed loop (one client, one job
at a time) in a fresh interpreter per pass, and repeats passes until
--seconds have been measured.  Every output is checked here, in the
parent, outside the timers.  The last line of stdout is one JSON object:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1 (traced passes, untraced passes for the overhead
ratio, and the frontier probe).  Failures are listed on stderr and in
.perfbench_out/.

    python3 perfbench/run.py --write-digests

re-records digests.json from the current program, after checking every
catalogue job against its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = BENCH / "digests.json"
RUN_LIMIT_S = 170.0
SETUP_SPAWNS = 11
DIGEST_SEEDS = range(64)

sys.path.insert(0, str(BENCH))
import cpu  # noqa: E402
import frontier  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds from spawning an interpreter to `import weylgram.cli` plus
    `build_parser()` done.  The first spawn fills the byte-code cache and
    is not counted."""
    code = "import weylgram.cli as cli; cli.build_parser(); print('ready', flush=True)"
    times = []
    for i in range(SETUP_SPAWNS + 1):
        best = cpu.fastest_cpu()
        pin = None if best is None else (lambda: os.sched_setaffinity(0, {best}))
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=env, stdout=subprocess.PIPE, preexec_fn=pin
        )
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode:
            raise RuntimeError("set-up child did not import weylgram.cli")
        if i:
            times.append(ready - start)
    return times


def run_pass(workload: str, seed: int, trace: bool, env: dict, timeout: float) -> dict:
    result = OUT / f"pass-{os.getpid()}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "pass", workload, str(seed), str(int(trace)), str(result)]
    if trace:
        cmd.append(str(OUT / f"spans-{workload}-{seed}.bin"))
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if done.returncode:
        raise RuntimeError(f"pass exited {done.returncode}: {done.stderr[-1500:]}")
    try:
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        result.unlink()


def load_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(args, env: dict, deadline: float) -> dict:
    """Run passes until --seconds are measured; with --trace, alternate
    untraced and traced passes (at least one of each)."""
    passes: dict[bool, list] = {False: [], True: []}
    errors = []
    modes = (False, True) if args.trace else (False,)
    began = perf_counter()
    i = 0
    while True:
        trace = modes[i % len(modes)]
        i += 1
        try:
            passes[trace].append(run_pass(args.workload, args.seed, trace, env, deadline - perf_counter()))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            errors.append(str(exc))
        measured = perf_counter() - began
        if errors or perf_counter() > deadline:
            break
        if measured >= args.seconds and all(passes[m] for m in modes):
            break
    return {"passes": passes, "errors": errors}


def check(job_list, runs, errors) -> tuple[int, int, list]:
    """(attempted, failed, failure reports) over every pass."""
    checker = jobs.Checker(json.loads(DIGESTS.read_text(encoding="utf-8")))
    attempted = failed = 0
    reports = []
    for run in runs:
        results = run["jobs"]
        if [r[0] for r in results] != [j.id for j in job_list]:
            raise RuntimeError("worker ran a different job list")
        for job, (_, _, output, error) in zip(job_list, results):
            attempted += 1
            problem = checker.check(job, output, error)
            if problem:
                failed += 1
                reports.append({"job": job.id, "problem": problem})
    for error in errors:  # a pass that died counts all of its jobs
        attempted += len(job_list)
        failed += len(job_list)
        reports.append({"job": "(whole pass)", "problem": error})
    return attempted, failed, reports


def job_floors(untraced) -> list[float]:
    """Each job's fastest time over the run's passes.  Every pass runs the
    same jobs in the same order in a fresh process, so the passes differ
    only by interference from the host; the minimum filters it out."""
    return [min(times) for times in zip(*[[r[1] for r in run["jobs"]] for run in untraced])]


def end_to_end(untraced, setup, attempted, failed) -> dict:
    floors_ms = [t * 1000 for t in job_floors(untraced)]
    return {
        "wall_s": sum(floors_ms) / 1000,
        "job_p50_ms": spans.percentile(floors_ms, 50),
        "job_p90_ms": spans.percentile(floors_ms, 90),
        "setup_s": median(setup),
        "peak_rss_mb": median([run["peak_rss_mb"] for run in untraced]),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(untraced, traced, frontiers) -> dict:
    layers = [run["layers"] for run in traced]
    values = {}
    for name in {key for layer in layers for key in layer}:
        values[name] = median([layer.get(name, 0) for layer in layers])
    values["trace.overhead_ratio"] = median([r["wall_s"] for r in traced]) / median(
        [r["wall_s"] for r in untraced]
    )
    for route, (n, _) in frontiers.items():
        values[route] = n
    return values


def write_digests() -> int:
    """Check each catalogue job once, in this process, and store the
    digest of its output."""
    checker = jobs.Checker({})
    seen = {}
    for workload in jobs.WORKLOADS:
        for seed in DIGEST_SEEDS:
            for job in jobs.generate(workload, seed):
                if job.fixed:
                    seen.setdefault(job.id, job)
    for job in seen.values():
        output = jobs.execute(job)
        problem = checker.check(job, output, None)
        if problem:
            print(f"FAIL {job.id}: {problem}", file=sys.stderr)
            return 1
        checker.catalogue(job, output)
    DIGESTS.write_text(json.dumps(dict(sorted(checker.digests.items())), indent=0) + "\n", encoding="utf-8")
    print(f"{len(checker.digests)} digests written to {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    if not (ROOT / "src" / "weylgram" / "__init__.py").is_file():
        print(f"no weylgram sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        parser.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    metrics = load_metrics()
    env = child_env()
    setup = [] if args.trace else measure_setup(env)
    measured = measure(args, env, deadline - (60 if args.trace else 0))
    runs = measured["passes"][False] + measured["passes"][True]
    job_list = jobs.generate(args.workload, args.seed)
    attempted, failed, reports = check(job_list, runs, measured["errors"])
    tag = f"{args.workload}-{args.seed}"
    if reports:
        for report in reports[:20]:
            print(f"FAIL {report['job']}: {report['problem']}", file=sys.stderr)
        (OUT / f"failures-{tag}.json").write_text(json.dumps(reports, indent=1), encoding="utf-8")
    untraced, traced = measured["passes"][False], measured["passes"][True]
    if not untraced or (args.trace and not traced):
        print("no pass completed", file=sys.stderr)
        return 1
    if args.trace:
        frontiers = frontier.probe(str(BENCH / "worker.py"), str(ROOT), env, deadline - 5)
        values = per_layer(untraced, traced, frontiers)
        wanted = metrics["per_layer"]
        totals = {layer: values.get(f"layer.{layer}.self_s", 0.0) for layer in spans.LAYERS}
        whole = sum(totals.values()) or 1.0
        shares = {layer: t / whole for layer, t in totals.items()}
        print("layer shares of traced self time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        print("frontiers: " + ", ".join(f"{k[9:]}={n} ({why})" for k, (n, why) in frontiers.items()))
        detail = {"layers": values, "shares": shares, "frontiers": frontiers, "spans": f"spans-{tag}.bin"}
        (OUT / f"trace-{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")
    else:
        values = end_to_end(untraced, setup, attempted, failed)
        wanted = metrics["end_to_end"]
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{perf_counter() - started:.1f} s in all; untraced pass walls "
          + " ".join(f"{run['wall_s']:.3f}" for run in untraced))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
