"""Child process: one timed pass over a workload's jobs, or one frontier
step.  run.py starts a fresh interpreter for each, so every pass pays
cold caches, as a command-line user does.

    python3 perfbench/worker.py pass WORKLOAD SEED TRACE RESULT_JSON [SPANS_BIN]
    python3 perfbench/worker.py frontier ROUTE N BUDGET_S
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import sys
from time import perf_counter

import cpu
import frontier
import jobs
import spans

REPIN_S = 0.2  # longest stretch of jobs between two CPU probes


def run_pass(workload: str, seed: int, trace: bool, result_path: str, spans_path: str | None) -> None:
    job_list = jobs.generate(workload, seed)
    program = jobs.load_program()
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        job_span = tracer.name_id(spans.JOB_SPAN)
    results = []
    gc.collect()
    pinned = -1.0
    for job in job_list:
        if perf_counter() - pinned > REPIN_S:
            cpu.pin_fastest_cpu()
            pinned = perf_counter()
        start = perf_counter()
        idx = tracer.enter(job_span) if tracer else -1
        try:
            output, error = jobs.execute(job), None
        except Exception as exc:  # a failing job is recorded; the pass goes on
            output, error = None, f"{type(exc).__name__}: {exc}"[:500]
        finally:
            if tracer:
                tracer.exit(idx)
        results.append([job.id, perf_counter() - start, output, error])
    wall = sum(r[1] for r in results)
    layers = None
    if tracer:
        for job, (_, _, output, _) in zip(job_list, results):
            if job.kind == "cli" and output:
                tracer.add("cli.output.bytes", len(output.partition("\n")[2]))
        layers = spans.summarize(tracer, program.weyl._rewrite_terms.cache_info())
        if spans_path:
            tracer.dump(spans_path)
    payload = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
        "layers": layers,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def run_frontier_step(route: str, n: int, budget: float) -> None:
    call = frontier.prepare(route, n, jobs.load_program())
    cpu.pin_fastest_cpu()

    def expire(signum, frame):
        raise frontier.BudgetExceeded

    signal.signal(signal.SIGALRM, expire)
    stop = None
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        call()
    except frontier.BudgetExceeded:
        stop = "budget"
    except Exception as exc:  # the exception's name is the stop reason
        stop = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = perf_counter() - start
    if stop is None and elapsed > budget:
        stop = "budget"
    print(json.dumps({"route": route, "n": n, "seconds": elapsed, "stop": stop}))


def main(argv: list[str]) -> None:
    mode, *rest = argv
    if mode == "pass":
        workload, seed, trace, result_path, *spans_path = rest
        run_pass(workload, int(seed), trace == "1", result_path, spans_path[0] if spans_path else None)
    elif mode == "frontier":
        route, n, budget = rest
        run_frontier_step(route, int(n), float(budget))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
