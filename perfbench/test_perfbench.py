"""Tests of the benchmark's own code: generators, metric names, the
percentile and self-time arithmetic, failure counting and the frontier
search.  They run in well under a second and start no process."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import frontier  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    assert jobs.generate(workload, 7) == jobs.generate(workload, 7)
    draws = {tuple(jobs.generate(workload, seed)) for seed in range(1, 6)}
    assert len(draws) > 1
    assert jobs.generate(workload, 1) != jobs.generate(workload, 2)


def test_generators_pass_plain_data_only():
    for workload in jobs.WORKLOADS:
        for job in jobs.generate(workload, 3):
            json.dumps(job.args)


def test_metric_names_use_the_allowed_characters():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(metrics) == len(set(metrics))
    names = metrics + [w["name"] for w in spec["workloads"]]
    names += [name for name, _, _ in spans.TARGETS] + list(frontier.ROUTES)
    assert [n for n in names if not NAME.fullmatch(n)] == []


def test_every_per_layer_metric_has_a_source():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    sources = {f"{name}.{field}" for name, _, _ in spans.TARGETS for field in ("calls", "self_s", "total_s")}
    sources |= {f"layer.{layer}.self_s" for layer in spans.LAYERS}
    sources |= set(frontier.ROUTES) | {"trace.overhead_ratio", "cli.output.bytes"}
    sources |= {"weyl.rewrite.cache_hit_ratio", "weyl.rewrite.cache_entries", "ring.mul.term_pairs"}
    sources |= {"ring.result.max_terms", "ring.result.max_coeff_bits", "ring.render.bytes"}
    sources |= {"weyl.contractions.diagrams", "grammar.generations.count", "numbers.rook.placements"}
    sources |= {"numbers.bruteforce.partitions", "numbers.triangle_format.bytes", "bijections.growth.sequences"}
    assert [m["name"] for m in spec["per_layer"] if m["name"] not in sources] == []


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert spans.percentile(values, 50) == 3.0
    assert spans.percentile(values, 0) == 1.0
    assert spans.percentile(values, 100) == 5.0
    assert spans.percentile(values, 90) == pytest.approx(4.6)
    assert spans.percentile([2.0, 4.0], 50) == 3.0
    assert spans.percentile([7.0], 90) == 7.0


def test_timings_use_each_jobs_fastest_pass():
    passes = [
        {"jobs": [["a", 0.3, "", None], ["b", 0.1, "", None]], "peak_rss_mb": 20.0},
        {"jobs": [["a", 0.2, "", None], ["b", 0.4, "", None]], "peak_rss_mb": 22.0},
        {"jobs": [["a", 0.5, "", None], ["b", 0.3, "", None]], "peak_rss_mb": 21.0},
    ]
    assert run.job_floors(passes) == [0.2, 0.1]
    metrics = run.end_to_end(passes, [0.3, 0.1, 0.2], 6, 0)
    assert metrics["wall_s"] == pytest.approx(0.3)
    assert metrics["job_p50_ms"] == pytest.approx(150)
    assert metrics["job_p90_ms"] == pytest.approx(190)
    assert (metrics["setup_s"], metrics["peak_rss_mb"], metrics["ok_frac"]) == (0.2, 21.0, 1.0)


def test_self_time_subtracts_covered_children():
    # job [0, 10] holds derive [1, 7], which holds mul [2, 4] and add [3, 6]
    # (overlapping: their union [2, 6] is covered once), and a render [8, 9].
    hand_built = [
        ("bench.job", 0.0, 10.0, -1),
        ("grammar.derive", 1.0, 7.0, 0),
        ("ring.mul", 2.0, 4.0, 1),
        ("ring.add", 3.0, 6.0, 1),
        ("ring.render", 8.0, 9.0, 0),
        ("ring.mul", 11.0, 12.5, -1),
    ]
    totals = spans.self_times(hand_built)
    assert totals["bench.job"] == [1, pytest.approx(10 - 6 - 1), pytest.approx(10)]
    assert totals["grammar.derive"] == [1, pytest.approx(6 - 4), pytest.approx(6)]
    assert totals["ring.mul"] == [2, pytest.approx(2 + 1.5), pytest.approx(3.5)]
    assert totals["ring.add"] == [1, pytest.approx(3), pytest.approx(3)]
    assert totals["ring.render"] == [1, pytest.approx(1), pytest.approx(1)]


def test_tracer_records_nesting_and_counters():
    tracer = spans.Tracer()
    outer = tracer.enter(tracer.name_id("bench.job"))
    inner = tracer.enter(tracer.name_id("ring.mul"))
    tracer.exit(inner)
    tracer.exit(outer)
    tracer.add("ring.mul.term_pairs", 6)
    tracer.maximum("ring.result.max_terms", 4)
    tracer.maximum("ring.result.max_terms", 2)
    (n0, s0, e0, p0), (n1, s1, e1, p1) = tracer.spans()
    assert (n0, p0, n1, p1) == ("bench.job", -1, "ring.mul", 0)
    assert s0 <= s1 <= e1 <= e0
    assert tracer.counters == {"ring.mul.term_pairs": 6, "ring.result.max_terms": 4}


def test_a_wrong_oracle_value_is_counted_as_failed(monkeypatch):
    job_list = [j for j in jobs.generate("oracles", 1) if j.kind in ("rstirling", "rook")]
    passes = [
        {"jobs": [[j.id, 0.001, jobs.EXPECTED[j.kind](*j.args), None] for j in job_list], "wall_s": 1.0, "peak_rss_mb": 1.0}
    ]
    assert run.check(job_list, passes, [])[:2] == (len(job_list), 0)
    wrong = next(j for j in job_list if j.kind == "rstirling")
    right = jobs.r_stirling
    monkeypatch.setattr(jobs, "r_stirling", lambda n, k, r: right(n, k, r) + ((n, k, r) == wrong.args))
    attempted, failed, reports = run.check(job_list, passes, [])
    assert (attempted, failed) == (len(job_list), 1)
    assert reports[0]["job"] == wrong.id and reports[0]["problem"].startswith("mismatch")
    metrics = run.end_to_end(passes, [0.1], attempted, failed)
    assert metrics["ok_frac"] == pytest.approx(1 - 1 / len(job_list))


def test_a_dead_pass_counts_every_job_as_failed():
    job_list = jobs.generate("cli", 1)
    n = len(job_list)
    assert run.check(job_list, [], ["pass exited 1"])[:2] == (n, n)


def test_mismatch_report_names_the_differing_monomials():
    jobs.Checker({})  # loads the program the report parses with
    report = jobs.first_difference("x + 2*x*y^2 + y^3", "x + 3*x*y^2 + y^3")
    assert report == "x*y^2: expected 2, got 3"
    assert jobs.first_difference("a,b\n1,2", "a,b\n1,3").startswith("line 2")


def test_benchmark_integer_routes():
    assert jobs.rook_vector((1, 1, 3, 3)) == [1, 8, 14, 4]  # README: 1,8,14,4,0
    assert jobs.stirling2_row(4) == [0, 1, 7, 6, 1]
    assert [jobs.bell(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    assert jobs.r_stirling(3, 2, 0) == 3 and jobs.r_stirling(2, 0, 2) == 4
    assert jobs.diagram_count("ca" * 4) == 15


def test_frontier_search_doubles_then_bisects():
    calls = []

    def step(n):
        calls.append(n)
        return None if n <= 37 else "budget"

    assert frontier.search(step, 4, float("inf")) == (37, "budget")
    assert calls[:5] == [4, 8, 16, 32, 64]
    assert frontier.search(lambda n: None if n <= 2 else "RecursionError", 4, float("inf")) == (2, "RecursionError")
    assert frontier.search(lambda n: None, 1024, float("inf")) == (4096, "cap")
