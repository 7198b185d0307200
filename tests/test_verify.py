"""Tests for the verification suites and their report structure."""

import inspect
import json
import re
from collections import Counter

import pytest

from weylgram import numbers, verify
from weylgram.cli import main
from weylgram.grammar import FAMILIES, P_FAMILY, STIRLING_FAMILY
from weylgram.ring import sym
from weylgram.verify import (
    SUITES,
    CaseResult,
    Report,
    run_request,
    run_suites,
    verify_bijections,
    verify_grammar_theorems,
    verify_identities,
    verify_rook,
    verify_shift,
    verify_weyl,
)


def test_report_overall_flag():
    report = Report("demo", {"max_n": 1})
    report.check("good", 1, 1)
    assert report.passed
    report.check("bad", 1, 2)
    assert not report.passed
    # a failing case is recorded, later cases still run
    report.check("after", "x", "x")
    assert [c.passed for c in report.cases] == [True, False, True]
    payload = report.to_dict()
    assert payload["pass"] is False
    assert [c["id"] for c in payload["cases"]] == ["good", "bad", "after"]
    assert set(payload["cases"][0]) == {"id", "expected", "actual", "pass"}


def test_report_info_cases_never_fail():
    report = Report("demo", {})
    report.info("puzzling (informational)", "lhs", "rhs that differs")
    assert report.passed


def test_grammar_suite_passes():
    report = verify_grammar_theorems(max_n=5)
    assert report.passed
    ids = [c.case_id for c in report.cases]
    assert "stirling-rows/n=5" in ids
    assert "dowling-rows/n=5" in ids
    assert "subset-numbers-tilde/n=5" in ids
    assert "bessel/n=5" in ids
    assert "second-order-eulerian/n=5" in ids


def test_grammar_suite_walks_each_family_once(monkeypatch):
    # 17 families: Stirling, p-Stirling, S_{r,1} and S_{r,r} for r = 2..4,
    # q-Stirling, Dowling, three subset-number variants, Laguerre, Bessel,
    # Eulerian and second-order Eulerian.
    walks = []
    walk = verify._derivatives

    def counted(steps, a, every=False):
        walks.append(every)
        return walk(steps, a, every)

    monkeypatch.setattr(verify, "_derivatives", counted)
    assert verify_grammar_theorems(10).passed
    assert walks == [True] * 17


@pytest.mark.parametrize(
    "family, prefix, n, k",
    [
        ("whitney", "dowling-rows", 1, 0),
        ("whitney", "dowling-rows", 3, 1),
        ("whitney", "dowling-rows", 5, 5),
        ("stirling-p", "p-stirling-rows", 4, 1),
        ("sf-tilde", "subset-numbers-tilde", 2, 2),
        ("eulerian", "eulerian-rows", 4, 3),
        ("second-order-eulerian", "second-order-eulerian", 5, 0),
    ],
)
def test_grammar_suite_reads_its_oracle_rows_from_the_triangle_families(monkeypatch, family, prefix, n, k):
    # One entry of the family's triangle is off by one, so exactly the
    # grammar case of that row fails, and every other case still passes.
    spec = numbers.TRIANGLE_FAMILIES[family]

    def off_by_one(row_n, bound):
        row = list(spec.row(row_n, bound))
        if row_n == n:
            row[k] += 1
        return row

    monkeypatch.setitem(numbers.TRIANGLE_FAMILIES, family, numbers._Family(spec.params, spec.columns, off_by_one))
    report = verify_grammar_theorems(5)
    assert [case.case_id for case in report.cases if not case.passed] == [f"{prefix}/n={n}"]


def test_weyl_suite_passes():
    report = verify_weyl(max_n=5)
    assert report.passed
    assert any(c.case_id == "wick-equals-rewrite/len=10" for c in report.cases)


def test_bijections_suite_passes():
    report = verify_bijections(max_n=4)
    assert report.passed
    assert any(c.case_id == "sequence-table/(ca)^4" for c in report.cases)
    assert any(c.case_id.startswith("twos-distribution") for c in report.cases)


def count_case_ids(ns):
    """The bijections suite's four count case ids of each n, in report order."""
    return [
        case_id
        for n in ns
        for case_id in (
            f"cardinality-ones-bounded/n={n}",
            f"cardinality-twos-bounded/n={n}",
            f"ones-distribution/n={n}",
            f"twos-distribution/n={n}",
        )
    ]


@pytest.mark.parametrize("fault", ["drop", "duplicate"])
def test_bijections_count_check_reads_the_enumerated_sequences(monkeypatch, fault):
    # The walk yields one faulty level and the correct ones after it.  A
    # faulty level 4 fails exactly the count cases of n = 4, for both
    # families.  The walk stops at level 8 and level 9 is counted from
    # its prefixes, so a faulty level 8 fails the cases of n = 8 and 9.
    walk = verify._growth_levels
    faulty_length = None

    def faulty(family, length, offset=0, *, unit):
        for level in walk(family, length, offset, unit=unit):
            if len(level[0]) == faulty_length:
                level = level[1:] if fault == "drop" else level + level[-1:]
            yield level

    monkeypatch.setattr(verify, "_growth_levels", faulty)
    for faulty_length, failing in [(4, [4]), (8, [8, 9])]:
        report = verify_bijections(max_n=1)
        failed = [c.case_id for c in report.cases if not c.passed]
        assert failed == count_case_ids(failing)
        assert sum(c.case_id.startswith("cardinality-") for c in report.cases) == 18


@pytest.mark.parametrize("family", [STIRLING_FAMILY, P_FAMILY])
def test_longer_tally_counts_the_built_level(family):
    # Counted from the prefixes of level L - 1, level L has the size and
    # the tally by count of the bounded entry of the level the walk builds.
    b = FAMILIES[family].bounded
    levels = list(verify._growth_levels(family, 10, unit=bytes))
    for prefixes, level in zip(levels, levels[1:]):
        longer = verify._longer_tally(family, Counter(s.count(b) for s in prefixes))
        assert sum(longer.values()) == len(level)
        assert longer == Counter(s.count(b) for s in level)


def test_bijections_count_walk_stops_a_level_short(monkeypatch):
    lengths = []
    walk = verify._growth_levels

    def recorded(family, length, offset=0, *, unit):
        for level in walk(family, length, offset, unit=unit):
            lengths.append(len(level[0]))
            yield level

    monkeypatch.setattr(verify, "_growth_levels", recorded)
    report = verify_bijections(max_n=1)
    assert report.passed
    assert max(lengths) == 8
    count_ids = [c.case_id for c in report.cases if c.case_id.startswith(("cardinality-", "ones-", "twos-"))]
    assert count_ids == count_case_ids(range(1, 10))


def test_identities_suite_passes():
    report = verify_identities(max_n=5)
    assert report.passed


def test_rook_suite_passes_and_reports_open_comparison():
    report = verify_rook(max_n=3)
    assert report.passed
    informational = [c for c in report.cases if "informational" in c.case_id]
    assert informational, "open board comparison must still be reported"
    assert all(c.passed for c in informational)


def test_rook_suite_passes_above_the_cli_budget():
    # max_n 5 is past the CLI's cap of 4, so the walk reaches one row further
    report = verify_rook(max_n=5)
    assert report.passed
    assert [c.case_id for c in report.cases] == [
        *(f"even-chain-vs-board/n={n}" for n in range(1, 6)),
        *(f"odd-chain-vs-triangle/n={n}" for n in range(1, 6)),
        *(f"odd-chain-board-comparison/n={n} (informational)" for n in range(1, 6)),
    ]


def test_the_suites_walk_one_odd_chain(monkeypatch):
    # For r = 2, D2 in place of the first D1: every row that the grammar,
    # identities and rook suites read from the odd chain is then wrong, but
    # for the rook suite's row 1, which reads only the x*y of D_t x = (t - 1)x + xy.
    odd_chain = verify._odd_chain

    def swapped(r, max_n):
        steps, row = odd_chain(r, max_n)
        return ([verify._g_shifted(2), *steps[1:]] if r == 2 else steps), row

    monkeypatch.setattr(verify, "_odd_chain", swapped)
    cases = [c for report in (verify_grammar_theorems(3), verify_identities(1), verify_rook(2)) for c in report.cases]
    prefixes = ("gen-stirling-rr/r=2/", "odd-chain-vs-triangle/", "generalized-bell-term-count/r=2/")
    chained = [c for c in cases if c.case_id.startswith(prefixes)]
    assert {c.case_id.rsplit("/", 1)[0] + "/" for c in chained} == set(prefixes)
    assert [c.case_id for c in chained if c.passed] == ["odd-chain-vs-triangle/n=1"]


def test_shift_suite_passes():
    assert verify_shift(order=6).passed


def test_deformed_suite_passes():
    (report,) = run_suites({"deformed": 6})
    assert report.passed
    assert [c.case_id for c in report.cases] == [f"transfer-equals-walker/len={n}" for n in range(7)]


def test_suite_all_skips_the_deformed_suite(monkeypatch, capsys):
    ran = []
    for name, suite in SUITES.items():
        def record(name=name, **budget):
            ran.append(name)
            return Report(name, budget)
        monkeypatch.setattr(verify, suite.function, record)
    assert main(["verify", "--suite", "all"]) == 0
    capsys.readouterr()
    assert ran == [name for name, suite in SUITES.items() if suite.in_all]
    assert "deformed" not in ran


def _refuse_to_start(monkeypatch):
    def start(**budget):
        raise AssertionError("a suite started")
    for suite in SUITES.values():
        monkeypatch.setattr(verify, suite.function, start)


def test_suite_functions_take_only_their_budget():
    for suite in SUITES.values():
        assert list(inspect.signature(getattr(verify, suite.function)).parameters) == [suite.budget]


def test_run_suites_rejects_budgets_out_of_range_before_starting(monkeypatch):
    _refuse_to_start(monkeypatch)
    with pytest.raises(ValueError, match="^--max-n must be between 1 and 4 for the rook suite$"):
        run_suites({"rook": 10})
    for name, suite in SUITES.items():
        message = f"{suite.flag} must be between {suite.low} and {suite.cap} for the {name} suite"
        for budget in (suite.low - 1, suite.cap + 1):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_suites({name: budget})
    # a bad budget anywhere in the list stops the suites listed before it too
    with pytest.raises(ValueError, match="^--order must be between 0 and 10 for the shift suite$"):
        run_suites({"grammar": 3, "rook": None, "shift": 11})


def test_run_request_rejects_a_foreign_flag_before_starting(monkeypatch):
    _refuse_to_start(monkeypatch)
    flags = {"max_n": "--max-n", "order": "--order"}
    for name, suite in SUITES.items():
        (foreign,) = set(flags) - {suite.budget}
        message = f"{flags[foreign]} does not apply to the {name} suite; use {suite.flag}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_request(name, **{foreign: 3})
        # the foreign flag is named even when the suite's own is given, in range
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_request(name, **{foreign: 3, suite.budget: suite.default})
    # a single suite's --max-n is checked against its range, not clamped
    with pytest.raises(ValueError, match="^--max-n must be between 1 and 4 for the rook suite$"):
        run_request("rook", max_n=10)
    with pytest.raises(ValueError, match="^--order must be between 0 and 10 for the shift suite$"):
        run_request("all", max_n=0, order=11)


def test_run_request_clamps_a_shared_max_n_per_suite(monkeypatch):
    ran = {}
    for name, suite in SUITES.items():
        def record(name=name, **budget):
            ran[name] = budget
            return Report(name, budget)
        monkeypatch.setattr(verify, suite.function, record)
    in_all = {name: suite for name, suite in SUITES.items() if suite.in_all}
    for max_n, bound in ((0, "low"), (99, "cap")):
        ran.clear()
        reports = run_request("all", max_n=max_n)
        assert [report.suite for report in reports] == list(in_all)
        assert ran == {
            name: {suite.budget: getattr(suite, bound) if suite.budget == "max_n" else suite.default}
            for name, suite in in_all.items()
        }
    ran.clear()
    run_request("all", max_n=3, order=2)
    assert ran == {name: {suite.budget: 3 if suite.budget == "max_n" else 2} for name, suite in in_all.items()}
    ran.clear()
    run_request("all")
    assert ran == {name: {suite.budget: suite.default} for name, suite in in_all.items()}


def test_verify_all_rejects_an_order_out_of_range_before_starting(monkeypatch, capsys):
    _refuse_to_start(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all", "--max-n", "99", "--order", "11"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "weylgram: error: --order must be between 0 and 10 for the shift suite"
    )


def test_reports_are_deterministic():
    a = json.dumps(verify_rook(max_n=2).to_dict(), indent=2)
    b = json.dumps(verify_rook(max_n=2).to_dict(), indent=2)
    assert a == b
    parsed = json.loads(a)
    assert parsed["suite"] == "rook"
    assert parsed["pass"] is True


class Unprintable:
    """A value that compares equal to its kind and refuses to render."""

    def __eq__(self, other):
        return isinstance(other, Unprintable)

    __hash__ = None

    def __str__(self):
        raise AssertionError("a passing case was rendered")


def test_table_renders_only_the_failing_cases():
    report = Report("demo", {})
    report.check("quiet", Unprintable(), Unprintable())
    report.info("quiet-info", Unprintable(), Unprintable())
    report.check("loud", sym("x") * sym("x"), sym("x"))
    assert report.table() == "\n".join([
        "suite demo ()",
        "  [PASS] quiet",
        "  [PASS] quiet-info",
        "  [FAIL] loud",
        "         expected: x^2",
        "         actual:   x",
        "  => FAIL (2/3 cases)",
    ])
    # cases hash by identity, whatever their values
    assert len(set(report.cases)) == 3


def test_to_dict_renders_every_case():
    x = sym("x")
    report = Report("demo", {})
    report.check("poly", x * x, x**2)
    report.check("list", [1, 2], [1, 2])
    report.info("dict (informational)", {1: 2}, "text")
    cases = report.to_dict()["cases"]
    assert [(c["expected"], c["actual"], c["pass"]) for c in cases] == [
        ("x^2", "x^2", True),
        ("[1, 2]", "[1, 2]", True),
        ("{1: 2}", "text", True),
    ]


def test_no_suite_changes_a_value_after_checking_it(monkeypatch):
    # Render both sides when each case is checked, as reports once did;
    # to_dict, rendering them at the end, must give the same text.
    rendered = []

    def eager(method):
        def record(self, case_id, expected, actual):
            rendered.append((case_id, str(expected), str(actual)))
            method(self, case_id, expected, actual)
        return record

    monkeypatch.setattr(Report, "check", eager(Report.check))
    monkeypatch.setattr(Report, "info", eager(Report.info))
    reports = [
        verify_grammar_theorems(max_n=4),
        verify_weyl(max_n=4),
        verify_bijections(max_n=4),
        verify_identities(max_n=3),
        verify_rook(max_n=2),
        verify_shift(order=4),
        *run_suites({"deformed": 4}),
    ]
    at_end = [(c["id"], c["expected"], c["actual"]) for r in reports for c in r.to_dict()["cases"]]
    assert at_end == rendered


def test_table_rendering_marks_failures():
    report = Report("demo", {"n": 1})
    report.cases.append(CaseResult("broken", "1", "2", False))
    text = report.table()
    assert "[FAIL] broken" in text
    assert "expected: 1" in text
    assert "=> FAIL" in text
