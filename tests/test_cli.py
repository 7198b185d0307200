"""End-to-end tests of the command-line interface."""

import json

import pytest

from weylgram.cli import main
from weylgram.verify import SUITES
from weylgram.ring import parse_polynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_derive_prints_canonical_polynomial(capsys):
    code, out = run_cli(
        capsys,
        "derive",
        "--grammar",
        "x -> p*x + x*y; y -> y",
        "--start",
        "x",
        "--steps",
        "2",
    )
    assert code == 0
    assert out.strip() == "x*y + x*y^2 + 2*p*x*y + p^2*x"
    # the printed polynomial re-parses to the identical value
    poly = parse_polynomial(out.strip())
    assert str(poly) == out.strip()


def test_derive_from_huge_monomial_power(capsys):
    # the power is formed by scaling exponents, not by 10^8 multiplications
    code, out = run_cli(
        capsys, "derive", "--grammar", "x -> x*y; y -> y", "--start", "x^100000000", "--steps", "1"
    )
    assert code == 0
    assert out.strip() == "100000000*x^100000000*y"


def test_derive_from_file(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("# comment line\nx -> x*y;\ny -> y\n", encoding="utf-8")
    code, out = run_cli(
        capsys, "derive", "--grammar-file", str(rules), "--start", "x", "--steps", "1"
    )
    assert code == 0
    assert out.strip() == "x*y"


def test_derive_chain_matches_worked_example(capsys):
    chain_args = []
    for t in (1, 3, 2, 1):
        chain_args.extend(["--chain", f"x -> {t - 1}*x + x*y; y -> y"])
    code, out = run_cli(capsys, "derive-chain", *chain_args, "--start", "x")
    assert code == 0
    assert parse_polynomial(out.strip()) == parse_polynomial(
        "6*x*y + 18*x*y^2 + 9*x*y^3 + x*y^4"
    )


def test_normal_order_plain_and_weighted(capsys):
    code, out = run_cli(capsys, "normal-order", "--word", "(ca)^3")
    assert code == 0
    assert out.strip() == "c*a + 3*c^2*a^2 + c^3*a^3"

    code, out = run_cli(capsys, "normal-order", "--word", "(ca)^3", "--param", "p=sym")
    assert code == 0
    assert out.strip() == "p^2*c*a + (1 + 2*p)*c^2*a^2 + c^3*a^3"

    code, out = run_cli(capsys, "normal-order", "--word", "(ca)^3", "--param", "p=1")
    assert code == 0
    assert out.strip() == "c*a + 3*c^2*a^2 + c^3*a^3"


def test_normal_order_of_long_word(capsys):
    # deeper than the interpreter recursion limit; no traceback, exit 0
    code, out = run_cli(capsys, "normal-order", "--word", "(ca)^400")
    assert code == 0
    assert out.startswith("c*a + ") and out.rstrip().endswith(" + c^400*a^400")


def test_normal_order_json(capsys):
    code, out = run_cli(capsys, "normal-order", "--word", "ac", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == "ac"
    assert payload["terms"] == [
        {"creation": 0, "annihilation": 0, "coefficient": "1"},
        {"creation": 1, "annihilation": 1, "coefficient": "1"},
    ]


def test_contractions_listing(capsys):
    code, out = run_cli(capsys, "contractions", "--word", "(ca)^3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count=5"
    assert lines[0] == "cacaca; edges="
    assert "cacaca; edges=(2,3),(4,5)" in lines

    code, out = run_cli(capsys, "contractions", "--word", "(ca)^4", "--format", "json")
    payload = json.loads(out)
    assert len(payload) == 15
    assert payload[0]["stats"]["edges"] == 0


def test_bijection_both_directions(capsys):
    code, out = run_cli(capsys, "bijection", "--family", "p-grammar", "--seq", "1,2,1,3")
    assert code == 0
    assert out.strip() == "cacacaca; edges=(2,7),(4,5)"

    code, out = run_cli(
        capsys,
        "bijection",
        "--family",
        "p-grammar",
        "--word",
        "(ca)^4",
        "--edges",
        "(4,5),(2,7)",
    )
    assert code == 0
    assert out.strip() == "1,2,1,3"

    code, out = run_cli(
        capsys, "bijection", "--family", "stirling", "--word", "(ca)^3", "--edges", ""
    )
    assert code == 0
    assert out.strip() == "1,1,1"


def test_rook_command(capsys):
    code, out = run_cli(capsys, "rook", "--board", "1,1,3,3")
    assert code == 0
    assert out.strip() == "1,8,14,4,0"
    code, out = run_cli(capsys, "rook", "--board", "1,1", "--format", "json")
    assert json.loads(out) == {"board": "1,1", "rook_numbers": [1, 2, 0]}


def test_shift_command(capsys):
    code, out = run_cli(
        capsys, "shift", "--grammar", "x -> x*y; y -> y", "--start", "x", "--order", "2"
    )
    assert code == 0
    assert out.strip() == "x + x*y*lambda + (1/2*x*y + 1/2*x*y^2)*lambda^2 + O(lambda^3)"


def test_triangle_csv_and_column_filter(capsys):
    code, out = run_cli(
        capsys, "triangle", "--family", "stirling2", "--n", "4", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "family,params"
    assert "4,2,7" in out.splitlines()

    code, out = run_cli(
        capsys, "triangle", "--family", "stirling2", "--n", "4", "--k", "2", "--format", "csv"
    )
    rows = out.splitlines()[2:]
    assert rows == ["2,2,1", "3,2,3", "4,2,7"]


def test_triangle_with_params(capsys):
    code, out = run_cli(
        capsys,
        "triangle",
        "--family",
        "whitney",
        "--n",
        "2",
        "--param",
        "m=2",
        "--param",
        "r=1",
        "--format",
        "csv",
    )
    assert code == 0
    assert out.splitlines()[1] == "whitney,m=2;r=1"
    assert out.splitlines()[-1] == "2,2,1"


def test_verify_subcommand_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "rook", "--max-n", "2")
    assert code == 0
    assert "overall: PASS" in out

    code, out = run_cli(capsys, "verify", "--suite", "shift", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["suite"] == "shift"
    assert payload[0]["pass"] is True


def test_verify_all_with_shared_budget(capsys):
    # a shared --max-n above one suite's cap is clamped, not rejected
    code, out = run_cli(capsys, "verify", "--suite", "all", "--max-n", "8")
    assert code == 0
    assert out.strip().endswith("overall: PASS")
    assert out.count("suite ") == 6


def test_verify_outputs_are_byte_identical(capsys):
    _, first = run_cli(capsys, "verify", "--suite", "bijections", "--max-n", "3", "--format", "json")
    _, second = run_cli(capsys, "verify", "--suite", "bijections", "--max-n", "3", "--format", "json")
    assert first == second


def test_verify_failure_exits_1(capsys, monkeypatch):
    from weylgram import verify

    def broken_suite(order=8):
        report = verify.Report("shift", {"order": order})
        report.check("forced-failure", 1, 2)
        return report

    monkeypatch.setattr(verify, "verify_shift", broken_suite)
    code = main(["verify", "--suite", "shift"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: FAIL" in out
    assert "[FAIL] forced-failure" in out


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["nonsense"],
        ["triangle", "--family", "nonsense", "--n", "3"],
        ["triangle", "--family", "stirling2", "--n", "0"],
        ["derive", "--grammar", "x ->", "--start", "x", "--steps", "1"],
        ["derive", "--grammar", "x -> x*y; y -> y", "--start", "x", "--steps", "-1"],
        ["normal-order", "--word", "xyz"],
        ["bijection", "--family", "stirling", "--seq", "1,1", "--word", "caca"],
        ["bijection", "--family", "stirling"],
        ["rook", "--board", "3,1"],
        ["verify", "--suite", "bijections", "--max-n", "9"],
        ["verify", "--suite", "nonsense"],
        ["triangle", "--family", "stirling2", "--n", "3", "--param", "m=x"],
        ["verify", "--suite", "shift", "--max-n", "3"],
        ["verify", "--suite", "rook", "--order", "3"],
        ["triangle", "--family", "whitney", "--n", "3", "--param", "p=3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


@pytest.mark.parametrize(
    "suite", [name for name, suite in SUITES.items() if suite.budget == "max_n"]
)
def test_single_suite_max_n_out_of_range_exits_2(suite, capsys):
    # rejected before any suite work starts
    for value in (0, SUITES[suite].cap + 1):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite, "--max-n", str(value)])
        assert exc.value.code == 2, (suite, value)
        capsys.readouterr()


def test_negative_coefficients_are_parenthesized(capsys):
    code, out = run_cli(capsys, "normal-order", "--word", "(ca)^2", "--param", "p=-1")
    assert code == 0
    assert out.strip() == "(-1)*c*a + c^2*a^2"

    code, out = run_cli(
        capsys, "shift", "--grammar", "x -> -x; y -> y", "--start", "x", "--order", "3"
    )
    assert code == 0
    assert out.strip() == "x + (-x)*lambda + 1/2*x*lambda^2 + (-1/6*x)*lambda^3 + O(lambda^4)"


def test_triangle_json(capsys):
    code, out = run_cli(
        capsys, "triangle", "--family", "gen-stirling", "--n", "2", "--param", "r=3",
        "--param", "s=3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "gen-stirling"
    assert {"n": 2, "k": 4, "value": "18"} in payload["entries"]
