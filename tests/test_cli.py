"""End-to-end tests of the command-line interface."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylgram
from weylgram import cli
from weylgram.cli import build_parser, main
from weylgram.numbers import FerrersBoard, rook_numbers, staircase_board
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


def test_rook_command_on_long_board(capsys):
    # more columns than the interpreter recursion limit; no traceback, exit 0
    code, out = run_cli(capsys, "rook", "--board", ",".join(["0"] * 1200))
    assert code == 0
    assert out.strip() == ",".join(["1"] + ["0"] * 1200)


def never(board):
    raise AssertionError("rook_numbers called")


@pytest.mark.parametrize("board", ["", "0,0,1,1", "1,1,3,3,5,5,7,7,9,9", "2,2,4,4,6,6,8,8,10,10,11"])
def test_rook_command_never_enumerates(capsys, monkeypatch, board):
    # the printed r_k come from the column recurrence, not from rook_numbers;
    # the last board has 8,999,244 placements, just under the limit
    expected = ",".join(map(str, rook_numbers(FerrersBoard.parse(board))))
    monkeypatch.setattr(cli.numbers, "rook_numbers", never)
    assert run_cli(capsys, "rook", "--board", board) == (0, expected + "\n")


@pytest.mark.parametrize(
    "board", ["1,99999999999999999999", ",".join(["12"] * 12), ",".join(map(str, staircase_board(6).heights))]
)
def test_rook_board_above_the_placement_limit_is_a_usage_error(capsys, monkeypatch, board):
    # rejected by arithmetic on the heights; no placement is enumerated
    monkeypatch.setattr(cli.numbers, "rook_numbers", never)
    with pytest.raises(SystemExit) as exc:
        main(["rook", "--board", board])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "weylgram: error: rook --board allows at most 10000000 placements; this board has more"
    )


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
        ["bijection", "--family", "stirling", "--word", "", "--edges", ""],
        ["derive", "--grammar", "x -> 1/0*y", "--start", "x", "--steps", "1"],
        ["derive-chain", "--chain", "x -> x", "--start", "1/0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


NINES = "9" * 5000  # more digits than int() converts (4300 by default)
GRAMMAR = "x -> x*y; y -> y"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["derive", "--grammar", GRAMMAR, "--start", "²", "--steps", "1"], "unexpected character '²' at 1:1"),
        (["normal-order", "--word", "(ca)^²"], "missing repetition count in word '(ca)^²'"),
        (["normal-order", "--word", f"(ca)^{NINES}"], f"repetition count of 5000 digits (at most 4300) in word '(ca)^{NINES}'"),
        (["derive", "--grammar", GRAMMAR, "--start", f"x^{NINES}", "--steps", "1"], "number of 5000 digits (at most 4300) at 1:3"),
        (["derive", "--grammar", GRAMMAR, "--start", f"{NINES}*x", "--steps", "1"], "number of 5000 digits (at most 4300) at 1:1"),
        (["rook", "--board", NINES], f"part of 5000 digits (at most 4300) in board '{NINES}'"),
        (
            ["bijection", "--family", "stirling", "--word", "caca", "--edges", f"(2,{NINES})"],
            f"vertex of 5000 digits (at most 4300) in --edges '(2,{NINES})'",
        ),
        (["rook", "--board", "2,x"], "bad part 'x' in board '2,x'"),
    ],
    ids=[
        "derive", "normal-order", "long-count", "long-exponent", "long-coefficient", "long-board-part",
        "long-edge-vertex", "board-part",
    ],
)
def test_non_decimal_digits_are_parse_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"weylgram: error: {message}"


MISSING = "<missing>"  # replaced by a path under tmp_path that does not exist
NINES = "9" * 5000  # more digits than int() converts


@pytest.mark.parametrize(
    "argv, message",
    [
        (["triangle", "--family", "stirling-p", "--n", "3", "--param", "p=1", "--param", "p=2"], "--param p given twice"),
        (["triangle", "--family", "stirling-p", "--n", "3", "--param", "p=x"], "--param value must be an integer or 'sym', got 'p=x'"),
        (["normal-order", "--word", "ca", "--param", "p=x"], "--param value must be an integer or 'sym', got 'p=x'"),
        (["triangle", "--family", "stirling2", "--n", "3", "--param", "m=1"], "stirling2 takes no parameter m (allowed: none)"),
        (["derive-chain", "--start", "x"], "need at least one --chain grammar"),
        (["bijection", "--family", "stirling", "--word", "caca", "--edges", "(2,3"], "--edges must look like '(i,j),(k,l)', got '(2,3'"),
        (["bijection", "--family", "stirling", "--seq", "1,x"], "--seq must be comma-separated integers, got '1,x'"),
        (["bijection", "--family", "stirling", "--word", "caca"], "--word needs --edges (possibly empty) to define a contraction"),
        (["shift", "--grammar", GRAMMAR, "--start", "x", "--order", "-1"], "--order must be >= 0"),
        (["verify", "--suite", "shift", "--max-n", "3"], "--max-n does not apply to the shift suite; use --order"),
        (["verify", "--suite", "all", "--order", "11"], "--order must be between 0 and 10 for the shift suite"),
        (["derive", "--grammar-file", MISSING, "--start", "x", "--steps", "1"], f"[Errno 2] No such file or directory: '{MISSING}'"),
        (["bijection", "--family", "stirling", "--seq", "1," + NINES], f"entry of 5000 digits (at most 4300) in --seq '1,{NINES}'"),
        (["normal-order", "--word", "ca", "--param", "p=" + NINES], f"value of 5000 digits (at most 4300) in --param 'p={NINES}'"),
    ],
    ids=[
        "param-twice", "param-not-int", "normal-order-param-not-int", "param-not-allowed", "no-chain",
        "edges-shape", "seq-not-int", "word-without-edges", "negative-order", "max-n-for-shift",
        "order-above-cap", "missing-grammar-file", "seq-too-many-digits", "param-too-many-digits",
    ],
)
def test_usage_error_bytes(capsys, monkeypatch, tmp_path, argv, message):
    # the whole of stderr: the usage line wrapped at 80 columns, then the error
    monkeypatch.setenv("COLUMNS", "80")
    missing = str(tmp_path / "missing.txt")
    argv = [missing if arg == MISSING else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == build_parser().format_usage() + f"weylgram: error: {message.replace(MISSING, missing)}\n"


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_top_level_and_triangle_usages_are_fixed_lines(capsys, monkeypatch, columns):
    # the lines argparse wraps them to at 80 columns on Python 3.10-3.12,
    # at any width and on any version
    monkeypatch.setenv("COLUMNS", columns)
    commands = "{triangle,derive,derive-chain,normal-order,contractions,bijection,rook,verify,shift}"
    assert build_parser().format_usage() == f"usage: weylgram [-h]\n{' ' * 16}{commands}\n{' ' * 16}...\n"
    with pytest.raises(SystemExit):
        main(["triangle", "--family", "stirling2", "--n", "abc"])
    indent = "\n" + " " * 25
    families = "{stirling2,eulerian,second-order-eulerian,stirling-p,q-stirling,gen-stirling,whitney,sf-plain,sf-bar,sf-tilde}"
    assert capsys.readouterr().err == (
        f"usage: weylgram triangle [-h] --family{indent}{families}{indent}--n N [--k K] [--param KEY=VALUE]"
        f"{indent}[--format {{plain,json,csv}}]\nweylgram triangle: error: argument --n: invalid int value: 'abc'\n"
    )


def test_every_subcommand_ends_with_one_format_option():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, command in commands.choices.items():
        options = [a for a in command._actions if a.option_strings]
        formats = [a for a in options if "--format" in a.option_strings]
        assert len(formats) == 1 and options[-1] is formats[0], name
        expected = ("plain", "json", "csv") if name == "triangle" else ("plain", "json")
        assert tuple(formats[0].choices) == expected, name
        assert formats[0].default == "plain", name


def test_main_builds_the_parser_once_per_process(capsys):
    build_parser.cache_clear()
    assert run_cli(capsys, "rook", "--board", "1,1,3,3") == (0, "1,8,14,4,0\n")
    assert run_cli(capsys, "normal-order", "--word", "(ca)^2", "--param", "p=sym")[0] == 0
    assert run_cli(capsys, "triangle", "--family", "stirling2", "--n", "3", "--format", "csv")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "rook", "--order", "3"])
    assert exc.value.code == 2
    assert run_cli(capsys, "verify", "--suite", "shift", "--order", "2")[0] == 0
    assert build_parser.cache_info().misses == 1
    assert build_parser() is build_parser()


# Run in a fresh interpreter: after `import weylgram.cli` and `build_parser()`,
# and after each command given as JSON in argv[1], print which of the layers
# that the parser does not read are loaded.
FOOTPRINT = """
import contextlib, io, json, sys
import weylgram.cli as cli
cli.build_parser()
def loaded():
    return [name for name in ("bijections", "verify", "weyl") if "weylgram." + name in sys.modules]
seen = [loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv):
            sys.exit(f"{argv} failed")
    seen.append(loaded())
print(json.dumps(seen))
"""


@pytest.mark.parametrize(
    "commands, loaded",
    [
        (
            [
                ["derive", "--grammar", "x -> x*y; y -> y", "--start", "x", "--steps", "3"],
                ["derive-chain", "--chain", "x -> x*y; y -> y", "--chain", "x -> y", "--start", "x"],
                ["shift", "--grammar", "x -> x*y; y -> y", "--start", "x", "--order", "3"],
                ["triangle", "--family", "stirling2", "--n", "4", "--format", "json"],
                ["rook", "--board", "1,1,3,3"],
            ],
            [],
        ),
        ([["normal-order", "--word", "(ca)^3", "--param", "p=sym"]], ["weyl"]),
        ([["contractions", "--word", "caca", "--format", "json"]], ["weyl"]),
        ([["bijection", "--family", "stirling", "--seq", "1,2,1"]], ["bijections", "weyl"]),
        ([["verify", "--suite", "rook", "--max-n", "1"]], ["bijections", "verify", "weyl"]),
    ],
    ids=["parser-only", "normal-order", "contractions", "bijection", "verify"],
)
def test_start_up_loads_only_what_the_command_runs(commands, loaded):
    env = dict(os.environ, PYTHONPATH=str(Path(weylgram.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, json.dumps(commands)], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[]] + [loaded] * len(commands)


def _nested(text, depth):
    return "(" * depth + text + ")" * depth


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--grammar", "x -> x*y; y -> y", "--start", _nested("x", 5000), "--steps", "1"],
        ["derive", "--grammar", "x -> " + _nested("x*y", 5000) + "; y -> y", "--start", "x", "--steps", "1"],
    ],
    ids=["start", "grammar"],
)
def test_deep_nesting_is_a_usage_error(argv):
    # past the recursion limit of the expression parser: a ParseError, not a RecursionError
    env = dict(os.environ, PYTHONPATH=str(Path(weylgram.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "weylgram", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1].startswith("weylgram: error: expression nested too deeply at 1:")


def test_moderate_nesting_still_parses(capsys):
    assert parse_polynomial(_nested("x", 200)) == parse_polynomial("x")
    code, out = run_cli(capsys, "derive", "--grammar", "x -> x*y; y -> y", "--start", _nested("x", 200), "--steps", "0")
    assert (code, out) == (0, "x\n")
    code, out = run_cli(
        capsys, "derive", "--grammar", "x -> " + _nested("x*y", 200) + "; y -> y", "--start", "x", "--steps", "1"
    )
    assert (code, out) == (0, "x*y\n")


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


# sha256 of stdout for `triangle --n 12` with bound parameters, csv then json.
# The stirling-p header pins the params rendering as it is: p=sym shows as
# p=p, while an unset p shows as p=sym.
TRIANGLE_PARAM_DIGESTS = [
    (
        "whitney",
        "m=2 r=1",
        "83c7f0cd5f87018dff02e649bd31e4b57d8dbea3a81112b209ee9565767241e1",
        "a3963a3bcae2c45333a0d6ff69476b56b08397ab2d47ca8f97e12f15339ba893",
    ),
    (
        "whitney",
        "m=0",
        "c7a3ecf9caac28b040e279feb66dfc18a9b01cdefe3e70450ef5d4d80ea69e00",
        "0713c9f2f23c30a4cf96c34e9cef2f90c502d15330965110d7374ff7be408e27",
    ),
    (
        "whitney",
        "r=0",
        "67b03a6d7c0fb88845fea60ccfa77dfbf26a1fb7b33556337a6e2a006a7ecca0",
        "3c546c9b38c162a3cec10f672d967bac8bef49a92d2187fe8ddf0c273ece0ea2",
    ),
    (
        "sf-plain",
        "m=1",
        "b49585d2b5519d05252c384ed0eea6abf3353c2805c6b2386ee3702d9a2a4767",
        "2779eb010b13de45f51c9757573b4d670589526b882d3b1c362eaa7b032a0691",
    ),
    (
        "sf-plain",
        "m=2",
        "05712dbaecde5191bee59d0d07bd4ea6794b271557e33e16cad915bbe003bdf5",
        "0b36f4e6ffc7987d69df13b0a92923b6a089846f7a4fae5199086a270a16b648",
    ),
    (
        "sf-plain",
        "m=3",
        "2580fd3133bd73e5bcd5a801cf10f9e76f76182347b3e7b6439bdbd7ebc85334",
        "a44b18a8f14d83e412a22a3e148f52adc64cdcbbf1865620f147b64a4a0437a7",
    ),
    (
        "sf-bar",
        "m=1",
        "9d7b3e5fb06d3ab423a17fd59f246766c79894176fae532529e5c115b59ec65b",
        "b90b1976248e7dccf5ec65a29546d0a0569b82e0bbede69ad65304bca00db8c1",
    ),
    (
        "sf-bar",
        "m=2",
        "572195a5ca0af9b8eec087b6ffa72a3fc699ec9545887993659d28a92a4fa735",
        "dfff5b255b08209ca15872c9f00807c2705358b1162203ccba7e6004555575bf",
    ),
    (
        "sf-bar",
        "m=3",
        "715c5d870a0198731d92677f6dc5137037dd73ea7d2a202c6eb4afb762028548",
        "6ca8153272aa2d21e68d6c3fdad961b30857e6f5510d70744305ac1a69ccfaf1",
    ),
    (
        "sf-tilde",
        "m=1",
        "3322eee4cf9ae1e885bd87b4a943f67efc679db671d007828c416e5c7be5dd16",
        "c14b763299ce2646c877294a85771e40d498be015cf965aa0477fae53ba60f4c",
    ),
    (
        "sf-tilde",
        "m=2",
        "a2a81f87a8998a57187e33b933085a8b89815645b110b4c4e4af5da67a8db663",
        "cd992f686b1d9d15d418e57bd63c8beb194561132d4ccad232833ae90f767dd2",
    ),
    (
        "sf-tilde",
        "m=3",
        "1d2d2c32db8ce6a5c3e8f2ec198c7e67395c69d0ea4969b84c0a1d95fd9dafd5",
        "9bcc0f1006a331a21df5b647ea8a54313b738d3a491e545700e472c57c917428",
    ),
    (
        "stirling-p",
        "p=3",
        "af8acc8f8450800958da34573efaf17b705dda60acee93b06f5aba3554a47e9f",
        "58158cd75cb813a22a7e20d9fb0410596579489c6a0d35847499937c8542d789",
    ),
    (
        "stirling-p",
        "p=sym",
        "29c0b1f219ad3086b2be1f25ac4559858f196f234b4da2476c834f8ad4e0d3c0",
        "224de9eae328e404c3062d8570c7d9c220baa608df0453d1a131334c76942795",
    ),
    (
        "q-stirling",
        "q=2",
        "af9aa39902fc7440e9d328c685d6796c08cb6eace3b0ccc39bd596e9ba8d969b",
        "3b05dda6fcc0ecb982df1ea400292efc2c732b5f91c82b456a02dc00957b4b1f",
    ),
    (
        "gen-stirling",
        "r=2 s=1",
        "143169585c83d0d16a288e21ae039e34de58c6c3c54b281a09c893d4e0831348",
        "1164d6eda0b8037cb37a1f3804eecfde1d266ac92e28331f8ccb6ac7125d973c",
    ),
    (
        "gen-stirling",
        "r=2 s=2",
        "507b4cb434cdc49a8fbe180c4d0a6058c22d1dde59806cb9b5d3a3630c64e998",
        "a0899a617422ef8332c53e0926228844ff22042f5eb15d5acab87d6dbfaee2d7",
    ),
    (
        "gen-stirling",
        "r=3 s=1",
        "6f4badabafdef1474ef62b524f302b10f43b5a930fe4478714becd868c5b54e7",
        "2ec5ee4c942fd8266887ccbc730869ab187adacb26003b4c70fce34c820b13f2",
    ),
    (
        "gen-stirling",
        "r=3 s=3",
        "f94ab7e62f1883468502f513c95add4d22e967640cbbd8f21b224b52a573140c",
        "568d47c1e1c1a6404e2079cae7d955925b5e22d26dc22c3f5f5a12c112a9177e",
    ),
    (
        "gen-stirling",
        "r=4 s=1",
        "6dfdeb513107261b04e6ea3d9f5186db5af4be83bcb1b0ffe492348264c94217",
        "3bd1457da51f34e4b79f7fd6977a398abb75a699dce875fb0a049b7b03149ced",
    ),
    (
        "gen-stirling",
        "r=4 s=4",
        "5849e3247e072091fb62c7a814544609a05fc07758f3dfeb8d7da9f7fdd6e060",
        "1bcb3c8243d8d8b5109b1b4e2b4526d8587843dc6e43c0c39d486e66843d5d05",
    ),
]


@pytest.mark.parametrize("family, params, csv_digest, json_digest", TRIANGLE_PARAM_DIGESTS)
def test_triangle_param_bytes_are_pinned(capsys, family, params, csv_digest, json_digest):
    for fmt, digest in (("csv", csv_digest), ("json", json_digest)):
        argv = ["triangle", "--family", family, "--n", "12", "--format", fmt]
        for param in params.split():
            argv += ["--param", param]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (family, params, fmt)
