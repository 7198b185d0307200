"""Command-line interface.

Subcommands: triangle, derive, derive-chain, normal-order, contractions,
bijection, rook, verify, shift; output is deterministic.  Handlers raise
ValueError (OSError for --grammar-file) on bad input, and `main` alone prints
the usage and error lines and exits 2.  Exit 1 means a `verify` check failed.
The parser reads only `grammar`, `numbers` and the suite table; `weyl`,
`bijections` and `verify` are imported by the handlers that run them.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import replace
from typing import Callable, Sequence

from . import numbers
from .grammar import (
    FAMILIES,
    GenSequence,
    Grammar,
    derive_chain,
    derive_n,
    parse_grammar,
    shift_apply,
)
from .ring import parse_int, parse_polynomial
from .suites import SUITES


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `weylgram` argument parser.

    It is built once per process, on the first call, and every later call
    (each `main` among them) returns that same object.  Callers must not
    mutate it, and handlers must not mutate the lists in the namespace it
    returns: an `append` option's default list is shared by every parse.

    The top-level and `triangle` usages are written out, in the lines
    argparse wraps them to at 80 columns on Python 3.10-3.12: 3.13 wraps
    their long choice lists differently, and every usage error prints them.
    """
    parser = argparse.ArgumentParser(
        prog="weylgram",
        description="Grammar-derivative calculus, normal ordering, and the "
        "combinatorial triangles they generate; exact arithmetic throughout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tri = sub.add_parser("triangle", help="print a number-family triangle")
    tri.add_argument("--family", required=True, choices=numbers.TRIANGLE_FAMILIES)
    tri.add_argument("--n", type=int, required=True, help="largest row index")
    tri.add_argument("--k", type=int, help="restrict output to one column")
    tri.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    tri.set_defaults(handler=_cmd_triangle)
    indent = "\n" + " " * len("usage: weylgram triangle ")
    tri.usage = indent.join(
        (
            "%(prog)s [-h] --family",
            "{" + ",".join(numbers.TRIANGLE_FAMILIES) + "}",
            "--n N [--k K] [--param KEY=VALUE]",
            "[--format {plain,json,csv}]",
        )
    )

    der = sub.add_parser("derive", help="apply the grammar derivative n times")
    _add_grammar_flags(der)
    der.add_argument("--start", required=True, help="start polynomial")
    der.add_argument("--steps", type=int, required=True)
    der.set_defaults(handler=_cmd_derive)

    chain = sub.add_parser(
        "derive-chain", help="apply a composition of derivatives (last listed acts first)"
    )
    chain.add_argument(
        "--chain",
        action="append",
        default=[],
        metavar="RULES",
        help="grammar text; repeat for each factor, written in operator order",
    )
    chain.add_argument("--start", required=True)
    chain.set_defaults(handler=_cmd_derive_chain)

    norm = sub.add_parser("normal-order", help="normal-order a word over {a, c}")
    norm.add_argument("--word", required=True, help="e.g. 'caca' or '(ca)^3'")
    norm.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="P=VALUE",
        help="weigh adjacent contracted pairs by a symbol (VALUE 'sym') or integer",
    )
    norm.set_defaults(handler=_cmd_normal_order)

    contr = sub.add_parser("contractions", help="enumerate contractions of a word")
    contr.add_argument("--word", required=True)
    contr.set_defaults(handler=_cmd_contractions)

    bij = sub.add_parser(
        "bijection", help="map a generation sequence to its contraction, or back"
    )
    bij.add_argument("--family", required=True, choices=tuple(FAMILIES))
    bij.add_argument("--seq", help="comma-separated entries, e.g. 1,2,1,3")
    bij.add_argument("--word", help="contraction word (with --edges)")
    bij.add_argument("--edges", help="contraction edges, e.g. '(4,5),(2,7)' or ''")
    bij.set_defaults(handler=_cmd_bijection)

    rook = sub.add_parser("rook", help="rook numbers of a Ferrers board")
    rook.add_argument("--board", required=True, help="column heights, e.g. 1,1,3,3")
    rook.set_defaults(handler=_cmd_rook)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", default="all", choices=("all", *SUITES))
    ver.add_argument("--max-n", type=int, default=None)
    ver.add_argument("--order", type=int, default=None, help="series order for the shift suite")
    ver.set_defaults(handler=_cmd_verify)

    shift = sub.add_parser("shift", help="exponential of the derivative applied to a polynomial")
    _add_grammar_flags(shift)
    shift.add_argument("--start", required=True)
    shift.add_argument("--order", type=int, required=True)
    shift.set_defaults(handler=_cmd_shift)

    # Added last, so that --format ends every subcommand's usage and help.
    for name, command in sub.choices.items():
        formats = ("plain", "json", "csv") if name == "triangle" else ("plain", "json")
        command.add_argument("--format", choices=formats, default="plain")

    # argparse builds each subcommand's prog from the parent's usage, so
    # this one is set only after every subcommand is added.
    indent = "\n" + " " * len("usage: weylgram ")
    parser.usage = indent.join(("%(prog)s [-h]", "{" + ",".join(sub.choices) + "}", "..."))
    return parser


def _add_grammar_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--grammar", help="rule text, e.g. 'x -> x*y; y -> y'")
    group.add_argument("--grammar-file", help="path to a rule file")


def _load_grammar(args: argparse.Namespace) -> Grammar:
    if args.grammar is not None:
        return parse_grammar(args.grammar)
    with open(args.grammar_file, encoding="utf-8") as handle:
        return parse_grammar(handle.read())


def _parse_params(pairs: Sequence[str]) -> dict[str, int | str]:
    params: dict[str, int | str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--param needs KEY=VALUE, got {pair!r}")
        if key in params:
            raise ValueError(f"--param {key} given twice")
        bad = f"--param value must be an integer or 'sym', got {pair!r}"
        params[key] = key if value == "sym" else parse_int(value, "value", f" in --param {pair!r}", bad)
    return params


def _emit(args, text: Callable[[], str], payload: Callable[[], object] | None = None, code: int = 0) -> int:
    """Print one command's output and return its exit code.

    Under --format json the output is payload() as one JSON document with
    indent 2; otherwise it is text() with one trailing newline.  Only the
    printed form is built.  A command without a payload renders each of
    its formats in text().
    """
    out = json.dumps(payload(), indent=2) if args.format == "json" and payload else text()
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return code


def _cmd_triangle(args) -> int:
    params = _parse_params(args.param)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    triangle = numbers.build_triangle(args.family, args.n, params)
    if args.k is not None:
        triangle = replace(triangle, entries=tuple(entry for entry in triangle.entries if entry[1] == args.k))
    return _emit(args, lambda: getattr(triangle, "to_" + args.format)())


def _cmd_derive(args) -> int:
    if args.steps < 0:
        raise ValueError("--steps must be >= 0")
    result = derive_n(_load_grammar(args), parse_polynomial(args.start), args.steps)
    return _emit(args, lambda: str(result), lambda: {"result": str(result)})


def _cmd_derive_chain(args) -> int:
    if not args.chain:
        raise ValueError("need at least one --chain grammar")
    grammars = [parse_grammar(text) for text in args.chain]
    result = derive_chain(grammars, parse_polynomial(args.start))
    return _emit(args, lambda: str(result), lambda: {"result": str(result)})


def _cmd_normal_order(args) -> int:
    from . import weyl

    params = _parse_params(args.param)
    word = weyl.WeylWord.parse(args.word)
    if len(params) > 1:
        raise ValueError("normal-order takes at most one --param")
    form = weyl.normal_order_p(word, *params.values()) if params else weyl.normal_order(word)
    return _emit(
        args,
        lambda: str(form),
        lambda: {
            "word": word.letters,
            "terms": [
                {"creation": i, "annihilation": j, "coefficient": str(coeff)}
                for (i, j), coeff in form.sorted_terms()
            ],
        },
    )


def _contraction_dict(contraction, stats) -> dict:
    return {
        "word": contraction.word.letters,
        "edges": [list(edge) for edge in contraction.edges],
        "stats": {
            "edges": stats.edge_count,
            "adjacent_edges": stats.adjacent_edge_count,
            "degree0_creation": stats.degree0_black_count,
            "degree0_annihilation": stats.degree0_white_count,
        },
    }


def _cmd_contractions(args) -> int:
    from . import weyl

    contractions = weyl.enumerate_contractions(weyl.WeylWord.parse(args.word))
    return _emit(
        args,
        lambda: "\n".join([*map(str, contractions), f"count={len(contractions)}"]),
        lambda: [_contraction_dict(each, weyl.contraction_stats(each)) for each in contractions],
    )


def _parse_edges(text: str) -> tuple[tuple[int, int], ...]:
    cleaned = text.replace(" ", "")
    pairs = re.findall(r"\((\d+),(\d+)\)", cleaned)
    if ",".join(f"({i},{j})" for i, j in pairs) != cleaned:
        raise ValueError(f"--edges must look like '(i,j),(k,l)', got {text!r}")
    return tuple(tuple(parse_int(end, "vertex", f" in --edges {text!r}") for end in pair) for pair in pairs)


def _cmd_bijection(args) -> int:
    from . import bijections, weyl

    if (args.seq is None) == (args.word is None):
        raise ValueError("give exactly one of --seq or --word (with --edges)")
    to_contraction, to_seq = bijections.family_bijections(args.family)
    if args.seq is not None:
        where, bad = f" in --seq {args.seq!r}", f"--seq must be comma-separated integers, got {args.seq!r}"
        entries = tuple(parse_int(part, "entry", where, bad) for part in args.seq.split(","))
        seq = GenSequence(entries, args.family)
        contraction = to_contraction(seq)
        shown, keys = contraction, ("sequence", "word", "edges")
    else:
        if args.edges is None:
            raise ValueError("--word needs --edges (possibly empty) to define a contraction")
        contraction = weyl.Contraction(weyl.WeylWord.parse(args.word), _parse_edges(args.edges))
        seq = to_seq(contraction)
        shown, keys = seq, ("word", "edges", "sequence")

    def payload() -> dict:
        edges = [list(edge) for edge in contraction.edges]
        fields = {"sequence": list(seq.entries), "word": contraction.word.letters, "edges": edges}
        return {key: fields[key] for key in keys}

    return _emit(args, lambda: str(shown), payload)


def _cmd_rook(args) -> int:
    board = numbers.FerrersBoard.parse(args.board)
    counts = numbers.rook_numbers_by_columns(board)
    return _emit(
        args, lambda: ",".join(map(str, counts)), lambda: {"board": str(board), "rook_numbers": counts}
    )


def _cmd_verify(args) -> int:
    from . import verify

    reports = verify.run_request(args.suite, args.max_n, args.order)
    passed = all(report.passed for report in reports)
    overall = f"overall: {'PASS' if passed else 'FAIL'}"
    return _emit(
        args,
        lambda: "\n".join([*(report.table() for report in reports), overall]),
        lambda: [report.to_dict() for report in reports],
        code=0 if passed else 1,
    )


def _cmd_shift(args) -> int:
    if args.order < 0:
        raise ValueError("--order must be >= 0")
    series = shift_apply(_load_grammar(args), parse_polynomial(args.start), args.order)
    return _emit(
        args,
        lambda: str(series),
        lambda: {
            "variable": series.variable,
            "order": series.order,
            "coefficients": [str(c) for c in series.coefficients],
        },
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
