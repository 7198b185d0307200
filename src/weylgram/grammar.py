"""Substitution grammars and their formal derivative.

A grammar maps symbols to replacement polynomials; symbols without a
rule are constants (derivative zero).  The induced derivative D acts on
the polynomial ring by linearity, the product rule and the chain rule,
i.e. D(a) = sum over ruled symbols v of (da/dv) * rule(v).

Two generation semantics are exposed, matching the only two cases with
a fixed numbering convention: the plain semantics for {x -> x*y, y -> y}
started from x or x*y (pick a letter position at each step), and the
weighted semantics for {x -> p*x + x*y, y -> y} started from x (pick the
p-branch, the y-branch, or one of the y letters).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Mapping, Sequence

from .ring import (
    Monomial,
    ParseError,
    Polynomial,
    TruncatedSeries,
    _ExprParser,
    monomial,
    sym,
    tokenize,
)

STIRLING_FAMILY = "stirling"
P_FAMILY = "p-grammar"

SHIFT_VARIABLE = "lambda"


@dataclass(frozen=True, eq=True)
class Grammar:
    """Immutable set of substitution rules symbol -> polynomial."""

    rules: Mapping[str, Polynomial]

    def __post_init__(self):
        object.__setattr__(self, "rules", dict(self.rules))

    def rule(self, name: str) -> Polynomial:
        return self.rules.get(name, Polynomial.zero())

    def __str__(self) -> str:
        return "; ".join(f"{name} -> {image}" for name, image in sorted(self.rules.items()))


def parse_grammar(text: str) -> Grammar:
    """Parse the rule mini-language ``sym -> poly ; sym -> poly ; ...``."""
    tokens = tokenize(text)
    parser = _ExprParser(tokens)
    rules: dict[str, Polynomial] = {}
    while parser.peek().kind == ";":
        parser.next()
    while parser.peek().kind != "end":
        tok = parser.peek()
        if tok.kind != "name":
            raise ParseError(f"expected rule symbol at {tok.line}:{tok.col}")
        parser.next()
        arrow = parser.peek()
        if arrow.kind != "->":
            raise ParseError(f"expected '->' at {arrow.line}:{arrow.col}")
        parser.next()
        after = parser.peek()
        if after.kind in (";", "end"):
            raise ParseError(f"empty rule image at {after.line}:{after.col}")
        image = parser.parse_expr()
        if tok.value in rules:
            raise ParseError(f"duplicate left-hand side {tok.value!r} at {tok.line}:{tok.col}")
        rules[tok.value] = image
        sep = parser.peek()
        if sep.kind == ";":
            while parser.peek().kind == ";":
                parser.next()
        elif sep.kind != "end":
            raise ParseError(f"expected ';' between rules at {sep.line}:{sep.col}")
    if not rules:
        raise ParseError("empty rule set")
    return Grammar(rules)


def derive(g: Grammar, a: Polynomial) -> Polynomial:
    """One application of the formal derivative."""
    result = Polynomial.zero()
    for name, image in g.rules.items():
        partial = a.diff(name)
        if not partial.is_zero():
            result = result + partial * image
    return result


def derive_n(g: Grammar, a: Polynomial, n: int) -> Polynomial:
    if n < 0:
        raise ValueError("derivative count must be >= 0")
    for _ in range(n):
        a = derive(g, a)
    return a


def derive_chain(grammars: Sequence[Grammar], a: Polynomial) -> Polynomial:
    """Apply a composition of derivatives, last-listed grammar first.

    The list is read as an operator product, so derive_chain([G3, G2, G1], a)
    computes D3(D2(D1(a))).
    """
    if not grammars:
        raise ValueError("empty grammar chain")
    for g in reversed(grammars):
        a = derive(g, a)
    return a


def shift_apply(g: Grammar, a: Polynomial, order: int) -> TruncatedSeries:
    """Formal flow sum_{n<=order} lambda^n/n! * D^n(a) as a series in lambda."""
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = []
    current = a
    for n in range(order + 1):
        coeffs.append(current.scale(Fraction(1, factorial(n))))
        if n < order:
            current = derive(g, current)
    return TruncatedSeries(SHIFT_VARIABLE, coeffs)


# -- generation sequences ------------------------------------------------


def growth_bound(family: str, ones: int, twos: int) -> int:
    """Largest entry a sequence of the family may take next, after a
    prefix holding that many 1s and 2s: the ones bound #1s + 1 for the
    plain family, the twos bound #2s + 2 for the weighted family."""
    return ones + 1 if family == STIRLING_FAMILY else twos + 2


def growth_sequences(family: str, length: int, offset: int = 0) -> list[tuple[int, ...]]:
    """All sequences of the family with the given length, starting with 1,
    in lexicographic order.  offset is added to every bound; the plain
    semantics started from x (rather than x*y) walks with offset -1."""
    if length < 1:
        raise ValueError("length must be >= 1")
    out: list[tuple[int, ...]] = []

    def walk(seq: list[int], ones: int, twos: int) -> None:
        if len(seq) == length:
            out.append(tuple(seq))
            return
        for s in range(1, growth_bound(family, ones, twos) + offset + 1):
            seq.append(s)
            walk(seq, ones + (s == 1), twos + (s == 2))
            seq.pop()

    walk([1], 1, 0)
    return out


@dataclass(frozen=True)
class GenSequence:
    """A generation sequence s_1..s_d with its growth bound checked:
    s_1 = 1 and 1 <= s_j <= growth_bound(family, #1s, #2s before j)."""

    entries: tuple[int, ...]
    family: str

    def __post_init__(self):
        if self.family not in (STIRLING_FAMILY, P_FAMILY):
            raise ValueError(f"unknown sequence family {self.family!r}")
        if not self.entries or self.entries[0] != 1:
            raise ValueError("sequence must start with 1")
        ones = twos = 0
        for j, s in enumerate(self.entries):
            if j and not 1 <= s <= growth_bound(self.family, ones, twos):
                bound = "ones" if self.family == STIRLING_FAMILY else "twos"
                raise ValueError(f"entry {s} at position {j + 1} violates the {bound} bound")
            ones += s == 1
            twos += s == 2

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.entries)


@dataclass(frozen=True)
class GenerationRecord:
    """One generation path: its sequence, resulting monomial and weight."""

    sequence: GenSequence
    monomial: Monomial
    weight: Polynomial


def _match_stirling(g: Grammar) -> tuple[str, str] | None:
    """Recognize rules {x -> x*y, y -> y}; returns (x, y) letter names."""
    for x, y in permutations(g.rules, 2):
        if g == Grammar({x: sym(x) * sym(y), y: sym(y)}):
            return x, y
    return None


def _match_p_grammar(g: Grammar) -> tuple[str, str, str] | None:
    """Recognize rules {x -> p*x + x*y, y -> y}; returns (x, y, p) names."""
    for x, y in permutations(g.rules, 2):
        for p in g.rules[x].symbols() - {x, y}:
            if g == Grammar({x: sym(p) * sym(x) + sym(x) * sym(y), y: sym(y)}):
                return x, y, p
    return None


def enumerate_generations(
    g: Grammar, start: Monomial, n: int, family: str
) -> list[GenerationRecord]:
    """All length-(n+1) generation sequences from a start monomial.

    The records are produced in lexicographic sequence order and their
    weighted monomials sum to derive_n(g, start).
    """
    if n < 0:
        raise ValueError("step count must be >= 0")
    if family == STIRLING_FAMILY:
        letters = _match_stirling(g)
        if letters is None:
            raise ValueError("grammar does not match the plain generation semantics")
        x_name, y_name = letters
        start_exps = dict(start)
        y0 = start_exps.pop(y_name, 0)
        if start_exps != {x_name: 1} or y0 not in (0, 1):
            raise ValueError(f"unsupported start monomial for plain semantics: {start}")
        # Each 1 after the first adds a y letter; from x there is one
        # letter fewer to pick than from x*y, so the bound is one tighter.
        return [
            GenerationRecord(
                GenSequence(seq, family),
                monomial({x_name: 1, y_name: y0 + seq.count(1) - 1}),
                Polynomial.one(),
            )
            for seq in growth_sequences(family, n + 1, y0 - 1)
        ]
    if family == P_FAMILY:
        match = _match_p_grammar(g)
        if match is None:
            raise ValueError("grammar does not match the weighted generation semantics")
        x_name, y_name, p_name = match
        if dict(start) != {x_name: 1}:
            raise ValueError(f"unsupported start monomial for weighted semantics: {start}")
        p = sym(p_name)
        # Each 2 adds a y letter; each 1 after the first takes the p-branch.
        return [
            GenerationRecord(
                GenSequence(seq, family),
                monomial({x_name: 1, y_name: seq.count(2)}),
                p ** (seq.count(1) - 1),
            )
            for seq in growth_sequences(family, n + 1)
        ]
    raise ValueError(f"unknown generation family {family!r}")


def generation_sum(records: Sequence[GenerationRecord]) -> Polynomial:
    """Sum of weight * monomial over generation records."""
    total = Polynomial.zero()
    for rec in records:
        total = total + rec.weight * Polynomial.from_monomial(rec.monomial)
    return total
