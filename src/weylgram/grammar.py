"""Substitution grammars and their formal derivative.

A grammar maps symbols to replacement polynomials; symbols without a
rule are constants (derivative zero).  The induced derivative D acts on
the polynomial ring by linearity, the product rule and the chain rule,
i.e. D(a) = sum over ruled symbols v of (da/dv) * rule(v).

derive, derive_n, derive_chain and shift_apply share one kernel that
steps on packed monomials.  Per call it sorts the symbols of the start
polynomial, the ruled symbols and the image symbols, and gives the i-th
symbol the bit field [i*w, (i+1)*w) of a Python int, so x^a*y^b packs
to a + (b << w).  One step adds at most max(0, d - 1) to the total
degree, where d is the largest degree of an image term, so no exponent
ever exceeds B = deg(a) + sum over the steps of max(0, d - 1), and the
field width is w = B.bit_length().  Below 2^w packing is linear and
injective, so a monomial product is one integer add.  Each rule
v -> sum c_j*m_j compiles to the pairs (pack(m_j) - (1 << off_v), c_j);
a step reads e = (m >> off_v) & (2^w - 1) and, if e is nonzero, adds
c*e*c_j at key m + pack(m_j) - (1 << off_v).  Only the results are
unpacked to Polynomial.

Two generation semantics are exposed, matching the only two cases with
a fixed numbering convention: the plain semantics for {x -> x*y, y -> y}
started from x or x*y (pick a letter position at each step), and the
weighted semantics for {x -> p*x + x*y, y -> y} started from x (pick the
p-branch, the y-branch, or one of the y letters).  Every fact that tells
the two apart is a field of their row in FAMILIES.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterator, Mapping, Sequence

from .ring import (
    Monomial,
    Polynomial,
    Rational,
    TruncatedSeries,
    _from_clean,
    monomial,
    monomial_degree,
    parse_rules,
    poly_sum,
    sym,
)

STIRLING_FAMILY = "stirling"
P_FAMILY = "p-grammar"


@dataclass(frozen=True)
class Family:
    """The facts of one generation-sequence family.  Most follow from its
    bounded entry b: the next entry of a sequence is at most #b + b
    (counted over the entries before it), each b after the first entry
    adds a y letter, and in a contraction of (ca)^n entry b leaves a black
    vertex isolated while 3 - b joins it by an adjacent edge."""

    letter: str  # the paper's name of the restricted-growth family
    label: str  # the name in messages and verify case ids
    bounded: int
    starts: tuple[int, ...]  # the k of the accepted start monomials x*y^k
    offset: int  # added to every bound when the semantics starts from x
    p_branch: bool  # whether the rule of x has a p*x term
    suffix: str  # of bijections.seq_to_contraction_* and contraction_to_seq_*

    @property
    def bound_name(self) -> str:
        return ("ones", "twos")[self.bounded - 1]


# The two families, in the order the command line offers them.
FAMILIES = {
    STIRLING_FAMILY: Family("P", "plain", 1, (0, 1), -1, False, "stirling"),
    P_FAMILY: Family("Q", "weighted", 2, (0,), 0, True, "p"),
}

SHIFT_VARIABLE = "lambda"


@dataclass(frozen=True, eq=True)
class Grammar:
    """Immutable set of substitution rules symbol -> polynomial."""

    rules: Mapping[str, Polynomial]

    def __post_init__(self):
        object.__setattr__(self, "rules", dict(self.rules))

    def __str__(self) -> str:
        return "; ".join(f"{name} -> {image}" for name, image in sorted(self.rules.items()))


def parse_grammar(text: str) -> Grammar:
    """Parse the rule mini-language ``sym -> poly ; sym -> poly ; ...``."""
    return Grammar(parse_rules(text))


def derive(g: Grammar, a: Polynomial) -> Polynomial:
    """One application of the formal derivative."""
    return _derivatives([g], a)[-1]


def derive_n(g: Grammar, a: Polynomial, n: int) -> Polynomial:
    if n < 0:
        raise ValueError("derivative count must be >= 0")
    return _derivatives([g] * n, a)[-1]


def derive_chain(grammars: Sequence[Grammar], a: Polynomial) -> Polynomial:
    """Apply a composition of derivatives, last-listed grammar first.

    The list is read as an operator product, so derive_chain([G3, G2, G1], a)
    computes D3(D2(D1(a))).
    """
    if not grammars:
        raise ValueError("empty grammar chain")
    return _derivatives(list(reversed(grammars)), a)[-1]


def shift_apply(g: Grammar, a: Polynomial, order: int) -> TruncatedSeries:
    """Formal flow sum_{n<=order} lambda^n/n! * D^n(a) as a series in lambda."""
    if order < 0:
        raise ValueError("order must be >= 0")
    powers = _derivatives([g] * order, a, every=True)
    coefficients = []
    n_factorial = 1
    for n, p in enumerate(powers):
        n_factorial *= n or 1
        coefficients.append(p.scale(Fraction(1, n_factorial)))
    return TruncatedSeries(SHIFT_VARIABLE, coefficients)


def _derivatives(steps: Sequence[Grammar], a: Polynomial, every: bool = False) -> list[Polynomial]:
    """D_k(...D_1(a)...) for the grammars D_1..D_k in the order they act,
    stepped on packed monomials (see the module docstring).  The list
    holds that one polynomial, or with every, a and each partial result.
    """
    distinct = {id(g): g for g in steps}
    names = a.symbols()
    growth: dict[int, int] = {}
    for gid, g in distinct.items():
        names.update(g.rules)
        for image in g.rules.values():
            names |= image.symbols()
        degrees = [monomial_degree(m) for image in g.rules.values() for m in image.terms()]
        growth[gid] = max(0, max(degrees, default=0) - 1)
    bound = max((monomial_degree(m) for m in a.terms()), default=0)
    bound += sum(growth[id(g)] for g in steps)
    width = max(1, bound.bit_length())
    mask = (1 << width) - 1
    fields = [(name, i * width) for i, name in enumerate(sorted(names))]
    offset = dict(fields)

    def pack(mono: Monomial) -> int:
        return sum(e << offset[name] for name, e in mono)

    compiled = {
        gid: [
            (offset[v], [(pack(m) - (1 << offset[v]), c) for m, c in image.terms().items()])
            for v, image in g.rules.items()
            if not image.is_zero()
        ]
        for gid, g in distinct.items()
    }

    def unpack(terms: dict[int, Rational]) -> Polynomial:
        return _from_clean({
            tuple((name, e) for name, off in fields if (e := (m >> off) & mask)): c
            for m, c in terms.items()
        })

    terms = {pack(m): c for m, c in a.terms().items()}
    out = [unpack(terms)] if every else []
    for g in steps:
        acc: dict[int, Rational] = {}
        get = acc.get
        rules = compiled[id(g)]
        for m, c in terms.items():
            for off, image in rules:
                e = (m >> off) & mask
                if e:
                    ce = c * e
                    for delta, k in image:
                        key = m + delta
                        acc[key] = get(key, 0) + ce * k
        terms = {
            m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in acc.items()
            if c
        }
        if every:
            out.append(unpack(terms))
    return out if every else [unpack(terms)]


# -- generation sequences ------------------------------------------------


def growth_bound(family: str, ones: int, twos: int) -> int:
    """Largest entry a sequence of the family may take next, after a
    prefix holding that many 1s and 2s: #b + b for the family's bounded
    entry b, so the ones bound #1s + 1 for the plain family and the twos
    bound #2s + 2 for the weighted family."""
    b = FAMILIES[family].bounded
    return (ones, twos)[b - 1] + b


def growth_sequences(family: str, length: int, offset: int = 0) -> list[tuple[int, ...]]:
    """All sequences of the family with the given length, starting with 1,
    in lexicographic order.  offset is added to every bound; the plain
    semantics started from x (rather than x*y) walks with offset -1.

    This is the last level of ``_growth_levels`` with tuple entries;
    only the last two levels are held at once.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    level = None
    for level in _growth_levels(family, length, offset, unit=tuple):
        pass
    return level


def _growth_levels(family: str, length: int, offset: int = 0, *, unit: type) -> Iterator[list]:
    """The lists of all sequences of the family of length 1, 2, ...,
    length (none if length < 1), each in lexicographic order, with
    offset added to every bound as in ``growth_sequences``.

    Built level by level: the sequences of length k + 1 are the
    lexicographically ordered length-k prefixes, each extended by every
    entry from 1 up to its bound, so the order stays lexicographic and
    nothing recurses.  unit is the type of a sequence, tuple or bytes:
    both concatenate with + and count an entry with .count, so one walk
    serves both.  The one-entry extensions are built once per count c of the
    bounded entry, when the walk reaches length c, whether or not a
    prefix holds c of them.  bytes sequences are not tracked by the
    garbage collector, but hold entries below 256 only: an extension
    above 255 makes bytes((s,)) raise ValueError, so a walk whose bound
    reaches 256 fails loudly and never wraps an entry.
    """
    b = FAMILIES[family].bounded
    top = b + offset + 1  # the growth bound is #b + b, plus the offset
    # extensions[c]: the entries 1 .. c + top - 1 open to a prefix with c entries b
    extensions = [[unit((s,)) for s in range(1, top)]]
    level = [unit((1,))]
    for k in range(1, length + 1):
        yield level
        if k < length:
            # a length-k prefix holds at most k entries b
            extensions.append([unit((s,)) for s in range(1, k + top)])
            level = [prefix + ext for prefix in level for ext in extensions[prefix.count(b)]]


@dataclass(frozen=True)
class GenSequence:
    """A generation sequence s_1..s_d with its growth bound checked:
    s_1 = 1 and 1 <= s_j <= growth_bound(family, #1s, #2s before j).

    The public constructor is the boundary and checks every input.  The
    sequences the program builds itself (from ``growth_sequences`` and
    the bijections) are valid by construction and go through the private
    ``_trusted`` builder, which checks nothing;
    tests/test_bijection_properties.py checks that each of them passes
    the public constructor unchanged."""

    entries: tuple[int, ...]
    family: str

    def __post_init__(self):
        spec = FAMILIES.get(self.family)
        if spec is None:
            raise ValueError(f"unknown sequence family {self.family!r}")
        if not self.entries or self.entries[0] != 1:
            raise ValueError("sequence must start with 1")
        ones = twos = 0
        for j, s in enumerate(self.entries):
            if j and not 1 <= s <= growth_bound(self.family, ones, twos):
                raise ValueError(f"entry {s} at position {j + 1} violates the {spec.bound_name} bound")
            ones += s == 1
            twos += s == 2

    @classmethod
    def _trusted(cls, entries: tuple[int, ...], family: str) -> "GenSequence":
        """A sequence that the caller guarantees to be of the family."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["entries"] = entries
        fields["family"] = family
        return self

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.entries)


@dataclass(frozen=True)
class GenerationRecord:
    """One generation path: its sequence, resulting monomial and weight."""

    sequence: GenSequence
    monomial: Monomial
    weight: Polynomial


def _match(g: Grammar, p_branch: bool) -> tuple[str, str, str | None] | None:
    """Recognize the rules {x -> x*y, y -> y}, or {x -> p*x + x*y, y -> y}
    with p_branch; returns the (x, y, p) letter names, p None without it."""
    for x, y in permutations(g.rules, 2):
        for p in g.rules[x].symbols() - {x, y} if p_branch else [None]:
            image = sym(x) * sym(y) + (sym(p) * sym(x) if p else Polynomial.zero())
            if g == Grammar({x: image, y: sym(y)}):
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
    spec = FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown generation family {family!r}")
    letters = _match(g, spec.p_branch)
    if letters is None:
        raise ValueError(f"grammar does not match the {spec.label} generation semantics")
    x_name, y_name, p_name = letters
    start_exps = dict(start)
    y0 = start_exps.pop(y_name, 0)
    if start_exps != {x_name: 1} or y0 not in spec.starts:
        raise ValueError(
            f"unsupported start monomial for {spec.label} semantics: {Polynomial.from_monomial(start)}"
        )
    # After the first entry, each b adds a y letter and each 3 - b takes
    # the p-branch, if there is one.  Each y letter of the start is one
    # more letter to pick, so it widens every bound by one.
    b = spec.bounded
    p = sym(p_name) if p_name else Polynomial.one()
    weights = [p**k for k in range(n + 1)]
    return [
        GenerationRecord(
            GenSequence._trusted(seq, family),
            monomial({x_name: 1, y_name: y0 + seq[1:].count(b)}),
            weights[seq[1:].count(3 - b)],
        )
        for seq in growth_sequences(family, n + 1, spec.offset + y0)
    ]


def generation_sum(records: Sequence[GenerationRecord]) -> Polynomial:
    """Sum of weight * monomial over generation records."""
    return poly_sum(rec.weight * Polynomial.from_monomial(rec.monomial) for rec in records)
