"""Normal ordering for words in a single annihilation/creation pair.

Words are strings over the letters ``a`` (annihilation, white vertex)
and ``c`` (creation, black vertex); the same word can be read as a word
in D and X, since both pairs obey the commutation rule a*c = c*a + 1.

Independent routes to the normal form are provided: rewriting
(``normal_order``, multiplying by one letter at a time with a*c = c*a + 1),
summation over contractions (``wick_sum``, counting them by number of
edges) and the contraction walker; their agreement is a core
verification target.  ``normal_order_p`` weighs each contracted adjacent
pair by p, a symbol name or an int.

Rewriting holds a prefix's normal form on one index.  Every term
c^i a^j of it has i - j = #c - #a of the prefix, so the form is one list
of coefficients indexed by j.  Each ``c`` costs one integer update per
list entry, at most #c * (#a + 1) updates for the word, and each ``a``
one list insert.

``WeylWord(...)``, ``WeylWord.parse`` and ``Contraction(...)`` are the
boundary: they check every input, from the CLI or from a library caller.
The words and contractions that this module builds itself
(``WeylWord.ca_power``, ``all_words``, ``enumerate_contractions``, and
the word that ``WeylWord.parse`` joins from checked pieces) are valid by
construction and go through each class's private ``_trusted`` builder,
which checks nothing.  So do the normal forms built from integer
tallies: ``normal_order`` and ``wick_sum`` count positive ints, and
``NormalForm._trusted`` wraps each as a constant polynomial, while the
public ``NormalForm(...)`` keeps every check.
tests/test_weyl_properties.py checks that every one of them passes the
public constructor unchanged.  ``WeylWord.parse`` reads the text with
one pattern, ``_PIECE``, checks each letter once, in its piece, and sums
the word's length from its repetition counts before it builds anything;
more than ``MAX_WORD_LETTERS`` letters is a ParseError.

The contraction walker, ``_contraction_nodes``, yields one node per
contraction.  Each node carries the contraction's sorted edges, its edge
count, its adjacent-edge count and the mask of its contracted creations.
It builds the word's candidate edges once, as one flat list, and keeps
O(pairs) memory besides its stack.  Its cost grows with the number of
contractions.  ``enumerate_contractions`` lists its nodes, and verify.py
reads it for the weyl suite's contraction counts and as the oracle of
the ``deformed`` suite.

``wick_sum`` does not walk the contractions.  Its scan,
``_used_creation_sets``, reads the letters from right to left and groups
the partial contractions by the set of creations they contract: at each
``a``, a set stays as it is or gains one unused creation to its right.
A contraction has one edge per contracted creation, so the final sets,
tallied by their size, give the normal form.  The scan holds at most
2^#c sets, one per subset of the word's creations, however many
contractions they stand for.  It shares no code with the walker or with
rewriting.

``normal_order_p`` rewrites too, on a pass of its own that keeps each
coefficient as one int for an int p, bound as the form is built, and
otherwise as a list over the powers of the symbol p.  A ``c`` right
after an ``a`` contracts that ``a``, open in every term, with weight p,
and any other open ``a`` with weight 1; every other ``c`` weighs each
open ``a`` by 1, as in ``normal_order``.  It shares no code with
rewriting, the Wick scan or the walker, so the walker's tally by
(edges, adjacent edges) is its oracle (the ``deformed`` suite in
verify.py), and tests/test_route_independence.py checks by reading this
file that the routes share no helper.
"""

from __future__ import annotations

import itertools
import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Iterator, Mapping

from .ring import (
    ONE_MONOMIAL,
    ParseError,
    Polynomial,
    _from_clean,
    monomial,
    parse_int,
    poly_sum,
    render_scaled,
)

ANNIHILATION = "a"
CREATION = "c"

# The longest word WeylWord.parse builds: 2**31 letters, 2 GiB as a str.
MAX_WORD_LETTERS = 2**31
# The word syntax, one piece a match: a run of letters; a group with an
# optional ^ and decimal count; an unclosed "("; any other character.
_PIECE = re.compile(rf"([{ANNIHILATION}{CREATION}]+)|\(([^)]*)\)(?:(\^)(\d*))?|(\()|(.)", re.S)


@dataclass(frozen=True)
class WeylWord:
    """A word over {a, c}; 1-based positions throughout."""

    letters: str

    def __post_init__(self):
        if set(self.letters) - {ANNIHILATION, CREATION}:
            raise ValueError(f"word letters must be 'a' or 'c': {self.letters!r}")

    @classmethod
    def _trusted(cls, letters: str) -> "WeylWord":
        """A word whose letters the caller guarantees to be in {a, c}.

        The fields go straight into the instance dict, where the frozen
        dataclass's __init__ would put them, and __post_init__ is skipped;
        Contraction._trusted and GenSequence._trusted do the same."""
        self = object.__new__(cls)
        self.__dict__["letters"] = letters
        return self

    @staticmethod
    def parse(text: str) -> "WeylWord":
        """Parse word syntax: letters with optional ``(...)^n`` repetition.

        One findall of _PIECE splits the text, spaces dropped and case
        folded, into pieces that are checked in order, so the first bad
        piece names the error, and the word they join is built _trusted.
        More than MAX_WORD_LETTERS letters, summed from the repetition
        counts, is a ParseError rather than an allocation."""
        pieces: list[tuple[str, int]] = []  # (letters, repetitions)
        for run, group, caret, count, unclosed, other in _PIECE.findall(text.replace(" ", "").lower()):
            if run:
                pieces.append((run, 1))
            elif unclosed:
                raise ParseError(f"unbalanced '(' in word {text!r}")
            elif other:
                raise ParseError(f"unexpected character {other!r} in word {text!r}")
            elif not group or set(group) - {ANNIHILATION, CREATION}:
                raise ParseError(f"bad group {group!r} in word {text!r}")
            elif caret and not count:
                raise ParseError(f"missing repetition count in word {text!r}")
            else:
                reps = parse_int(count, "repetition count", f" in word {text!r}") if caret else 1
                pieces.append((group, reps))
        size = sum([len(group) * reps for group, reps in pieces])
        if size > MAX_WORD_LETTERS:
            # a size of more digits than str() converts is named by its digit limit
            limit = sys.get_int_max_str_digits()
            letters = f"over 10^{limit}" if limit and size >= 10**limit else size
            raise ParseError(
                f"word {text!r} has {letters} letters, more than the limit of {MAX_WORD_LETTERS}"
            )
        return WeylWord._trusted("".join([group * reps for group, reps in pieces]))

    @staticmethod
    def ca_power(n: int) -> "WeylWord":
        """(creation annihilation)^n, the number-operator word."""
        return WeylWord._trusted("ca" * n)

    def __len__(self) -> int:
        return len(self.letters)

    def letter(self, position: int) -> str:
        return self.letters[position - 1]

    def count(self, letter: str) -> int:
        return self.letters.count(letter)

    def __str__(self) -> str:
        return self.letters


class NormalForm:
    """Normal-ordered element: map (creation power, annihilation power)
    to a coefficient polynomial in constant symbols."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Polynomial | int] | None = None):
        clean: dict[tuple[int, int], Polynomial] = {}
        if terms:
            for key, coeff in terms.items():
                poly = coeff if isinstance(coeff, Polynomial) else Polynomial.rational(coeff)
                if not poly.is_zero():
                    clean[key] = poly
        self._terms = clean

    @classmethod
    def _trusted(cls, tally: Iterable[tuple[tuple[int, int], int]]) -> "NormalForm":
        """A normal form from ((creation, annihilation), count) pairs whose
        keys the caller guarantees to be distinct and whose counts to be
        positive ints; each count is wrapped as a constant polynomial
        without the public constructor's checks."""
        self = object.__new__(cls)
        self._terms = {key: _from_clean({ONE_MONOMIAL: n}) for key, n in tally}
        return self

    @staticmethod
    def identity() -> "NormalForm":
        return NormalForm({(0, 0): 1})

    def terms(self) -> Mapping[tuple[int, int], Polynomial]:
        return self._terms

    def coefficient(self, creation: int, annihilation: int) -> Polynomial:
        return self._terms.get((creation, annihilation), Polynomial.zero())

    def sorted_terms(self) -> list[tuple[tuple[int, int], Polynomial]]:
        return sorted(self._terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (i, j), coeff in self.sorted_terms():
            factors = []
            if i:
                factors.append("c" if i == 1 else f"c^{i}")
            if j:
                factors.append("a" if j == 1 else f"a^{j}")
            parts.append(render_scaled(coeff, "*".join(factors)))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"NormalForm({self})"


@dataclass(frozen=True)
class Contraction:
    """A word plus disjoint left-to-right pairs (annihilation, creation)."""

    word: WeylWord
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple(sorted(self.edges))
        object.__setattr__(self, "edges", edges)
        letters = self.word.letters
        size = len(letters)
        seen = 0  # bit v set once vertex v is matched
        for i, j in edges:
            if not 1 <= i < j <= size:
                raise ValueError(f"edge ({i},{j}) out of range")
            if letters[i - 1] != ANNIHILATION or letters[j - 1] != CREATION:
                raise ValueError(f"edge ({i},{j}) must join an 'a' to a later 'c'")
            ends = 1 << i | 1 << j
            if seen & ends:
                raise ValueError(f"vertex reused by edge ({i},{j})")
            seen |= ends

    @classmethod
    def _trusted(cls, word: WeylWord, edges: tuple[tuple[int, int], ...]) -> "Contraction":
        """A contraction whose edges the caller guarantees to be sorted,
        disjoint and each from an 'a' to a later 'c' of the word."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["word"] = word
        fields["edges"] = edges
        return self

    def __str__(self) -> str:
        edge_text = ",".join(f"({i},{j})" for i, j in self.edges)
        return f"{self.word}; edges={edge_text}"


@dataclass(frozen=True)
class ContractionStats:
    edge_count: int
    adjacent_edge_count: int
    degree0_black_count: int
    degree0_white_count: int


_Node = tuple[tuple[tuple[int, int], ...], int, int, int, int]


def _contraction_nodes(letters: str) -> Iterator[_Node]:
    """One node per contraction of the word, in lexicographic order of
    the sorted edges: a stack walk of the trie of edge lists that adds
    edges by rising annihilation.  A node is (sorted edges, edge count,
    adjacent-edge count, mask of used creations, candidate end).

    The candidate edges are built once, as one flat list with the latest
    annihilation first, so the candidates of the annihilations after a
    node's last edge are the list's first ``end`` entries.  The list is
    O(pairs); a tail list per starting candidate would be O(pairs^2).
    Its callers are ``enumerate_contractions`` and verify.py's weyl and
    deformed suites; ``wick_sum`` counts by ``_used_creation_sets``.
    """
    creations = [j for j, ch in enumerate(letters, start=1) if ch == CREATION]
    annihilations = [i for i, ch in enumerate(letters, start=1) if ch == ANNIHILATION]
    # (edge, its creation's bit, adjacent?, candidate end after its annihilation)
    candidates: list[tuple[tuple[int, int], int, bool, int]] = []
    for i in reversed(annihilations):
        end = len(candidates)
        candidates += [((i, j), 1 << j, j == i + 1, end) for j in reversed(creations) if j > i]
    stack = [((), 0, 0, 0, len(candidates))]
    push = stack.append
    while stack:
        node = stack.pop()
        yield node
        edges, count, adjacent, used, end = node
        count += 1
        # latest candidate pushed first, so the earliest pops first
        for edge, bit, adj, next_end in candidates[:end]:
            if not used & bit:
                push((edges + (edge,), count, adjacent + adj, used | bit, next_end))


def enumerate_contractions(word: WeylWord) -> list[Contraction]:
    """All contractions of a word, null contraction included, ordered
    lexicographically by their sorted edge lists."""
    build = Contraction._trusted
    return [build(word, node[0]) for node in _contraction_nodes(word.letters)]


def contraction_stats(contraction: Contraction) -> ContractionStats:
    """Edge count, adjacent-edge count and isolated vertices of each
    colour, read off the edges: each edge matches one vertex of each."""
    edges = contraction.edges
    word = contraction.word
    count = len(edges)
    adjacent = sum(j == i + 1 for i, j in edges)
    return ContractionStats(
        count, adjacent, word.count(CREATION) - count, word.count(ANNIHILATION) - count
    )


def _used_creation_sets(letters: str) -> dict[int, int]:
    """{mask of contracted creations: contractions that contract exactly
    them}, a creation at position j being bit 1 << j, as in the walker.

    One scan from the last letter to the first.  ``seen`` holds the bits
    of the creations scanned so far, each later than any ``a`` still to
    come.  At an ``a`` every set either keeps it isolated (the set is
    copied) or contracts it with one creation of ``seen`` not in the set.
    Each contraction is counted once, in the set of its own creations,
    so the scan's cost follows the number of distinct sets, at most
    2^#c, and not the number of contractions."""
    sets = {0: 1}
    seen: list[int] = []
    for j in range(len(letters), 0, -1):
        if letters[j - 1] == CREATION:
            seen.append(1 << j)
            continue
        step = dict(sets)
        get = step.get
        for used, n in sets.items():
            for bit in seen:
                if not used & bit:
                    key = used | bit
                    step[key] = get(key, 0) + n
        sets = step
    return sets


def wick_sum(word: WeylWord) -> NormalForm:
    """Normal form as the sum of double-dot images over all contractions:
    c^(#c - e) a^(#a - e) counts the contractions with e edges, one edge
    per contracted creation."""
    counts: Counter[int] = Counter()
    for used, n in _used_creation_sets(word.letters).items():
        counts[used.bit_count()] += n
    creations, annihilations = word.count(CREATION), word.count(ANNIHILATION)
    return NormalForm._trusted(((creations - e, annihilations - e), n) for e, n in counts.items())


def normal_order_p(word: WeylWord, p: str | int = "p") -> NormalForm:
    """Deformed normal form: each contracted adjacent pair weighs p, a
    symbol name or an int, and non-adjacent pairs weigh 1.

    Rewriting with weights, on its own pass: coeffs[j] is the coefficient
    of c^(j + #c - #a) a^j in the prefix's form, an int for an int p, and
    for a symbol a list whose entry t is the coefficient of p^t.  An ``a``
    inserts a zero coefficient at index 0.  A ``c`` contracts one of the
    j + 1 open annihilations of c^i a^(j+1), so coeffs[j] += (j + 1) *
    coeffs[j + 1].  Right after an ``a``, that ``a`` is open in every term
    and its pair with the ``c`` is adjacent: it weighs p and each of the
    other j weighs 1, so coeffs[j] += (j + p) * coeffs[j + 1].  A word
    costs at most #c * (#a + 1) updates, of one int each for an int p, or
    over the powers p^0..p^m, m the number of adjacent pairs ``ac``."""
    integer = isinstance(p, int)
    coeffs: list = [1] if integer else [[1]]
    adjacent = False  # the letter before is an a
    for letter in word.letters:
        if letter == ANNIHILATION:
            coeffs.insert(0, 0 if integer else [])
            adjacent = True
            continue
        if integer:
            weight = p if adjacent else 1
            for j in range(len(coeffs) - 1):
                coeffs[j] += (j + weight) * coeffs[j + 1]
        else:
            for j in range(len(coeffs) - 1):
                above = coeffs[j + 1]
                if adjacent:  # (j + p) * above, term by term: j * above[t] + above[t - 1]
                    step = [j * n + m for n, m in zip(above, [0] + above)] + above[-1:]
                else:
                    step = [(j + 1) * n for n in above]
                coeffs[j] = [n + m for n, m in itertools.zip_longest(coeffs[j], step, fillvalue=0)]
        adjacent = False
    shift = word.count(CREATION) - word.count(ANNIHILATION)
    polys = coeffs if integer else [Polynomial({monomial({p: t}): n for t, n in enumerate(row) if n}) for row in coeffs]
    return NormalForm({(j + shift, j): poly for j, poly in enumerate(polys)})


# Whole words only: the rewriting itself keeps no memo, and the cache
# stays an lru_cache because benchmark traces read its cache_info().
@lru_cache(maxsize=None)
def _rewrite_terms(letters: str) -> tuple[tuple[tuple[int, int], int], ...]:
    """Right-multiply the normal form by one letter at a time:
    c^i a^j * a = c^i a^(j+1) and c^i a^j * c = c^(i+1) a^j + j c^i a^(j-1).

    Every term of a prefix's normal form has i - j = #c - #a of that
    prefix, so the form is one list: coeffs[j] is the coefficient of
    c^(j + #c - #a) a^j.  An ``a`` shifts the list up by one index; a
    ``c`` is one ascending pass, coeffs[j] += (j + 1) * coeffs[j + 1].
    A word costs at most #c * (#a + 1) integer updates and #a list
    inserts.  Entries whose creation power would be negative stay 0."""
    coeffs = [1]
    for letter in letters:
        if letter == ANNIHILATION:
            coeffs.insert(0, 0)
            continue
        for j in range(len(coeffs) - 1):
            coeffs[j] += (j + 1) * coeffs[j + 1]
    shift = letters.count(CREATION) - letters.count(ANNIHILATION)
    return tuple([((j + shift, j), n) for j, n in enumerate(coeffs) if n])


def normal_order(word: WeylWord) -> NormalForm:
    """Normal form by rewriting the word left to right with
    a*c = c*a + 1; coefficients are nonnegative integers."""
    return NormalForm._trusted(_rewrite_terms(word.letters))


def nf_multiply(a: NormalForm, b: NormalForm) -> NormalForm:
    """Product of normal forms, re-normal-ordered.

    Uses a^j c^k = sum_m m! C(j,m) C(k,m) c^(k-m) a^(j-m).
    """
    parts: dict[tuple[int, int], list[Polynomial]] = {}
    for (i, j), ca in a.terms().items():
        for (k, l), cb in b.terms().items():
            coeff = ca * cb
            for m in range(min(j, k) + 1):
                scale = factorial(m) * comb(j, m) * comb(k, m)
                parts.setdefault((i + k - m, j + l - m), []).append(coeff.scale(scale))
    return NormalForm({key: poly_sum(ps) for key, ps in parts.items()})


def all_words(length: int) -> Iterable[WeylWord]:
    """All 2^length words of the given length, in lexicographic order."""
    for letters in itertools.product(ANNIHILATION + CREATION, repeat=length):
        yield WeylWord._trusted("".join(letters))
