"""Normal ordering for words in a single annihilation/creation pair.

Words are strings over the letters ``a`` (annihilation, white vertex)
and ``c`` (creation, black vertex); the same word can be read as a word
in D and X, since both pairs obey the commutation rule a*c = c*a + 1.

Two independent routes to the normal form are provided: rewriting
(``normal_order``, multiplying by one letter at a time with a*c = c*a + 1)
and summation over contractions (``wick_sum``, counting them by number
of edges); their agreement is a core verification target.
``normal_order_p`` weighs each contracted adjacent pair by a symbol p.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Iterator, Mapping

from .ring import Monomial, ParseError, Polynomial, monomial, render_scaled

ANNIHILATION = "a"
CREATION = "c"


@dataclass(frozen=True)
class WeylWord:
    """A word over {a, c}; 1-based positions throughout."""

    letters: str

    def __post_init__(self):
        if set(self.letters) - {ANNIHILATION, CREATION}:
            raise ValueError(f"word letters must be 'a' or 'c': {self.letters!r}")

    @staticmethod
    def parse(text: str) -> "WeylWord":
        """Parse word syntax: letters with optional ``(...)^n`` repetition."""
        s = text.replace(" ", "").lower()
        out: list[str] = []
        i = 0
        while i < len(s):
            ch = s[i]
            if ch in (ANNIHILATION, CREATION):
                out.append(ch)
                i += 1
            elif ch == "(":
                close = s.find(")", i)
                if close == -1:
                    raise ParseError(f"unbalanced '(' in word {text!r}")
                group = s[i + 1 : close]
                if not group or set(group) - {ANNIHILATION, CREATION}:
                    raise ParseError(f"bad group {group!r} in word {text!r}")
                i = close + 1
                reps = 1
                if i < len(s) and s[i] == "^":
                    i += 1
                    start = i
                    while i < len(s) and s[i].isdigit():
                        i += 1
                    if start == i:
                        raise ParseError(f"missing repetition count in word {text!r}")
                    reps = int(s[start:i])
                out.append(group * reps)
            else:
                raise ParseError(f"unexpected character {ch!r} in word {text!r}")
        return WeylWord("".join(out))

    @staticmethod
    def ca_power(n: int) -> "WeylWord":
        """(creation annihilation)^n, the number-operator word."""
        return WeylWord("ca" * n)

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

    @staticmethod
    def identity() -> "NormalForm":
        return NormalForm({(0, 0): 1})

    def terms(self) -> Mapping[tuple[int, int], Polynomial]:
        return self._terms

    def coefficient(self, creation: int, annihilation: int) -> Polynomial:
        return self._terms.get((creation, annihilation), Polynomial.zero())

    def substitute(self, name: str, value: Polynomial | int) -> "NormalForm":
        return NormalForm(
            {key: coeff.substitute(name, value) for key, coeff in self._terms.items()}
        )

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
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        seen: set[int] = set()
        for i, j in self.edges:
            if not 1 <= i < j <= len(self.word):
                raise ValueError(f"edge ({i},{j}) out of range")
            if self.word.letter(i) != ANNIHILATION or self.word.letter(j) != CREATION:
                raise ValueError(f"edge ({i},{j}) must join an 'a' to a later 'c'")
            if i in seen or j in seen:
                raise ValueError(f"vertex reused by edge ({i},{j})")
            seen.update((i, j))

    def __str__(self) -> str:
        edge_text = ",".join(f"({i},{j})" for i, j in self.edges)
        return f"{self.word}; edges={edge_text}"


@dataclass(frozen=True)
class ContractionStats:
    edge_count: int
    adjacent_edge_count: int
    degree0_black_count: int
    degree0_white_count: int


def _edge_tuples(letters: str) -> Iterator[tuple[tuple[int, int], ...]]:
    """Each contraction's sorted edges, in lexicographic order: a stack
    walk of the trie of edge lists, adding edges by rising annihilation."""
    creations = [p for p, ch in enumerate(letters, start=1) if ch == CREATION]
    pairs: list[tuple[int, int, int]] = []  # (a, later c, first pair of the next a)
    for i, ch in enumerate(letters, start=1):
        if ch == ANNIHILATION:
            later = [j for j in creations if j > i]
            pairs += [(i, j, len(pairs) + len(later)) for j in later]
    stack = [((), 0, 0)]
    while stack:
        edges, used, start = stack.pop()
        yield edges
        for k in range(len(pairs) - 1, start - 1, -1):
            i, j, next_start = pairs[k]
            if not used >> j & 1:
                stack.append((edges + ((i, j),), used | 1 << j, next_start))


def enumerate_contractions(word: WeylWord) -> list[Contraction]:
    """All contractions of a word, null contraction included, ordered
    lexicographically by their sorted edge lists."""
    return [Contraction(word, edges) for edges in _edge_tuples(word.letters)]


def contraction_stats(contraction: Contraction) -> ContractionStats:
    word = contraction.word
    matched = {v for edge in contraction.edges for v in edge}
    adjacent = sum(1 for i, j in contraction.edges if j == i + 1)
    degree0_black = sum(
        1
        for p in range(1, len(word) + 1)
        if word.letter(p) == CREATION and p not in matched
    )
    degree0_white = sum(
        1
        for p in range(1, len(word) + 1)
        if word.letter(p) == ANNIHILATION and p not in matched
    )
    return ContractionStats(len(contraction.edges), adjacent, degree0_black, degree0_white)


def _double_dot_key(word: WeylWord, edge_count: int) -> tuple[int, int]:
    # Deleting the contracted letters and sorting creation-first leaves
    # (#c - edges) creations and (#a - edges) annihilations.
    return (word.count(CREATION) - edge_count, word.count(ANNIHILATION) - edge_count)


def wick_sum(word: WeylWord) -> NormalForm:
    """Normal form as the sum of double-dot images over all contractions:
    c^(#c - e) a^(#a - e) counts the contractions with e edges."""
    counts = Counter(len(edges) for edges in _edge_tuples(word.letters))
    return NormalForm({_double_dot_key(word, e): n for e, n in counts.items()})


def normal_order_p(word: WeylWord, p: str = "p") -> NormalForm:
    """Deformed normal form: each contracted adjacent pair weighs p,
    non-adjacent pairs weigh 1."""
    edges_adjacent = ((len(e), sum(j == i + 1 for i, j in e)) for e in _edge_tuples(word.letters))
    terms: dict[tuple[int, int], dict[Monomial, int]] = {}
    for (e, adjacent), n in Counter(edges_adjacent).items():
        terms.setdefault(_double_dot_key(word, e), {})[monomial({p: adjacent})] = n
    return NormalForm({key: Polynomial(weights) for key, weights in terms.items()})


# Whole words only: the rewriting itself keeps no memo, and the cache
# stays an lru_cache because benchmark traces read its cache_info().
@lru_cache(maxsize=None)
def _rewrite_terms(letters: str) -> tuple[tuple[tuple[int, int], int], ...]:
    """Right-multiply the normal form by one letter at a time:
    c^i a^j * a = c^i a^(j+1) and c^i a^j * c = c^(i+1) a^j + j c^i a^(j-1)."""
    terms = {(0, 0): 1}
    for letter in letters:
        if letter == ANNIHILATION:
            terms = {(i, j + 1): coeff for (i, j), coeff in terms.items()}
            continue
        product: dict[tuple[int, int], int] = {}
        for (i, j), coeff in terms.items():
            product[i + 1, j] = product.get((i + 1, j), 0) + coeff
            if j:
                product[i, j - 1] = product.get((i, j - 1), 0) + j * coeff
        terms = product
    return tuple(sorted(terms.items()))


def normal_order(word: WeylWord) -> NormalForm:
    """Normal form by rewriting the word left to right with
    a*c = c*a + 1; coefficients are nonnegative integers."""
    return NormalForm(dict(_rewrite_terms(word.letters)))


def nf_multiply(a: NormalForm, b: NormalForm) -> NormalForm:
    """Product of normal forms, re-normal-ordered.

    Uses a^j c^k = sum_m m! C(j,m) C(k,m) c^(k-m) a^(j-m).
    """
    terms: dict[tuple[int, int], Polynomial] = {}
    for (i, j), ca in a.terms().items():
        for (k, l), cb in b.terms().items():
            coeff = ca * cb
            for m in range(min(j, k) + 1):
                key = (i + k - m, j + l - m)
                scale = factorial(m) * comb(j, m) * comb(k, m)
                acc = terms.get(key, Polynomial.zero()) + coeff.scale(scale)
                terms[key] = acc
    return NormalForm(terms)


def all_words(length: int) -> Iterable[WeylWord]:
    """All 2^length words of the given length, in lexicographic order."""
    if length == 0:
        yield WeylWord("")
        return
    for bits in range(2**length):
        letters = "".join(
            CREATION if (bits >> (length - 1 - pos)) & 1 else ANNIHILATION
            for pos in range(length)
        )
        yield WeylWord(letters)
