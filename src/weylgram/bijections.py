"""Explicit bijections between contractions of (ca)^n and generation
sequences, plus the two restricted-growth sequence families they count.

Vertices of (ca)^n are numbered 1..2n; creations (black) sit at odd
positions, annihilations (white) at even positions.  "Unused white
vertices to the left" are always counted nearest-first: connecting
black 2j-1 to its k-th nearest unused white leaves exactly k-1 unused
whites strictly between the endpoints, which is the edge label used by
the inverse direction.

Both directions trust their argument: a Contraction or GenSequence has
been checked by its public constructor, or was built by the program and
is valid by construction.  The objects built here go through the private
``_trusted`` builders and are not checked again; the property tests in
tests/test_bijection_properties.py check that each of them passes its
validating public constructor unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .grammar import FAMILIES, GenSequence, P_FAMILY, STIRLING_FAMILY, growth_sequences
from .weyl import Contraction, WeylWord

# The contractions built from sequences of one length share one word, so
# the word is not rebuilt per contraction.  It stays because it pays: a hit
# costs about 0.07 us against 0.5-0.6 us for WeylWord.ca_power(8)
# (Python 3.11, 2 shared vCPUs), and one pass of the benchmark's oracles
# workload makes 10,034 to_contraction calls.
_ca_word = lru_cache(maxsize=64)(WeylWord.ca_power)


def _require_ca_word(contraction: Contraction) -> int:
    # n non-overlapping "ca" tile a word of 2n letters only if it is (ca)^n.
    letters = contraction.word.letters
    n = letters.count("ca")
    if 2 * n != len(letters):
        raise ValueError(f"word not of (ca)^n shape: {letters!r}")
    if n == 0:
        raise ValueError("the empty word has no generation sequence (need (ca)^n with n >= 1)")
    return n


def _contraction_of(s: GenSequence) -> Contraction:
    """Contraction of (ca)^len(s) built left to right: the family's
    bounded entry at index j (from 0) leaves black vertex 2j+1
    isolated, any other entry k joins it to its max(k-1, 1)-st nearest
    unused white vertex.  The
    first entry, always 1, leaves the first black vertex isolated.

    The unused whites are kept in rising order.  Those left of black
    2j+1 are the first j - (edges so far) of them, so the k-th nearest
    sits k places before that end; the growth bound of a GenSequence
    guarantees that it exists.  The edges come by rising black and are
    sorted once, by white, at the end."""
    isolated = FAMILIES[s.family].bounded
    entries = s.entries
    whites = list(range(2, 2 * len(entries) + 1, 2))
    edges = []
    for j, k in enumerate(entries):
        if k != isolated and j:
            edges.append((whites.pop(j - len(edges) - (k - 1 or 1)), 2 * j + 1))
    edges.sort()
    return Contraction._trusted(_ca_word(len(entries)), tuple(edges))


def seq_to_contraction_stirling(s: GenSequence) -> Contraction:
    """Contraction of (ca)^len(s) built left to right: entry 1 leaves the
    black vertex isolated, entry k >= 2 joins it to the (k-1)-st nearest
    unused white vertex."""
    if s.family != STIRLING_FAMILY:
        raise ValueError("sequence is not in the plain family")
    return _contraction_of(s)


def seq_to_contraction_p(s: GenSequence) -> Contraction:
    """Contraction of (ca)^len(s): entry 2 leaves the black vertex
    isolated, entry 1 joins it to the nearest unused white (an adjacent
    edge), entry k >= 3 joins it to the (k-1)-st nearest unused white."""
    if s.family != P_FAMILY:
        raise ValueError("sequence is not in the weighted family")
    return _contraction_of(s)


def _sequence_of(c: Contraction, family: str) -> GenSequence:
    """The family's sequence of a contraction of (ca)^n.  Each edge is
    labelled by the number of white vertices strictly between its
    endpoints that no earlier black vertex uses; the entry at its black
    vertex is label + 2, or the adjacent-edge entry 3 - b for label 0,
    where b, the family's bounded entry, marks an isolated black vertex.

    A white w' between the endpoints (w, b) is used by an earlier black
    exactly when its edge (w', b') nests inside, b' < b.  So one sweep of
    the edges, sorted by white, from the last one back keeps the blacks
    of the edges seen so far (all with a later white) in a bitmask and
    subtracts those below b; nothing is sorted."""
    isolated = FAMILIES[family].bounded
    adjacent = 3 - isolated
    entries = [1] + [isolated] * (_require_ca_word(c) - 1)
    later = 0
    for white, black in reversed(c.edges):
        label = (black - 1 - white) // 2 - (later & ((1 << black) - 1)).bit_count()
        entries[black // 2] = label + 2 if label else adjacent
        later |= 1 << black
    return GenSequence._trusted(tuple(entries), family)


def contraction_to_seq_stirling(c: Contraction) -> GenSequence:
    """Inverse of seq_to_contraction_stirling."""
    return _sequence_of(c, STIRLING_FAMILY)


def contraction_to_seq_p(c: Contraction) -> GenSequence:
    """Inverse of seq_to_contraction_p."""
    return _sequence_of(c, P_FAMILY)


def family_bijections(family: str) -> tuple[Callable, Callable]:
    """The family's (seq_to_contraction_*, contraction_to_seq_*) pair,
    read from this module when called, so that a wrapper set on either
    name is the function returned."""
    suffix = FAMILIES[family].suffix
    return globals()["seq_to_contraction_" + suffix], globals()["contraction_to_seq_" + suffix]


def enumerate_growth_sequences(kind: str, n: int) -> list[tuple[int, ...]]:
    """All growth sequences of length n in lexicographic order.

    Kind "P": s_1 = 1 and s_j <= #{i < j : s_i = 1} + 1 (the plain family).
    Kind "Q": s_1 = 1 and 1 <= s_j <= #{i < j : s_i = 2} + 2 (the weighted family).
    """
    family = next((name for name, spec in FAMILIES.items() if spec.letter == kind), None)
    if family is None:
        raise ValueError(f"unknown growth family {kind!r}")
    return growth_sequences(family, n)
