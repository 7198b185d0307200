"""Explicit bijections between contractions of (ca)^n and generation
sequences, plus the two restricted-growth sequence families they count.

Vertices of (ca)^n are numbered 1..2n; creations (black) sit at odd
positions, annihilations (white) at even positions.  "Unused white
vertices to the left" are always counted nearest-first: connecting
black 2j-1 to its k-th nearest unused white leaves exactly k-1 unused
whites strictly between the endpoints, which is the edge label used by
the inverse direction.
"""

from __future__ import annotations

from .grammar import GenSequence, P_FAMILY, STIRLING_FAMILY, growth_sequences
from .weyl import Contraction, WeylWord


def _require_ca_word(contraction: Contraction) -> int:
    letters = contraction.word.letters
    n, rem = divmod(len(letters), 2)
    if rem or letters != "ca" * n:
        raise ValueError(f"word not of (ca)^n shape: {letters!r}")
    if n == 0:
        raise ValueError("the empty word has no generation sequence (need (ca)^n with n >= 1)")
    return n


def _contraction_by_ranks(ranks: list[int]) -> Contraction:
    """Contraction of (ca)^len(ranks) built left to right: rank 0 leaves
    the j-th black vertex isolated, rank k >= 1 joins it to its k-th
    nearest unused white vertex.  The unused whites left of the current
    black vertex are kept in rising order, so the k-th nearest is the
    k-th from the end; the growth bound of a GenSequence guarantees that
    it exists."""
    unused: list[int] = []
    edges: list[tuple[int, int]] = []
    for j, rank in enumerate(ranks):
        black = 2 * j + 1
        if rank:
            edges.append((unused.pop(-rank), black))
        unused.append(black + 1)
    return Contraction(WeylWord.ca_power(len(ranks)), tuple(edges))


def seq_to_contraction_stirling(s: GenSequence) -> Contraction:
    """Contraction of (ca)^len(s) built left to right: entry 1 leaves the
    black vertex isolated, entry k >= 2 joins it to the (k-1)-st nearest
    unused white vertex."""
    if s.family != STIRLING_FAMILY:
        raise ValueError("sequence is not in the plain family")
    return _contraction_by_ranks([0 if entry == 1 else entry - 1 for entry in s.entries])


def seq_to_contraction_p(s: GenSequence) -> Contraction:
    """Contraction of (ca)^len(s): entry 2 leaves the black vertex
    isolated, entry 1 joins it to the nearest unused white (an adjacent
    edge), entry k >= 3 joins it to the (k-1)-st nearest unused white."""
    if s.family != P_FAMILY:
        raise ValueError("sequence is not in the weighted family")
    ranks = [0 if entry == 2 else 1 if entry == 1 else entry - 1 for entry in s.entries[1:]]
    return _contraction_by_ranks([0] + ranks)


def _edge_labels(contraction: Contraction) -> dict[int, int]:
    """Label the edge at each black vertex by the number of white
    vertices strictly between its endpoints that are not used by any
    earlier black vertex.

    One sweep by rising black vertex keeps the whites used so far in a
    bitmask; all of them lie left of the current black vertex, so those
    right of the edge's white are exactly the used ones between."""
    labels: dict[int, int] = {}
    used = 0
    for black, white in sorted((b, w) for w, b in contraction.edges):
        labels[black] = (black - 1 - white) // 2 - (used >> white).bit_count()
        used |= 1 << white
    return labels


def contraction_to_seq_stirling(c: Contraction) -> GenSequence:
    """Inverse of seq_to_contraction_stirling."""
    entries = [1] * _require_ca_word(c)
    for black, label in _edge_labels(c).items():
        entries[black // 2] = label + 2
    return GenSequence(tuple(entries), STIRLING_FAMILY)


def contraction_to_seq_p(c: Contraction) -> GenSequence:
    """Inverse of seq_to_contraction_p."""
    entries = [1] + [2] * (_require_ca_word(c) - 1)
    for black, label in _edge_labels(c).items():
        entries[black // 2] = label + 2 if label else 1
    return GenSequence(tuple(entries), P_FAMILY)


# The paper's names for the two restricted-growth families.
_GROWTH_FAMILIES = {"P": STIRLING_FAMILY, "Q": P_FAMILY}


def enumerate_growth_sequences(kind: str, n: int) -> list[tuple[int, ...]]:
    """All growth sequences of length n in lexicographic order.

    Kind "P": s_1 = 1 and s_j <= #{i < j : s_i = 1} + 1 (the plain family).
    Kind "Q": s_1 = 1 and 1 <= s_j <= #{i < j : s_i = 2} + 2 (the weighted family).
    """
    if kind not in _GROWTH_FAMILIES:
        raise ValueError(f"unknown growth family {kind!r}")
    return growth_sequences(_GROWTH_FAMILIES[kind], n)
