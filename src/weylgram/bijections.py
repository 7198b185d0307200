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
    return n


def _unused_whites_before(black: int, used: set[int]) -> list[int]:
    """Unused white (even) positions left of a black vertex, nearest first."""
    return [w for w in range(black - 1, 0, -2) if w not in used]


def seq_to_contraction_stirling(s: GenSequence) -> Contraction:
    """Contraction of (ca)^len(s) built left to right: entry 1 leaves the
    black vertex isolated, entry k >= 2 joins it to the (k-1)-st nearest
    unused white vertex."""
    if s.family != STIRLING_FAMILY:
        raise ValueError("sequence is not in the plain family")
    used: set[int] = set()
    edges: list[tuple[int, int]] = []
    for j, entry in enumerate(s.entries[1:], start=2):
        if entry == 1:
            continue
        black = 2 * j - 1
        whites = _unused_whites_before(black, used)
        white = whites[entry - 2]
        used.add(white)
        edges.append((white, black))
    return Contraction(WeylWord.ca_power(len(s.entries)), tuple(edges))


def seq_to_contraction_p(s: GenSequence) -> Contraction:
    """Contraction of (ca)^len(s): entry 2 leaves the black vertex
    isolated, entry 1 joins it to the nearest unused white (an adjacent
    edge), entry k >= 3 joins it to the (k-1)-st nearest unused white."""
    if s.family != P_FAMILY:
        raise ValueError("sequence is not in the weighted family")
    used: set[int] = set()
    edges: list[tuple[int, int]] = []
    for j, entry in enumerate(s.entries[1:], start=2):
        if entry == 2:
            continue
        black = 2 * j - 1
        whites = _unused_whites_before(black, used)
        white = whites[0] if entry == 1 else whites[entry - 2]
        used.add(white)
        edges.append((white, black))
    return Contraction(WeylWord.ca_power(len(s.entries)), tuple(edges))


def _edge_labels(contraction: Contraction) -> dict[int, int]:
    """Label the edge at each black vertex by the number of white
    vertices strictly between its endpoints that are not used by any
    earlier black vertex."""
    white_of = {black: white for white, black in contraction.edges}
    labels: dict[int, int] = {}
    for black, white in white_of.items():
        used_earlier = {w for w, b in contraction.edges if b < black}
        label = sum(
            1
            for u in range(white + 2, black, 2)
            if u not in used_earlier
        )
        labels[black] = label
    return labels


def contraction_to_seq_stirling(c: Contraction) -> GenSequence:
    """Inverse of seq_to_contraction_stirling."""
    n = _require_ca_word(c)
    labels = _edge_labels(c)
    entries = [1]
    for j in range(2, n + 1):
        black = 2 * j - 1
        entries.append(1 if black not in labels else labels[black] + 2)
    return GenSequence(tuple(entries), STIRLING_FAMILY)


def contraction_to_seq_p(c: Contraction) -> GenSequence:
    """Inverse of seq_to_contraction_p."""
    n = _require_ca_word(c)
    labels = _edge_labels(c)
    entries = [1]
    for j in range(2, n + 1):
        black = 2 * j - 1
        if black not in labels:
            entries.append(2)
        elif labels[black] == 0:
            entries.append(1)
        else:
            entries.append(labels[black] + 2)
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
