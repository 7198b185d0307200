"""Tests for the contraction <-> sequence bijections and the two
restricted-growth families."""

import pytest

from weylgram.bijections import (
    contraction_to_seq_p,
    contraction_to_seq_stirling,
    enumerate_growth_sequences,
    seq_to_contraction_p,
    seq_to_contraction_stirling,
)
from weylgram.grammar import GenSequence, P_FAMILY, STIRLING_FAMILY
from weylgram.numbers import bell, stirling2
from weylgram.weyl import (
    Contraction,
    WeylWord,
    contraction_stats,
    enumerate_contractions,
)

# Every pair (sequence, edge set) for the 15 contractions of (ca)^4 under
# the weighted-family rules; frozen from an exhaustive hand construction.
WEIGHTED_PAIRS_N4 = {
    (1, 1, 1, 1): ((2, 3), (4, 5), (6, 7)),
    (1, 1, 1, 2): ((2, 3), (4, 5)),
    (1, 1, 2, 1): ((2, 3), (6, 7)),
    (1, 1, 2, 2): ((2, 3),),
    (1, 1, 2, 3): ((2, 3), (4, 7)),
    (1, 2, 1, 1): ((4, 5), (6, 7)),
    (1, 2, 1, 2): ((4, 5),),
    (1, 2, 1, 3): ((2, 7), (4, 5)),
    (1, 2, 2, 1): ((6, 7),),
    (1, 2, 2, 2): (),
    (1, 2, 2, 3): ((4, 7),),
    (1, 2, 2, 4): ((2, 7),),
    (1, 2, 3, 1): ((2, 5), (6, 7)),
    (1, 2, 3, 2): ((2, 5),),
    (1, 2, 3, 3): ((2, 5), (4, 7)),
}


def _p_seq(*entries):
    return GenSequence(tuple(entries), P_FAMILY)


def _plain_seq(*entries):
    return GenSequence(tuple(entries), STIRLING_FAMILY)


def test_plain_examples():
    assert seq_to_contraction_stirling(_plain_seq(1, 1, 1)).edges == ()
    assert seq_to_contraction_stirling(_plain_seq(1, 2, 2)).edges == ((2, 3), (4, 5))
    single = seq_to_contraction_stirling(_plain_seq(1))
    assert single.word == WeylWord.ca_power(1) and single.edges == ()


def test_plain_inverse_examples():
    word3 = WeylWord.ca_power(3)
    assert contraction_to_seq_stirling(Contraction(word3, ())).entries == (1, 1, 1)
    one_edge = Contraction(WeylWord.ca_power(2), ((2, 3),))
    assert contraction_to_seq_stirling(one_edge).entries == (1, 2)


def test_empty_word_has_no_sequence():
    # (ca)^0 has no generation sequence: the shortest one, (1), is (ca)^1.
    empty = Contraction(WeylWord(""), ())
    for to_seq in (contraction_to_seq_stirling, contraction_to_seq_p):
        with pytest.raises(ValueError, match="^the empty word has no generation sequence "):
            to_seq(empty)


def test_plain_multiset_at_length_three():
    # (ca)^3: one contraction with no edges, three with one, one with two
    sequences = sorted(
        contraction_to_seq_stirling(c).entries
        for c in enumerate_contractions(WeylWord.ca_power(3))
    )
    assert sequences == [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2)]


def test_weighted_examples():
    c = seq_to_contraction_p(_p_seq(1, 2, 1, 3))
    assert c.edges == ((2, 7), (4, 5))
    stats = contraction_stats(c)
    assert stats.adjacent_edge_count == 1
    assert stats.edge_count - stats.adjacent_edge_count == 1
    assert stats.degree0_black_count - 1 == 1  # one 2 in the sequence

    assert seq_to_contraction_p(_p_seq(1, 2, 2, 2)).edges == ()
    assert seq_to_contraction_p(_p_seq(1, 1, 1, 1)).edges == ((2, 3), (4, 5), (6, 7))


def test_weighted_reference_table():
    for entries, edges in WEIGHTED_PAIRS_N4.items():
        assert seq_to_contraction_p(_p_seq(*entries)).edges == edges
    recovered = {
        contraction_to_seq_p(c).entries: c.edges
        for c in enumerate_contractions(WeylWord.ca_power(4))
    }
    assert recovered == WEIGHTED_PAIRS_N4


def test_weighted_null_contraction():
    for n in range(1, 7):
        null = Contraction(WeylWord.ca_power(n), ())
        assert contraction_to_seq_p(null).entries == (1,) + (2,) * (n - 1)


def reference_contraction_by_ranks(ranks):
    """The rank walk before it kept a list of unused whites: count down
    the unused whites left of each black vertex, nearest first."""
    used = 0
    edges = []
    for j, rank in enumerate(ranks, start=1):
        if not rank:
            continue
        black = 2 * j - 1
        for white in range(black - 1, 0, -2):
            if not used >> white & 1:
                rank -= 1
                if not rank:
                    break
        used |= 1 << white
        edges.append((white, black))
    return Contraction(WeylWord.ca_power(len(ranks)), tuple(edges))


def test_round_trips_exhaustive():
    for n in range(1, 9):
        for c in enumerate_contractions(WeylWord.ca_power(n)):
            assert seq_to_contraction_stirling(contraction_to_seq_stirling(c)) == c
            assert seq_to_contraction_p(contraction_to_seq_p(c)) == c
        for entries in enumerate_growth_sequences("P", n):
            s = GenSequence(entries, STIRLING_FAMILY)
            c = seq_to_contraction_stirling(s)
            assert c == reference_contraction_by_ranks([0 if e == 1 else e - 1 for e in entries])
            assert contraction_to_seq_stirling(c) == s
        for entries in enumerate_growth_sequences("Q", n):
            s = GenSequence(entries, P_FAMILY)
            c = seq_to_contraction_p(s)
            ranks = [0] + [0 if e == 2 else 1 if e == 1 else e - 1 for e in entries[1:]]
            assert c == reference_contraction_by_ranks(ranks)
            assert contraction_to_seq_p(c) == s


def _reference_labels(contraction):
    # each edge's label: the whites strictly between its endpoints that no
    # edge at an earlier black vertex uses
    labels = {}
    for white, black in contraction.edges:
        used_earlier = {w for w, b in contraction.edges if b < black}
        labels[black] = sum(1 for u in range(white + 2, black, 2) if u not in used_earlier)
    return labels


def test_sequences_match_reference_labelling():
    for n in range(1, 9):
        for c in enumerate_contractions(WeylWord.ca_power(n)):
            labels = _reference_labels(c)
            plain, weighted = [1], [1]
            for black in range(3, 2 * n, 2):
                label = labels.get(black)
                plain.append(1 if label is None else label + 2)
                weighted.append(2 if label is None else 1 if label == 0 else label + 2)
            assert contraction_to_seq_stirling(c) == _plain_seq(*plain)
            assert contraction_to_seq_p(c) == _p_seq(*weighted)
            assert seq_to_contraction_stirling(_plain_seq(*plain)) == c
            assert seq_to_contraction_p(_p_seq(*weighted)) == c


def test_statistic_transport():
    for n in range(1, 7):
        for c in enumerate_contractions(WeylWord.ca_power(n)):
            stats = contraction_stats(c)
            entries = contraction_to_seq_p(c).entries
            assert sum(1 for s in entries[1:] if s == 1) == stats.adjacent_edge_count
            # the leftmost creation vertex is isolated in every contraction,
            # so the sequence sees one fewer isolated creation vertex
            assert sum(1 for s in entries[1:] if s == 2) == stats.degree0_black_count - 1


def test_word_shape_is_checked():
    skewed = Contraction(WeylWord("acac"), ((1, 2),))
    for to_seq in (contraction_to_seq_stirling, contraction_to_seq_p):
        with pytest.raises(ValueError, match=r"^word not of \(ca\)\^n shape: 'acac'$"):
            to_seq(skewed)
    with pytest.raises(ValueError, match="^sequence is not in the weighted family$"):
        seq_to_contraction_p(_plain_seq(1, 1))
    with pytest.raises(ValueError, match="^sequence is not in the plain family$"):
        seq_to_contraction_stirling(_p_seq(1, 2))


def test_growth_family_examples():
    p3 = enumerate_growth_sequences("P", 3)
    assert len(p3) == 5
    ones = [sum(1 for e in s if e == 1) for s in p3]
    assert sorted(ones) == [1, 2, 2, 2, 3]
    assert enumerate_growth_sequences("Q", 2) == [(1, 1), (1, 2)]
    assert enumerate_growth_sequences("P", 1) == [(1,)]
    with pytest.raises(ValueError, match="^unknown growth family 'R'$"):
        enumerate_growth_sequences("R", 3)
    for kind in ("P", "Q"):
        with pytest.raises(ValueError, match="^length must be >= 1$"):
            enumerate_growth_sequences(kind, 0)


def test_growth_families_count_partitions():
    for n in range(1, 10):
        p_seqs = enumerate_growth_sequences("P", n)
        q_seqs = enumerate_growth_sequences("Q", n)
        assert len(p_seqs) == bell(n)
        assert len(q_seqs) == bell(n)
        for k in range(1, n + 1):
            assert sum(1 for s in p_seqs if sum(e == 1 for e in s) == k) == stirling2(n, k)
        # sequences with k twos match the triangle one column over: the
        # count of contractions with k+1 isolated creation vertices
        for k in range(n):
            assert sum(1 for s in q_seqs if sum(e == 2 for e in s) == k) == stirling2(n, k + 1)


def test_enumeration_is_lexicographic():
    for kind in ("P", "Q"):
        seqs = enumerate_growth_sequences(kind, 5)
        assert seqs == sorted(seqs)
