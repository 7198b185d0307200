"""Tests for normal ordering, contractions and the deformed weighting."""

import random
from collections import Counter

import pytest

from weylgram.numbers import bell, stirling2, stirling_p
from weylgram.ring import sym
from weylgram.weyl import (
    Contraction,
    ContractionStats,
    NormalForm,
    WeylWord,
    _rewrite_terms,
    all_words,
    contraction_stats,
    enumerate_contractions,
    nf_multiply,
    normal_order,
    normal_order_p,
    wick_sum,
)

P = sym("p")


def test_word_parsing():
    assert WeylWord.parse("(ca)^3").letters == "cacaca"
    assert WeylWord.parse("aa(ca)^2c").letters == "aacacac"
    assert WeylWord.parse("CA").letters == "ca"
    with pytest.raises(ValueError):
        WeylWord.parse("(ca")
    with pytest.raises(ValueError):
        WeylWord("xyz")


def test_normal_order_commutator():
    assert normal_order(WeylWord("ac")) == NormalForm({(1, 1): 1, (0, 0): 1})


def test_normal_order_number_operator_powers():
    assert normal_order(WeylWord.ca_power(2)) == NormalForm({(2, 2): 1, (1, 1): 1})
    assert normal_order(WeylWord.ca_power(3)) == NormalForm({(3, 3): 1, (2, 2): 3, (1, 1): 1})
    for n in range(1, 9):
        expected = NormalForm({(k, k): stirling2(n, k) for k in range(1, n + 1)})
        assert normal_order(WeylWord.ca_power(n)) == expected


def test_normal_order_long_number_operator_power():
    # deeper than the interpreter recursion limit: rewriting must not recurse
    expected = NormalForm({(k, k): stirling2(400, k) for k in range(1, 401)})
    assert normal_order(WeylWord.ca_power(400)) == expected


def test_rewriting_caches_whole_words_only():
    _rewrite_terms.cache_clear()
    normal_order(WeylWord("acca" * 10))
    assert _rewrite_terms.cache_info().currsize == 1


def test_normal_order_empty_word():
    assert normal_order(WeylWord("")) == NormalForm({(0, 0): 1})


def test_contraction_counts():
    assert len(enumerate_contractions(WeylWord.ca_power(3))) == 5
    assert len(enumerate_contractions(WeylWord.ca_power(4))) == 15
    assert len(enumerate_contractions(WeylWord("c"))) == 1


def test_long_word_without_pairs_has_one_diagram():
    # more creations than the interpreter recursion limit allows frames
    word = WeylWord("c" * 3000)
    assert [c.edges for c in enumerate_contractions(word)] == [()]
    assert wick_sum(word) == NormalForm({(3000, 0): 1})


def test_contraction_enumeration_is_sorted_and_valid():
    contractions = enumerate_contractions(WeylWord.ca_power(4))
    edge_lists = [c.edges for c in contractions]
    assert edge_lists == sorted(edge_lists)
    assert edge_lists[0] == ()
    for c in contractions:
        for i, j in c.edges:
            assert c.word.letter(i) == "a" and c.word.letter(j) == "c" and i < j


def test_contraction_validation():
    word = WeylWord.ca_power(2)
    with pytest.raises(ValueError):
        Contraction(word, ((1, 3),))  # c before c
    with pytest.raises(ValueError):
        Contraction(word, ((2, 3), (2, 3)))
    with pytest.raises(ValueError):
        Contraction(word, ((0, 3),))
    Contraction(word, ((2, 3),))


def test_contraction_stats_examples():
    word = WeylWord.ca_power(4)
    assert contraction_stats(Contraction(word, ((2, 3), (6, 7)))) == ContractionStats(2, 2, 2, 2)
    assert contraction_stats(Contraction(word, ())) == ContractionStats(0, 0, 4, 4)
    assert contraction_stats(Contraction(word, ((2, 3), (4, 5), (6, 7)))) == ContractionStats(
        3, 3, 1, 1
    )


def test_wick_sum_examples():
    assert wick_sum(WeylWord.ca_power(2)) == NormalForm({(2, 2): 1, (1, 1): 1})
    assert wick_sum(WeylWord("ac")) == NormalForm({(1, 1): 1, (0, 0): 1})
    assert wick_sum(WeylWord.ca_power(4)) == NormalForm(
        {(4, 4): 1, (3, 3): 6, (2, 2): 7, (1, 1): 1}
    )


def test_edge_count_distribution_reverses_triangle():
    for n in range(1, 7):
        contractions = enumerate_contractions(WeylWord.ca_power(n))
        assert len(contractions) == bell(n)
        for e in range(n):
            expected = stirling2(n, n - e)
            assert sum(1 for c in contractions if len(c.edges) == e) == expected


def test_wick_equals_rewriting_small():
    for length in range(9):
        for word in all_words(length):
            assert wick_sum(word) == normal_order(word), word.letters


def test_tallies_match_contraction_objects():
    # the public Contraction objects are the reference for the raw tallies
    for length in range(9):
        for word in all_words(length):
            contractions = enumerate_contractions(word)
            edge_counts = Counter(len(c.edges) for c in contractions)
            expected = NormalForm(
                {(word.count("c") - e, word.count("a") - e): n for e, n in edge_counts.items()}
            )
            assert wick_sum(word) == expected, word.letters
            weighted: dict = {}
            for c in contractions:
                stats = contraction_stats(c)
                key = (word.count("c") - stats.edge_count, word.count("a") - stats.edge_count)
                weighted[key] = weighted.get(key, 0) + P**stats.adjacent_edge_count
            assert normal_order_p(word) == NormalForm(weighted), word.letters


def test_deformed_rows():
    assert normal_order_p(WeylWord.ca_power(2)) == NormalForm({(2, 2): 1, (1, 1): P})
    assert normal_order_p(WeylWord.ca_power(3)) == NormalForm(
        {(3, 3): 1, (2, 2): 2 * P + 1, (1, 1): P**2}
    )
    for n in range(1, 9):
        expected = NormalForm({(k, k): stirling_p(n, k) for k in range(1, n + 1)})
        assert normal_order_p(WeylWord.ca_power(n)) == expected


def test_deformed_degenerates_at_one():
    rng = random.Random(31)
    for _ in range(20):
        length = rng.randint(0, 8)
        letters = "".join(rng.choice("ac") for _ in range(length))
        word = WeylWord(letters)
        assert normal_order_p(word).substitute("p", 1) == wick_sum(word)


def test_nf_multiply_examples():
    number_op = NormalForm({(1, 1): 1})
    assert nf_multiply(number_op, number_op) == NormalForm({(2, 2): 1, (1, 1): 1})
    anything = normal_order(WeylWord("acca"))
    assert nf_multiply(NormalForm.identity(), anything) == anything


def test_nf_multiply_matches_concatenation():
    rng = random.Random(77)
    for _ in range(25):
        w1 = "".join(rng.choice("ac") for _ in range(rng.randint(0, 6)))
        w2 = "".join(rng.choice("ac") for _ in range(rng.randint(0, 6)))
        product = nf_multiply(normal_order(WeylWord(w1)), normal_order(WeylWord(w2)))
        assert product == normal_order(WeylWord(w1 + w2)), (w1, w2)


def test_normal_form_rendering():
    assert str(normal_order(WeylWord.ca_power(3))) == "c*a + 3*c^2*a^2 + c^3*a^3"
    assert str(NormalForm({(0, 0): 1})) == "1"
    assert str(normal_order_p(WeylWord.ca_power(2))) == "p*c*a + c^2*a^2"


def test_contraction_rendering():
    c = Contraction(WeylWord.ca_power(2), ((2, 3),))
    assert str(c) == "caca; edges=(2,3)"
    assert str(Contraction(WeylWord.ca_power(2), ())) == "caca; edges="
