"""Property tests: the normal-ordering routes agree on random words.

Rewriting, the Wick sum and the rook numbers of the word's Ferrers
board (Varvak) are independent routes to the same counts, and the p-form
equals the contraction walker's tally by (edges, adjacent edges).  Words
past the enumerators' reach, up to 48 letters, are checked against the
p-form at p = 1: the same recurrence as rewriting, run by a pass of its
own code.

The words, contractions and integer normal forms the program builds
itself, and the words that WeylWord.parse joins from checked pieces,
skip the checks of the public constructors; here each of them must pass
those checks unchanged, with its edges already sorted."""

from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from weylgram.numbers import FerrersBoard, rook_numbers
from weylgram.ring import Polynomial
from weylgram.weyl import (
    Contraction,
    NormalForm,
    WeylWord,
    _contraction_nodes,
    _rewrite_terms,
    _used_creation_sets,
    all_words,
    enumerate_contractions,
    normal_order,
    normal_order_p,
    wick_sum,
)
from test_weyl import walker_p_form

PROPERTY = settings(max_examples=60, deadline=None, database=None)

words = st.text(alphabet="ac", max_size=12).map(WeylWord)
long_words = st.text(alphabet="ac", min_size=13, max_size=48).map(WeylWord)
# Word syntax that WeylWord.parse accepts: runs of letters in either case
# with spaces, and groups with or without a repetition count.
word_texts = st.lists(
    st.one_of(
        st.text(alphabet="acAC ", min_size=1, max_size=4),
        st.builds(
            "({}){}".format,
            st.text(alphabet="acAC", min_size=1, max_size=3),
            st.sampled_from(["", "^0", "^1", "^2", "^3", "^ 03"]),
        ),
    ),
    max_size=5,
).map("".join)


def varvak_board(word):
    """One column per 'c', as high as the number of 'a' to its left."""
    heights, seen = [], 0
    for letter in word.letters:
        if letter == "a":
            seen += 1
        else:
            heights.append(seen)
    return FerrersBoard(tuple(heights))


@PROPERTY
@given(words)
def test_wick_sum_equals_rewriting(word):
    assert wick_sum(word) == normal_order(word)


@PROPERTY
@given(words)
def test_p_form_at_one_equals_rewriting(word):
    assert normal_order_p(word).substitute("p", 1) == normal_order(word)


@PROPERTY
@given(long_words)
def test_p_form_at_one_equals_rewriting_on_long_words(word):
    assert normal_order_p(word).substitute("p", 1) == normal_order(word)


@PROPERTY
@given(words)
def test_contractions_are_the_rook_placements_of_the_varvak_board(word):
    assert len(enumerate_contractions(word)) == sum(rook_numbers(varvak_board(word)))


@PROPERTY
@given(words)
def test_rewriting_coefficients_are_the_rook_numbers_of_the_varvak_board(word):
    # Varvak: the coefficient of c^(#c - k) a^(#a - k) is r_k
    creations, annihilations = word.count("c"), word.count("a")
    rooks = rook_numbers(varvak_board(word))
    expected = {(creations - k, annihilations - k): r for k, r in enumerate(rooks)}
    assert normal_order(word) == NormalForm(expected)


@PROPERTY
@given(words)
def test_p_form_equals_walker_tally(word):
    assert normal_order_p(word) == walker_p_form(word)


@PROPERTY
@given(words)
def test_used_creation_sets_group_the_walker_contractions(word):
    sets = _used_creation_sets(word.letters)
    nodes = list(_contraction_nodes(word.letters))
    assert sum(sets.values()) == len(enumerate_contractions(word))
    edges = Counter()
    for used, n in sets.items():
        edges[used.bit_count()] += n
    assert edges == Counter(node[1] for node in nodes)
    creations = sum(1 << j for j, letter in enumerate(word.letters, start=1) if letter == "c")
    assert all(used & ~creations == 0 for used in sets)
    # the walker's own mask of used creations, node by node
    assert sets == Counter(node[3] for node in nodes)


def assert_passes_the_constructors(contraction):
    assert list(contraction.edges) == sorted(contraction.edges)
    assert WeylWord(contraction.word.letters) == contraction.word
    assert Contraction(contraction.word, contraction.edges) == contraction


@pytest.mark.parametrize("n", range(8))
def test_every_contraction_of_a_ca_power_is_valid(n):
    for contraction in enumerate_contractions(WeylWord.ca_power(n)):
        assert_passes_the_constructors(contraction)


@PROPERTY
@given(words)
def test_every_enumerated_contraction_is_valid(word):
    for contraction in enumerate_contractions(word):
        assert_passes_the_constructors(contraction)


def test_every_listed_word_is_valid():
    for length in range(7):
        for word in all_words(length):
            assert WeylWord(word.letters) == word


@PROPERTY
@given(word_texts)
def test_every_parsed_word_is_valid(text):
    word = WeylWord.parse(text)
    assert WeylWord(word.letters) == word


@PROPERTY
@given(words)
def test_integer_normal_forms_equal_the_public_constructors(word):
    # The tallies each route counts, built again through NormalForm(...).
    creations, annihilations = word.count("c"), word.count("a")
    edge_counts = Counter(node[1] for node in _contraction_nodes(word.letters))
    wick_tally = {(creations - e, annihilations - e): n for e, n in edge_counts.items()}
    for form, tally in (
        (normal_order(word), dict(_rewrite_terms(word.letters))),
        (wick_sum(word), wick_tally),
    ):
        assert form == NormalForm(tally)
        assert str(form) == str(NormalForm(tally))
        for coeff in form.terms().values():
            assert isinstance(coeff, Polynomial)
            assert list(coeff.terms()) == [()]
            assert type(coeff.constant_value()) is int
