"""Property tests: the normal-ordering routes agree on random words.

Rewriting, the Wick sum, the p-form at p = 1 and the rook numbers of the
word's Ferrers board (Varvak) are independent routes to the same counts."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from weylgram.numbers import FerrersBoard, rook_numbers
from weylgram.weyl import WeylWord, enumerate_contractions, normal_order, normal_order_p, wick_sum

PROPERTY = settings(max_examples=60, deadline=None, database=None)

words = st.text(alphabet="ac", max_size=12).map(WeylWord)


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
@given(words)
def test_contractions_are_the_rook_placements_of_the_varvak_board(word):
    assert len(enumerate_contractions(word)) == sum(rook_numbers(varvak_board(word)))
