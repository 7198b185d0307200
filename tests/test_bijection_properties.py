"""Property tests: both contraction <-> sequence bijections round-trip
on random generation sequences of up to 9 entries."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from weylgram.bijections import (
    contraction_to_seq_p,
    contraction_to_seq_stirling,
    seq_to_contraction_p,
    seq_to_contraction_stirling,
)
from weylgram.grammar import GenSequence, P_FAMILY, STIRLING_FAMILY, growth_bound

PROPERTY = settings(max_examples=60, deadline=None, database=None)


@st.composite
def sequences(draw, family):
    """A sequence of the family, each entry drawn up to its growth bound."""
    entries = [1]
    for _ in range(draw(st.integers(0, 8))):
        bound = growth_bound(family, entries.count(1), entries.count(2))
        entries.append(draw(st.integers(1, bound)))
    return GenSequence(tuple(entries), family)


@PROPERTY
@given(sequences(STIRLING_FAMILY))
def test_plain_bijection_round_trips(s):
    assert contraction_to_seq_stirling(seq_to_contraction_stirling(s)) == s


@PROPERTY
@given(sequences(P_FAMILY))
def test_weighted_bijection_round_trips(s):
    assert contraction_to_seq_p(seq_to_contraction_p(s)) == s
