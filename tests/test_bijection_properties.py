"""Property tests: both contraction <-> sequence bijections round-trip
on random generation sequences of up to 9 entries.

The contractions and sequences the program builds itself skip the checks
of the public constructors; here each one that the bijections and
enumerate_generations return must pass those checks unchanged."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from weylgram.bijections import (
    contraction_to_seq_p,
    contraction_to_seq_stirling,
    seq_to_contraction_p,
    seq_to_contraction_stirling,
)
from weylgram.grammar import (
    P_FAMILY,
    STIRLING_FAMILY,
    GenSequence,
    enumerate_generations,
    growth_bound,
    parse_grammar,
)
from weylgram.ring import monomial
from weylgram.weyl import WeylWord, enumerate_contractions
from test_weyl_properties import assert_passes_the_constructors

STIRLING = parse_grammar("x -> x*y; y -> y")
WEIGHTED = parse_grammar("x -> p*x + x*y; y -> y")

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


def assert_sequence_passes_the_constructor(s):
    assert GenSequence(s.entries, s.family) == s


BIJECTIONS = [
    (STIRLING_FAMILY, contraction_to_seq_stirling, seq_to_contraction_stirling),
    (P_FAMILY, contraction_to_seq_p, seq_to_contraction_p),
]


@pytest.mark.parametrize("family, to_seq, to_contraction", BIJECTIONS)
@PROPERTY
@given(data=st.data())
def test_bijection_outputs_of_random_sequences_are_valid(family, to_seq, to_contraction, data):
    s = data.draw(sequences(family))
    contraction = to_contraction(s)
    assert_passes_the_constructors(contraction)
    assert_sequence_passes_the_constructor(to_seq(contraction))


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("family, to_seq, to_contraction", BIJECTIONS)
def test_bijection_outputs_on_every_contraction_are_valid(family, to_seq, to_contraction, n):
    for contraction in enumerate_contractions(WeylWord.ca_power(n)):
        s = to_seq(contraction)
        assert_sequence_passes_the_constructor(s)
        assert_passes_the_constructors(to_contraction(s))


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize(
    "grammar, start, family",
    [
        (STIRLING, {"x": 1}, STIRLING_FAMILY),
        (STIRLING, {"x": 1, "y": 1}, STIRLING_FAMILY),
        (WEIGHTED, {"x": 1}, P_FAMILY),
    ],
)
def test_generation_sequences_are_valid(grammar, start, family, n):
    for record in enumerate_generations(grammar, monomial(start), n, family):
        assert_sequence_passes_the_constructor(record.sequence)
