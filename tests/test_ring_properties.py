"""Property test: rendering a polynomial and parsing the text back gives
the same polynomial, stored in the same form."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from test_grammar import assert_stored_form
from weylgram.ring import Polynomial, monomial, parse_polynomial

PROPERTY = settings(max_examples=200, deadline=None, database=None)

coefficients = st.one_of(
    st.integers(-(2**70), 2**70),
    st.fractions(min_value=-50, max_value=50, max_denominator=1000).filter(
        lambda c: c.denominator != 1
    ),
)

monomials = st.dictionaries(st.sampled_from("xyp"), st.integers(0, 12), max_size=3).map(monomial)

polynomials = st.dictionaries(monomials, coefficients, max_size=8).map(Polynomial)


@PROPERTY
@given(polynomials)
def test_parse_inverts_render(p):
    back = parse_polynomial(str(p))
    assert back == p
    assert_stored_form(back)

