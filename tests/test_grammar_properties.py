"""Property tests for the grammar derivative: the Leibniz rule, the
packed kernel against the definition D(a) = sum_v (da/dv) * rule(v), and
the partial results of one walk against separate chains."""

from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from test_grammar import assert_stored_form, reference_chain, reference_shift
from weylgram.grammar import Grammar, _derivatives, derive, derive_chain, derive_n, parse_grammar, shift_apply
from weylgram.ring import Polynomial, monomial
from weylgram.verify import (
    DOWLING_GRAMMAR,
    EULERIAN_GRAMMAR,
    P_GRAMMAR,
    SECOND_ORDER_GRAMMAR,
    STIRLING_GRAMMAR,
    _g_qpower,
    _g_shifted,
)

STIRLING = parse_grammar("x -> x*y; y -> y")
DOWLING = parse_grammar("x -> r*x + x*y; y -> m*y")

PROPERTY = settings(max_examples=60, deadline=None, database=None)

coefficients = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def polynomials(names, max_exp=3, max_terms=5):
    monomials = st.dictionaries(st.sampled_from(names), st.integers(0, max_exp), max_size=3).map(monomial)
    return st.dictionaries(monomials, coefficients, max_size=max_terms).map(Polynomial)


# images may name m, p, r, which have no rule
grammars = st.dictionaries(
    st.sampled_from("xyz"), polynomials("xyzmpr", max_exp=2, max_terms=3), min_size=1, max_size=3
).map(Grammar)


@PROPERTY
@given(
    st.sampled_from([STIRLING, DOWLING]),
    polynomials("xym", max_exp=2, max_terms=3),
    polynomials("xyr", max_exp=2, max_terms=3),
    st.integers(0, 5),
)
def test_leibniz_rule(g, u, v, n):
    rhs = sum(
        (derive_n(g, u, k) * derive_n(g, v, n - k) * comb(n, k) for k in range(n + 1)),
        Polynomial.zero(),
    )
    assert derive_n(g, u * v, n) == rhs


@PROPERTY
@given(grammars, polynomials("xyzp"), st.integers(0, 4))
def test_kernel_matches_definition(g, a, n):
    got = derive_n(g, a, n)
    assert got == reference_chain([g] * n, a)
    assert_stored_form(got)
    assert derive(g, a) == reference_chain([g], a)
    assert shift_apply(g, a, n) == reference_shift(g, a, n)


@PROPERTY
@given(st.lists(grammars, min_size=1, max_size=3), polynomials("xyzp"))
def test_chain_matches_definition(chain, a):
    got = derive_chain(chain, a)
    assert got == reference_chain(chain[::-1], a)
    assert_stored_form(got)


# the grammars the verify suites chain: shifted, q-power and whole-suite
chain_grammars = st.one_of(
    st.integers(1, 9).map(_g_shifted),
    st.integers(0, 5).map(_g_qpower),
    st.sampled_from([STIRLING_GRAMMAR, P_GRAMMAR, DOWLING_GRAMMAR, EULERIAN_GRAMMAR, SECOND_ORDER_GRAMMAR]),
)


@PROPERTY
@given(st.lists(chain_grammars, max_size=6), polynomials("xyzmq"))
def test_walk_partials_are_the_chains_of_its_prefixes(steps, a):
    # partial k is the chain of the first k grammars, the first acting first
    partials = _derivatives(steps, a, every=True)
    assert len(partials) == len(steps) + 1
    assert partials[0] == a
    for k in range(1, len(steps) + 1):
        assert partials[k] == derive_chain(steps[:k][::-1], a)
        assert_stored_form(partials[k])
