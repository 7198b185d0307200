"""Property tests for polynomials: rendering and parsing back gives the
same polynomial, the canonical order and rendering equal a plain
reference renderer, poly_sum agrees with an independent sum, the ring
operations obey the ring laws, and the falling-factorial basis converts
back to the same polynomial, a product with a one-term factor equals
its term-pair sum, all results kept in stored form."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from test_grammar import assert_stored_form
from weylgram.ring import (
    Polynomial,
    from_falling_factorial_basis,
    monomial,
    monomial_mul,
    parse_polynomial,
    poly_sum,
    render_polynomial,
    render_scaled,
    to_falling_factorial_basis,
)

PROPERTY = settings(max_examples=200, deadline=None, database=None)
LAWS = settings(max_examples=20, deadline=None, database=None)

coefficients = st.one_of(
    st.integers(-(2**70), 2**70),
    st.fractions(min_value=-50, max_value=50, max_denominator=1000).filter(
        lambda c: c.denominator != 1
    ),
)

monomials = st.dictionaries(st.sampled_from("xyp"), st.integers(0, 12), max_size=3).map(monomial)

polynomials = st.dictionaries(monomials, coefficients, max_size=8).map(Polynomial)
small_polynomials = st.dictionaries(monomials, coefficients, max_size=4).map(Polynomial)
# Values substituted for x keep low exponents, so that x^24 stays cheap.
values = st.dictionaries(
    st.dictionaries(st.sampled_from("xyq"), st.integers(0, 2), max_size=2).map(monomial),
    coefficients,
    max_size=3,
).map(Polynomial)


@PROPERTY
@given(polynomials)
def test_parse_inverts_render(p):
    back = parse_polynomial(str(p))
    assert back == p
    assert_stored_form(back)


def reference_sorted_terms(p):
    """Graded lex, ascending, with a (degree, exponent tuple) key per term."""
    names = sorted(p.symbols())

    def key(mono):
        exps = dict(mono)
        return (sum(e for _, e in mono), tuple(exps.get(n, 0) for n in names))

    return [(m, p.terms()[m]) for m in sorted(p.terms(), key=key)]


def reference_render(p):
    """The canonical text, term by term in reference order."""
    if p.is_zero():
        return "0"
    parts = []
    for mono, coeff in reference_sorted_terms(p):
        mag = -coeff if coeff < 0 else coeff
        factors = "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono)
        if mono == ():
            body = str(mag)
        elif mag == 1:
            body = factors
        else:
            body = f"{mag}*{factors}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(parts)


# Names whose string order differs from their length or case order, and
# exponents on both sides of each power of two, where the packed key's
# field width changes.
AWKWARD_NAMES = ("x", "x2", "x10", "Y", "y", "lambda", "p")
EXPONENTS = (0, 1, 2, 3, 7, 8, 15, 16, 31, 32, 255, 256)
signed_coefficients = st.one_of(
    st.integers(-(10**6), 10**6),
    st.sampled_from((1, -1, 10**40, -(10**40))),
    st.fractions(min_value=-50, max_value=50, max_denominator=1000),
)


@st.composite
def awkward_polynomials(draw):
    """0-5 symbols; half the draws hold at most one term, and with no
    symbols that term is a constant."""
    names = draw(st.lists(st.sampled_from(AWKWARD_NAMES), unique=True, max_size=5))
    monos = (
        st.dictionaries(st.sampled_from(names), st.sampled_from(EXPONENTS)).map(monomial)
        if names
        else st.just(())
    )
    size = draw(st.sampled_from((1, 8)))
    return Polynomial(draw(st.dictionaries(monos, signed_coefficients, max_size=size)))


@PROPERTY
@given(awkward_polynomials())
# Equal degrees whose exponents would carry across fields one bit too
# narrow, listed largest first so that a tie keeps the wrong order.
@example(parse_polynomial("x*z^2 + y^3"))
@example(parse_polynomial("x*z^6 + y^7 + x^2*y^5 + 4*y^4*z^3"))
def test_canonical_order_and_text_match_the_reference(p):
    assert p.sorted_terms() == reference_sorted_terms(p)
    assert render_polynomial(p) == reference_render(p)


@pytest.mark.parametrize(
    "coeff, plain, scaled",
    [
        ("1", "1", "c*a"),
        ("-1", "-1", "(-1)*c*a"),
        ("2", "2", "2*c*a"),
        ("-3", "-3", "(-3)*c*a"),
        ("-1/2", "-1/2", "(-1/2)*c*a"),
        ("3*p", "3*p", "3*p*c*a"),
        ("-p", "-p", "(-p)*c*a"),
        ("2*p^2 + p", "p + 2*p^2", "(p + 2*p^2)*c*a"),
        ("1 - x*y", "1 - x*y", "(1 - x*y)*c*a"),
    ],
)
def test_render_scaled(coeff, plain, scaled):
    p = parse_polynomial(coeff)
    assert render_scaled(p, "") == plain
    assert render_scaled(p, "c*a") == scaled



def fraction_sum(parts):
    """Sum of term maps with every coefficient a Fraction, zeros dropped."""
    total = {}
    for p in parts:
        for mono, c in p.terms().items():
            total[mono] = total.get(mono, Fraction(0)) + Fraction(c)
    return {mono: c for mono, c in total.items() if c}


@LAWS
@given(st.lists(small_polynomials, max_size=4))
def test_poly_sum_matches_an_independent_sum(ps):
    # Every other part is added back negated (it cancels to zero) and the
    # rest are added again as two halves (so c/2 + c/2 must store c as int).
    halves = [p.scale(Fraction(1, 2)) for p in ps[1::2]]
    parts = ps + [-p for p in ps[::2]] + halves + halves
    total = poly_sum(parts)
    assert {mono: Fraction(c) for mono, c in total.terms().items()} == fraction_sum(parts)
    assert total == poly_sum([p + p for p in ps[1::2]])
    assert_stored_form(total)


def test_poly_sum_cancels_and_stores_integral_sums_as_int():
    half_x = Polynomial.from_monomial(monomial({"x": 1}), Fraction(1, 2))
    three = Polynomial.rational(3)
    total = poly_sum([half_x, three, half_x, -three])
    assert dict(total.terms()) == {monomial({"x": 1}): 1}
    assert type(total.coefficient(monomial({"x": 1}))) is int
    assert poly_sum([]) == Polynomial.zero()
    assert poly_sum([half_x, -half_x]).terms() == {}


@PROPERTY
@given(polynomials, st.one_of(st.just(0), coefficients, st.fractions(max_denominator=6)))
def test_scale_is_multiplying_by_a_constant(p, value):
    # factors include 0, ints, and Fractions both integral and not
    scaled = p.scale(value)
    assert scaled == p * Polynomial.rational(value)
    assert_stored_form(scaled)


@LAWS
@given(small_polynomials, small_polynomials, small_polynomials)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    for result in (p + q, p * q, p * (q + r)):
        assert_stored_form(result)


@st.composite
def one_term_and_polynomial(draw):
    """A one-term polynomial and a polynomial.  In half the draws the one
    term's coefficient is k/c for a coefficient c of the other, so that
    product is the integer k, often from two non-integral Fractions."""
    p = draw(small_polynomials)
    coeffs = list(p.terms().values())
    if coeffs and draw(st.booleans()):
        coeff = Fraction(draw(st.integers(-5, 5).filter(bool))) / draw(st.sampled_from(coeffs))
    else:
        coeff = draw(coefficients)
    return Polynomial.from_monomial(draw(monomials), coeff), p


def term_pair_product(p, q):
    """p*q as the sum of its term-pair products, in p-major order."""
    return poly_sum(
        Polynomial.from_monomial(monomial_mul(mono_p, mono_q), coeff_p * coeff_q)
        for mono_p, coeff_p in p.terms().items()
        for mono_q, coeff_q in q.terms().items()
    )


@PROPERTY
@given(one_term_and_polynomial())
@example((parse_polynomial("2/3*x"), parse_polynomial("3/2*y + 1/2")))
@example((parse_polynomial("7"), parse_polynomial("1/7 - 1/7*x")))
def test_one_term_products_match_the_term_pairs(pair):
    term, p = pair
    for product, oracle in ((term * p, term_pair_product(term, p)), (p * term, term_pair_product(p, term))):
        # the same terms, in the same order, each stored as an int when integral
        assert list(product.terms().items()) == list(oracle.terms().items())
        assert_stored_form(product)


@LAWS
@given(small_polynomials, small_polynomials)
def test_diff_obeys_the_leibniz_rule(p, q):
    product = (p * q).diff("x")
    assert product == p.diff("x") * q + p * q.diff("x")
    assert_stored_form(product)


@LAWS
@given(small_polynomials, small_polynomials, values)
def test_substitute_is_a_ring_homomorphism(p, q, value):
    def image(f):
        return f.substitute("x", value)

    assert image(p + q) == image(p) + image(q)
    assert image(p * q) == image(p) * image(q)
    assert_stored_form(image(p * q))


xy_polynomials = st.dictionaries(
    st.dictionaries(st.sampled_from("xy"), st.integers(0, 12), max_size=2).map(monomial),
    coefficients,
    max_size=6,
).map(Polynomial)


@PROPERTY
@given(xy_polynomials)
def test_falling_basis_round_trip(p):
    coeffs = to_falling_factorial_basis(p, "x")
    assert len(coeffs) == max(p.coefficients_in("x"), default=0) + 1
    for c in coeffs:
        assert "x" not in c.symbols()
        assert_stored_form(c)
    assert from_falling_factorial_basis(coeffs, "x") == p
