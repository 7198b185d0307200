"""Tests for the exact-arithmetic substrate."""

import random
from fractions import Fraction

import pytest

from weylgram.grammar import Grammar, parse_grammar, shift_apply
from weylgram.ring import (
    ParseError,
    Polynomial,
    TruncatedSeries,
    _from_clean,
    falling_factorial,
    from_falling_factorial_basis,
    parse_polynomial,
    sym,
    to_falling_factorial_basis,
)
from weylgram.numbers import gen_stirling_recur, stirling2

X, Y, P, Q, R = sym("x"), sym("y"), sym("p"), sym("q"), sym("r")


def random_polynomial(rng, symbols="xyp", max_terms=5, max_degree=4):
    poly = Polynomial.zero()
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        term = Polynomial.rational(coeff)
        degree = rng.randint(0, max_degree)
        for _ in range(degree):
            term = term * sym(rng.choice(symbols))
        poly = poly + term
    return poly


def test_like_term_collection():
    assert X * Y + X * Y == 2 * X * Y


def test_product_matches_first_derivative():
    assert (P + Y) * X == P * X + X * Y


def test_binomial_square():
    assert (R + Y) * (R + Y) == R**2 + 2 * R * Y + Y**2


def test_partial_derivatives():
    assert (X * Y**2).diff("y") == 2 * X * Y
    assert (X * Y**2).diff("x") == Y**2
    assert (R + Y).diff("y") == Polynomial.one()
    assert (R + Y).diff("z") == Polynomial.zero()


def test_substitute_specializes_row():
    display = P**2 * X + (2 * P + 1) * X * Y + X * Y**2
    specialized = display.substitute("p", 1)
    row = sum(
        (X * Y**k * stirling2(3, k + 1) for k in range(3)),
        Polynomial.zero(),
    )
    assert specialized == row == X + 3 * X * Y + X * Y**2


def test_substitute_absent_symbol_is_noop():
    assert (X * Y).substitute("z", 7) == X * Y


def test_substitute_to_zero():
    assert (Q + Y).substitute("q", 0) == Y


def test_ring_axioms_random():
    rng = random.Random(1729)
    for _ in range(25):
        a, b, c = (random_polynomial(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial.zero()


def test_canonical_rendering():
    display = P**2 * X + (2 * P + 1) * X * Y + X * Y**2
    assert str(display) == "x*y + x*y^2 + 2*p*x*y + p^2*x"
    assert str(Polynomial.zero()) == "0"
    assert str(X - Y) == "-y + x"  # (0,1) precedes (1,0) in vector lex order
    assert str(Polynomial.rational(Fraction(-3, 2)) * X + 1) == "1 - 3/2*x"


def test_parse_round_trip_random():
    rng = random.Random(42)
    for _ in range(40):
        poly = random_polynomial(rng, symbols=("x", "y", "p", "lambda"))
        assert parse_polynomial(str(poly)) == poly
        assert parse_polynomial(str(poly)).terms() == poly.terms()


def test_parse_implicit_multiplication():
    assert parse_polynomial("2x y") == 2 * X * Y
    assert parse_polynomial("p^2x") == P**2 * X
    assert parse_polynomial("3(x + y)") == 3 * X + 3 * Y
    assert parse_polynomial("1/2 x") == X.scale(Fraction(1, 2))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_polynomial("x +")
    with pytest.raises(ParseError):
        parse_polynomial("x ^ y")
    with pytest.raises(ParseError):
        parse_polynomial("x $ y")
    with pytest.raises(ParseError, match="zero denominator at 1:1"):
        parse_polynomial("1/0")
    with pytest.raises(ParseError, match="zero denominator at 1:5"):
        parse_polynomial("x + 3/00")


DEEP = "(" * 3000 + "x" + ")" * 3000
NINES = "9" * 5000

# (parser, text, the exact ParseError text) for every message of the
# lexer, the expression parser and the rule-list parser.
PARSE_ERRORS = [
    # lexer
    (parse_polynomial, "x $ y", "unexpected character '$' at 1:3"),
    (parse_polynomial, "x +\n  2 ?", "unexpected character '?' at 2:5"),
    (parse_polynomial, "\tx\t@", "unexpected character '@' at 1:4"),
    (parse_polynomial, "3/ x", "unexpected character '/' at 1:2"),
    (parse_polynomial, "1/0", "zero denominator at 1:1"),
    (parse_polynomial, "x + 3/00", "zero denominator at 1:5"),
    (parse_grammar, "x -> y; y -> x $", "unexpected character '$' at 1:16"),
    # expressions
    (parse_polynomial, "x ^ y", "expected nonnegative integer exponent at 1:5"),
    (parse_polynomial, "x^1/2", "expected nonnegative integer exponent at 1:3"),
    (parse_polynomial, "(x + y", "expected ')' at 1:7"),
    (parse_polynomial, "x +", "expected number, symbol or '(' at 1:4"),
    (parse_polynomial, "", "expected number, symbol or '(' at 1:1"),
    (parse_polynomial, "x\n\n  * * y", "expected number, symbol or '(' at 3:5"),
    (parse_polynomial, "x )", "unexpected trailing input at 1:3"),
    (parse_polynomial, "x -> y", "unexpected trailing input at 1:3"),
    (parse_polynomial, "x;", "unexpected trailing input at 1:2"),
    (parse_polynomial, DEEP, "expression nested too deeply at 1:1"),
    (parse_polynomial, "y + " + DEEP, "expression nested too deeply at 1:1"),
    (parse_grammar, "x -> x*y;\n  y -> (y", "expected ')' at 2:10"),
    (parse_grammar, "x -> " + DEEP, "expression nested too deeply at 1:6"),
    # rule lists
    (parse_grammar, "-> x", "expected rule symbol at 1:1"),
    (parse_grammar, "x -> y;\n 2 -> y", "expected rule symbol at 2:2"),
    (parse_grammar, "x x -> y", "expected '->' at 1:3"),
    (parse_grammar, "x y", "expected '->' at 1:3"),
    (parse_grammar, "x ->", "empty rule image at 1:5"),
    (parse_grammar, "x -> ;", "empty rule image at 1:6"),
    (parse_grammar, "x -> y;\ny ->\n;", "empty rule image at 3:1"),
    (parse_grammar, "x -> y; x -> x", "duplicate left-hand side 'x' at 1:9"),
    (parse_grammar, "x -> x*y;\n# c\n  x -> y", "duplicate left-hand side 'x' at 3:3"),
    (parse_grammar, "x -> y\ny -> y", "expected ';' between rules at 2:3"),
    (parse_grammar, "x -> y )", "expected ';' between rules at 1:8"),
    (parse_grammar, "   # nothing here", "empty rule set"),
    (parse_grammar, ";;", "empty rule set"),
    (parse_grammar, "", "empty rule set"),
    # the end of text lies past a trailing comment
    (parse_polynomial, "x + # c", "expected number, symbol or '(' at 1:8"),
    (parse_polynomial, "x +\n# c", "expected number, symbol or '(' at 2:4"),
    (parse_grammar, "x -> y;\ny -> # c", "empty rule image at 2:9"),
    # '²' is a digit but not a decimal digit, which int() needs
    (parse_polynomial, "²", "unexpected character '²' at 1:1"),
    (parse_polynomial, "x + 2²", "unexpected character '²' at 1:6"),
    (parse_polynomial, "1/²", "unexpected character '/' at 1:2"),
    # more digits than int() converts (4300 by default) name the run
    (parse_polynomial, NINES, "number of 5000 digits (at most 4300) at 1:1"),
    (parse_polynomial, "x^" + NINES, "number of 5000 digits (at most 4300) at 1:3"),
    (parse_polynomial, "x + 3/" + NINES, "number of 5000 digits (at most 4300) at 1:7"),
    (parse_polynomial, "x + " + NINES + "/3", "number of 5000 digits (at most 4300) at 1:5"),
    (parse_grammar, "x -> y;\n y -> " + NINES + "*y", "number of 5000 digits (at most 4300) at 2:7"),
]


@pytest.mark.parametrize("parse, text, message", PARSE_ERRORS, ids=[m for _, _, m in PARSE_ERRORS])
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_numbers_of_up_to_4300_digits_parse():
    assert parse_polynomial("9" * 4300 + "/" + "0" * 4299 + "7") == Polynomial.rational(
        Fraction(int("9" * 4300), 7)
    )


def test_numbers_are_decimal_digits_and_names_may_hold_others():
    assert parse_polynomial("x²") == sym("x²")
    assert parse_polynomial("\u0663/\u0664 x") == X.scale(Fraction(3, 4))  # Arabic-Indic digits


def test_falling_factorial_basis_examples():
    assert to_falling_factorial_basis(X**2, "x") == [
        Polynomial.zero(),
        Polynomial.one(),
        Polynomial.one(),
    ]
    assert to_falling_factorial_basis(Polynomial.rational(5), "x") == [Polynomial.rational(5)]

    square = falling_factorial(X, 2) ** 2
    coeffs = to_falling_factorial_basis(square, "x")
    assert coeffs == [Polynomial.rational(c) for c in (0, 0, 2, 4, 1)]
    # independent route: the same numbers from the (2,2) triangle recurrence
    assert [int(c.constant_value()) for c in coeffs[2:]] == [
        gen_stirling_recur(2, k, 2, 2) for k in (2, 3, 4)
    ]


def test_falling_factorial_round_trip():
    rng = random.Random(7)
    for _ in range(15):
        coeffs = [Polynomial.rational(rng.randint(-5, 5)) * Y ** rng.randint(0, 2) for _ in range(11)]
        poly = from_falling_factorial_basis(coeffs, "x")
        rebuilt = from_falling_factorial_basis(to_falling_factorial_basis(poly, "x"), "x")
        assert rebuilt == poly


def test_series_examples():
    lam = TruncatedSeries.var("lambda", 2)
    assert (lam + 1) * (1 - lam) == TruncatedSeries(
        "lambda", [Polynomial.one(), Polynomial.zero(), -Polynomial.one()]
    )

    e = TruncatedSeries.var("lambda", 3).exp()
    scaled = e.scale(Y)
    assert scaled.coefficients == (
        Y,
        Y,
        Y.scale(Fraction(1, 2)),
        Y.scale(Fraction(1, 6)),
    )

    short = TruncatedSeries.var("lambda", 2)
    long = TruncatedSeries.var("lambda", 4)
    assert (short * long).order == 2


def test_series_variable_mismatch():
    with pytest.raises(ValueError):
        TruncatedSeries.var("lambda", 2) * TruncatedSeries.var("z", 2)
    with pytest.raises(ValueError):
        TruncatedSeries("lambda", [sym("lambda")])


def test_series_exp_examples():
    lam = TruncatedSeries.var("lambda", 2)
    assert lam.exp() == TruncatedSeries(
        "lambda", [Polynomial.one(), Polynomial.one(), Polynomial.rational(Fraction(1, 2))]
    )
    assert TruncatedSeries.constant("lambda", 0, 3).exp() == TruncatedSeries.constant("lambda", 1, 3)
    with pytest.raises(ValueError):
        TruncatedSeries.constant("lambda", 1, 2).exp()


def test_series_exp_of_shifted_exponential():
    # exp((e^lambda - 1) y) truncated at order 2
    lam = TruncatedSeries.var("lambda", 2)
    series = (lam.exp() - 1).scale(Y).exp()
    assert series.coefficient(0) == Polynomial.one()
    assert series.coefficient(1) == Y
    assert series.coefficient(2) == (Y + Y**2).scale(Fraction(1, 2))

    # coefficient of lambda^n/n! collects a full Stirling row
    order = 6
    lam = TruncatedSeries.var("lambda", order)
    series = (lam.exp() - 1).scale(Y).exp()
    fact = 1
    for n in range(1, order + 1):
        fact *= n
        row = sum((Y**k * stirling2(n, k) for k in range(1, n + 1)), Polynomial.zero())
        assert series.coefficient(n).scale(fact) == row


def test_series_exp_is_multiplicative():
    rng = random.Random(99)
    for _ in range(8):
        order = rng.randint(2, 8)
        def zero_constant_series():
            coeffs = [Polynomial.zero()]
            for _ in range(order):
                coeffs.append(random_polynomial(rng, symbols="xy", max_terms=2, max_degree=2))
            return TruncatedSeries("lambda", coeffs)

        a, b = zero_constant_series(), zero_constant_series()
        assert (a + b).exp() == a.exp() * b.exp()


def test_power_equals_repeated_product():
    bases = [
        X - 2 * Y + 3,
        parse_polynomial("-1/2*x + 2/3*y^2 - 5"),
        parse_polynomial("-3/4*p^2*x"),  # one term: the exponent-scaling shortcut
        Polynomial.rational(Fraction(-2, 3)),
        Polynomial.zero(),
    ]
    for base in bases:
        product = Polynomial.one()
        for e in range(10):
            assert base**e == product, (base, e)
            assert (base**e).terms() == product.terms(), (base, e)
            product = product * base
    assert (X * Y) ** 0 == Polynomial.one()
    assert ((X * Y) ** 0).terms() == {(): 1}


def assert_stored_form(poly):
    """Every coefficient is an int or a non-integral Fraction, and the value
    equals (with the same hash) the polynomial stored with Fractions only."""
    for coeff in poly.terms().values():
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1), (poly, coeff)
    as_fractions = _from_clean({m: Fraction(c) for m, c in poly.terms().items()})
    assert poly == as_fractions
    assert hash(poly) == hash(as_fractions)


def test_coefficients_keep_stored_form():
    a = parse_polynomial("1/2*x + 1/3*y")
    b = parse_polynomial("1/2*x + 2/3*y - 1")
    results = [
        Polynomial({(("x", 1),): Fraction(6, 3)}),
        Polynomial.rational(Fraction(4, 2)),
        parse_polynomial("4/2*x - 1/3*y"),
        a + b,
        a - b,
        -a,
        a * b,
        a * 6,
        Polynomial.rational(Fraction(1, 2)) * 2,
        parse_polynomial("3*x + 4*y").scale(Fraction(1, 2)),
        parse_polynomial("3*x + 4*y").scale(Fraction(1, 2)).scale(2),
        parse_polynomial("1/2*x^2 + 1/3*y^3").diff("x"),
        parse_polynomial("1/2*x^2 + 1/3*y^3").diff("y"),
        parse_polynomial("1/2*x*y + x").substitute("y", 2),
        parse_polynomial("x^2*y").substitute("x", a),
        a**3,
        (Polynomial.rational(Fraction(3, 2)) * X) ** 2,
        (X.scale(Fraction(-2, 2))) ** 3,
    ]
    results += parse_polynomial("1/2*x*y + 3*x^2 + 2/4*y").coefficients_in("x").values()
    results += (TruncatedSeries.var("lambda", 4).exp() - 1).scale(Y).exp().coefficients
    results += shift_apply(Grammar({"x": X * Y, "y": Y}), X, 6).coefficients
    for poly in results:
        assert_stored_form(poly)
    assert (a + b).terms() == {(("x", 1),): 1, (("y", 1),): 1, (): -1}
    assert parse_polynomial("3*x + 4*y").scale(Fraction(1, 2)).scale(2).is_integral()
    assert not a.is_integral()
    assert X.coefficient((("y", 1),)) == 0 and Polynomial.zero().constant_value() == 0


def test_rendering_of_mixed_coefficients_is_pinned():
    for text, rendered in (
        ("4/2*x - 1/3*y", "-1/3*y + 2*x"),
        ("1/2*x + 1/2*x + 3/4*y^2 - 6/3", "-2 + x + 3/4*y^2"),
        (
            "(1/2*x - 2/3*y + 3)^3",
            "27 - 18*y + 27/2*x + 4*y^2 - 6*x*y + 9/4*x^2 - 8/27*y^3 + 2/3*x*y^2 - 1/2*x^2*y + 1/8*x^3",
        ),
        ("(-1/2*p + 2*x*y)^2*3/4", "3/16*p^2 - 3/2*p*x*y + 3*x^2*y^2"),
    ):
        assert str(parse_polynomial(text)) == rendered
