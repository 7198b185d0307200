"""Tests for grammars, the formal derivative, generation sequences and
the shift operator."""

import random
from fractions import Fraction
from math import comb

import pytest

from weylgram.grammar import (
    GenSequence,
    Grammar,
    P_FAMILY,
    STIRLING_FAMILY,
    derive,
    derive_chain,
    derive_n,
    enumerate_generations,
    generation_sum,
    parse_grammar,
    shift_apply,
)
from weylgram.numbers import SECOND_ORDER_EULERIAN_ROWS, eulerian
from weylgram.ring import (
    ParseError,
    Polynomial,
    TruncatedSeries,
    monomial,
    parse_polynomial,
    sym,
)

X, Y, P, Q, M, R = (sym(n) for n in "xypqmr")

STIRLING = parse_grammar("x -> x*y; y -> y")
PGRAM = parse_grammar("x -> p*x + x*y; y -> y")


def test_parse_grammar_examples():
    assert STIRLING.rules == {"x": X * Y, "y": Y}
    assert PGRAM.rules == {"x": P * X + X * Y, "y": Y}


def test_parse_grammar_comments_and_whitespace():
    g = parse_grammar("""
        # the polynomial ring derivation
        x -> x y ;   # implicit products allowed
        y -> y
    """)
    assert g == STIRLING


def test_parse_grammar_errors():
    with pytest.raises(ParseError):
        parse_grammar("x ->")
    with pytest.raises(ParseError, match="duplicate"):
        parse_grammar("x -> y; x -> x")
    with pytest.raises(ParseError, match="empty rule set"):
        parse_grammar("   # nothing here")
    with pytest.raises(ParseError):
        parse_grammar("x x -> y")


def test_derive_examples():
    assert derive(STIRLING, X) == X * Y
    assert derive_n(PGRAM, X, 2) == P**2 * X + (2 * P + 1) * X * Y + X * Y**2
    dowling = parse_grammar("x -> r*x + x*y; y -> m*y")
    assert derive_n(dowling, X, 2) == X * (R**2 + (M + 2 * R) * Y + Y**2)


def test_derive_treats_unruled_symbols_as_constants():
    assert derive(STIRLING, P * X) == P * X * Y
    assert derive(STIRLING, P) == Polynomial.zero()


def test_derive_linearity():
    rng = random.Random(5)
    for _ in range(10):
        u = parse_polynomial("x^2 y + p x") * rng.randint(-3, 3)
        v = parse_polynomial("y^3 + x") * rng.randint(-3, 3)
        alpha, beta = Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(1, 5))
        lhs = derive(STIRLING, u.scale(alpha) + v.scale(beta))
        assert lhs == derive(STIRLING, u).scale(alpha) + derive(STIRLING, v).scale(beta)


def test_leibniz_rule():
    rng = random.Random(11)
    for _ in range(6):
        u = Polynomial.zero()
        v = Polynomial.zero()
        for _ in range(rng.randint(1, 4)):
            u = u + X ** rng.randint(0, 3) * Y ** rng.randint(0, 3) * rng.randint(-3, 3)
            v = v + X ** rng.randint(0, 3) * Y ** rng.randint(0, 3) * rng.randint(-3, 3)
        for n in range(6):
            lhs = derive_n(STIRLING, u * v, n)
            rhs = sum(
                (
                    derive_n(STIRLING, u, k) * derive_n(STIRLING, v, n - k) * comb(n, k)
                    for k in range(n + 1)
                ),
                Polynomial.zero(),
            )
            assert lhs == rhs


def _shifted(t):
    return Grammar({"x": (t - 1) * X + X * Y, "y": Y})


def test_chain_displays():
    assert derive_chain([_shifted(1)], X) == X * Y
    assert derive_chain([_shifted(3), _shifted(1)], X) == X * (3 * Y + Y**2)
    assert derive_chain([_shifted(5), _shifted(3), _shifted(1)], X) == X * (
        15 * Y + 9 * Y**2 + Y**3
    )
    assert derive_chain([_shifted(1), _shifted(3), _shifted(2), _shifted(1)], X) == X * (
        6 * Y + 18 * Y**2 + 9 * Y**3 + Y**4
    )


def test_chain_q_family():
    gq = lambda t: Grammar({"x": Q**t * X + X * Y, "y": Y})
    assert derive_chain([gq(2), gq(1)], X) == X * (Q**3 + (Q**2 + Q + 1) * Y + Y**2)


def test_chain_applies_last_grammar_first():
    # the family {x -> (t-1)x + xy, y -> y} commutes with itself, so use
    # a pair whose derivatives genuinely differ under swapping
    to_y = Grammar({"x": Y, "y": Y})
    to_x = Grammar({"x": X, "y": X})
    assert derive_chain([to_y, to_x], X) == Y
    assert derive_chain([to_x, to_y], X) == X
    with pytest.raises(ValueError):
        derive_chain([], X)


def test_eulerian_grammar_rows():
    symmetric = parse_grammar("x -> x*y; y -> x*y")
    for n in range(1, 8):
        expected = X * sum(
            (X**k * Y ** (n - k) * eulerian(n, k) for k in range(n)),
            Polynomial.zero(),
        )
        assert derive_n(symmetric, X, n) == expected


def test_second_order_eulerian_grammar_rows():
    quadratic = parse_grammar("x -> x^2*y; y -> x^2*y")
    for n, row in SECOND_ORDER_EULERIAN_ROWS.items():
        expected = sum(
            (X ** (2 * n - k) * Y ** (k + 1) * row[k] for k in range(len(row))),
            Polynomial.zero(),
        )
        assert derive_n(quadratic, X, n) == expected


# -- generation sequences -------------------------------------------------


def test_gen_sequence_validation():
    GenSequence((1, 1, 2), STIRLING_FAMILY)
    with pytest.raises(ValueError):
        GenSequence((2,), STIRLING_FAMILY)
    with pytest.raises(ValueError):
        GenSequence((1, 3), STIRLING_FAMILY)  # only one 1 seen so far
    with pytest.raises(ValueError):
        GenSequence((1, 3), P_FAMILY)  # no 2 seen so far
    GenSequence((1, 2, 3), P_FAMILY)


def test_generation_multiset_from_xy():
    records = enumerate_generations(STIRLING, monomial({"x": 1, "y": 1}), 2, STIRLING_FAMILY)
    table = sorted((r.sequence.entries, dict(r.monomial)["y"]) for r in records)
    assert table == [
        ((1, 1, 1), 3),
        ((1, 1, 2), 2),
        ((1, 1, 3), 2),
        ((1, 2, 1), 2),
        ((1, 2, 2), 1),
    ]
    assert all(r.weight == Polynomial.one() for r in records)


def test_generation_weighted_step():
    records = enumerate_generations(PGRAM, monomial({"x": 1}), 1, P_FAMILY)
    table = sorted((r.sequence.entries, str(r.weight), dict(r.monomial).get("y", 0)) for r in records)
    assert table == [((1, 1), "p", 0), ((1, 2), "1", 1)]


def test_generation_weighted_two_steps():
    records = enumerate_generations(PGRAM, monomial({"x": 1}), 2, P_FAMILY)
    table = [
        (r.sequence.entries, str(r.weight), dict(r.monomial).get("y", 0)) for r in records
    ]
    assert table == [
        ((1, 1, 1), "p^2", 0),
        ((1, 1, 2), "p", 1),
        ((1, 2, 1), "p", 1),
        ((1, 2, 2), "1", 2),
        ((1, 2, 3), "1", 1),
    ]


def test_generation_zero_steps():
    start = monomial({"x": 1, "y": 1})
    records = enumerate_generations(STIRLING, start, 0, STIRLING_FAMILY)
    assert len(records) == 1
    assert records[0].sequence.entries == (1,)
    assert records[0].monomial == start
    assert records[0].weight == Polynomial.one()


def test_generation_sum_identity():
    xy = monomial({"x": 1, "y": 1})
    x_only = monomial({"x": 1})
    for n in range(7):
        records = enumerate_generations(STIRLING, xy, n, STIRLING_FAMILY)
        assert generation_sum(records) == derive_n(STIRLING, X * Y, n)
        records = enumerate_generations(PGRAM, x_only, n, P_FAMILY)
        assert generation_sum(records) == derive_n(PGRAM, X, n)


def test_generation_start_shift():
    # (G^n, x) is (G^(n-1), xy) with the forced first step prepended
    x_only = monomial({"x": 1})
    xy = monomial({"x": 1, "y": 1})
    for n in range(1, 7):
        from_x = sorted(r.sequence.entries for r in enumerate_generations(STIRLING, x_only, n, STIRLING_FAMILY))
        from_xy = sorted(
            (1, 1) + r.sequence.entries[1:]
            for r in enumerate_generations(STIRLING, xy, n - 1, STIRLING_FAMILY)
        )
        assert from_x == from_xy


def test_generation_unsupported_pairs():
    with pytest.raises(ValueError):
        enumerate_generations(STIRLING, monomial({"x": 1}), 2, P_FAMILY)
    with pytest.raises(ValueError):
        enumerate_generations(PGRAM, monomial({"x": 1}), 2, STIRLING_FAMILY)
    with pytest.raises(ValueError):
        enumerate_generations(STIRLING, monomial({"y": 2}), 2, STIRLING_FAMILY)
    with pytest.raises(ValueError):
        enumerate_generations(STIRLING, monomial({"x": 1}), 2, "unknown")
    with pytest.raises(ValueError):
        enumerate_generations(parse_grammar("x -> 2*x*y; y -> y"), monomial({"x": 1}), 2, STIRLING_FAMILY)
    with pytest.raises(ValueError):
        enumerate_generations(parse_grammar("x -> y*x + x*y; y -> y"), monomial({"x": 1}), 2, P_FAMILY)
    # the letter names are free: u, v play the roles of x, y
    renamed = enumerate_generations(parse_grammar("u -> u*v; v -> v"), monomial({"u": 1}), 2, STIRLING_FAMILY)
    plain = enumerate_generations(STIRLING, monomial({"x": 1}), 2, STIRLING_FAMILY)
    assert [r.sequence for r in renamed] == [r.sequence for r in plain]


# -- shift operator ---------------------------------------------------------


def test_shift_apply_examples():
    series = shift_apply(STIRLING, X, 2)
    assert series == TruncatedSeries(
        "lambda", [X, X * Y, (X * (Y + Y**2)).scale(Fraction(1, 2))]
    )

    series = shift_apply(STIRLING, Y, 5)
    assert series == TruncatedSeries.var("lambda", 5).exp().scale(Y)

    assert shift_apply(STIRLING, Polynomial.zero(), 3) == TruncatedSeries.constant("lambda", 0, 3)


def test_shift_closed_forms():
    order = 8
    lam = TruncatedSeries.var("lambda", order)
    inner = (lam.exp() - 1).scale(Y).exp()
    assert shift_apply(STIRLING, X, order) == inner.scale(X)
    assert shift_apply(STIRLING, X * Y, order) == inner * lam.exp().scale(X * Y)
    for m in range(1, 5):
        assert shift_apply(STIRLING, Y**m, order) == lam.scale(m).exp().scale(Y**m)
        assert derive_n(STIRLING, Y**m, 9) == Y**m * m**9
