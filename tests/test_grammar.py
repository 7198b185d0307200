"""Tests for grammars, the formal derivative, generation sequences and
the shift operator."""

import random
import re
from fractions import Fraction
from math import comb, factorial

import pytest

from weylgram.grammar import (
    GenSequence,
    Grammar,
    P_FAMILY,
    STIRLING_FAMILY,
    _growth_levels,
    derive,
    derive_chain,
    derive_n,
    enumerate_generations,
    generation_sum,
    growth_bound,
    growth_sequences,
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
    for family in (STIRLING_FAMILY, P_FAMILY):
        with pytest.raises(ValueError, match="^sequence must start with 1$"):
            GenSequence((2,), family)
        with pytest.raises(ValueError, match="^sequence must start with 1$"):
            GenSequence((), family)
        with pytest.raises(ValueError, match="^entry 0 at position 2 "):
            GenSequence((1, 0), family)
    with pytest.raises(ValueError, match="^entry 3 at position 2 violates the ones bound$"):
        GenSequence((1, 3), STIRLING_FAMILY)  # only one 1 seen so far
    with pytest.raises(ValueError, match="^entry 3 at position 2 violates the twos bound$"):
        GenSequence((1, 3), P_FAMILY)  # no 2 seen so far
    with pytest.raises(ValueError, match="^unknown sequence family 'unknown'$"):
        GenSequence((1,), "unknown")
    GenSequence((1, 2, 3), P_FAMILY)


# The fifteen twos-bounded sequences of length 4 in lexicographic order,
# as published; the contractions of (ca)^4 carry exactly these labels.
TWOS_BOUNDED_LEN4 = (
    (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 1, 2, 2), (1, 1, 2, 3),
    (1, 2, 1, 1), (1, 2, 1, 2), (1, 2, 1, 3), (1, 2, 2, 1), (1, 2, 2, 2),
    (1, 2, 2, 3), (1, 2, 2, 4), (1, 2, 3, 1), (1, 2, 3, 2), (1, 2, 3, 3),
)


def test_twos_bounded_sequences_of_length_4_are_the_published_table():
    assert growth_sequences(P_FAMILY, 4) == list(TWOS_BOUNDED_LEN4)


def reference_growth_sequences(family, length, offset=0):
    """The recursive walk: extend one prefix at a time, depth first."""
    out = []

    def walk(seq, ones, twos):
        if len(seq) == length:
            out.append(tuple(seq))
            return
        for s in range(1, growth_bound(family, ones, twos) + offset + 1):
            seq.append(s)
            walk(seq, ones + (s == 1), twos + (s == 2))
            seq.pop()

    walk([1], 1, 0)
    return out


@pytest.mark.parametrize("family", [STIRLING_FAMILY, P_FAMILY])
@pytest.mark.parametrize("offset", [0, -1, 1])
def test_growth_sequences_match_the_recursive_walk(family, offset):
    references = [reference_growth_sequences(family, length, offset) for length in range(1, 10)]
    for length, reference in enumerate(references, 1):
        assert growth_sequences(family, length, offset) == reference, length
    # Every level of the one walk, with tuple and with bytes sequences.
    assert list(_growth_levels(family, 9, offset, unit=tuple)) == references
    byte_levels = list(_growth_levels(family, 9, offset, unit=bytes))
    assert all(type(s) is bytes for level in byte_levels for s in level)
    assert [[tuple(s) for s in level] for level in byte_levels] == references


def test_byte_growth_levels_refuse_entries_above_255():
    # With offset 254 the second entry of a weighted sequence runs to 256.
    with pytest.raises(ValueError, match="^bytes must be in range"):
        list(_growth_levels(P_FAMILY, 2, 254, unit=bytes))
    assert list(_growth_levels(P_FAMILY, 2, 254, unit=tuple))[-1][-1] == (1, 256)
    assert list(_growth_levels(P_FAMILY, 2, 252, unit=bytes))[-1][-1] == bytes((1, 254))


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
    for grammar, start, n, family, message in [
        (STIRLING, {"x": 1}, -1, STIRLING_FAMILY, "step count must be >= 0"),
        (PGRAM, {"x": 1}, -1, P_FAMILY, "step count must be >= 0"),
        (STIRLING, {"x": 1}, 2, "unknown", "unknown generation family 'unknown'"),
        (STIRLING, {"x": 1}, 2, P_FAMILY, "grammar does not match the weighted generation semantics"),
        (PGRAM, {"x": 1}, 2, STIRLING_FAMILY, "grammar does not match the plain generation semantics"),
        ("x -> 2*x*y; y -> y", {"x": 1}, 2, STIRLING_FAMILY, "grammar does not match the plain generation semantics"),
        ("x -> y*x + x*y; y -> y", {"x": 1}, 2, P_FAMILY, "grammar does not match the weighted generation semantics"),
        (STIRLING, {"y": 2}, 2, STIRLING_FAMILY, "unsupported start monomial for plain semantics: y^2"),
        (STIRLING, {"x": 1, "y": 2}, 2, STIRLING_FAMILY, "unsupported start monomial for plain semantics: x*y^2"),
        (PGRAM, {"x": 1, "y": 1}, 2, P_FAMILY, "unsupported start monomial for weighted semantics: x*y"),
        (PGRAM, {"x": 2}, 2, P_FAMILY, "unsupported start monomial for weighted semantics: x^2"),
    ]:
        if isinstance(grammar, str):
            grammar = parse_grammar(grammar)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumerate_generations(grammar, monomial(start), n, family)


def test_generation_letter_names_are_free():
    # u, v (and t for p) play the roles of x, y (and p)
    names = {"u": "x", "v": "y", "t": "p"}

    def records(grammar, family, start, n=3):
        return [
            (r.sequence, {names.get(k, k): e for k, e in r.monomial}, r.weight)
            for r in enumerate_generations(parse_grammar(grammar), monomial(start), n, family)
        ]

    assert records("u -> u*v; v -> v", STIRLING_FAMILY, {"u": 1}) == records(
        "x -> x*y; y -> y", STIRLING_FAMILY, {"x": 1}
    )
    renamed = records("u -> t*u + u*v; v -> v", P_FAMILY, {"u": 1})
    weighted = records("x -> p*x + x*y; y -> y", P_FAMILY, {"x": 1})
    assert [(s, m, w.substitute("t", P)) for s, m, w in renamed] == weighted
    assert len(weighted) == 15


# -- shift operator ---------------------------------------------------------


def test_shift_apply_examples():
    series = shift_apply(STIRLING, X, 2)
    assert series == TruncatedSeries(
        "lambda", [X, X * Y, (X * (Y + Y**2)).scale(Fraction(1, 2))]
    )

    series = shift_apply(STIRLING, Y, 5)
    assert series == TruncatedSeries.var("lambda", 5).exp().scale(Y)

    assert shift_apply(STIRLING, Polynomial.zero(), 3) == TruncatedSeries.constant("lambda", 0, 3)


def test_shift_apply_coefficients_are_derivatives_over_factorials():
    # the running n! of shift_apply against factorial(n) taken afresh
    series = shift_apply(STIRLING, X, 30)
    expected = [derive_n(STIRLING, X, n).scale(Fraction(1, factorial(n))) for n in range(31)]
    assert list(series.coefficients) == expected
    assert list(map(str, series.coefficients)) == list(map(str, expected))


def test_shift_closed_forms():
    order = 8
    lam = TruncatedSeries.var("lambda", order)
    inner = (lam.exp() - 1).scale(Y).exp()
    assert shift_apply(STIRLING, X, order) == inner.scale(X)
    assert shift_apply(STIRLING, X * Y, order) == inner * lam.exp().scale(X * Y)
    for m in range(1, 5):
        assert shift_apply(STIRLING, Y**m, order) == lam.scale(m).exp().scale(Y**m)
        assert derive_n(STIRLING, Y**m, 9) == Y**m * m**9


# -- the packed kernel against the definition --------------------------------


def reference_derive(g, a):
    """The definition D(a) = sum over ruled v of (da/dv) * rule(v), on Polynomial."""
    return sum((a.diff(v) * image for v, image in g.rules.items()), Polynomial.zero())


def reference_chain(steps, a):
    """D_k(...D_1(a)...) for the grammars in the order they act."""
    for g in steps:
        a = reference_derive(g, a)
    return a


def reference_shift(g, a, order):
    coeffs = []
    for n in range(order + 1):
        coeffs.append(a.scale(Fraction(1, factorial(n))))
        a = reference_derive(g, a)
    return TruncatedSeries("lambda", coeffs)


def assert_stored_form(p):
    """Every coefficient nonzero, an int, or a Fraction whose denominator is not 1."""
    for c in p.terms().values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def _random_polynomial(rng, names, rational, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        chosen = rng.sample(names, rng.randint(0, min(3, len(names))))
        mono = monomial({name: rng.randint(0, max_exp) for name in chosen})
        c = rng.randint(-5, 5)
        if rational and rng.random() < 0.5:
            c = Fraction(c, rng.randint(2, 5))
        terms[mono] = terms.get(mono, 0) + c
    return Polynomial(terms)


def _random_grammar(rng, rational):
    ruled = rng.sample("xyz", rng.randint(1, 3))
    # images may name p, q and w, which have no rule
    return Grammar({v: _random_polynomial(rng, list("xyzpqw"), rational, 3, 2) for v in ruled})


@pytest.mark.parametrize("rational", [False, True])
def test_kernel_matches_reference_on_random_grammars(rational):
    rng = random.Random(20 + rational)
    for _ in range(60):
        g = _random_grammar(rng, rational)
        a = _random_polynomial(rng, list("xyzp"), rational)
        n = rng.randint(0, 4)
        chain = [_random_grammar(rng, rational) for _ in range(rng.randint(1, 3))]
        results = [
            (derive(g, a), reference_derive(g, a)),
            (derive_n(g, a, n), reference_chain([g] * n, a)),
            (derive_chain(chain, a), reference_chain(chain[::-1], a)),
        ]
        for got, want in results:
            assert got == want
            assert_stored_form(got)
        series = shift_apply(g, a, n)
        assert series == reference_shift(g, a, n)
        for c in series.coefficients:
            assert_stored_form(c)


def test_kernel_edge_cases():
    cases = [
        (parse_grammar("x -> 3"), parse_polynomial("x^3 + 2*x + 7")),  # degree-0 image
        (parse_grammar("x -> 0; y -> y"), parse_polynomial("x*y + x")),  # zero image
        (parse_grammar("x -> y - y"), X),  # an image that parses to 0
        (parse_grammar("x -> y; y -> -x"), X**2 + Y**2),  # cancels to 0 in one step
        (parse_grammar("x -> p*x + q; y -> w*y"), parse_polynomial("x*y + 5")),  # unruled image symbols
        (parse_grammar("x -> 1/2*x^2 + 1/3"), parse_polynomial("2/3*x + 1")),  # rational, constant term
        (STIRLING, Polynomial.zero()),
        (STIRLING, Polynomial.one()),
        (STIRLING, parse_polynomial("u^2*v")),  # start symbols outside the grammar
    ]
    for g, a in cases:
        for n in range(5):
            got = derive_n(g, a, n)
            assert got == reference_chain([g] * n, a), (str(g), str(a), n)
            assert_stored_form(got)
        assert shift_apply(g, a, 4) == reference_shift(g, a, 4)
    assert derive_n(parse_grammar("x -> y; y -> -x"), X**2 + Y**2, 1).is_zero()
    assert derive_n(STIRLING, X, 0) == X
    assert shift_apply(STIRLING, X * Y, 0) == TruncatedSeries("lambda", [X * Y])
    assert derive(STIRLING, Polynomial.zero()).is_zero()


def test_chain_of_grammars_with_different_symbol_sets():
    chain = [
        parse_grammar("z -> x*z + 1/2"),
        parse_grammar("y -> z*y; w -> 2"),
        parse_grammar("x -> x*y"),
    ]
    start = parse_polynomial("x^2 + w")
    got = derive_chain(chain, start)
    assert got == reference_chain(chain[::-1], start)
    # 2x^2*y, then 2x^2*y*z, then 2x^2*y*(x*z + 1/2)
    assert str(got) == "x^2*y + 2*x^3*y*z"
    assert_stored_form(got)


def test_exponent_reaching_the_packing_bound():
    # x -> x^3 raises the degree by 2 per step: D^n(x) = (2n-1)!! x^(2n+1),
    # and 2n + 1 is the kernel's degree bound, so the x field is full.
    cube = parse_grammar("x -> x^3")
    double_factorial = 1
    for n in range(12):
        assert derive_n(cube, X, n) == X ** (2 * n + 1) * double_factorial
        assert derive_n(cube, X * Y, n) == X ** (2 * n + 1) * Y * double_factorial
        assert derive_n(cube, X + Y**3, n) == reference_chain([cube] * n, X + Y**3)
        double_factorial *= 2 * n + 1
