"""Tests for the number-family oracles and their independent routes."""

import itertools
import os
import random
import subprocess
import sys
from functools import partial
from math import comb, factorial

import pytest

import weylgram
from weylgram import numbers
from weylgram.grammar import Grammar, derive_n
from weylgram.ring import ParseError
from weylgram.numbers import (
    FerrersBoard,
    MAX_ROOK_PLACEMENTS,
    SECOND_ORDER_EULERIAN_ROWS,
    bell,
    build_triangle,
    dowling_poly,
    eulerian,
    eulerian_m,
    falling_factorial_identity_check,
    gen_bell,
    gen_stirling_dobinski,
    gen_stirling_recur,
    q_stirling,
    rook_numbers,
    rook_numbers_by_columns,
    rstirling_bruteforce,
    sf_from_eulerian,
    sf_numbers,
    special_poly,
    staircase_board,
    stirling2,
    stirling_p,
    whitney,
)
from weylgram.ring import (
    Polynomial,
    falling_factorial,
    parse_polynomial,
    sym,
    to_falling_factorial_basis,
)

X, Y, P, Q, M, R = (sym(n) for n in "xypqmr")


def test_stirling2_values():
    assert stirling2(3, 2) == 3
    assert bell(4) == 15
    assert all(stirling2(n, 1) == 1 for n in range(1, 11))
    assert stirling2(5, 7) == 0 and stirling2(5, 0) == 0
    assert [stirling2(4, k) for k in range(1, 5)] == [1, 7, 6, 1]


def test_bell_sequence():
    assert [bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_eulerian_m_values():
    assert eulerian_m(1, 0, 1) == 1
    assert eulerian_m(0, 0, 1) == 1
    assert [eulerian(4, k) for k in range(4)] == [1, 11, 11, 1]
    # row sums give permutations for m=1 and signed-permutation style
    # counts m^n n! in general
    for m in range(1, 4):
        for n in range(1, 7):
            assert sum(eulerian_m(n, k, m) for k in range(n + 1)) == m**n * factorial(n)


def test_eulerian_stirling_identity():
    for n in range(1, 9):
        for k in range(n + 1):
            lhs = factorial(k) * stirling2(n, k)
            rhs = sum(eulerian(n, j) * comb(j, n - k) for j in range(n) if j >= n - k >= 0)
            assert lhs == rhs


def test_stirling_p_rows():
    assert [stirling_p(3, k) for k in (1, 2, 3)] == [P**2, 2 * P + 1, Polynomial.one()]
    assert stirling_p(6, 6) == Polynomial.one()
    assert stirling_p(6, 1) == P**5
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert stirling_p(n, k).substitute("p", 1).constant_value() == stirling2(n, k)


def test_gen_stirling_recurrence_rows():
    assert [gen_stirling_recur(3, k, 3, 1) for k in (1, 2, 3)] == [15, 9, 1]
    assert [gen_stirling_recur(2, k, 3, 3) for k in (3, 4, 5, 6)] == [6, 18, 9, 1]
    assert [gen_stirling_recur(2, k, 2, 1) for k in (1, 2)] == [2, 1]
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert gen_stirling_recur(n, k, 1, 1) == stirling2(n, k)
    with pytest.raises(ValueError):
        gen_stirling_recur(3, 2, 3, 2)


def test_gen_stirling_series_route():
    for r in range(1, 5):
        for s in sorted({1, r}):
            for n in range(1, 7):
                for k in range(n * s + 2):
                    recur = gen_stirling_recur(n, k, r, s) if k >= s else 0
                    assert gen_stirling_dobinski(n, k, r, s) == recur
    # outside the support everything vanishes
    assert gen_stirling_dobinski(2, 7, 3, 3) == 0
    assert gen_stirling_dobinski(3, 1, 2, 2) == 0


@pytest.mark.parametrize(
    "n, row",
    [
        (1, [0, 0, 1, 0]),
        (2, [0, 0, 6, 6, 1, 0]),
        (3, [0, 0, 72, 168, 96, 18, 1, 0]),
        (4, [0, 0, 1440, 5760, 6120, 2520, 456, 36, 1, 0]),
    ],
)
def test_dobinski_off_the_recurrence_lines(n, row):
    # S_{3,2} has no recurrence route; k = 0..2n + 1, one past the support
    assert [gen_stirling_dobinski(n, k, 3, 2) for k in range(2 * n + 2)] == row


def test_eulerian_m_names_a_non_integral_value():
    with pytest.raises(ArithmeticError) as exc:
        eulerian_m(0, -1, 1)
    assert str(exc.value) == "non-integral m-Eulerian value at (0,-1,1)"


def test_gen_bell():
    assert gen_bell(2, 3) == 34
    assert gen_bell(1, 5) == 1
    for n in range(1, 9):
        assert gen_bell(n, 1) == bell(n)


def test_accessors_vanish_outside_the_row():
    # row n has n + 1 entries, k = 0..n (n*r + 1 for S_{r,r}); any other k is zero
    zero = Polynomial.zero()
    for n in (1, 2, 5):
        for k in (-1, n + 1, n + 7):
            assert stirling2(n, k) == 0
            assert stirling_p(n, k) == zero and q_stirling(n, k) == zero
            assert whitney(n, k) == zero and whitney(n, k, 2, 3) == zero
            for variant in ("plain", "bar", "tilde"):
                assert sf_numbers(n, k, "m", variant) == zero
            assert gen_stirling_recur(n, k, 3, 1) == 0
    assert stirling2(4, 0) == 0 and stirling2(0, 0) == 1 and whitney(0, 0) == Polynomial.one()
    assert stirling_p(4, 0) == zero and q_stirling(4, 0) == zero
    for r in (2, 3):
        for n in (1, 2, 4):
            assert gen_stirling_recur(n, n * r, r, r) == 1
            for k in (-1, n * r + 1, n * r + 5):
                assert gen_stirling_recur(n, k, r, r) == 0


def test_q_stirling_rows():
    assert [q_stirling(3, k) for k in (1, 2, 3)] == [Q**3, Q**2 + Q + 1, Polynomial.one()]
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert q_stirling(n, k).substitute("q", 1).constant_value() == stirling2(n, k)


def test_q_stirling_defining_relation():
    for n in range(1, 7):
        product = Polynomial.one()
        for i in range(n):
            product = product * (X + Q**i)
        expansion = Polynomial.zero()
        for k in range(1, n + 1):
            basis = Polynomial.one()
            for i in range(k):
                basis = basis * (X + 1 - i)
            expansion = expansion + q_stirling(n, k) * basis
        assert product == expansion


def test_whitney_rows():
    assert [whitney(2, k) for k in (0, 1, 2)] == [R**2, M + 2 * R, Polynomial.one()]
    for n in range(1, 9):
        for k in range(n + 1):
            assert whitney(n, k, 1, 0).constant_value() == stirling2(n, k)
            assert whitney(n, k, 1, "p") == stirling_p(n + 1, k + 1)


def test_whitney_defining_relation():
    # (m x + r)^n = sum_k m^k W_{m,r}(n,k) x^(falling k)
    for n in range(1, 7):
        lhs = (M * X + R) ** n
        rhs = Polynomial.zero()
        for k in range(n + 1):
            rhs = rhs + M**k * whitney(n, k) * falling_factorial(X, k)
        assert lhs == rhs


def test_dowling_poly():
    assert dowling_poly(1) == R + X
    assert dowling_poly(2, var="y") == R**2 + (M + 2 * R) * Y + Y**2


def test_rstirling_bruteforce():
    assert rstirling_bruteforce(1, 1, 2) == 1
    for n in range(1, 8):
        for k in range(n + 1):
            assert rstirling_bruteforce(n, k, 0) == stirling2(n, k)
    for r in range(4):
        for n in range(1, 5):
            for k in range(n + 1):
                assert rstirling_bruteforce(n, k, r) == whitney(n, k, 1, r).constant_value()
    with pytest.raises(ValueError):
        rstirling_bruteforce(10, 2, 5)


def test_rstirling_bruteforce_matches_whitney():
    # r-Stirling numbers are the Whitney numbers at m = 1
    for size in range(10):
        for r in range(size + 1):
            n = size - r
            assert rstirling_bruteforce(n, -1, r) == 0
            assert rstirling_bruteforce(n, n + 1, r) == 0
            for k in range(-1, n + 2):
                assert rstirling_bruteforce(n, k, r) == whitney(n, k, 1, r).constant_value(), (n, k, r)


def reference_rstirling_bruteforce(n, k, r):
    """The walk before it pruned: every one of the Bell(n+r) restricted
    growth strings, each tested at its leaf."""
    size, wanted = n + r, k + r
    total = 0
    # (next element, blocks opened, bitmask of blocks holding one of 1..r,
    # no block holds two of 1..r); the last element is walked inline.
    stack = [(0, 0, 0, True)]
    while stack:
        element, blocks, marked, valid = stack.pop()
        if element == size:
            total += valid and blocks == wanted
            continue
        last = element + 1 == size
        for block in range(blocks + 1):
            opened = blocks + (block == blocks)
            bit = 1 << block if element < r else 0
            ok = valid and not marked & bit
            if last:
                total += ok and opened == wanted
            else:
                stack.append((element + 1, opened, marked | bit, ok))
    return total


def test_rstirling_bruteforce_matches_unpruned_walk():
    for size in range(10):
        for r in range(size + 1):
            n = size - r
            for k in range(-1, n + 2):
                assert rstirling_bruteforce(n, k, r) == reference_rstirling_bruteforce(n, k, r), (n, k, r)


def test_negative_n_is_rejected():
    for call in (lambda: bell(-1), lambda: dowling_poly(-1), lambda: dowling_poly(-3, 1, 1)):
        with pytest.raises(ValueError, match="n must be >= 0"):
            call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: stirling2(-1, 0), "n must be >= 0"),
        (lambda: stirling2(-1, 5), "n must be >= 0"),
        (lambda: bell(-1), "n must be >= 0"),
        (lambda: whitney(-1, 0), "n must be >= 0"),
        (lambda: dowling_poly(-1), "n must be >= 0"),
        (lambda: sf_numbers(-1, 0), "n must be >= 0"),
        (lambda: stirling_p(0, 1), "n must be >= 1"),
        (lambda: stirling_p(0, 5), "n must be >= 1"),
        (lambda: q_stirling(0, 1), "n must be >= 1"),
        (lambda: sf_numbers(-1, 0, "m", "bad"), "unknown variant 'bad'"),
        (lambda: gen_bell(0, 2), "need n >= 1 and r >= 1"),
    ],
)
def test_accessor_errors_below_the_first_row(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_row_walker_builds_each_row_once(monkeypatch):
    monkeypatch.setattr(weylgram.numbers, "_ROWS", {})
    built = []

    def next_row(i, prev, pad):
        built.append(i)
        return prev + [pad]

    walk = weylgram.numbers._rows
    assert walk(("demo",), 3, 1, [0, 1], next_row, 7) == [0, 1, 7, 7]
    assert walk(("demo",), 2, 1, [0, 1], next_row, 7) == [0, 1, 7]
    assert walk(("demo",), 1, 1, [0, 1], next_row, 7) == [0, 1]
    assert built == [2, 3]
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        walk(("demo",), 0, 1, [0, 1], next_row, 7)


def test_sf_rows():
    assert [sf_numbers(2, k) for k in (0, 1, 2)] == [
        (M - 1) ** 2,
        3 * M - 2,
        Polynomial.one(),
    ]
    for n in range(1, 9):
        for k in range(n + 1):
            assert sf_numbers(n, k, 1).constant_value() == stirling2(n, k)
            assert sf_numbers(n, k, "m", "bar") == M**k * sf_numbers(n, k)
            assert sf_numbers(n, k, "m", "tilde") == M**k * factorial(k) * sf_numbers(n, k)


def test_sf_formula_route():
    for m in range(1, 5):
        for n in range(1, 9):
            for k in range(n + 1):
                recur = sf_numbers(n, k, m).constant_value()
                assert sf_from_eulerian(n, k, m) == recur


def test_special_polynomials():
    assert special_poly("bessel", 2) == 1 + 3 * X + 3 * X**2
    assert special_poly("bessel", 0) == Polynomial.one()
    assert special_poly("laguerre-square", 2) == Y**2 + 4 * Y + 2
    with pytest.raises(ValueError):
        special_poly("chebyshev", 2)


def test_special_polynomials_match_their_grammars():
    laguerre = Grammar({"x": X * Y + X * Y**2, "y": Y**2})
    bessel = Grammar({"x": X * Y + X * Y**2, "y": Y**3})
    assert derive_n(laguerre, X, 2) == X * (2 * Y**2 + 4 * Y**3 + Y**4)
    assert derive_n(bessel, X, 2) == X * Y**2 * (1 + 3 * Y + 3 * Y**2)
    for n in range(1, 7):
        assert derive_n(laguerre, X, n) == X * Y**n * special_poly("laguerre-square", n, var="y")
        assert derive_n(bessel, X, n) == X * Y**n * special_poly("bessel", n, var="y")


def test_rook_numbers():
    assert rook_numbers(FerrersBoard((1, 1))) == [1, 2, 0]
    assert rook_numbers(FerrersBoard((1, 1, 3, 3))) == [1, 8, 14, 4, 0]
    assert rook_numbers(FerrersBoard(())) == [1]
    padded = rook_numbers(FerrersBoard((0, 0, 1, 1)))
    assert padded[:3] == [1, 2, 0] and all(v == 0 for v in padded[3:])
    with pytest.raises(ValueError):
        FerrersBoard((3, 1))


def test_board_parsing():
    assert FerrersBoard.parse(" 1, 2 ,+3,1_0 ").heights == (1, 2, 3, 10)
    assert FerrersBoard.parse("").heights == ()
    for text, message in [
        ("2,x", "bad part 'x' in board '2,x'"),
        ("1,2,,3", "bad part '' in board '1,2,,3'"),
        ("1,2²", "bad part '2²' in board '1,2²'"),
        ("9" * 5000, f"part of 5000 digits (at most 4300) in board '{'9' * 5000}'"),
    ]:
        with pytest.raises(ParseError) as info:
            FerrersBoard.parse(text)
        assert str(info.value) == message
    with pytest.raises(ValueError, match="^column heights must be >= 0$"):
        FerrersBoard.parse("-1")


def test_rook_numbers_on_a_long_board():
    # one column more than the default recursion limit
    assert rook_numbers(FerrersBoard((0,) * 1200)) == [1] + [0] * 1200


def test_rook_numbers_match_column_recurrence():
    # A new column of height h, at least every earlier one, meets k-1 rooks
    # in k-1 of its h rows: r_k -> r_k + (h - k + 1) r_(k-1).
    rng = random.Random(20050101)
    for _ in range(300):
        heights = sorted(rng.randint(0, 6) for _ in range(rng.randint(0, 8)))
        expected = [1] + [0] * len(heights)
        for h in heights:
            expected = [expected[0]] + [
                expected[k] + (h - k + 1) * expected[k - 1] for k in range(1, len(expected))
            ]
        assert rook_numbers(FerrersBoard(tuple(heights))) == expected, heights


def test_rook_numbers_match_the_gjw_product():
    # Goldman-Joichi-White: sum_k r_k x^(falling n-k) = prod_i (x + h_i - i + 1)
    # for a Ferrers board of n columns, so the falling-basis coefficients of
    # the product, read in reverse, are the rook numbers.
    rng = random.Random(1975)
    boards = [staircase_board(n, extra) for n in range(5) for extra in (False, True)]
    boards += [
        FerrersBoard(tuple(sorted(rng.randint(0, 6) for _ in range(rng.randint(0, 8)))))
        for _ in range(30)
    ]
    for board in boards:
        product = Polynomial.one()
        for i, h in enumerate(board.heights, start=1):
            product = product * (X + (h - i + 1))
        coeffs = to_falling_factorial_basis(product, "x")
        assert [c.constant_value() for c in reversed(coeffs)] == rook_numbers(board), board


def reference_rook_numbers(heights):
    """The walk before it read free rows off a mask: every row of every
    column is tested against the used rows."""
    n = len(heights)
    counts = [0] * (n + 1)
    stack = [(0, 0, 0)]
    while stack:
        col, used, placed = stack.pop()
        if col == n:
            counts[placed] += 1
            continue
        last = col + 1 == n
        if last:
            counts[placed] += 1
        else:
            stack.append((col + 1, used, placed))
        for row in range(heights[col]):
            if not used >> row & 1:
                if last:
                    counts[placed + 1] += 1
                else:
                    stack.append((col + 1, used | 1 << row, placed + 1))
    return counts


def test_rook_numbers_match_row_by_row_walk():
    # every nondecreasing board of at most 6 columns with heights <= 6
    boards = [()]
    for columns in range(1, 7):
        boards += itertools.combinations_with_replacement(range(7), columns)
    assert len(boards) == 1716
    for heights in boards:
        assert rook_numbers(FerrersBoard(heights)) == reference_rook_numbers(heights), heights


@pytest.mark.parametrize(
    "board, total",
    [
        ((), 1),
        ((0,) * 1200, 1),
        ((1, 1, 3, 3), 27),
        *((staircase_board(n).heights, total) for n, total in ((3, 409), (4, 9089), (5, 272947))),
    ],
    ids=["empty", "zeros", "1133", "staircase3", "staircase4", "staircase5"],
)
def test_rook_numbers_by_columns_count_without_enumeration(board, total):
    counts = rook_numbers_by_columns(FerrersBoard(board))
    assert len(counts) == len(board) + 1
    assert sum(counts) == total


def test_rook_numbers_by_columns_match_enumeration():
    rng = random.Random(0)
    for _ in range(100):
        board = FerrersBoard(tuple(sorted(rng.randint(0, 9) for _ in range(rng.randint(0, 8)))))
        assert rook_numbers_by_columns(board) == rook_numbers(board), board


@pytest.mark.parametrize(
    "board",
    [staircase_board(6).heights, (12,) * 12, (1, 99999999999999999999), (10**20,) * 60000],
    ids=["staircase6", "12x12", "huge-height", "many-huge-columns"],
)
def test_rook_numbers_by_columns_stop_past_the_limit(board):
    # staircase_board(6) has 10,515,147 placements, twelve columns of
    # height 12 about 5.3e10; the walk stops at the first column past 10^7
    # (60,000 columns of 60,000 rows each would not finish)
    message = "rook --board allows at most 10000000 placements; this board has more"
    with pytest.raises(ValueError, match=f"^{message}$"):
        rook_numbers_by_columns(FerrersBoard(board))
    assert MAX_ROOK_PLACEMENTS == 10**7


def test_staircase_boards():
    assert staircase_board(2).heights == (1, 1, 3, 3)
    assert staircase_board(2, with_extra_column=True).heights == (1, 1, 3, 3, 4)
    assert FerrersBoard.parse("1,1,3,3") == staircase_board(2)


def test_falling_factorial_identity_checks():
    assert falling_factorial_identity_check(2, 2, 2)
    assert falling_factorial_identity_check(2, 3, 3)
    for n in range(1, 9):
        assert falling_factorial_identity_check(n, 1, 1)
    # a mixed line only reachable through the series route
    assert falling_factorial_identity_check(2, 3, 2)


# A008517 rows 1..8, k = 0..n-1, as published.
A008517 = {
    1: (1,),
    2: (1, 2),
    3: (1, 8, 6),
    4: (1, 22, 58, 24),
    5: (1, 52, 328, 444, 120),
    6: (1, 114, 1452, 4400, 3708, 720),
    7: (1, 240, 5610, 32120, 58140, 33984, 5040),
    8: (1, 494, 19950, 195800, 644020, 785304, 341136, 40320),
}


def test_second_order_rows_are_computed_as_published():
    assert SECOND_ORDER_EULERIAN_ROWS == A008517


def test_second_order_rows_are_consistent():
    # the published rows satisfy the standard recurrence and row sums (2n-1)!!
    for n in range(2, 9):
        row, prev = A008517[n], A008517[n - 1]
        for k in range(n):
            a = (k + 1) * prev[k] if k < len(prev) else 0
            b = (2 * n - 1 - k) * prev[k - 1] if 1 <= k <= len(prev) else 0
            assert row[k] == a + b
    double_factorials = [1, 3, 15, 105, 945, 10395, 135135, 2027025]
    assert [sum(A008517[n]) for n in range(1, 9)] == double_factorials


def test_triangle_csv_golden():
    triangle = build_triangle("stirling-p", 3)
    assert triangle.to_csv() == (
        "family,params\n"
        "stirling-p,p=sym\n"
        "1,1,1\n"
        "2,1,p\n"
        "2,2,1\n"
        "3,1,p^2\n"
        "3,2,1 + 2*p\n"
        "3,3,1\n"
    )


def test_triangle_values_reparse_and_are_integral():
    for family, params in [
        ("stirling2", {}),
        ("eulerian", {"m": 2}),
        ("second-order-eulerian", {}),
        ("stirling-p", {}),
        ("q-stirling", {}),
        ("gen-stirling", {"r": 3, "s": 3}),
        ("whitney", {}),
        ("sf-plain", {"m": 3}),
        ("sf-tilde", {}),
    ]:
        triangle = build_triangle(family, 5, params)
        assert triangle.entries, family
        for _, _, value in triangle.entries:
            assert value.is_integral(), (family, value)
            assert parse_polynomial(str(value)) == value
    with pytest.raises(ValueError):
        build_triangle("nonsense", 3)
    with pytest.raises(ValueError):
        build_triangle("second-order-eulerian", 9)
    with pytest.raises(ValueError, match=r"allowed: m, r"):
        build_triangle("whitney", 3, {"p": 3})


@pytest.mark.parametrize(
    "family, name, accessor, first_column",
    [
        ("stirling-p", "p", stirling_p, lambda n: (n - 1)),
        ("q-stirling", "q", q_stirling, lambda n: n * (n - 1) // 2),
        ("whitney", "m", whitney, None),
        ("whitney", "r", whitney, None),
        *[(f"sf-{variant}", "m", partial(sf_numbers, variant=variant), None) for variant in numbers.SF_VARIANTS],
    ],
)
def test_integer_parameter_binds_as_a_substitution(monkeypatch, family, name, accessor, first_column):
    # An integer parameter is bound as the rows are built; each entry must
    # be the symbolic entry with the integer substituted.  The store starts
    # empty, so the bound rows are built before the symbolic ones, and
    # neither may be served for the other.
    monkeypatch.setattr(numbers, "_ROWS", {})
    bound = {v: build_triangle(family, 25, {name: v}) for v in range(-3, 5)}
    symbolic = build_triangle(family, 25)
    assert [accessor(n, k) for n, k, _ in symbolic.entries] == [value for _, _, value in symbolic.entries]
    for v, triangle in bound.items():
        assert triangle.params == {**symbolic.params, name: str(v)}
        assert triangle.entries == tuple((n, k, value.substitute(name, v)) for n, k, value in symbolic.entries)
    assert all(type(value) is Polynomial for rows in numbers._ROWS.values() for row in rows if row for value in row)
    if first_column is None:
        # The accessor takes the integer too, and binds it the same way.
        for v, triangle in bound.items():
            assert [accessor(n, k, **{name: v}) for n, k, _ in triangle.entries] == [
                value for _, _, value in triangle.entries
            ]
    else:
        assert [accessor(n, 1) for n in range(1, 26)] == [sym(name) ** first_column(n) for n in range(1, 26)]
        # Any other binding leaves the symbol, as an unset parameter does.
        assert build_triangle(family, 6, {name: X + 1}).entries == build_triangle(family, 6).entries


def test_dobinski_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_stirling_dobinski(2, 2, 1, 2)
    with pytest.raises(ValueError):
        gen_stirling_recur(0, 1, 2, 2)


def test_recurrences_need_no_recursion():
    # A fresh interpreter, so that no row is already built (test_weyl builds
    # the Stirling rows up to n = 400): 200 rows under a recursion limit of 150.
    code = """
import sys
from math import factorial
sys.setrecursionlimit(150)
from weylgram.numbers import bell, gen_stirling_recur, sf_numbers, stirling2, whitney
assert stirling2(200, 200) == 1 and stirling2(200, 2) == 2**199 - 1
assert bell(200) == sum(stirling2(200, k) for k in range(201))
assert gen_stirling_recur(200, 1, 2, 1) == factorial(200)
assert gen_stirling_recur(200, 400, 2, 2) == 1
assert whitney(200, 1, 1, 0) == 1 and sf_numbers(200, 200, 1) == 1
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylgram.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
