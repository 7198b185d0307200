"""Independent oracles for the combinatorial number families: triangle
recurrences, closed-form and series routes, brute-force counts, and rook
numbers on Ferrers boards.

Each family that admits more than one route gets more than one
implementation; the verification suites compare them.  Triangle entries
are exact integers or integer polynomials in the declared parameters;
every division (series extraction, signed sums with a 1/2 factor,
division by m^k k!) goes through _quotient, which raises unless it is exact.

One walker, ``_rows``, builds every recurrence row by row, with no
recursion.  It owns the store of built rows and the one check that n is
not below the family's first row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import groupby
from math import comb, factorial, perm
from operator import itemgetter
from typing import Callable, Sequence, Union

from .ring import (
    Polynomial,
    coerce_polynomial,
    falling_factorial,
    parse_int,
    poly_sum,
    sym,
    to_falling_factorial_basis,
)

ParamValue = Union[int, str, Polynomial]


def _comb0(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def _as_param(value: ParamValue) -> int | Polynomial:
    """A str as its symbol; an int or a polynomial as it is."""
    return sym(value) if isinstance(value, str) else value


def _quotient(numerator: int, denominator: int, what: str, *at: int) -> int:
    """numerator / denominator, which must be an integer: else an
    ArithmeticError names `what` and the arguments `at`."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"non-integral {what} at ({','.join(map(str, at))})")
    return quotient


# -- recurrence rows -------------------------------------------------------

# Every row the recurrence oracles have built, keyed by family and bound
# parameters: _ROWS[key][n] is row n indexed by k, None below the family's
# first row; row n has n + 1 entries (n*r + 1 for S_{r,r}).  Nothing is
# freed for the life of the process.
_ROWS: dict[tuple, list] = {}


def _rows(key: tuple, n: int, start: int, first: list, next_row: Callable, *args) -> list:
    """Row n of the family `key`, whose first row, row `start`, is `first`;
    a smaller n is a ValueError.  The rows up to n that _ROWS lacks are
    built in order, row i as next_row(i, row i - 1, *args)."""
    if n < start:
        raise ValueError(f"n must be >= {start}")
    rows = _ROWS.get(key)
    if rows is None:
        rows = _ROWS[key] = [None] * start + [first]
    while len(rows) <= n:
        rows.append(next_row(len(rows), rows[-1], *args))
    return rows[n]


def _two_term(n: int, prev: list, stay: Callable, step: Callable | None = None) -> list:
    """Row n of T(n,k) = stay(n,k) T(n-1,k) + step(n,k) T(n-1,k-1), k = 0..n,
    from row n - 1, with T = 0 outside 0..n.  A step of None stands for 1:
    T(n-1,k-1) is added as is."""
    row = [stay(n, 0) * prev[0]]
    for k in range(1, n):
        low = prev[k - 1] if step is None else step(n, k) * prev[k - 1]
        row.append(stay(n, k) * prev[k] + low)
    row.append(prev[n - 1] if step is None else step(n, n) * prev[n - 1])
    return row


def _entry(row: Sequence, k: int, zero: int | Polynomial = 0) -> int | Polynomial:
    """Entry k of a row, and zero outside it."""
    return row[k] if 0 <= k < len(row) else zero


# -- Stirling / Bell ------------------------------------------------------


def _stirling2_row(n: int) -> list[int]:
    return _rows(("stirling2",), n, 0, [1], _two_term, lambda n, k: k)


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind, S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    return _entry(_stirling2_row(n), k)


def bell(n: int) -> int:
    """Row sum of the Stirling triangle."""
    return sum(_stirling2_row(n))


# -- Eulerian families -----------------------------------------------------


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def eulerian_m(n: int, k: int, m: int) -> int:
    """Signed-sum formula for the m-Eulerian numbers.

    The declared special value at (n,k,m) = (0,0,1) is 1; everywhere else
    the halved sum must come out integral and is asserted to.
    """
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    if (n, k, m) == (0, 0, 1):
        return 1
    total = 0
    for j in range(n + 2):
        v = m * (k - j) + 1
        total += (-1) ** j * comb(n + 1, j) * v**n * _sgn(v)
    return _quotient(total, 2, "m-Eulerian value", n, k, m)


def eulerian(n: int, k: int) -> int:
    """Classical Eulerian numbers (m = 1)."""
    return eulerian_m(n, k, 1)


def _second_order_eulerian_row(n: int) -> list[int]:
    """Row n of A008517, k = 0..n, by <<n,k>> = (k+1) <<n-1,k>> +
    (2n-1-k) <<n-1,k-1>> (Graham-Knuth-Patashnik, eq. 6.35); for n >= 1
    its last entry is 0."""
    return _rows(("second-order-eulerian",), n, 0, [1], _two_term, lambda n, k: k + 1, lambda n, k: 2 * n - 1 - k)


# Rows 1..8 of A008517, k = 0..n-1: the rows the `second-order-eulerian`
# triangle and the grammar {x -> x^2*y, y -> x^2*y} check stop at.
SECOND_ORDER_EULERIAN_ROWS: dict[int, tuple[int, ...]] = {
    n: tuple(_second_order_eulerian_row(n)[:n]) for n in range(1, 9)
}


# -- deformed Stirling families -------------------------------------------

_ZERO, _ONE, _P, _Q = Polynomial.zero(), Polynomial.one(), sym("p"), sym("q")


# Every family binds a parameter one way: an integer is used as an int while
# the rows are built, a symbol is made once per call (None here for p or q).
def _stirling_p_row(n: int, p: int | None = None) -> list[Polynomial]:
    return _rows(("stirling-p", p), n, 1, [_ZERO, _ONE], _two_term, lambda n, k: (_P if p is None else p) + (k - 1))


def _q_stirling_row(n: int, q: int | None = None) -> list[Polynomial]:
    return _rows(
        ("q-stirling", q), n, 1, [_ZERO, _ONE], _two_term, lambda n, k: (_Q if q is None else q) ** (n - 1) + (k - 1)
    )


def stirling_p(n: int, k: int) -> Polynomial:
    """S_p(n,k) = (k-1+p) S_p(n-1,k) + S_p(n-1,k-1), S_p(n,1) = p^(n-1)."""
    return _entry(_stirling_p_row(n), k, _ZERO)


def q_stirling(n: int, k: int) -> Polynomial:
    """S_q(n+1,k) = (k-1+q^n) S_q(n,k) + S_q(n,k-1), S_q(1,k) = [k=1]."""
    return _entry(_q_stirling_row(n), k, _ZERO)


def _gen_stirling_row(n: int, r: int, s: int) -> list[int]:
    """Row n of S_{r,s}, indexed by k; only the two parameter lines s = 1
    and s = r have published recurrences."""
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    if s == 1:
        # S_{r,1}(n,k) = [k + (n-1)(r-1)] S_{r,1}(n-1,k) + S_{r,1}(n-1,k-1)
        return _rows(("gen-stirling", r, 1), n, 1, [0, 1], _two_term, lambda n, k: k + (n - 1) * (r - 1))
    if s != r:
        raise ValueError(f"no recurrence route for s={s} (need s=1 or s=r)")
    return _rows(("gen-stirling", r, r), n, 1, [0] * r + [1], _gen_stirling_rr, r)


def _gen_stirling_rr(n: int, prev: list[int], r: int) -> list[int]:
    # S_{r,r}(n+1,k) = sum_p C(k+p-r,p) r^(falling p) S_{r,r}(n,k+p-r); row n
    # spans k = 0..nr and is zero below k = r.
    row = [0] * (n * r + 1)
    for k in range(r, n * r + 1):
        row[k] = sum(
            comb(k + p - r, p) * perm(r, p) * prev[k + p - r]
            for p in range(min(r, n * r - k) + 1)
        )
    return row


def gen_stirling_recur(n: int, k: int, r: int, s: int) -> int:
    """Recurrence route for the generalized Stirling numbers (s = 1 or s = r)."""
    return _entry(_gen_stirling_row(n, r, s), k)


def gen_stirling_dobinski(n: int, k: int, r: int, s: int) -> int:
    """Series-extraction route: coefficient of x^k in the e^{-x}-weighted
    sum; finite because the convolution is lower-triangular in k."""
    if n < 1 or not 0 <= s <= r:
        raise ValueError("need n >= 1 and r >= s >= 0")
    if k < 0:
        return 0
    total = 0
    for j in range(k + 1):
        product = (-1) ** (k - j) * comb(k, j)
        for i in range(1, n + 1):
            product *= perm(j + (i - 1) * (r - s), s)
        total += product
    value = _quotient(total, factorial(k), "series extraction", n, k, r, s)
    if not s <= k <= n * s and value != 0:
        raise ArithmeticError(f"nonzero value outside support at ({n},{k},{r},{s})")
    return value


def gen_bell(n: int, r: int) -> int:
    """Row sum of the (r,r) generalized Stirling triangle."""
    return sum(_gen_stirling_row(n, r, r))


# -- Whitney / Dowling ----------------------------------------------------


def _whitney_row(n: int, m: ParamValue, r: ParamValue) -> list[Polynomial]:
    # W_{m,r}(n,k) = (r + k m) W(n-1,k) + W(n-1,k-1); W(0,k) = [k=0]
    key, m, r = ("whitney", m, r), _as_param(m), _as_param(r)
    return _rows(key, n, 0, [_ONE], _two_term, lambda n, k: r + m * k)


def whitney(n: int, k: int, m: ParamValue = "m", r: ParamValue = "r") -> Polynomial:
    """Two-parameter Whitney numbers; parameters may stay symbolic."""
    return _entry(_whitney_row(n, m, r), k, _ZERO)


def dowling_poly(n: int, m: ParamValue = "m", r: ParamValue = "r", var: str = "x") -> Polynomial:
    """Generating polynomial sum_k W_{m,r}(n,k) var^k."""
    row = _whitney_row(n, m, r)
    x = sym(var)
    return poly_sum(w * x**k for k, w in enumerate(row))


def rstirling_bruteforce(n: int, k: int, r: int) -> int:
    """Count partitions of {1..n+r} into k+r nonempty blocks keeping the
    elements 1..r in distinct blocks, by exhaustive enumeration.

    Each counted partition is built as its own restricted growth string,
    one element at a time: the element joins one of the blocks opened so
    far or opens the next one, and every finished string adds 1.  A prefix
    is extended only while it can still be counted: at most k+r blocks are
    open, the elements left can still open the rest, and 1..r sit in
    distinct blocks, so each of them opens a block of its own.  No
    recurrence is used and no state stands for more than one prefix.  The
    walk keeps an explicit stack, so there is no recursion-depth limit."""
    if n < 0 or r < 0:
        raise ValueError("need n >= 0 and r >= 0")
    if n + r > 12:
        raise ValueError("instance too large for brute force (n + r > 12)")
    size, wanted = n + r, k + r
    total = 0
    # (elements placed, blocks opened), one entry per prefix; every entry
    # keeps opened <= wanted <= opened + elements left.
    stack = [(0, 0)] if 0 <= wanted <= size else []
    while stack:
        placed, opened = stack.pop()
        if placed == size:
            total += 1
            continue
        placed += 1
        if opened < wanted:
            stack.append((placed, opened + 1))
        if placed > r and opened + size - placed >= wanted:
            # one prefix per opened block the element joins
            stack.extend([(placed, opened)] * opened)
    return total


# -- Stirling-Frobenius subset numbers -------------------------------------

SF_VARIANTS = ("plain", "bar", "tilde")


def _sf_row(n: int, m: ParamValue, variant: str) -> list[Polynomial]:
    # stay m(k+1) - 1; step 1 (plain), m (bar) or m k (tilde)
    key, m = ("sf", variant, m), _as_param(m)
    if variant == "plain":
        step = None
    elif variant == "bar":
        step = lambda n, k: m
    else:
        step = lambda n, k: m * k
    return _rows(key, n, 0, [_ONE], _two_term, lambda n, k: m * (k + 1) - 1, step)


def sf_numbers(n: int, k: int, m: ParamValue = "m", variant: str = "plain") -> Polynomial:
    """Stirling-Frobenius subset numbers and their bar/tilde variants.

    bar = m^k * plain and tilde = m^k k! * plain; each variant also has
    its own recurrence, which is what this computes (the relations are
    asserted in the verification suite).
    """
    if variant not in SF_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return _entry(_sf_row(n, m, variant), k, _ZERO)


def sf_from_eulerian(n: int, k: int, m: int) -> int:
    """Formula route: (1/(m^k k!)) sum_j E_m(n,j) C(j, n-k)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    total = sum(eulerian_m(n, j, m) * _comb0(j, n - k) for j in range(n + 1))
    return _quotient(total, m**k * factorial(k), "subset number", n, k, m)


# -- special polynomial families -------------------------------------------


def special_poly(family: str, n: int, var: str | None = None) -> Polynomial:
    """Closed forms for the two concluding grammar examples.

    "bessel": sum_k (n+k)!/((n-k)! k!) (x/2)^k, asserted to clear the 2^k.
    "laguerre-square": sum_k k! C(n,k)^2 y^(n-k).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if family == "bessel":
        x = sym(var or "x")
        return poly_sum(
            x**k * _quotient(factorial(n + k), factorial(n - k) * factorial(k) * 2**k, "Bessel coefficient", n, k)
            for k in range(n + 1)
        )
    if family == "laguerre-square":
        y = sym(var or "y")
        return poly_sum(
            y ** (n - k) * Polynomial.rational(factorial(k) * comb(n, k) ** 2) for k in range(n + 1)
        )
    raise ValueError(f"unknown special family {family!r}")


# -- rook numbers -----------------------------------------------------------


@dataclass(frozen=True)
class FerrersBoard:
    """Board with nondecreasing column heights."""

    heights: tuple[int, ...]

    def __post_init__(self):
        if any(h < 0 for h in self.heights):
            raise ValueError("column heights must be >= 0")
        if any(a > b for a, b in zip(self.heights, self.heights[1:])):
            raise ValueError("column heights must be nondecreasing")

    @staticmethod
    def parse(text: str) -> "FerrersBoard":
        text = text.strip()
        if not text:
            return FerrersBoard(())
        where = f" in board {text!r}"
        return FerrersBoard(tuple(parse_int(part, "part", where) for part in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(h) for h in self.heights)


def rook_numbers(board: FerrersBoard) -> list[int]:
    """Counts r_0..r_n of non-attacking rook placements, by exhaustive
    enumeration.

    Every placement is built column by column: each column stays empty or
    takes a rook in one of its rows that no earlier column used, read off
    the set bits of its free-row mask, so no used row is ever tested.  In
    the last column, each placement so far counts once as it is and once
    per free row.  No recurrence and no closed form in the heights is used.
    The walk keeps an explicit stack, so there is no recursion-depth limit."""
    heights = board.heights
    if not heights:
        return [1]  # the empty placement of the empty board
    counts = [0] * (len(heights) + 1)
    last = len(heights) - 1
    # (column, bitmask of used rows, rooks placed)
    stack = [(0, 0, 0)]
    while stack:
        col, used, placed = stack.pop()
        free = ((1 << heights[col]) - 1) & ~used
        if col == last:
            counts[placed] += 1
            counts[placed + 1] += free.bit_count()
            continue
        col += 1
        stack.append((col, used, placed))
        placed += 1
        while free:
            low = free & -free
            stack.append((col, used | low, placed))
            free ^= low
    return counts


# The placements the rook command accepts, so that rook_numbers, at about
# 100 ns a placement, can check any board it prints; staircase_board(6)
# has 10,515,147 and staircase_board(5) 272,947.
MAX_ROOK_PLACEMENTS = 10**7


def rook_numbers_by_columns(board: FerrersBoard) -> list[int]:
    """Counts r_0..r_n of non-attacking rook placements, as rook_numbers
    gives them, by the column recurrence of Goldman, Joichi and White
    ("Rook theory I", 1975): a column of height h turns r_k into
    r_k + (h - k + 1) r_(k-1), so no placement is built.  The total only
    grows, so the walk stops with ValueError at the first column where it
    passes MAX_ROOK_PLACEMENTS."""
    r, total = [1], 1
    for h in board.heights:
        r.append(0)
        for k in range(min(len(r) - 1, h), 0, -1):
            added = (h - k + 1) * r[k - 1]
            r[k] += added
            total += added
        if total > MAX_ROOK_PLACEMENTS:
            raise ValueError(f"rook --board allows at most {MAX_ROOK_PLACEMENTS} placements; this board has more")
    return r


def staircase_board(n: int, with_extra_column: bool = False) -> FerrersBoard:
    """Heights 1,1,3,3,...,2n-1,2n-1 and optionally a final column 2n."""
    heights: list[int] = []
    for i in range(1, n + 1):
        heights.extend((2 * i - 1, 2 * i - 1))
    if with_extra_column:
        heights.append(2 * n)
    return FerrersBoard(tuple(heights))


# -- identity checks ---------------------------------------------------------


def falling_factorial_identity_check(n: int, r: int, s: int) -> bool:
    """Expand prod_j (x + (j-1)(r-s))^(falling s) in the falling-factorial
    basis and compare every coefficient with the matching generalized
    Stirling value (recurrence route for s in {1, r}, else series route)."""
    if n < 1 or not 0 <= s <= r:
        raise ValueError("need n >= 1 and r >= s >= 0")
    x = sym("x")
    product = Polynomial.one()
    for j in range(1, n + 1):
        product = product * falling_factorial(x + (j - 1) * (r - s), s)
    coeffs = to_falling_factorial_basis(product, "x")
    route = gen_stirling_recur if s in (1, r) else gen_stirling_dobinski
    for k in range(n * s + 1):
        if _entry(coeffs, k, _ZERO) != Polynomial.rational(route(n, k, r, s)):
            return False
    return True


# -- triangle container -------------------------------------------------------


@dataclass(frozen=True)
class Triangle:
    """Rows of polynomial values indexed (n, k), with parameter bindings."""

    family: str
    params: dict[str, str] = field(default_factory=dict)
    entries: tuple[tuple[int, int, Polynomial], ...] = ()

    def to_csv(self) -> str:
        params = ";".join(f"{key}={value}" for key, value in sorted(self.params.items()))
        lines = ["family,params", f"{self.family},{params}"]
        lines.extend(f"{n},{k},{value}" for n, k, value in self.entries)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "params": self.params,
            "entries": [
                {"n": n, "k": k, "value": str(value)} for n, k, value in self.entries
            ],
        }
        return json.dumps(payload, indent=2)

    def to_plain(self) -> str:
        lines = [
            f"n={n}: " + ", ".join(f"k={k}: {value}" for _, k, value in row)
            for n, row in groupby(self.entries, itemgetter(0))
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Family:
    """A triangle family: the parameters it takes, with their defaults in
    display order, then the k-range of row n and row n itself, indexed by k
    and holding integers or polynomials, both given the bound parameters.
    A callable default is computed from the parameters bound before it; a
    parameter whose default is an integer must be bound to an integer."""

    params: dict[str, object]
    columns: Callable[[int, dict], range]
    row: Callable[[int, dict], Sequence[int | Polynomial]]


def _second_order_row(n: int) -> tuple[int, ...]:
    if n not in SECOND_ORDER_EULERIAN_ROWS:
        raise ValueError(f"bundled reference rows stop at n={max(SECOND_ORDER_EULERIAN_ROWS)}")
    return SECOND_ORDER_EULERIAN_ROWS[n]


# The recurrence families hand out the store's own row lists, so build_triangle
# only reads a row and never changes it.
TRIANGLE_FAMILIES: dict[str, _Family] = {
    "stirling2": _Family({}, lambda n, b: range(1, n + 1), lambda n, b: _stirling2_row(n)),
    "eulerian": _Family(
        {"m": 1},
        lambda n, b: range(n),
        lambda n, b: [eulerian_m(n, k, b["m"]) for k in range(n)],
    ),
    "second-order-eulerian": _Family({}, lambda n, b: range(n), lambda n, b: _second_order_row(n)),
    "stirling-p": _Family(
        {"p": "sym"},
        lambda n, b: range(1, n + 1),
        lambda n, b: _stirling_p_row(n, b["p"] if isinstance(b["p"], int) else None),
    ),
    "q-stirling": _Family(
        {"q": "sym"},
        lambda n, b: range(1, n + 1),
        lambda n, b: _q_stirling_row(n, b["q"] if isinstance(b["q"], int) else None),
    ),
    "gen-stirling": _Family(
        {"r": 2, "s": lambda b: b["r"]},
        lambda n, b: range(1, n + 1) if b["s"] == 1 else range(b["r"], n * b["r"] + 1),
        lambda n, b: _gen_stirling_row(n, b["r"], b["s"]),
    ),
    "whitney": _Family(
        {"m": "m", "r": "r"},
        lambda n, b: range(n + 1),
        lambda n, b: _whitney_row(n, b["m"], b["r"]),
    ),
    **{
        f"sf-{variant}": _Family(
            {"m": "m"}, lambda n, b: range(n + 1), lambda n, b, variant=variant: _sf_row(n, b["m"], variant)
        )
        for variant in SF_VARIANTS
    },
}


def build_triangle(family: str, max_n: int, params: dict[str, ParamValue] | None = None) -> Triangle:
    """Construct the (n, k) triangle of one family up to row max_n."""
    params = dict(params or {})
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if family not in TRIANGLE_FAMILIES:
        raise ValueError(f"unknown triangle family {family!r}")
    spec = TRIANGLE_FAMILIES[family]
    unknown = sorted(set(params) - set(spec.params))
    if unknown:
        allowed = ", ".join(spec.params) or "none"
        raise ValueError(f"{family} takes no parameter {', '.join(unknown)} (allowed: {allowed})")
    bound: dict[str, ParamValue] = {}
    for name, default in spec.params.items():
        if callable(default):
            default = default(bound)
        value = params.get(name, default)
        if isinstance(default, int) and not isinstance(value, int):
            raise ValueError(f"parameter {name} must be an integer for this family")
        bound[name] = value
    entries = []
    for n in range(1, max_n + 1):
        row = spec.row(n, bound)
        entries.extend((n, k, coerce_polynomial(row[k])) for k in spec.columns(n, bound))
    return Triangle(family, {name: str(value) for name, value in bound.items()}, tuple(entries))
