"""Theorem-by-theorem verification suites.

Each suite runs a family of exact comparisons between independent
routes (derivation vs. recurrence vs. series vs. brute force) and
returns a structured report.  Failing cases are recorded, never raised,
so a suite always runs to completion; reports are deterministic
byte-for-byte for identical inputs.  The grammar suite is one loop over
_grammar_table; all but two of its families read numbers.build_triangle.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import comb, factorial
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from . import bijections, numbers, weyl
from .grammar import (
    FAMILIES,
    GenSequence,
    Grammar,
    P_FAMILY,
    SHIFT_VARIABLE,
    STIRLING_FAMILY,
    _derivatives,
    _growth_levels,
    derive_n,
    enumerate_generations,
    generation_sum,
    growth_bound,
    growth_sequences,
    shift_apply,
)
from .ring import Polynomial, TruncatedSeries, falling_factorial, monomial, monomial_degree, poly_sum, sym
from .suites import SUITES

X = sym("x")
Y = sym("y")

STIRLING_GRAMMAR = Grammar({"x": X * Y, "y": Y})
P_GRAMMAR = Grammar({"x": sym("p") * X + X * Y, "y": Y})
DOWLING_GRAMMAR = Grammar({"x": sym("r") * X + X * Y, "y": sym("m") * Y})
EULERIAN_GRAMMAR = Grammar({"x": X * Y, "y": X * Y})
SECOND_ORDER_GRAMMAR = Grammar({"x": X**2 * Y, "y": X**2 * Y})


@dataclass(frozen=True, eq=False)
class CaseResult:
    """One compared case: the two values as the suite passed them, and
    whether the case passed.  The values are rendered with str() only
    when a report prints them.  A case compares by identity, as the
    values need not be hashable."""

    case_id: str
    expected: object
    actual: object
    passed: bool


@dataclass
class Report:
    """The cases of one suite run, in the order they were checked.

    check and info compare at once but keep the two values unrendered:
    to_dict renders both sides of every case with str(), and table
    renders only the sides it prints, those of the failing cases.  So a
    suite must not mutate a value after passing it to check or info.
    """

    suite: str
    params: dict[str, int]
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    def check(self, case_id: str, expected, actual) -> None:
        self.cases.append(CaseResult(case_id, expected, actual, expected == actual))

    def info(self, case_id: str, expected, actual) -> None:
        """Informational comparison: recorded but never fails the suite."""
        self.cases.append(CaseResult(case_id, expected, actual, True))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "cases": [
                {
                    "id": case.case_id,
                    "expected": str(case.expected),
                    "actual": str(case.actual),
                    "pass": case.passed,
                }
                for case in self.cases
            ],
            "pass": self.passed,
        }

    def table(self) -> str:
        lines = [f"suite {self.suite} ({', '.join(f'{k}={v}' for k, v in self.params.items())})"]
        for case in self.cases:
            mark = "PASS" if case.passed else "FAIL"
            lines.append(f"  [{mark}] {case.case_id}")
            if not case.passed:
                lines.append(f"         expected: {case.expected!s}")
                lines.append(f"         actual:   {case.actual!s}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"  => {verdict} ({sum(c.passed for c in self.cases)}/{len(self.cases)} cases)")
        return "\n".join(lines)


def run_suites(budgets: dict[str, int | None]) -> list[Report]:
    """Run the named suites in the given order, each at its budget (its
    default when None).  Every budget is checked before any suite starts:
    one outside its suite's low..cap raises ValueError."""
    calls = []
    for name, budget in budgets.items():
        suite = SUITES[name]
        if budget is None:
            budget = suite.default
        elif not suite.low <= budget <= suite.cap:
            raise ValueError(f"{suite.flag} must be between {suite.low} and {suite.cap} for the {name} suite")
        calls.append((globals()[suite.function], {suite.budget: budget}))
    return [function(**kwargs) for function, kwargs in calls]


def run_request(suite: str, max_n: int | None = None, order: int | None = None) -> list[Report]:
    """Run `verify --suite <suite>` ("all" or a name in SUITES) with the
    budgets the command line gave (None where a flag was not given).
    Before any suite starts it raises ValueError for the flag of a budget
    that the named suite does not take and for a budget out of range;
    under "all" a given --max-n is first clamped to each suite's range."""
    given = {"max_n": max_n, "order": order}
    if suite != "all":
        own = SUITES[suite]
        for other in SUITES.values():
            if other.budget != own.budget and given[other.budget] is not None:
                raise ValueError(f"{other.flag} does not apply to the {suite} suite; use {own.flag}")
        return run_suites({suite: given[own.budget]})
    budgets = {}
    for name, each in SUITES.items():
        if each.in_all:
            budget = given[each.budget]
            if each.budget == "max_n" and budget is not None:
                budget = max(each.low, min(budget, each.cap))
            budgets[name] = budget
    return run_suites(budgets)


def _csv(values) -> str:
    """Exact, readable rendering of a value list ('1,8,14,4,0')."""
    return ",".join(str(v) for v in values)


def _g_shifted(t: int) -> Grammar:
    return Grammar({"x": (t - 1) * X + X * Y, "y": Y})


def _g_qpower(t: int) -> Grammar:
    return Grammar({"x": sym("q") ** t * X + X * Y, "y": Y})


def _odd_chain(r: int, max_n: int) -> tuple[list[Grammar], Callable[[int], int]]:
    """The odd chain D1 (Dr ... D2 D1)^(max_n - 1) in acting order, with
    one Grammar per subscript, and the index of the partial that holds its
    row n <= max_n: after (n - 1)*r + 1 steps it has applied [1..r]*(n - 1) + [1]."""
    shifted = {t: _g_shifted(t) for t in range(1, r + 1)}
    return [shifted[t] for t in list(range(1, r + 1)) * (max_n - 1) + [1]], lambda n: (n - 1) * r + 1


class _GrammarFamily(NamedTuple):
    """One family of the grammar suite: its case-id prefix, the steps
    walked once from x with every=True, the index of the partial that
    holds row n, and the expected rows, keyed by n."""

    prefix: str
    steps: list[Grammar]
    partial: Callable[[int], int]
    rows: dict[int, Polynomial]


def _grammar_table(max_n: int, max_r: int) -> list[tuple[int, list[_GrammarFamily]]]:
    """The grammar suite's theorems up to row max_n, in report order: the
    first n each entry checks and the families it checks together at each n.
    All but Laguerre-square and Bessel read their rows from
    numbers.build_triangle, the entries `weylgram triangle` prints: row n
    sums each entry (n, k) times the monomial shape(n, k), up to the
    triangle's last row."""
    same, before = (lambda n: n), (lambda n: n - 1)
    # the shapes x*y^k, x*y^(k-1), x^(k+1)*y^(n-k) and x^(2n-k)*y^(k+1)
    x_yk, x_yk_1 = (lambda n, k: X * Y**k), (lambda n, k: X * Y ** (k - 1))
    xk1_ynk, x2nk_yk1 = (lambda n, k: X ** (k + 1) * Y ** (n - k)), (lambda n, k: X ** (2 * n - k) * Y ** (k + 1))

    def triangle(prefix, steps, family, shape, partial=same, last=max_n, **params) -> _GrammarFamily:
        parts: dict[int, list[Polynomial]] = {}
        for n, k, value in numbers.build_triangle(family, last, params).entries:
            parts.setdefault(n, []).append(shape(n, k) * value)
        return _GrammarFamily(prefix, steps, partial, {n: poly_sum(row) for n, row in parts.items()})

    def special(family: str, y_image: Polynomial) -> _GrammarFamily:
        rows = {n: X * Y**n * numbers.special_poly(family, n, var="y") for n in range(1, max_n + 1)}
        return _GrammarFamily(family, [Grammar({"x": X * Y + X * Y**2, "y": y_image})] * max_n, same, rows)

    def s1(r: int) -> _GrammarFamily:
        # row n applies the subscripts (i - 1)*r - (i - 2) for i = 1..n
        steps = [_g_shifted((i - 1) * r - (i - 2)) for i in range(1, max_n + 1)]
        return triangle(f"gen-stirling-s1/r={r}", steps, "gen-stirling", x_yk, r=r, s=1)

    def rr(r: int) -> _GrammarFamily:
        (steps, partial), shape = _odd_chain(r, max_n), (lambda n, k: X * Y ** (k - r + 1))
        return triangle(f"gen-stirling-rr/r={r}", steps, "gen-stirling", shape, partial, r=r)

    m = sym("m")
    sf_grammars = {
        "plain": Grammar({"x": (m - 1) * X + X * Y, "y": m * Y}),
        "bar": Grammar({"x": (m - 1) * X + m * X * Y, "y": m * Y}),
        "tilde": Grammar({"x": (m - 1) * X + m * X * Y, "y": m * (Y + Y**2)}),
    }
    last = min(max_n, max(numbers.SECOND_ORDER_EULERIAN_ROWS))
    second_order = [SECOND_ORDER_GRAMMAR] * last
    return [
        (1, [triangle("stirling-rows", [STIRLING_GRAMMAR] * max_n, "stirling2", x_yk)]),
        (2, [triangle("p-stirling-rows", [P_GRAMMAR] * (max_n - 1), "stirling-p", x_yk_1, before)]),
        *[(1, [s1(r)]) for r in range(2, max_r + 1)],
        *[(1, [rr(r)]) for r in range(2, max_r + 1)],
        # row n applies the q-powers 1..n-1, the first acting first
        (2, [triangle("q-stirling-rows", [_g_qpower(t) for t in range(1, max_n)], "q-stirling", x_yk_1, before)]),
        (1, [triangle("dowling-rows", [DOWLING_GRAMMAR] * max_n, "whitney", x_yk)]),
        *[(1, [triangle(f"subset-numbers-{v}", [g] * max_n, f"sf-{v}", x_yk)]) for v, g in sf_grammars.items()],
        (1, [special("laguerre-square", Y**2), special("bessel", Y**3)]),
        (1, [triangle("eulerian-rows", [EULERIAN_GRAMMAR] * max_n, "eulerian", xk1_ynk)]),
        (1, [triangle("second-order-eulerian", second_order, "second-order-eulerian", x2nk_yk1, last=last)]),
    ]


def verify_grammar_theorems(max_n: int = SUITES["grammar"].default) -> Report:
    """Derivative route equals oracle route for every grammar theorem.

    One loop over _grammar_table: each family's rows are read from one
    derivative walk from x, whose entry k is x after the first k steps,
    the first acting first."""
    max_r = 4
    report = Report("grammar", {"max_n": max_n, "max_r": max_r})
    for first, families in _grammar_table(max_n, max_r):
        walks = [_derivatives(family.steps, X, every=True) for family in families]
        for n in range(first, max(families[0].rows) + 1):
            for family, partials in zip(families, walks):
                report.check(f"{family.prefix}/n={n}", family.rows[n], partials[family.partial(n)])
    return report


def verify_weyl(max_n: int = SUITES["weyl"].default) -> Report:
    """Wick two-route equality, Stirling rows, and the deformed rows."""
    max_len = 10
    report = Report("weyl", {"max_len": max_len, "max_n": max_n})

    for length in range(1, max_len + 1):
        mismatches = []
        for word in weyl.all_words(length):
            if weyl.wick_sum(word) != weyl.normal_order(word):
                mismatches.append(word.letters)
        actual = "0 mismatches" if not mismatches else f"{len(mismatches)} mismatches (first: {mismatches[0]})"
        report.check(f"wick-equals-rewrite/len={length}", "0 mismatches", actual)

    for n in range(1, max_n + 1):
        word = weyl.WeylWord.ca_power(n)
        expected = weyl.NormalForm(
            {(k, k): numbers.stirling2(n, k) for k in range(1, n + 1)}
        )
        report.check(f"number-operator-rows/n={n}", expected, weyl.normal_order(word))
        expected_p = weyl.NormalForm(
            {(k, k): numbers.stirling_p(n, k) for k in range(1, n + 1)}
        )
        report.check(f"deformed-rows/n={n}", expected_p, weyl.normal_order_p(word))

    for n in range(1, max_n + 1):
        by_edges = Counter(map(itemgetter(1), weyl._contraction_nodes("ca" * n)))
        expected_dist = {
            e: numbers.stirling2(n, n - e) for e in range(n) if numbers.stirling2(n, n - e)
        }
        report.check(f"contraction-count/n={n}", numbers.bell(n), sum(by_edges.values()))
        report.check(
            f"contraction-edge-distribution/n={n}", expected_dist, dict(sorted(by_edges.items()))
        )

    return report


def verify_deformed(max_n: int = SUITES["deformed"].default) -> Report:
    """``normal_order_p`` counts the contractions of every word of at most
    max_n letters as the contraction walker does.  Its term n p^t c^i a^j
    stands for n contractions with #a - j edges, t of them adjacent, and
    the walker tallies its nodes by (edges, adjacent edges)."""
    report = Report("deformed", {"max_n": max_n})
    for length in range(max_n + 1):
        mismatches = []
        for word in weyl.all_words(length):
            annihilations = word.count(weyl.ANNIHILATION)
            tally = {
                (annihilations - j, monomial_degree(mono)): n
                for (_, j), coeff in weyl.normal_order_p(word).terms().items()
                for mono, n in coeff.terms().items()
            }
            if tally != Counter(map(itemgetter(1, 2), weyl._contraction_nodes(word.letters))):
                mismatches.append(word.letters)
        actual = "0 mismatches" if not mismatches else f"{len(mismatches)} mismatches (first: {mismatches[0]!r})"
        # The id names the transfer scan that computed the p-form before it
        # was rewriting; case ids are output bytes, so it stays.
        report.check(f"transfer-equals-walker/len={length}", "0 mismatches", actual)
    return report


def _longer_tally(family: str, tally: Counter) -> Counter:
    """The tally by count c of the bounded entry b of the family's
    sequences one entry longer than the tallied ones, counted from the
    tallied prefixes: a prefix holding c entries b has
    growth_bound = c + b extensions, c + b - 1 of which keep c, while one,
    the entry b, makes it c + 1."""
    longer = Counter()
    for c, prefixes in tally.items():
        longer[c] += prefixes * (growth_bound(family, c, c) - 1)  # reads only the count of b
        longer[c + 1] += prefixes
    return longer


def _bounded_tallies(family: str, length: int) -> Iterator[tuple[int, Counter]]:
    """For each length 1, 2, ..., length (at least 2): the number of the
    family's sequences and their tally by count of the bounded entry.  One
    walk over bytes sequences stops a level short, and each level it
    builds is counted on its own sequences; the top level is counted from
    the last walked one by ``_longer_tally``."""
    b = FAMILIES[family].bounded
    for level in _growth_levels(family, length - 1, unit=bytes):
        tally = Counter(map(bytes.count, level, repeat(b)))
        yield len(level), tally
    top = _longer_tally(family, tally)
    yield sum(top.values()), top


def verify_bijections(max_n: int = SUITES["bijections"].default) -> Report:
    """Round trips, statistic transport, multiset agreement, and the
    restricted-growth counting corollaries."""
    count_max_n = 9
    report = Report("bijections", {"max_n": max_n, "count_max_n": count_max_n})
    # The contractions of each (ca)^length, built once and read by the
    # round-trip, sequence-table, transport and multiset checks.
    contractions_of = {
        length: weyl.enumerate_contractions(weyl.WeylWord.ca_power(length))
        for length in range(1, max_n + 2)
    }

    for length, contractions in contractions_of.items():
        for family, spec in FAMILIES.items():
            to_contraction, to_seq = bijections.family_bijections(family)
            bad = [c for c in contractions if to_contraction(to_seq(c)) != c]
            report.check(f"round-trip-{spec.label}/(ca)^{length}", 0, len(bad))
        for family, spec in FAMILIES.items():
            to_contraction, to_seq = bijections.family_bijections(family)
            seqs = (GenSequence._trusted(s, family) for s in growth_sequences(family, length))
            bad = [s for s in seqs if to_seq(to_contraction(s)) != s]
            report.check(f"round-trip-{spec.label}-sequences/len={length}", 0, len(bad))

    if max_n >= 3:
        # The contractions of (ca)^4 recover every twos-bounded sequence of
        # length 4, each once.
        recovered = tuple(
            sorted(bijections.contraction_to_seq_p(c).entries for c in contractions_of[4])
        )
        report.check("sequence-table/(ca)^4", tuple(growth_sequences(P_FAMILY, 4)), recovered)

    # Transport: the sequence of a contraction generates p^(adjacent
    # edges) * x * y^(isolated creation vertices beyond the leftmost one,
    # which is isolated in every contraction of (ca)^n).
    for length, contractions in contractions_of.items():
        mismatches = 0
        for contraction in contractions:
            stats = weyl.contraction_stats(contraction)
            seq = bijections.contraction_to_seq_p(contraction)
            ones = seq.entries.count(1) - 1  # s_1 = 1
            twos = seq.entries.count(2)
            if ones != stats.adjacent_edge_count or twos != stats.degree0_black_count - 1:
                mismatches += 1
        report.check(f"statistic-transport/(ca)^{length}", 0, mismatches)

    xy = monomial({"x": 1, "y": 1})
    x_mono = monomial({"x": 1})
    plain_rows = _derivatives([STIRLING_GRAMMAR] * max_n, X * Y, every=True)
    weighted_rows = _derivatives([P_GRAMMAR] * max_n, X, every=True)
    for n in range(1, max_n + 1):
        records = enumerate_generations(STIRLING_GRAMMAR, xy, n, STIRLING_FAMILY)
        from_sequences = sorted(str(Polynomial.from_monomial(r.monomial)) for r in records)
        from_contractions = sorted(
            str(X * Y ** (weyl.contraction_stats(c).degree0_black_count))
            for c in contractions_of[n + 1]
        )
        report.check(f"multiset-agreement/n={n}", from_sequences, from_contractions)
        report.check(f"generation-sum-plain/n={n}", plain_rows[n], generation_sum(records))
        records_p = enumerate_generations(P_GRAMMAR, x_mono, n, P_FAMILY)
        report.check(f"generation-sum-weighted/n={n}", weighted_rows[n], generation_sum(records_p))
        # (G^n, x) equals (G^(n-1), xy) after dropping the forced first step.
        from_x = sorted(r.sequence.entries for r in enumerate_generations(STIRLING_GRAMMAR, x_mono, n, STIRLING_FAMILY))
        from_xy = sorted(
            (1, 1) + r.sequence.entries[1:]
            for r in enumerate_generations(STIRLING_GRAMMAR, xy, n - 1, STIRLING_FAMILY)
        )
        report.check(f"start-shift-agreement/n={n}", from_xy, from_x)

    ones_walk = _bounded_tallies(STIRLING_FAMILY, count_max_n)
    twos_walk = _bounded_tallies(P_FAMILY, count_max_n)
    for n, (p_size, p_tally), (q_size, q_tally) in zip(range(1, count_max_n + 1), ones_walk, twos_walk):
        report.check(f"cardinality-ones-bounded/n={n}", numbers.bell(n), p_size)
        report.check(f"cardinality-twos-bounded/n={n}", numbers.bell(n), q_size)
        ones_dist = {k: 0 for k in range(1, n + 1)}
        ones_dist.update(p_tally)
        report.check(
            f"ones-distribution/n={n}",
            {k: numbers.stirling2(n, k) for k in range(1, n + 1)},
            ones_dist,
        )
        twos_dist = {k: 0 for k in range(n)}
        twos_dist.update(q_tally)
        report.check(
            f"twos-distribution/n={n}",
            {k: numbers.stirling2(n, k + 1) for k in range(n)},
            twos_dist,
        )

    return report


def _exp_series(multiplier: Polynomial | int, order: int) -> TruncatedSeries:
    """exp(multiplier * lambda) as a truncated series."""
    return TruncatedSeries.var(SHIFT_VARIABLE, order).scale(multiplier).exp()


def verify_shift(order: int = SUITES["shift"].default) -> Report:
    """Shift-operator closed forms, checked against independent series."""
    report = Report("shift", {"order": order})
    lam = TruncatedSeries.var(SHIFT_VARIABLE, order)
    exp_lambda = lam.exp()
    inner = (exp_lambda - 1).scale(Y).exp()

    report.check(
        "flow-of-x",
        inner.scale(X),
        shift_apply(STIRLING_GRAMMAR, X, order),
    )
    report.check(
        "flow-of-xy",
        inner * exp_lambda.scale(X * Y),
        shift_apply(STIRLING_GRAMMAR, X * Y, order),
    )
    for m in range(1, 5):
        report.check(
            f"flow-of-y^{m}",
            _exp_series(m, order).scale(Y**m),
            shift_apply(STIRLING_GRAMMAR, Y**m, order),
        )
        report.check(
            f"derivative-fixes-y^{m}",
            Y**m * m**order,
            derive_n(STIRLING_GRAMMAR, Y**m, order),
        )
    return report


def verify_identities(max_n: int = SUITES["identities"].default) -> Report:
    """Cross-family identities: Eulerian-Stirling, route agreements,
    generating functions, specializations, and the Leibniz rule."""
    seed = 20240211
    report = Report("identities", {"max_n": max_n, "seed": seed})

    for n in range(1, max_n + 1):
        ok = all(
            factorial(k) * numbers.stirling2(n, k)
            == sum(numbers.eulerian(n, j) * comb(j, n - k) for j in range(n) if j >= n - k >= 0)
            for k in range(0, n + 1)
        )
        report.check(f"eulerian-stirling-identity/n={n}", True, ok)

    x = sym("x")
    q = sym("q")
    for n in range(1, 7):
        product = Polynomial.one()
        for i in range(n):
            product = product * (x + q**i)
        expansion = poly_sum(
            numbers.q_stirling(n, k) * falling_factorial(x + 1, k) for k in range(1, n + 1)
        )
        report.check(f"q-defining-relation/n={n}", product, expansion)

    for m in range(1, 4):
        for r in range(0, 4):
            mismatch = 0
            base = TruncatedSeries.var("z", max_n)
            e_rz = base.scale(r).exp()
            e_mz_minus_1 = base.scale(m).exp() - 1
            for k in range(0, 5):
                series = e_rz
                for _ in range(k):
                    series = series * e_mz_minus_1
                series = series.scale(Fraction(1, m**k * factorial(k)))
                for n in range(k, max_n + 1):
                    egf_value = series.coefficient(n).scale(factorial(n))
                    if egf_value != numbers.whitney(n, k, m, r):
                        mismatch += 1
            report.check(f"whitney-egf/m={m}/r={r}", 0, mismatch)

    for n in range(1, max_n + 1):
        ok = all(
            numbers.whitney(n, k, 1, sym("p")) == numbers.stirling_p(n + 1, k + 1)
            for k in range(n + 1)
        )
        report.check(f"whitney-is-shifted-deformed/n={n}", True, ok)

    for n in range(0, max_n + 1):
        lhs = numbers.dowling_poly(n + 1)
        rhs = sym("r") * numbers.dowling_poly(n) + x * poly_sum(
            numbers.dowling_poly(k) * comb(n, k) * sym("m") ** (n - k) for k in range(n + 1)
        )
        report.check(f"dowling-binomial-recurrence/n={n}", lhs, rhs)
        d_prev = numbers.dowling_poly(n)
        lhs2 = numbers.dowling_poly(n + 1)
        rhs2 = (sym("r") + x) * d_prev + sym("m") * x * d_prev.diff("x")
        report.check(f"dowling-derivative-recurrence/n={n}", lhs2, rhs2)

    for r in range(1, 5):
        for s in (1, r):
            mismatch = 0
            for n in range(1, 7):
                for k in range(0, n * s + 1):
                    if numbers.gen_stirling_dobinski(n, k, r, s) != numbers.gen_stirling_recur(n, k, r, s):
                        mismatch += 1
            report.check(f"series-vs-recurrence/r={r}/s={s}", 0, mismatch)

    # the term count of the odd chain result is the generalized Bell number
    for r in range(1, 4):
        steps, row = _odd_chain(r, 4)
        partials = _derivatives(steps, X, every=True)
        for n in range(1, 5):
            result = partials[row(n)]
            report.check(
                f"generalized-bell-term-count/r={r}/n={n}",
                numbers.gen_bell(n, r),
                sum(int(c) for c in result.terms().values()) if result.is_integral() else -1,
            )

    for r in range(1, 4):
        for s in sorted({1, r}):
            for n in range(1, 5):
                report.check(
                    f"falling-factorial-identity/n={n}/r={r}/s={s}",
                    True,
                    numbers.falling_factorial_identity_check(n, r, s),
                )
    for n in range(1, 4):
        report.check(
            f"falling-factorial-identity/n={n}/r=3/s=2",
            True,
            numbers.falling_factorial_identity_check(n, 3, 2),
        )

    for r in range(0, 4):
        mismatch = 0
        for n in range(1, 7):
            for k in range(0, n + 1):
                if numbers.rstirling_bruteforce(n, k, r) != numbers.whitney(n, k, 1, r).constant_value():
                    mismatch += 1
        report.check(f"separated-partitions-vs-recurrence/r={r}", 0, mismatch)

    m = sym("m")
    for n in range(1, max_n + 1):
        ok = all(
            numbers.sf_numbers(n, k, "m", "bar") == m**k * numbers.sf_numbers(n, k, "m", "plain")
            and numbers.sf_numbers(n, k, "m", "tilde")
            == m**k * factorial(k) * numbers.sf_numbers(n, k, "m", "plain")
            for k in range(n + 1)
        )
        report.check(f"subset-number-variants/n={n}", True, ok)
    for m_value in range(1, 5):
        mismatch = 0
        for n in range(1, max_n + 1):
            for k in range(0, n + 1):
                recur = numbers.sf_numbers(n, k, m_value, "plain").constant_value()
                if numbers.sf_from_eulerian(n, k, m_value) != recur:
                    mismatch += 1
        report.check(f"subset-numbers-formula-route/m={m_value}", 0, mismatch)

    for n in range(1, max_n + 1):
        ok = all(
            numbers.stirling_p(n, k).substitute("p", 1).constant_value() == numbers.stirling2(n, k)
            and numbers.q_stirling(n, k).substitute("q", 1).constant_value() == numbers.stirling2(n, k)
            for k in range(1, n + 1)
        )
        ok = ok and all(
            numbers.whitney(n, k, 1, 0).constant_value() == numbers.stirling2(n, k)
            and numbers.sf_numbers(n, k, 1, "plain").constant_value() == numbers.stirling2(n, k)
            for k in range(0, n + 1)
        )
        report.check(f"degenerations-at-unit-parameters/n={n}", True, ok)

    rng = random.Random(seed)
    for grammar_name, grammar in (("plain", STIRLING_GRAMMAR), ("two-parameter", DOWLING_GRAMMAR)):
        mismatch = 0
        for _ in range(6):
            u = _random_polynomial(rng)
            v = _random_polynomial(rng)
            du, dv, duv = (_derivatives([grammar] * 5, a, every=True) for a in (u, v, u * v))
            for n in range(0, 6):
                rhs = poly_sum(du[k] * dv[n - k] * comb(n, k) for k in range(n + 1))
                if duv[n] != rhs:
                    mismatch += 1
        report.check(f"leibniz/{grammar_name}", 0, mismatch)

    return report


def _random_polynomial(rng: random.Random) -> Polynomial:
    # Operands evaluate left to right: each term draws its coefficient,
    # then the exponents of x and y.
    return poly_sum(
        rng.randint(-3, 3) * X ** rng.randint(0, 3) * Y ** rng.randint(0, 3)
        for _ in range(rng.randint(1, 4))
    )


def verify_rook(max_n: int = SUITES["rook"].default) -> Report:
    """Rook-number correspondence for the alternating two-grammar chains."""
    b_max_n = 5
    report = Report("rook", {"max_n": max_n, "b_max_n": b_max_n})
    # One walk of the odd chain D1 (D2 D1)^(n-1) x, the generalized Stirling
    # chain for r = 2: its row n is partials[row(n)], and the even chain
    # (D2 D1)^n x is the partial after it.
    steps, row = _odd_chain(2, max(max_n + 1, b_max_n))
    partials = _derivatives(steps, X, every=True)

    def x_y(partial: Polynomial, e: int) -> int:
        """The coefficient of x*y^e in a partial."""
        return partial.coefficient(monomial({"x": 1, "y": e}))

    for n in range(1, max_n + 1):
        even = partials[row(n) + 1]
        rooks = numbers.rook_numbers(numbers.staircase_board(n))
        actual = [x_y(even, 2 * n - k) for k in range(2 * n + 1)]
        expected = [numbers._entry(rooks, k) for k in range(2 * n + 1)]
        report.check(f"even-chain-vs-board/n={n}", _csv(expected), _csv(actual))

    for n in range(1, b_max_n + 1):
        expected_row = [numbers.gen_stirling_recur(n, k, 2, 2) for k in range(2, 2 * n + 1)]
        actual_row = [x_y(partials[row(n)], k - 1) for k in range(2, 2 * n + 1)]
        report.check(f"odd-chain-vs-triangle/n={n}", _csv(expected_row), _csv(actual_row))

    # The stated board for the odd chain does not match its placement
    # counts under any degree convention tried; both sides are reported,
    # unasserted.  Empirically the coefficients do match the board one
    # index smaller (reversed), which is noted when it holds.
    for n in range(1, max_n + 1):
        odd = partials[row(n)]
        board = numbers.staircase_board(n, with_extra_column=True)
        smaller = numbers.staircase_board(n - 1, with_extra_column=True)
        smaller_rooks = numbers.rook_numbers(smaller)
        reversed_match = all(x_y(odd, 2 * n - 1 - k) == numbers._entry(smaller_rooks, k) for k in range(2 * n))
        note = (
            f"; note: reversed coefficients equal rook numbers of F({smaller})"
            if reversed_match
            else ""
        )
        report.info(
            f"odd-chain-board-comparison/n={n} (informational)",
            f"rook numbers of F({board}): {numbers.rook_numbers(board)}",
            f"coefficients of {odd.coefficients_in('x')[1]}{note}",
        )
    return report
