"""Seeded workloads: the generators, the program call each job times, and
the route, other than the timed one, that checks each job's output.

A job is (id, kind, args, fixed).  `args` holds plain data only, so the
generators never touch the program and one seed gives the same jobs in
every process.  `fixed` marks jobs drawn from a finite catalogue (no
random coefficients, words or boards); their rendered output is also
compared with the digest stored in digests.json.

Every generator is stratified: the seed draws parameters, words, boards
and polynomials, but the sizes that set a job's cost come from fixed
ladders or narrow cost bands, and the job order is fixed (jobs share
the program's caches, so the order moves each job's cost), so one pass
costs about the same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace
from typing import NamedTuple

WORKLOADS = ("cli", "derive", "normal-order", "oracles")


class Job(NamedTuple):
    id: str
    kind: str
    args: tuple
    fixed: bool


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- the benchmark's own integer routes ------------------------------------


def rook_vector(heights) -> list[int]:
    """r_0, r_1, ... for a board whose column heights are nondecreasing:
    a new column of height h turns r_k into r_k + (h - k + 1) r_(k-1)."""
    r = [1]
    for h in heights:
        r = [r[k] + (r[k - 1] * max(0, h - k + 1) if k else 0) for k in range(len(r))] + [
            r[-1] * max(0, h - len(r) + 1)
        ]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return r


def word_heights(word: str) -> list[int]:
    """Ferrers board of a word (Varvak): one column per 'c', as high as the
    number of 'a' to its left."""
    heights, seen = [], 0
    for ch in word:
        if ch == "a":
            seen += 1
        else:
            heights.append(seen)
    return heights


def diagram_count(word: str) -> int:
    return sum(rook_vector(word_heights(word)))


def stirling2_row(n: int) -> list[int]:
    row = [1]
    for i in range(1, n + 1):
        row = [0] + [k * (row[k] if k < len(row) else 0) + row[k - 1] for k in range(1, i + 1)]
    return row


def bell(n: int) -> int:
    return sum(stirling2_row(n))


def r_stirling(n: int, k: int, r: int) -> int:
    """Partitions of n + r elements into k + r blocks, the first r apart:
    W(n, k) = (r + k) W(n-1, k) + W(n-1, k-1)."""
    row = [1]
    for i in range(1, n + 1):
        row = [(r + j) * (row[j] if j < len(row) else 0) + (row[j - 1] if j else 0) for j in range(i + 1)]
    return row[k] if 0 <= k < len(row) else 0


def growth_bound(family: str, seq) -> bool:
    """Ones-bounded ("P") or twos-bounded ("Q") restricted growth."""
    if not seq or seq[0] != 1:
        return False
    ones = twos = 0
    for j, s in enumerate(seq):
        if j and not 1 <= s <= (ones + 1 if family == "P" else twos + 2):
            return False
        ones += s == 1
        twos += s == 2
    return True


# -- generators --------------------------------------------------------------


def _random_poly(rng: random.Random) -> str:
    text = ""
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        factors = [f"{s}^{e}" for s, e in (("x", rng.randint(0, 3)), ("y", rng.randint(0, 3))) if e]
        sign = "-" if coeff < 0 else "+"
        text += f" {sign} " + "*".join([str(abs(coeff))] + factors)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def gen_cli(seed: int) -> list[Job]:
    """Many short `weylgram` invocations, run in-process through cli.main.
    The identities and weyl suites are left out: they cost 0.85 s and
    2.8 s whatever the budget, and one long job per pass leaves too few
    samples per run for a steady timing on a shared host."""
    rng = random.Random(f"cli:{seed}")
    jobs: list[Job] = []

    def cli(argv, expect, fixed):
        jobs.append(Job("cli/" + " ".join(argv), "cli", (tuple(argv), expect), fixed))

    for suite, flag, sizes in (
        ("grammar", "--max-n", range(1, 7)),
        ("bijections", "--max-n", range(1, 4)),
        ("rook", "--max-n", range(1, 5)),
        ("shift", "--order", range(1, 11)),
    ):
        for k in sizes:
            fmt = rng.choice(("plain", "json"))
            cli(["verify", "--suite", suite, flag, str(k), "--format", fmt], ("verify", (), fmt), True)
    for family, params in (("stirling", ()), ("p", ()), ("dowling", ("m", "r")), ("eulerian", ()), ("laguerre", ()), ("bessel", ())):
        for n in (2, 4, 6, 8):
            fmt = rng.choice(("plain", "json"))
            argv = ["derive", "--grammar", grammar_text(family, params), "--start", "x", "--steps", str(n), "--format", fmt]
            cli(argv, ("derive", (family, params, n), fmt), True)
    for n in (3, 5):
        r = rng.randint(2, 4)
        chain = [arg for t in reversed(chain_subscripts("s1", r, n)) for arg in ("--chain", _shifted_text(t))]
        cli(["derive-chain", *chain, "--start", "x"], ("chain", ("s1", r, n), "plain"), True)
    for order in (2, 4, 6):
        cli(["shift", "--grammar", grammar_text("stirling", ()), "--start", "x", "--order", str(order)],
            ("shift", ("stirling", (), order), "plain"), True)
    for length in (8, 9, 10) * 2:
        word = _word_in_band(rng, length, 100, 300)
        cli(["normal-order", "--word", word, "--param", "p=sym"], ("normal-order-p", (word,), "plain"), False)
    for length in (10, 11) * 6:
        word = "".join(rng.choice("ac") for _ in range(length))
        cli(["normal-order", "--word", word, "--format", "json"], ("rewrite", (word,), "json"), False)
    for family in TRIANGLE_SIZES:
        fmt = rng.choice(("csv", "json"))
        params = (("r", 2), ("s", rng.choice((1, 2)))) if family == "gen-stirling" else ()
        extra = [arg for k, v in params for arg in ("--param", f"{k}={v}")]
        cli(["triangle", "--family", family, "--n", "5", *extra, "--format", fmt], ("triangle", (family, 5, params, fmt), fmt), True)
    for _ in range(16):
        heights = _board_in_band(rng, 5, 7, 200, 800)
        cli(["rook", "--board", ",".join(map(str, heights))], ("rook", (heights,), "plain"), False)
    for _ in range(6):
        word = _word_in_band(rng, 8, 50, 200)
        cli(["contractions", "--word", word], ("contractions", (word,), "plain"), False)
    return jobs


def gen_derive(seed: int) -> list[Job]:
    rng = random.Random(f"derive:{seed}")
    jobs: list[Job] = []

    def derive(family, params, n, fixed):
        label = f"{family}[{','.join(map(str, params))}]" if params else family
        jobs.append(Job(f"derive/{label}/n={n}", "derive", (family, tuple(params), n), fixed))

    # Few symbols, coefficients that grow to hundreds of bits.
    for family in ("stirling", "eulerian", "laguerre", "bessel"):
        for n in (2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24):
            derive(family, (), n, True)
    for n in range(1, 9):
        derive("second-order", (), n, True)
    # Three or four symbols, many small terms.
    for family, params in (
        ("p", ()),
        ("dowling", ("m", "r")),
        ("sf-plain", ("m",)),
        ("sf-bar", ("m",)),
        ("sf-tilde", ("m",)),
    ):
        for n in (2, 3, 4, 5, 6, 7, 8, 10, 12):
            derive(family, params, n, True)
    for family in ("dowling", "sf-plain", "sf-bar", "sf-tilde"):
        for n in (4, 8, 12, 16, 20, 24, 30):
            if family == "dowling":
                params = (rng.randint(1, 9), rng.randint(0, 9))
            else:
                params = (rng.randint(2, 9),)
            derive(family, params, n, False)
    # The large-n tail, fixed so that one pass costs the same for every seed.
    for family, params, n in (
        ("stirling", (), 60),
        ("p", (), 40),
        ("dowling", ("m", "r"), 24),
        ("sf-tilde", ("m",), 24),
        ("eulerian", (), 60),
    ):
        derive(family, params, n, True)
    for n in range(1, 9):
        r = rng.randint(2, 4)
        jobs.append(Job(f"chain/s1/r={r}/n={n}", "chain", ("s1", r, n), True))
    for n in range(1, 6):
        r = rng.randint(2, 4)
        jobs.append(Job(f"chain/rr/r={r}/n={n}", "chain", ("rr", r, n), True))
    for order in range(4, 11):
        jobs.append(Job(f"shift/stirling/order={order}", "shift", ("stirling", (), order), True))
    for order in range(4, 9):
        params = (rng.randint(1, 9), rng.randint(0, 9))
        jobs.append(Job(f"shift/dowling[{params[0]},{params[1]}]/order={order}", "shift", ("dowling", params, order), False))
    for i in range(24):
        family, params = (("stirling", ()), ("dowling", ("m", "r")), ("p", ()), ("eulerian", ()))[i % 4]
        n = 1 + i % 5
        u, v = _random_poly(rng), _random_poly(rng)
        jobs.append(Job(f"leibniz/{family}/n={n}/u={u}/v={v}", "leibniz", (family, params, u, v, n), False))
    return jobs


def inversions(word: str) -> int:
    """Pairs of an 'a' left of a 'c': the depth of the rewriting recursion."""
    return sum(word_heights(word))


def _word_in_band(rng: random.Random, length: int, low: int, high: int, cost=diagram_count) -> str:
    for _ in range(200000):
        word = "".join(rng.choice("ac") for _ in range(length))
        if low <= cost(word) <= high:
            return word
    raise RuntimeError(f"no word of length {length} with cost {low}..{high}")


def gen_normal_order(seed: int) -> list[Job]:
    rng = random.Random(f"normal-order:{seed}")
    jobs: list[Job] = []
    # Short words: every route, so enumeration (cost ~ diagrams) dominates.
    # The diagram band keeps each word's cost in a narrow range.
    for length in (12, 13, 14):
        for _ in range(4):
            word = _word_in_band(rng, length, 1700, 1900)
            for kind in ("wick", "normal-order-p", "rewrite"):
                jobs.append(Job(f"{kind}/{word}", kind, (word,), False))
    # Long words: memoised rewriting only (cost ~ distinct subwords).  The
    # inversion band, within 10% of a random word's mean, narrows the cost.
    for i in range(96):
        length = 20 + i % 21
        mean = length * (length - 1) / 8
        word = _word_in_band(rng, length, round(0.9 * mean), round(1.1 * mean), inversions)
        jobs.append(Job(f"rewrite/{word}", "rewrite", (word,), False))
    # (ca)^n stops at 30: from about n = 32 the recursive rewriting raises
    # RecursionError, which the frontier probe reports instead.
    for low in range(1, 30, 5):
        n = rng.randint(low, low + 4)
        jobs.append(Job(f"rewrite/(ca)^{n}", "rewrite", (f"(ca)^{n}",), True))
    return jobs


def _board_in_band(rng: random.Random, low_cols: int, high_cols: int, low: int, high: int) -> tuple:
    """A random Ferrers board whose placement count lies in [low, high]."""
    while True:
        cols = rng.randint(low_cols, high_cols)
        heights = tuple(sorted(rng.randint(1, cols) for _ in range(cols)))
        if low <= sum(rook_vector(heights)) <= high:
            return heights


TRIANGLE_SIZES = {
    "stirling-p": (8, 16),
    "q-stirling": (6, 12),
    "whitney": (6, 12),
    "sf-plain": (6, 12),
    "sf-bar": (6, 12),
    "sf-tilde": (6, 12),
    "gen-stirling": (6, 12),
    "eulerian": (10, 20),
}


def gen_oracles(seed: int) -> list[Job]:
    rng = random.Random(f"oracles:{seed}")
    jobs: list[Job] = []
    for family, sizes in TRIANGLE_SIZES.items():
        for r, n in enumerate(sizes, start=2):
            fmt = rng.choice(("csv", "json"))
            params: tuple = ()
            if family == "gen-stirling":
                params = (("r", r), ("s", rng.choice((1, r))))
            label = "".join(f",{k}={v}" for k, v in params)
            jobs.append(Job(f"triangle/{family}{label}/n={n}/{fmt}", "triangle", (family, n, params, fmt), True))
    for n in range(1, 5):
        for extra in (False, True):
            heights = [h for i in range(1, n + 1) for h in (2 * i - 1, 2 * i - 1)] + ([2 * n] if extra else [])
            jobs.append(Job(f"rook/staircase{'+' if extra else ''}/n={n}", "rook", (tuple(heights),), True))
    for _ in range(48):
        heights = _board_in_band(rng, 6, 10, 3000, 5000)
        jobs.append(Job(f"rook/board={','.join(map(str, heights))}", "rook", (heights,), False))
    for size in [10] * 2 + [9] * 4 + [8] * 8 + [7] * 8 + [6] * 8 + [5] * 6:
        r = rng.randint(0, 3)
        n = size - r
        k = rng.randint(0, n)
        jobs.append(Job(f"rstirling/n={n}/k={k}/r={r}", "rstirling", (n, k, r), True))
    for n in (7, 8, 9):
        for family in ("P", "Q"):
            jobs.append(Job(f"growth/{family}/n={n}", "growth", (family, n), True))
    for n in (7, 8):
        for family in ("stirling", "p"):
            jobs.append(Job(f"roundtrip/{family}/(ca)^{n}", "roundtrip", (family, n), True))
    return jobs


GENERATORS = {
    "cli": gen_cli,
    "derive": gen_derive,
    "normal-order": gen_normal_order,
    "oracles": gen_oracles,
}


def generate(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](seed)


# -- the timed program calls ---------------------------------------------------

P = SimpleNamespace()


def load_program() -> SimpleNamespace:
    """Import every layer once; job code reaches the program only through
    these module objects, so traced wrappers installed later are seen."""
    from weylgram import bijections, cli, grammar, numbers, ring, verify, weyl

    P.__dict__.update(
        ring=ring, grammar=grammar, weyl=weyl, numbers=numbers, bijections=bijections, verify=verify, cli=cli
    )
    return P


def grammar_text(family: str, params: tuple) -> str:
    if family == "dowling":
        m, r = params
        return f"x -> {r}*x + x*y; y -> {m}*y"
    if family.startswith("sf-"):
        (m,) = params
        return {
            "sf-plain": f"x -> ({m}-1)*x + x*y; y -> {m}*y",
            "sf-bar": f"x -> ({m}-1)*x + {m}*x*y; y -> {m}*y",
            "sf-tilde": f"x -> ({m}-1)*x + {m}*x*y; y -> {m}*(y + y^2)",
        }[family]
    return {
        "stirling": "x -> x*y; y -> y",
        "p": "x -> p*x + x*y; y -> y",
        "eulerian": "x -> x*y; y -> x*y",
        "second-order": "x -> x^2*y; y -> x^2*y",
        "laguerre": "x -> x*y + x*y^2; y -> y^2",
        "bessel": "x -> x*y + x*y^2; y -> y^3",
    }[family]


def chain_subscripts(variant: str, r: int, n: int) -> list[int]:
    """Shifted-grammar subscripts in the order they act (first acts first)."""
    if variant == "s1":
        return [(i - 1) * r - (i - 2) for i in range(1, n + 1)]
    return list(range(1, r + 1)) * (n - 1) + [1]


def _shifted_text(t: int) -> str:
    return f"x -> {t - 1}*x + x*y; y -> y"


def _exec_derive(family, params, n):
    g = P.grammar.parse_grammar(grammar_text(family, params))
    return str(P.grammar.derive_n(g, P.ring.parse_polynomial("x"), n))


def _exec_chain(variant, r, n):
    grammars = [P.grammar.parse_grammar(_shifted_text(t)) for t in reversed(chain_subscripts(variant, r, n))]
    return str(P.grammar.derive_chain(grammars, P.ring.parse_polynomial("x")))


def _exec_shift(family, params, order):
    g = P.grammar.parse_grammar(grammar_text(family, params))
    return str(P.grammar.shift_apply(g, P.ring.parse_polynomial("x"), order))


def _exec_leibniz(family, params, u, v, n):
    g = P.grammar.parse_grammar(grammar_text(family, params))
    product = P.ring.parse_polynomial(u) * P.ring.parse_polynomial(v)
    return str(P.grammar.derive_n(g, product, n))


def _exec_wick(word):
    return str(P.weyl.wick_sum(P.weyl.WeylWord.parse(word)))


def _exec_normal_order_p(word):
    return str(P.weyl.normal_order_p(P.weyl.WeylWord.parse(word)))


def _exec_rewrite(word):
    return str(P.weyl.normal_order(P.weyl.WeylWord.parse(word)))


def _exec_triangle(family, n, params, fmt):
    triangle = P.numbers.build_triangle(family, n, dict(params))
    return triangle.to_csv() if fmt == "csv" else triangle.to_json()


def _exec_rook(heights):
    return ",".join(map(str, P.numbers.rook_numbers(P.numbers.FerrersBoard(tuple(heights)))))


def _exec_rstirling(n, k, r):
    return str(P.numbers.rstirling_bruteforce(n, k, r))


def _exec_growth(family, n):
    return "\n".join(",".join(map(str, s)) for s in P.bijections.enumerate_growth_sequences(family, n))


def _exec_roundtrip(family, n):
    b = P.bijections
    to_seq, back = (
        (b.contraction_to_seq_stirling, b.seq_to_contraction_stirling)
        if family == "stirling"
        else (b.contraction_to_seq_p, b.seq_to_contraction_p)
    )
    broken = 0
    seqs = []
    for contraction in P.weyl.enumerate_contractions(P.weyl.WeylWord.ca_power(n)):
        seq = to_seq(contraction)
        broken += back(seq) != contraction
        seqs.append(seq.entries)
    return f"broken={broken}\n" + "\n".join(",".join(map(str, s)) for s in sorted(seqs))


def _exec_cli(argv, expect):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = P.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return f"exit={code}\n{buffer.getvalue()}"


EXECUTORS = {
    "derive": _exec_derive,
    "chain": _exec_chain,
    "shift": _exec_shift,
    "leibniz": _exec_leibniz,
    "wick": _exec_wick,
    "normal-order-p": _exec_normal_order_p,
    "rewrite": _exec_rewrite,
    "triangle": _exec_triangle,
    "rook": _exec_rook,
    "rstirling": _exec_rstirling,
    "growth": _exec_growth,
    "roundtrip": _exec_roundtrip,
    "cli": _exec_cli,
}


def execute(job: Job) -> str:
    return EXECUTORS[job.kind](*job.args)


# -- expected outputs, by a route other than the timed one ----------------------


def _expected_derivative(family, params, n):
    """D^n(x) from the `numbers` oracles (no grammar derivative involved)."""
    num, ring = P.numbers, P.ring
    x, y = ring.sym("x"), ring.sym("y")
    zero = ring.Polynomial.zero()
    if n == 0:
        return x
    if family == "stirling":
        return x * sum((y**k * num.stirling2(n, k) for k in range(n + 1)), zero)
    if family == "p":
        return x * sum((y ** (k - 1) * num.stirling_p(n + 1, k) for k in range(1, n + 2)), zero)
    if family == "dowling":
        m, r = params
        return x * num.dowling_poly(n, m, r, var="y")
    if family.startswith("sf-"):
        (m,) = params
        variant = family[3:]
        return x * sum((y**k * num.sf_numbers(n, k, m, variant) for k in range(n + 1)), zero)
    if family == "eulerian":
        return x * sum((x**k * y ** (n - k) * num.eulerian(n, k) for k in range(n)), zero)
    if family == "second-order":
        row = num.SECOND_ORDER_EULERIAN_ROWS[n]
        return sum((x ** (2 * n - k) * y ** (k + 1) * row[k] for k in range(len(row))), zero)
    if family == "laguerre":
        return x * y**n * num.special_poly("laguerre-square", n, var="y")
    if family == "bessel":
        return x * y**n * num.special_poly("bessel", n, var="y")
    raise ValueError(family)


def _expected_chain(variant, r, n):
    num, ring = P.numbers, P.ring
    x, y = ring.sym("x"), ring.sym("y")
    if variant == "s1":
        s, ks, shift = 1, range(1, n + 1), 0
    else:
        s, ks, shift = r, range(r, n * r + 1), r - 1
    return x * sum((y ** (k - shift) * num.gen_stirling_recur(n, k, r, s) for k in ks), ring.Polynomial.zero())


def _expected_shift(family, params, order):
    coeffs = [
        _expected_derivative(family, params, n).scale(Fraction(1, factorial(n)))
        for n in range(order + 1)
    ]
    return P.ring.TruncatedSeries(P.grammar.SHIFT_VARIABLE, coeffs)


def _expected_leibniz(family, params, u, v, n):
    """Leibniz rule: D^n(uv) = sum_k C(n,k) D^k(u) D^(n-k)(v)."""
    ring, grammar = P.ring, P.grammar
    g = grammar.parse_grammar(grammar_text(family, params))
    pu, pv = ring.parse_polynomial(u), ring.parse_polynomial(v)
    du = [pu]
    dv = [pv]
    for _ in range(n):
        du.append(grammar.derive(g, du[-1]))
        dv.append(grammar.derive(g, dv[-1]))
    return sum((du[k] * dv[n - k] * comb(n, k) for k in range(n + 1)), ring.Polynomial.zero())


def _normal_form(word: str, p_weight: bool):
    """Normal form read off Ferrers boards (Varvak).  For the deformed
    form, p^(adjacent edges) = sum over subsets T of the adjacent edges of
    (p-1)^|T|, and the contractions containing T are those of the word
    with T's letters deleted."""
    ring, weyl = P.ring, P.weyl
    letters = weyl.WeylWord.parse(word).letters
    n_c, n_a = letters.count("c"), letters.count("a")
    pairs = [i for i in range(len(letters) - 1) if letters[i : i + 2] == "ac"]
    subsets = range(1 << len(pairs)) if p_weight else (0,)
    terms: dict[tuple[int, int], dict[int, int]] = {}
    for mask in subsets:
        drop = {j for b, i in enumerate(pairs) if mask >> b & 1 for j in (i, i + 1)}
        t = len(drop) // 2
        rest = "".join(ch for j, ch in enumerate(letters) if j not in drop)
        for k, count in enumerate(rook_vector(word_heights(rest))):
            poly = terms.setdefault((n_c - t - k, n_a - t - k), {})
            for j in range(t + 1):  # (p - 1)^t
                poly[j] = poly.get(j, 0) + count * comb(t, j) * (-1) ** (t - j)
    return weyl.NormalForm(
        {key: ring.Polynomial({ring.monomial({"p": j}): c for j, c in poly.items()}) for key, poly in terms.items()}
    )


def _triangle_rows(family, n_max, params):
    """Triangle entries read off grammar derivatives (the timed route uses
    the `numbers` recurrences)."""
    ring, grammar = P.ring, P.grammar
    x = ring.sym("x")
    params = dict(params)
    entries = []

    def coefficients(value, n):
        return value.coefficients_in("x")[n].coefficients_in("y")

    def get(coeffs, e):
        return coeffs.get(e, ring.Polynomial.zero())

    if family == "gen-stirling":
        r, s = params["r"], params["s"]
        value = x
        for n in range(1, n_max + 1):
            steps = [1 + (n - 1) * (r - 1)] if s == 1 else ([1] if n == 1 else list(range(2, r + 1)) + [1])
            for t in steps:
                value = grammar.derive(grammar.parse_grammar(_shifted_text(t)), value)
            coeffs = coefficients(value, 1)
            ks = range(1, n + 1) if s == 1 else range(r, n * r + 1)
            entries += [(n, k, get(coeffs, k if s == 1 else k - r + 1)) for k in ks]
        return entries
    if family == "q-stirling":
        value = x
        for n in range(1, n_max + 1):
            if n > 1:
                g = grammar.Grammar({"x": ring.sym("q") ** (n - 1) * x + x * ring.sym("y"), "y": ring.sym("y")})
                value = grammar.derive(g, value)
            coeffs = coefficients(value, 1)
            entries += [(n, k, get(coeffs, k - 1)) for k in range(1, n + 1)]
        return entries
    text = {
        "stirling-p": grammar_text("p", ()),
        "whitney": grammar_text("dowling", ("m", "r")),
        "eulerian": grammar_text("eulerian", ()),
    }.get(family) or grammar_text(family, ("m",))
    g = grammar.parse_grammar(text)
    value = x
    for n in range(1, n_max + 1):
        if family == "stirling-p":
            if n > 1:
                value = grammar.derive(g, value)
            coeffs = coefficients(value, 1)
            entries += [(n, k, get(coeffs, k - 1)) for k in range(1, n + 1)]
            continue
        value = grammar.derive(g, value)
        if family == "eulerian":
            entries += [(n, k, get(coefficients(value, k + 1), n - k)) for k in range(n)]
        else:
            coeffs = coefficients(value, 1)
            entries += [(n, k, get(coeffs, k)) for k in range(n + 1)]
    return entries


SHOWN_PARAMS = {
    "stirling-p": {"p": "sym"},
    "q-stirling": {"q": "sym"},
    "whitney": {"m": "m", "r": "r"},
    "sf-plain": {"m": "m"},
    "sf-bar": {"m": "m"},
    "sf-tilde": {"m": "m"},
    "eulerian": {"m": "1"},
}


def _expected_triangle(family, n, params, fmt):
    entries = _triangle_rows(family, n, params)
    shown = SHOWN_PARAMS.get(family) or {k: str(v) for k, v in params}
    if fmt == "csv":
        head = ["family,params", f"{family}," + ";".join(f"{k}={v}" for k, v in sorted(shown.items()))]
        return "\n".join(head + [f"{a},{b},{value}" for a, b, value in entries]) + "\n"
    payload = {
        "family": family,
        "params": shown,
        "entries": [{"n": a, "k": b, "value": str(value)} for a, b, value in entries],
    }
    return json.dumps(payload, indent=2)


def _expected_rook(heights):
    counts = rook_vector(heights)
    return ",".join(map(str, counts + [0] * (len(heights) + 1 - len(counts))))


EXPECTED = {
    "derive": _expected_derivative,
    "chain": _expected_chain,
    "shift": _expected_shift,
    "leibniz": _expected_leibniz,
    "wick": lambda word: _normal_form(word, False),
    "rewrite": lambda word: _normal_form(word, False),
    "normal-order-p": lambda word: _normal_form(word, True),
    "triangle": _expected_triangle,
    "rook": _expected_rook,
    "rstirling": lambda n, k, r: str(r_stirling(n, k, r)),
}


def _check_sequences(family: str, n: int, lines: list[str]) -> str | None:
    seqs = [tuple(map(int, line.split(","))) for line in lines]
    bad = next((s for s in seqs if len(s) != n or not growth_bound(family, s)), None)
    if bad is not None:
        return f"sequence {bad} is not a length-{n} {family} growth sequence"
    if seqs != sorted(set(seqs)):
        return "sequences are not distinct and in lexicographic order"
    if len(seqs) != bell(n):
        return f"{len(seqs)} sequences, expected Bell({n}) = {bell(n)}"
    return None


def _cli_text(expect) -> str:
    """The exact stdout of a CLI job whose result has an oracle."""
    kind, args, fmt = expect
    if kind == "triangle":
        text = _expected_triangle(*args)
        return text if fmt == "csv" else text + "\n"
    value = EXPECTED[kind](*args)
    if fmt == "plain":
        return f"{value}\n"
    if kind in ("rewrite", "normal-order-p"):
        terms = [
            {"creation": i, "annihilation": j, "coefficient": str(c)} for (i, j), c in value.sorted_terms()
        ]
        payload = {"word": P.weyl.WeylWord.parse(args[0]).letters, "terms": terms}
    else:
        payload = {"result": str(value)}
    return json.dumps(payload, indent=2) + "\n"


def _check_cli_structure(expect, body: str) -> str | None:
    """Checks for the CLI jobs without a single expected text: verify
    reports (every case passes) and contraction listings (Bell-many)."""
    kind, args, fmt = expect
    if kind == "contractions":
        lines = body.splitlines()
        count = diagram_count(args[0])
        if lines[-1:] != [f"count={count}"] or len(lines) != count + 1:
            return f"expected {count} contractions, got {lines[-1:]} after {len(lines) - 1} lines"
        return None
    if fmt == "json":
        failing = [c["id"] for report in json.loads(body) for c in report["cases"] if not c["pass"]]
    else:
        failing = [line.strip() for line in body.splitlines() if "[FAIL]" in line]
        if body.splitlines()[-1:] != ["overall: PASS"]:
            failing.append("overall")
    return f"failing cases: {failing[:5]}" if failing else None


def first_difference(expected: str, actual: str) -> str:
    """Name the first differing monomials with both coefficients, when both
    sides read back as polynomials; else the first differing line."""
    ring = P.ring

    def parse(text):
        return ring.parse_polynomial(text.split(" + O(")[0])

    try:
        want, got = parse(expected), parse(actual)
    except (ValueError, IndexError):
        pass
    else:
        diff = (want - got).sorted_terms()[:3]
        parts = [
            f"{ring.Polynomial.from_monomial(m)}: expected {want.coefficient(m)}, got {got.coefficient(m)}"
            for m, _ in diff
        ]
        if parts:
            return "; ".join(parts)
    for i, (a, b) in enumerate(zip(expected.splitlines(), actual.splitlines())):
        if a != b:
            return f"line {i + 1}: expected {a[:120]!r}, got {b[:120]!r}"
    return f"lengths differ: expected {len(expected)} chars, got {len(actual)}"


class Checker:
    """Checks job outputs in the parent process, outside every timer."""

    def __init__(self, digests: dict[str, str]):
        load_program()
        self.digests = digests
        self._expected: dict[str, str] = {}

    def expected(self, job: Job) -> str:
        if job.id not in self._expected:
            if job.kind == "cli":
                self._expected[job.id] = "exit=0\n" + _cli_text(job.args[1])
            else:
                self._expected[job.id] = str(EXPECTED[job.kind](*job.args))
        return self._expected[job.id]

    def check(self, job: Job, output: str | None, error: str | None) -> str | None:
        """None if the output is right, else a one-line failure report."""
        if error is not None:
            return f"raised {error}"
        if job.kind in ("growth", "roundtrip"):
            family, n = job.args
            head, lines = (None, output.split("\n"))
            if job.kind == "roundtrip":
                head, lines = lines[0], lines[1:]
                family = "P" if family == "stirling" else "Q"
            problem = _check_sequences(family, n, lines)
            if head not in (None, "broken=0"):
                problem = f"round trip {head}"
            if problem:
                return problem
        elif job.kind == "cli" and job.args[1][0] in ("verify", "contractions"):
            head, _, body = output.partition("\n")
            problem = f"exited with {head[5:]}" if head != "exit=0" else _check_cli_structure(job.args[1], body)
            if problem:
                return problem
        else:
            want = self.expected(job)
            if output != want:
                return "mismatch: " + first_difference(want, output)
        stored = self.digests.get(job.id) if job.fixed else None
        if stored is not None and stored != digest(output):
            return f"rendering digest {digest(output)} differs from stored {stored}"
        return None

    def catalogue(self, job: Job, output: str) -> None:
        """Record the digest of a checked fixed job's output."""
        if job.fixed:
            self.digests[job.id] = digest(output)
