"""Tests for normal ordering, contractions and the deformed weighting."""

import random
import tracemalloc
from collections import Counter
from math import comb, factorial

import pytest

from weylgram import weyl
from weylgram.numbers import bell, special_poly, stirling2, stirling_p
from weylgram.ring import ParseError, poly_sum, sym
from weylgram.weyl import (
    Contraction,
    ContractionStats,
    NormalForm,
    WeylWord,
    _contraction_nodes,
    _rewrite_terms,
    all_words,
    contraction_stats,
    enumerate_contractions,
    nf_multiply,
    normal_order,
    normal_order_p,
    wick_sum,
)

P = sym("p")


def test_word_parsing():
    assert WeylWord.parse("(ca)^3").letters == "cacaca"
    assert WeylWord.parse("aa(ca)^2c").letters == "aacacac"
    assert WeylWord.parse("CA").letters == "ca"
    with pytest.raises(ValueError):
        WeylWord.parse("(ca")
    with pytest.raises(ValueError):
        WeylWord("xyz")
    assert WeylWord.parse("(ca)^\u0663").letters == "cacaca"  # Arabic-Indic 3
    with pytest.raises(ParseError, match=r"^missing repetition count in word '\(ca\)\^²'$"):
        WeylWord.parse("(ca)^²")  # a digit, but not a decimal digit


@pytest.mark.parametrize(
    "text, result",
    [
        ("(ca", "unbalanced '('"),
        ("(ca)^3(", "unbalanced '('"),
        ("()", "bad group ''"),
        ("((ca)", "bad group '(ca'"),
        ("(ca)^", "missing repetition count"),
        ("(ca)^x", "missing repetition count"),
        (")", "unexpected character ')'"),
        ("^", "unexpected character '^'"),
        ("c\na", "unexpected character '\\n'"),
        ("(ca)^3^2", "unexpected character '^'"),
        # the first bad piece wins
        ("(cb)x", "bad group 'cb'"),
        ("x(cb)", "unexpected character 'x'"),
        # the letter limit is checked only after every piece
        ("(ca)^2147483648x", "unexpected character 'x'"),
        ("C A", "ca"),
        ("(ca)^٣", "cacaca"),
    ],
)
def test_word_parse_table(text, result):
    if set(result) <= {"a", "c"}:
        assert WeylWord.parse(text).letters == result
        return
    with pytest.raises(ParseError) as info:
        WeylWord.parse(text)
    assert str(info.value) == f"{result} in word {text!r}"


def test_parse_checks_each_letter_once(monkeypatch):
    # Every piece is checked as it is read, so the word is built without
    # WeylWord.__post_init__, which would scan every letter again.
    def refuse(self):
        raise AssertionError("WeylWord.__post_init__ ran")

    monkeypatch.setattr(WeylWord, "__post_init__", refuse)
    assert WeylWord.parse("a(ca)^3 C").letters == "acacacac"
    assert WeylWord.parse("").letters == ""
    with pytest.raises(ParseError, match=r"^bad group 'cb' in word"):
        WeylWord.parse("a(cb)")
    with pytest.raises(AssertionError):
        WeylWord("ca")


def test_word_length_is_checked_before_the_word_is_built(monkeypatch):
    # 2 * 10^11 letters: building the word would ask for 200 GB at once.
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"has 200000000000 letters, more than the limit of 2147483648$"):
            WeylWord.parse("(ca)^100000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    with pytest.raises(ParseError, match=r"has 200000000000000000000 letters"):
        WeylWord.parse("(ca)^100000000000000000000")
    # A syntax error anywhere in the text wins over the length.
    with pytest.raises(ParseError, match=r"^unexpected character 'x' in word"):
        WeylWord.parse("(ca)^100000000000000000000x")
    with pytest.raises(ParseError, match=r"^bad group 'cb' in word"):
        WeylWord.parse("(ca)^100000000000000000000(cb)")
    # The limit itself is allowed; one letter more is not.
    monkeypatch.setattr(weyl, "MAX_WORD_LETTERS", 10)
    assert WeylWord.parse("a(ca)^4c").letters == "acacacacac"
    with pytest.raises(ParseError, match=r"^word 'a\(ca\)\^5' has 11 letters, more than the limit of 10$"):
        WeylWord.parse("a(ca)^5")


def test_repetition_counts_past_the_int_digit_limit_are_parse_errors():
    word = "(ca)^" + "9" * 5000
    with pytest.raises(ParseError) as info:
        WeylWord.parse(word)
    assert str(info.value) == f"repetition count of 5000 digits (at most 4300) in word {word!r}"
    # 4300 digits convert, but the letter count has one digit more than str() converts
    word = "(ca)^" + "9" * 4300
    with pytest.raises(ParseError) as info:
        WeylWord.parse(word)
    assert str(info.value) == f"word {word!r} has over 10^4300 letters, more than the limit of 2147483648"


def test_all_words_order_is_pinned():
    # A failing wick-equals-rewrite or transfer-equals-walker case names
    # the first word that fails, so the order is part of the report.
    assert [w.letters for w in all_words(0)] == [""]
    assert [w.letters for w in all_words(1)] == ["a", "c"]
    assert [w.letters for w in all_words(2)] == ["aa", "ac", "ca", "cc"]
    assert [w.letters for w in all_words(3)] == [
        "aaa", "aac", "aca", "acc", "caa", "cac", "cca", "ccc"
    ]


def test_normal_order_commutator():
    assert normal_order(WeylWord("ac")) == NormalForm({(1, 1): 1, (0, 0): 1})


def test_normal_order_number_operator_powers():
    assert normal_order(WeylWord.ca_power(2)) == NormalForm({(2, 2): 1, (1, 1): 1})
    assert normal_order(WeylWord.ca_power(3)) == NormalForm({(3, 3): 1, (2, 2): 3, (1, 1): 1})
    for n in range(1, 9):
        expected = NormalForm({(k, k): stirling2(n, k) for k in range(1, n + 1)})
        assert normal_order(WeylWord.ca_power(n)) == expected


def test_normal_order_long_number_operator_power():
    # deeper than the interpreter recursion limit: rewriting must not recurse
    expected = NormalForm({(k, k): stirling2(400, k) for k in range(1, 401)})
    assert normal_order(WeylWord.ca_power(400)) == expected


@pytest.mark.parametrize("n", range(31))
def test_normal_order_annihilation_power_times_creation_power(n):
    # a^n c^n = sum_k k! C(n,k)^2 c^(n-k) a^(n-k), the laguerre-square row
    word = WeylWord("a" * n + "c" * n)
    expected = {(n - k, n - k): factorial(k) * comb(n, k) ** 2 for k in range(n + 1)}
    assert normal_order(word) == NormalForm(expected)
    y = sym("y")
    row = poly_sum(coeff * y**i for (i, _), coeff in normal_order(word).terms().items())
    assert row == special_poly("laguerre-square", n)
    # the fact rewriting's one-index list relies on: i - j = #c - #a
    for w in (word, WeylWord("a" * n + "c" * (n // 2)), WeylWord("c" * n + "a" * (n // 2))):
        shift = w.count("c") - w.count("a")
        assert all(i - j == shift for (i, j), _ in _rewrite_terms(w.letters))


def test_rewriting_caches_whole_words_only():
    _rewrite_terms.cache_clear()
    normal_order(WeylWord("acca" * 10))
    assert _rewrite_terms.cache_info().currsize == 1


def test_normal_order_empty_word():
    assert normal_order(WeylWord("")) == NormalForm({(0, 0): 1})


def test_contraction_counts():
    assert len(enumerate_contractions(WeylWord.ca_power(3))) == 5
    assert len(enumerate_contractions(WeylWord.ca_power(4))) == 15
    assert len(enumerate_contractions(WeylWord("c"))) == 1


def test_long_word_without_pairs_has_one_diagram():
    # more creations than the interpreter recursion limit allows frames
    word = WeylWord("c" * 3000)
    assert [c.edges for c in enumerate_contractions(word)] == [()]
    assert wick_sum(word) == NormalForm({(3000, 0): 1})


def reference_edge_tuples(letters):
    """The walker before it carried counts: raw sorted edge tuples, in
    lexicographic order, from a table of (a, later c, first pair of the
    next a) triples by rising annihilation."""
    creations = [p for p, ch in enumerate(letters, start=1) if ch == "c"]
    pairs = []
    for i, ch in enumerate(letters, start=1):
        if ch == "a":
            later = [j for j in creations if j > i]
            pairs += [(i, j, len(pairs) + len(later)) for j in later]
    stack = [((), 0, 0)]
    while stack:
        edges, used, start = stack.pop()
        yield edges
        for k in range(len(pairs) - 1, start - 1, -1):
            i, j, next_start = pairs[k]
            if not used >> j & 1:
                stack.append((edges + ((i, j),), used | 1 << j, next_start))


def test_walker_matches_reference_on_all_short_words():
    for length in range(10):
        for word in all_words(length):
            expected = [
                (edges, len(edges), sum(j == i + 1 for i, j in edges))
                for edges in reference_edge_tuples(word.letters)
            ]
            got = [node[:3] for node in _contraction_nodes(word.letters)]
            assert got == expected, word.letters


def walker_p_form(word):
    """The p-form from the walker's tally: a contraction with e edges, t
    of them adjacent, adds p^t to the coefficient of c^(#c-e) a^(#a-e)."""
    tally = Counter(node[1:3] for node in _contraction_nodes(word.letters))
    weighted: dict = {}
    for (edges, adjacent), n in tally.items():
        key = (word.count("c") - edges, word.count("a") - edges)
        weighted[key] = weighted.get(key, 0) + n * P**adjacent
    return NormalForm(weighted)


def test_p_form_matches_walker_on_all_short_words():
    # the walker's (edges, adjacent edges) tally is the p-form's oracle
    for length in range(10):
        for word in all_words(length):
            assert normal_order_p(word) == walker_p_form(word), word.letters


def test_walker_builds_its_candidates_in_linear_memory():
    # 60 a's before 60 c's give 3,600 candidate pairs; one tail list per
    # starting pair would hold 3600 * 3601 / 2, about 6.5M slots (52 MB of
    # pointers).  Taking the root node builds the candidates and no more.
    tracemalloc.start()
    try:
        root = next(_contraction_nodes("a" * 60 + "c" * 60))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert root[:3] == ((), 0, 0)
    assert peak < 4 * 2**20, peak


def test_contraction_enumeration_is_sorted_and_valid():
    contractions = enumerate_contractions(WeylWord.ca_power(4))
    edge_lists = [c.edges for c in contractions]
    assert edge_lists == sorted(edge_lists)
    assert edge_lists[0] == ()
    for c in contractions:
        for i, j in c.edges:
            assert c.word.letter(i) == "a" and c.word.letter(j) == "c" and i < j


def test_contraction_validation():
    word = WeylWord.ca_power(2)
    with pytest.raises(ValueError):
        Contraction(word, ((1, 3),))  # c before c
    with pytest.raises(ValueError):
        Contraction(word, ((2, 3), (2, 3)))
    with pytest.raises(ValueError):
        Contraction(word, ((0, 3),))
    Contraction(word, ((2, 3),))


@pytest.mark.parametrize(
    "letters, edges, message",
    [
        ("caca", ((0, 3),), "edge (0,3) out of range"),
        ("caca", ((2, 5),), "edge (2,5) out of range"),
        ("caca", ((4, 3),), "edge (4,3) out of range"),
        ("caca", ((2, 2),), "edge (2,2) out of range"),
        ("caca", ((1, 3),), "edge (1,3) must join an 'a' to a later 'c'"),
        ("caca", ((2, 4),), "edge (2,4) must join an 'a' to a later 'c'"),
        ("caca", ((2, 3), (2, 3)), "vertex reused by edge (2,3)"),
        ("aacc", ((2, 3), (1, 3)), "vertex reused by edge (2,3)"),
        ("caac", ((3, 4), (2, 4)), "vertex reused by edge (3,4)"),
    ],
)
def test_contraction_rejections_name_the_edge(letters, edges, message):
    with pytest.raises(ValueError) as info:
        Contraction(WeylWord(letters), edges)
    assert str(info.value) == message


def test_contraction_edges_come_back_sorted():
    contraction = Contraction(WeylWord("aacaccc"), ((4, 7), (1, 6), (2, 3)))
    assert contraction.edges == ((1, 6), (2, 3), (4, 7))


def test_contraction_stats_examples():
    word = WeylWord.ca_power(4)
    assert contraction_stats(Contraction(word, ((2, 3), (6, 7)))) == ContractionStats(2, 2, 2, 2)
    assert contraction_stats(Contraction(word, ())) == ContractionStats(0, 0, 4, 4)
    assert contraction_stats(Contraction(word, ((2, 3), (4, 5), (6, 7)))) == ContractionStats(
        3, 3, 1, 1
    )


def reference_contraction_stats(contraction):
    """The statistics before they were read off the edges: a set of
    matched vertices and a scan of every position per colour."""
    word = contraction.word
    matched = {v for edge in contraction.edges for v in edge}
    adjacent = sum(1 for i, j in contraction.edges if j == i + 1)
    degree0_black = sum(
        1 for p in range(1, len(word) + 1) if word.letter(p) == "c" and p not in matched
    )
    degree0_white = sum(
        1 for p in range(1, len(word) + 1) if word.letter(p) == "a" and p not in matched
    )
    return ContractionStats(len(contraction.edges), adjacent, degree0_black, degree0_white)


def test_contraction_stats_match_positionwise_count():
    for length in range(9):
        for word in all_words(length):
            for c in enumerate_contractions(word):
                assert contraction_stats(c) == reference_contraction_stats(c), c


def test_wick_sum_examples():
    assert wick_sum(WeylWord.ca_power(2)) == NormalForm({(2, 2): 1, (1, 1): 1})
    assert wick_sum(WeylWord("ac")) == NormalForm({(1, 1): 1, (0, 0): 1})
    assert wick_sum(WeylWord.ca_power(4)) == NormalForm(
        {(4, 4): 1, (3, 3): 6, (2, 2): 7, (1, 1): 1}
    )


@pytest.mark.parametrize("n", range(10))
def test_wick_sum_number_operator_rows(n):
    expected = NormalForm({(k, k): stirling2(n, k) for k in range(n + 1)})
    assert wick_sum(WeylWord.ca_power(n)) == expected


@pytest.mark.parametrize("n", range(8))
def test_wick_sum_annihilation_power_times_creation_power(n):
    # a^n c^n = sum_k k! C(n,k)^2 c^(n-k) a^(n-k), the laguerre-square row
    form = wick_sum(WeylWord("a" * n + "c" * n))
    expected = {(n - k, n - k): factorial(k) * comb(n, k) ** 2 for k in range(n + 1)}
    assert form == NormalForm(expected)
    y = sym("y")
    row = poly_sum(coeff * y**i for (i, _), coeff in form.terms().items())
    assert row == special_poly("laguerre-square", n)


@pytest.mark.parametrize(
    "letters, expected",
    [
        ("", {(0, 0): 1}),
        ("c" * 3000, {(3000, 0): 1}),
        ("a" * 3000, {(0, 3000): 1}),
        ("a" + "c" * 3000, {(3000, 1): 1, (2999, 0): 3000}),
    ],
    ids=["empty", "c^3000", "a^3000", "a c^3000"],
)
def test_wick_sum_edge_words(letters, expected):
    assert wick_sum(WeylWord(letters)) == NormalForm(expected)


@pytest.fixture
def no_walker(monkeypatch):
    def refuse(letters):
        raise AssertionError(f"walked the contractions of {letters!r}")

    monkeypatch.setattr(weyl, "_contraction_nodes", refuse)


def test_wick_sum_never_walks_diagrams(no_walker):
    rng = random.Random(27)
    words = ["", "ac", "acca" * 4, "a" * 9 + "c" * 9]
    words += ["".join(rng.choice("ac") for _ in range(rng.randint(1, 16))) for _ in range(24)]
    for letters in words:
        assert wick_sum(WeylWord(letters)) == normal_order(WeylWord(letters)), letters


def test_wick_sum_number_operator_rows_beyond_the_walker(no_walker):
    # (ca)^16 has Bell(16), about 1.0e10, contractions
    for n in range(17):
        expected = NormalForm({(k, k): stirling2(n, k) for k in range(n + 1)})
        assert wick_sum(WeylWord.ca_power(n)) == expected, n


def test_wick_sum_annihilation_power_times_creation_power_beyond_the_walker(no_walker):
    # a^12 c^12 has about 5.3e10 contractions
    y = sym("y")
    for n in range(13):
        form = wick_sum(WeylWord("a" * n + "c" * n))
        row = poly_sum(coeff * y**i for (i, _), coeff in form.terms().items())
        assert row == special_poly("laguerre-square", n), n


def test_edge_count_distribution_reverses_triangle():
    for n in range(1, 7):
        contractions = enumerate_contractions(WeylWord.ca_power(n))
        assert len(contractions) == bell(n)
        for e in range(n):
            expected = stirling2(n, n - e)
            assert sum(1 for c in contractions if len(c.edges) == e) == expected


def test_wick_equals_rewriting_small():
    for length in range(9):
        for word in all_words(length):
            assert wick_sum(word) == normal_order(word), word.letters


def test_tallies_match_contraction_objects():
    # the public Contraction objects are the reference for the raw tallies
    for length in range(9):
        for word in all_words(length):
            contractions = enumerate_contractions(word)
            edge_counts = Counter(len(c.edges) for c in contractions)
            expected = NormalForm(
                {(word.count("c") - e, word.count("a") - e): n for e, n in edge_counts.items()}
            )
            assert wick_sum(word) == expected, word.letters
            weighted: dict = {}
            for c in contractions:
                stats = contraction_stats(c)
                key = (word.count("c") - stats.edge_count, word.count("a") - stats.edge_count)
                weighted[key] = weighted.get(key, 0) + P**stats.adjacent_edge_count
            assert normal_order_p(word) == NormalForm(weighted), word.letters


def test_deformed_rows():
    assert normal_order_p(WeylWord.ca_power(2)) == NormalForm({(2, 2): 1, (1, 1): P})
    assert normal_order_p(WeylWord.ca_power(3)) == NormalForm(
        {(3, 3): 1, (2, 2): 2 * P + 1, (1, 1): P**2}
    )
    # (ca)^60 has Bell(60), about 9.8e59, contractions: out of the walker's reach
    for n in range(1, 61):
        expected = NormalForm({(k, k): stirling_p(n, k) for k in range(1, n + 1)})
        assert normal_order_p(WeylWord.ca_power(n)) == expected


def test_deformed_degenerates_at_one():
    rng = random.Random(31)
    for _ in range(20):
        length = rng.randint(0, 8)
        letters = "".join(rng.choice("ac") for _ in range(length))
        word = WeylWord(letters)
        assert normal_order_p(word, 1) == wick_sum(word)


def test_nf_multiply_examples():
    number_op = NormalForm({(1, 1): 1})
    assert nf_multiply(number_op, number_op) == NormalForm({(2, 2): 1, (1, 1): 1})
    anything = normal_order(WeylWord("acca"))
    assert nf_multiply(NormalForm.identity(), anything) == anything


def test_nf_multiply_matches_concatenation():
    rng = random.Random(77)
    for _ in range(25):
        w1 = "".join(rng.choice("ac") for _ in range(rng.randint(0, 6)))
        w2 = "".join(rng.choice("ac") for _ in range(rng.randint(0, 6)))
        product = nf_multiply(normal_order(WeylWord(w1)), normal_order(WeylWord(w2)))
        assert product == normal_order(WeylWord(w1 + w2)), (w1, w2)


def test_normal_form_rendering():
    assert str(normal_order(WeylWord.ca_power(3))) == "c*a + 3*c^2*a^2 + c^3*a^3"
    assert str(NormalForm({(0, 0): 1})) == "1"
    assert str(normal_order_p(WeylWord.ca_power(2))) == "p*c*a + c^2*a^2"


def test_contraction_rendering():
    c = Contraction(WeylWord.ca_power(2), ((2, 3),))
    assert str(c) == "caca; edges=(2,3)"
    assert str(Contraction(WeylWord.ca_power(2), ())) == "caca; edges="
