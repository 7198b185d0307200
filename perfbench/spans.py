"""Spans around the program's layer boundaries, and the arithmetic that
turns them into per-layer metrics.

A traced pass replaces each public name listed in TARGETS, and every
copy of it that another module imported by name, with a wrapper that
records a span (name, start, end, parent) in memory.  Nothing inside the
program changes.  Self time is a span's duration minus the part of it
that its child spans cover.  The recursive `weyl._rewrite_terms` is not
wrapped (a wrapper frame per level would move its RecursionError); its
cache statistics are read from `cache_info()` instead.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from array import array
from time import perf_counter

from jobs import bell

JOB_SPAN = "bench.job"

# Span names whose work is rendering or parsing text.  They form the
# "render" layer; every other span belongs to the layer named by the
# prefix before its first dot.
RENDER_SPANS = frozenset({"ring.render", "ring.parse", "numbers.triangle_format"})
LAYERS = ("ring", "render", "grammar", "weyl", "numbers", "bijections", "verify", "cli", "bench")

# (span name, module, attribute path); several attributes may share a name.
TARGETS = (
    ("ring.mul", "weylgram.ring", "Polynomial.__mul__"),
    ("ring.mul", "weylgram.ring", "Polynomial.__rmul__"),
    ("ring.add", "weylgram.ring", "Polynomial.__add__"),
    ("ring.add", "weylgram.ring", "Polynomial.__radd__"),
    ("ring.diff", "weylgram.ring", "Polynomial.diff"),
    ("ring.pow", "weylgram.ring", "Polynomial.__pow__"),
    ("ring.substitute", "weylgram.ring", "Polynomial.substitute"),
    ("ring.render", "weylgram.ring", "render_polynomial"),
    ("ring.parse", "weylgram.ring", "parse_polynomial"),
    ("ring.series", "weylgram.ring", "TruncatedSeries.__add__"),
    ("ring.series", "weylgram.ring", "TruncatedSeries.__radd__"),
    ("ring.series", "weylgram.ring", "TruncatedSeries.__sub__"),
    ("ring.series", "weylgram.ring", "TruncatedSeries.__rsub__"),
    ("ring.series", "weylgram.ring", "TruncatedSeries.__mul__"),
    ("ring.series", "weylgram.ring", "TruncatedSeries.__rmul__"),
    ("ring.series", "weylgram.ring", "TruncatedSeries.scale"),
    ("ring.series", "weylgram.ring", "TruncatedSeries.exp"),
    ("ring.falling_basis", "weylgram.ring", "falling_factorial"),
    ("ring.falling_basis", "weylgram.ring", "to_falling_factorial_basis"),
    ("ring.falling_basis", "weylgram.ring", "from_falling_factorial_basis"),
    ("grammar.parse", "weylgram.grammar", "parse_grammar"),
    ("grammar.derive", "weylgram.grammar", "derive"),
    ("grammar.derive_n", "weylgram.grammar", "derive_n"),
    ("grammar.derive_chain", "weylgram.grammar", "derive_chain"),
    ("grammar.shift_apply", "weylgram.grammar", "shift_apply"),
    ("grammar.generations", "weylgram.grammar", "enumerate_generations"),
    ("grammar.generations", "weylgram.grammar", "generation_sum"),
    ("weyl.contractions", "weylgram.weyl", "enumerate_contractions"),
    ("weyl.contraction_init", "weylgram.weyl", "Contraction.__post_init__"),
    ("weyl.wick_sum", "weylgram.weyl", "wick_sum"),
    ("weyl.normal_order_p", "weylgram.weyl", "normal_order_p"),
    ("weyl.contraction_stats", "weylgram.weyl", "contraction_stats"),
    ("weyl.rewrite", "weylgram.weyl", "normal_order"),
    ("numbers.recurrence", "weylgram.numbers", "stirling2"),
    ("numbers.recurrence", "weylgram.numbers", "bell"),
    ("numbers.recurrence", "weylgram.numbers", "stirling_p"),
    ("numbers.recurrence", "weylgram.numbers", "q_stirling"),
    ("numbers.recurrence", "weylgram.numbers", "gen_stirling_recur"),
    ("numbers.recurrence", "weylgram.numbers", "gen_bell"),
    ("numbers.recurrence", "weylgram.numbers", "whitney"),
    ("numbers.recurrence", "weylgram.numbers", "dowling_poly"),
    ("numbers.recurrence", "weylgram.numbers", "sf_numbers"),
    ("numbers.series", "weylgram.numbers", "gen_stirling_dobinski"),
    ("numbers.series", "weylgram.numbers", "eulerian_m"),
    ("numbers.series", "weylgram.numbers", "eulerian"),
    ("numbers.series", "weylgram.numbers", "sf_from_eulerian"),
    ("numbers.series", "weylgram.numbers", "special_poly"),
    ("numbers.series", "weylgram.numbers", "falling_factorial_identity_check"),
    ("numbers.bruteforce", "weylgram.numbers", "rstirling_bruteforce"),
    ("numbers.bruteforce", "weylgram.numbers", "rook_numbers"),
    ("numbers.triangle", "weylgram.numbers", "build_triangle"),
    ("numbers.triangle_format", "weylgram.numbers", "Triangle.to_csv"),
    ("numbers.triangle_format", "weylgram.numbers", "Triangle.to_json"),
    ("numbers.triangle_format", "weylgram.numbers", "Triangle.to_plain"),
    ("bijections.to_seq", "weylgram.bijections", "contraction_to_seq_stirling"),
    ("bijections.to_seq", "weylgram.bijections", "contraction_to_seq_p"),
    ("bijections.to_contraction", "weylgram.bijections", "seq_to_contraction_stirling"),
    ("bijections.to_contraction", "weylgram.bijections", "seq_to_contraction_p"),
    ("bijections.growth", "weylgram.bijections", "enumerate_growth_sequences"),
    ("verify.suite.grammar", "weylgram.verify", "verify_grammar_theorems"),
    ("verify.suite.weyl", "weylgram.verify", "verify_weyl"),
    ("verify.suite.bijections", "weylgram.verify", "verify_bijections"),
    ("verify.suite.identities", "weylgram.verify", "verify_identities"),
    ("verify.suite.rook", "weylgram.verify", "verify_rook"),
    ("verify.suite.shift", "weylgram.verify", "verify_shift"),
    ("verify.check", "weylgram.verify", "Report.check"),
    ("verify.info", "weylgram.verify", "Report.info"),
    ("cli.main", "weylgram.cli", "main"),
    ("cli.build_parser", "weylgram.cli", "build_parser"),
)


def layer_of(span_name: str) -> str:
    if span_name in RENDER_SPANS:
        return "render"
    return span_name.split(".", 1)[0]


class Tracer:
    """Spans kept in flat arrays, indexed in the order they were entered."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self.current = idx
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def maximum(self, counter: str, value: int) -> None:
        if value > self.counters.get(counter, 0):
            self.counters[counter] = value

    def spans(self):
        """(name, start, end, parent index) for every recorded span."""
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
        ]

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "layout": ["name:int32", "parent:int64", "start:float64", "end:float64"],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


def self_times(spans) -> dict[str, list]:
    """{name: [calls, self seconds, inclusive seconds]} from (name, start,
    end, parent) spans.  Inclusive time counts a call nested in a call of
    the same name twice; it is reported only for names that never nest.

    Spans must be listed in the order they were entered, so each span's
    children come after it in start order; the covered part of a span is
    the union of its children's intervals clipped to it.
    """
    n = len(spans)
    covered = [0.0] * n
    covered_until = [-math.inf] * n
    for name, start, end, parent in spans:
        if parent < 0:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        lo = max(start, covered_until[parent], p_start)
        hi = min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
        if hi > covered_until[parent]:
            covered_until[parent] = hi
    totals: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered[i]
        entry[2] += end - start
    return totals


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 100])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- counters taken at the wrapped boundaries -----------------------------


def _terms(value) -> int:
    terms = getattr(value, "_terms", None)
    return 1 if terms is None else len(terms)


def _mul_after(tracer, args, result):
    tracer.add("ring.mul.term_pairs", _terms(args[0]) * _terms(args[1]))
    tracer.maximum("ring.result.max_terms", len(result._terms))
    bits = 0
    for c in result._terms.values():
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    tracer.maximum("ring.result.max_coeff_bits", bits)


COUNTERS = {
    "Polynomial.__mul__": _mul_after,
    "Polynomial.__rmul__": _mul_after,
    "Polynomial.__add__": lambda t, a, r: t.maximum("ring.result.max_terms", len(r._terms)),
    "Polynomial.__radd__": lambda t, a, r: t.maximum("ring.result.max_terms", len(r._terms)),
    "render_polynomial": lambda t, a, r: t.add("ring.render.bytes", len(r)),
    "enumerate_contractions": lambda t, a, r: t.add("weyl.contractions.diagrams", len(r)),
    "enumerate_generations": lambda t, a, r: t.add("grammar.generations.count", len(r)),
    "rook_numbers": lambda t, a, r: t.add("numbers.rook.placements", sum(r)),
    # The brute force visits every set partition of n + r elements.
    "rstirling_bruteforce": lambda t, a, r: t.add("numbers.bruteforce.partitions", bell(a[0] + a[2])),
    "Triangle.to_csv": lambda t, a, r: t.add("numbers.triangle_format.bytes", len(r)),
    "Triangle.to_json": lambda t, a, r: t.add("numbers.triangle_format.bytes", len(r)),
    "Triangle.to_plain": lambda t, a, r: t.add("numbers.triangle_format.bytes", len(r)),
    "enumerate_growth_sequences": lambda t, a, r: t.add("bijections.growth.sequences", len(r)),
}


def _wrap(tracer: Tracer, fn, span_name: str, after):
    nid = tracer.name_id(span_name)
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = enter(nid)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result
        finally:
            leave(idx)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS entry, in its home module and wherever it was
    imported by name."""
    modules = [m for name, m in sys.modules.items() if name == "weylgram" or name.startswith("weylgram.")]
    for span_name, module_name, path in TARGETS:
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapped = _wrap(tracer, original, span_name, COUNTERS.get(path))
        setattr(owner, attr, wrapped)
        if not outer:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def summarize(tracer: Tracer, rewrite_cache) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals = self_times(tracer.spans())
    out: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (calls, self_s, total_s) in totals.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.total_s"] = total_s
        layer_self[layer_of(name)] += self_s
    for layer, self_s in layer_self.items():
        out[f"layer.{layer}.self_s"] = self_s
    out.update(tracer.counters)
    lookups = rewrite_cache.hits + rewrite_cache.misses
    out["weyl.rewrite.cache_hit_ratio"] = rewrite_cache.hits / lookups if lookups else 0.0
    out["weyl.rewrite.cache_entries"] = rewrite_cache.currsize
    return out
