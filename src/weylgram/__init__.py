"""Exact-arithmetic workbench for substitution-grammar calculus and
normal ordering of annihilation/creation words, with independent oracles
for the combinatorial number families they generate and suites that
verify every identity coefficient-by-coefficient.

The public names load with their module on first access (PEP 562), so
importing the package, or `weylgram.cli`, loads no layer it does not use."""

import sys

# Each public name's home module; `numbers` and `verify` are modules themselves.
_HOMES = {
    "ring": (
        "Monomial",
        "ParseError",
        "Polynomial",
        "TruncatedSeries",
        "falling_factorial",
        "from_falling_factorial_basis",
        "monomial",
        "parse_polynomial",
        "poly_sum",
        "sym",
        "to_falling_factorial_basis",
    ),
    "grammar": (
        "GenSequence",
        "GenerationRecord",
        "Grammar",
        "P_FAMILY",
        "STIRLING_FAMILY",
        "derive",
        "derive_chain",
        "derive_n",
        "enumerate_generations",
        "generation_sum",
        "parse_grammar",
        "shift_apply",
    ),
    "weyl": (
        "Contraction",
        "ContractionStats",
        "NormalForm",
        "WeylWord",
        "contraction_stats",
        "enumerate_contractions",
        "nf_multiply",
        "normal_order",
        "normal_order_p",
        "wick_sum",
    ),
    "bijections": (
        "contraction_to_seq_p",
        "contraction_to_seq_stirling",
        "enumerate_growth_sequences",
        "seq_to_contraction_p",
        "seq_to_contraction_stirling",
    ),
    "numbers": ("numbers",),
    "verify": ("verify",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # A submodule that is not a public name, such as `weyl`, raises here, so
    # `from . import weyl` goes on to import it.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{_HOME[name]}"
    __import__(path)  # the import statement's own path, which `-X importtime` lists
    value = sys.modules[path] if name == _HOME[name] else getattr(sys.modules[path], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
