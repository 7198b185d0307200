"""Exact-arithmetic workbench for substitution-grammar calculus and
normal ordering of annihilation/creation words, with independent oracles
for the combinatorial number families they generate and suites that
verify every identity coefficient-by-coefficient."""

from .ring import (
    Monomial,
    ParseError,
    Polynomial,
    TruncatedSeries,
    falling_factorial,
    from_falling_factorial_basis,
    monomial,
    parse_polynomial,
    poly_sum,
    sym,
    to_falling_factorial_basis,
)
from .grammar import (
    GenSequence,
    GenerationRecord,
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
from .weyl import (
    Contraction,
    ContractionStats,
    NormalForm,
    WeylWord,
    contraction_stats,
    enumerate_contractions,
    nf_multiply,
    normal_order,
    normal_order_p,
    wick_sum,
)
from .bijections import (
    contraction_to_seq_p,
    contraction_to_seq_stirling,
    enumerate_growth_sequences,
    seq_to_contraction_p,
    seq_to_contraction_stirling,
)
from . import numbers, verify

__all__ = [
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
    "contraction_to_seq_p",
    "contraction_to_seq_stirling",
    "enumerate_growth_sequences",
    "seq_to_contraction_p",
    "seq_to_contraction_stirling",
    "numbers",
    "verify",
]

__version__ = "0.1.0"
