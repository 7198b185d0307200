"""Exact arithmetic substrate: big rationals, sparse multivariate
polynomials, and truncated power series with polynomial coefficients.

Symbols are plain strings, ordered lexicographically.  A monomial is a
sorted tuple of (symbol, exponent) pairs with positive exponents; the
empty tuple is the constant monomial 1.  Polynomials map monomials to
nonzero exact rationals, stored as an ``int`` when integral and as a
``Fraction`` (denominator not 1) otherwise, so integer arithmetic never
pays for a gcd.  ``_accumulate`` keeps this stored form wherever terms
may collide: sums, products, derivatives and substitutions each add
their (monomial, coefficient) pairs into a term map through it, and
``poly_sum`` adds many polynomials into one map in a single pass.
Where no two terms can meet, a scaling and a product with a one-term
factor, each product is stored directly, made an int when integral.
Everything is immutable after construction and every operation is a
pure function, so values can be shared freely.

The canonical text rendering (terms in graded-lex ascending order,
explicit ``*`` between factors, ``^`` for powers, rationals as ``a/b``,
a constant as its value) is the golden-file format.  ``_graded_lex``
gives that order to both ``sorted_terms`` and ``render_polynomial``:
one packed integer key per monomial, the degree in the top field and
the exponents below it in name order, each field as wide as the largest
exponent's bit length, so integer order is graded-lex order; a
polynomial in one symbol sorts by its exponent instead.
``parse_polynomial`` reads the text back, and also
accepts implicit multiplication by juxtaposition.  ``parse_rules`` reads
grammar rule lists ``sym -> poly; ...`` with the same lexer and
expression rules, so this module alone knows the text syntax; every
ParseError names the line:col where the text goes wrong.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Union[int, Fraction]
Monomial = tuple[tuple[str, int], ...]

ONE_MONOMIAL: Monomial = ()


class ParseError(ValueError):
    """Malformed polynomial or grammar text."""


def parse_int(text: str, what: str, where: str = "", bad: str = "") -> int:
    """int(text) for a number read from input, with errors of its own.
    Text that int() rejects is the ParseError `bad`, by default
    "bad <what> '<text>'<where>".
    Text of more decimal digits than int() converts (the process-wide
    sys.get_int_max_str_digits(), 4300 by default, read here and never
    changed) is "<what> of N digits (at most L)<where>" instead of int()'s
    own message, which names an interpreter setting."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        digits = sum(map(str.isdecimal, text))
        if digits > limit:
            raise ParseError(f"{what} of {digits} digits (at most {limit}){where}")
    try:
        return int(text)
    except ValueError:
        raise ParseError(bad or f"bad {what} {text!r}{where}") from None


def monomial(exponents: Mapping[str, int]) -> Monomial:
    """Build a monomial from a symbol -> exponent mapping; zeros dropped."""
    for name, exp in exponents.items():
        if not name:
            raise ValueError("empty symbol name")
        if exp < 0:
            raise ValueError(f"negative exponent for symbol {name!r}")
    return tuple(sorted((n, e) for n, e in exponents.items() if e > 0))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for name, exp in b:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted(exps.items()))


def monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _find(mono: Monomial, name: str) -> tuple[int, int]:
    """Position and exponent of a symbol in a sorted monomial; for an
    absent symbol, the position it would take and exponent 0."""
    i = bisect_left(mono, (name,))
    return (i, mono[i][1]) if i < len(mono) and mono[i][0] == name else (i, 0)


def _coerce_coeff(value: Rational) -> Rational:
    """Stored form of a coefficient: an int, or a non-integral Fraction."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"not an exact rational: {value!r}")


def _accumulate(
    terms: dict[Monomial, Rational], pairs: Iterable[tuple[Monomial, Rational]]
) -> dict[Monomial, Rational]:
    """Add (monomial, coefficient) pairs into terms in place, dropping
    zeros and storing integral values as int; returns terms."""
    for mono, coeff in pairs:
        acc = terms.get(mono, 0) + coeff
        if acc:
            terms[mono] = acc if type(acc) is int else _coerce_coeff(acc)
        else:
            terms.pop(mono, None)
    return terms


def _from_clean(terms: dict[Monomial, Rational]) -> "Polynomial":
    """Wrap a term map that already holds the invariant, without copying it."""
    out = Polynomial.__new__(Polynomial)
    out._terms = terms
    return out


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        coerced = ((mono, _coerce_coeff(c)) for mono, c in (terms or {}).items())
        self._terms = {mono: c for mono, c in coerced if c}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial({ONE_MONOMIAL: 1})

    @staticmethod
    def rational(value: Rational) -> "Polynomial":
        return Polynomial({ONE_MONOMIAL: value})

    @staticmethod
    def symbol(name: str) -> "Polynomial":
        return Polynomial({monomial({name: 1}): 1})

    @staticmethod
    def from_monomial(mono: Monomial, coeff: Rational = 1) -> "Polynomial":
        return Polynomial({mono: coeff})

    # -- inspection ---------------------------------------------------

    def terms(self) -> Mapping[Monomial, Rational]:
        """Read-only view of the term map (do not mutate): nonzero
        coefficients, each an int or a non-integral Fraction."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_integral(self) -> bool:
        """True if every coefficient is an integer (stored as an int)."""
        return all(type(c) is int for c in self._terms.values())

    def symbols(self) -> set[str]:
        return {name for mono in self._terms for name, _ in mono}

    def coefficient(self, mono: Monomial) -> Rational:
        """The coefficient of one monomial, 0 if absent; stored form."""
        return self._terms.get(mono, 0)

    def constant_value(self) -> Rational:
        """The value of a constant polynomial; error if non-constant."""
        if not self._terms:
            return 0
        if set(self._terms) == {ONE_MONOMIAL}:
            return self._terms[ONE_MONOMIAL]
        raise ValueError(f"not a constant polynomial: {self}")

    def sorted_terms(self) -> list[tuple[Monomial, Rational]]:
        """Terms in canonical order: graded lex, ascending."""
        return _graded_lex(self._terms)

    def coefficients_in(self, name: str) -> dict[int, "Polynomial"]:
        """Group terms by the exponent of one symbol.

        Returns {exponent: polynomial free of that symbol}; the keys are
        exactly the exponents that occur, in no particular order.
        """
        groups: dict[int, dict[Monomial, Rational]] = {}
        for mono, coeff in self._terms.items():
            i, e = _find(mono, name)
            groups.setdefault(e, {})[mono[:i] + mono[i + 1 :] if e else mono] = coeff
        return {e: _from_clean(terms) for e, terms in groups.items()}

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial" | Rational) -> "Polynomial":
        other = coerce_polynomial(other)
        return _from_clean(_accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _from_clean({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial" | Rational) -> "Polynomial":
        return self + (-coerce_polynomial(other))

    def __rsub__(self, other: "Polynomial" | Rational) -> "Polynomial":
        return coerce_polynomial(other) + (-self)

    def __mul__(self, other: "Polynomial" | Rational) -> "Polynomial":
        other = coerce_polynomial(other)
        a, b = self._terms, other._terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # A one-term factor c*m maps each term of the other straight to
            # its product, in the other's order: times a fixed m distinct
            # monomials stay distinct, and a product of nonzero rationals
            # is nonzero, so no two products need adding up.
            ((mono, coeff),) = a.items()
            terms = {}
            for mono_b, coeff_b in b.items():
                c = coeff_b * coeff
                terms[monomial_mul(mono_b, mono) if mono else mono_b] = c if type(c) is int else _coerce_coeff(c)
            return _from_clean(terms)
        pairs = (
            (monomial_mul(mono_a, mono_b), coeff_a * coeff_b)
            for mono_a, coeff_a in a.items()
            for mono_b, coeff_b in b.items()
        )
        return _from_clean(_accumulate({}, pairs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        if exponent and len(self._terms) == 1:
            # (c*m)^e is c^e times m with every exponent scaled by e.
            ((mono, coeff),) = self._terms.items()
            return _from_clean({tuple((n, e * exponent) for n, e in mono): coeff**exponent})
        result = Polynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, value: Rational) -> "Polynomial":
        """The polynomial times a rational constant, term by term."""
        value = _coerce_coeff(value)
        if not value:
            return Polynomial()
        products = ((mono, coeff * value) for mono, coeff in self._terms.items())
        return _from_clean({mono: c if type(c) is int else _coerce_coeff(c) for mono, c in products})

    # -- calculus-flavoured operations ---------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one symbol."""

        def lowered():
            for mono, coeff in self._terms.items():
                i, e = _find(mono, name)
                if e:
                    kept = ((name, e - 1),) if e > 1 else ()
                    yield mono[:i] + kept + mono[i + 1 :], coeff * e

        return _from_clean(_accumulate({}, lowered()))

    def substitute(self, name: str, value: "Polynomial" | Rational) -> "Polynomial":
        """Replace every occurrence of a symbol by a polynomial value."""
        value = coerce_polynomial(value)
        powers: dict[int, Polynomial] = {0: Polynomial.one()}

        def images():
            for mono, coeff in self._terms.items():
                i, e = _find(mono, name)
                if e not in powers:
                    powers[e] = value**e
                rest = mono[:i] + mono[i + 1 :] if e else mono
                for mono_v, coeff_v in powers[e]._terms.items():
                    yield monomial_mul(rest, mono_v), coeff * coeff_v

        return _from_clean(_accumulate({}, images()))

    # -- protocol -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.rational(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        return render_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({render_polynomial(self)!r})"


def coerce_polynomial(value: Polynomial | Rational) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.rational(value)


def sym(name: str) -> Polynomial:
    """Shorthand for the polynomial consisting of one symbol."""
    return Polynomial.symbol(name)


def poly_sum(parts: Iterable[Polynomial]) -> Polynomial:
    """Sum of polynomials, accumulated into one term map."""
    terms: dict[Monomial, Rational] = {}
    for part in parts:
        _accumulate(terms, part._terms.items())
    return _from_clean(terms)


# -- rendering ---------------------------------------------------------


_ONE_TERMS = {ONE_MONOMIAL: 1}


def _graded_lex(terms: Mapping[Monomial, Rational]) -> list[tuple[Monomial, Rational]]:
    """The (monomial, coefficient) pairs of a term map in graded-lex
    ascending order: by degree, then by the exponents in name order.

    A single term is returned as is, and a polynomial in one symbol sorts
    by that symbol's exponent.  Any other polynomial sorts by one packed
    integer per monomial (Monagan & Pearce, CASC 2007): the degree sits
    in the top field and the exponents below it, the first name highest.
    Each field is as wide as the bit length of the largest exponent, so no
    field carries into the next and integer order is graded-lex order.
    """
    items = list(terms.items())
    if len(items) < 2:
        return items
    names: set[str] = set()
    largest = 0
    for mono in terms:
        for name, exp in mono:
            names.add(name)
            if exp > largest:
                largest = exp
    if len(names) == 1:
        # (), ((x, 1),), ((x, 2),), ... compare as tuples by exponent
        items.sort()
        return items
    width = largest.bit_length()
    degree = 1 << width * len(names)
    # a factor name^e adds e to the degree field and e to name's field
    weight = {name: degree | 1 << width * i for i, name in enumerate(sorted(names, reverse=True))}

    def key(item: tuple[Monomial, Rational]) -> int:
        packed = 0
        for name, exp in item[0]:
            packed += weight[name] * exp
        return packed

    items.sort(key=key)
    return items


def _factor_text(factor: tuple[str, int]) -> str:
    name, exp = factor
    return name if exp == 1 else f"{name}^{exp}"


def render_polynomial(p: Polynomial) -> str:
    """Canonical rendering; deterministic and re-parseable.  A constant
    renders as its value."""
    terms = p._terms
    if not terms:
        return "0"
    if len(terms) == 1 and ONE_MONOMIAL in terms:
        return str(terms[ONE_MONOMIAL])
    parts: list[str] = []
    for mono, coeff in _graded_lex(terms):
        if coeff < 0:
            parts.append(" - ")
            coeff = -coeff
        else:
            parts.append(" + ")
        if not mono:
            parts.append(str(coeff))
            continue
        if coeff != 1:
            parts.append(f"{coeff}*")
        parts.append("*".join(map(_factor_text, mono)))
    parts[0] = "" if parts[0] == " + " else "-"
    return "".join(parts)


def render_scaled(coeff: Polynomial, factor: str) -> str:
    """Render coeff*factor, where factor is a rendered product ("" for 1).

    A coefficient of 1 is omitted; a coefficient with several terms or a
    leading minus is parenthesized.
    """
    if not factor:
        return render_polynomial(coeff)
    if coeff._terms == _ONE_TERMS:
        return factor
    text = render_polynomial(coeff)
    if " + " in text or " - " in text or text.startswith("-"):
        return f"({text})*{factor}"
    return f"{text}*{factor}"


# -- tokenizer / parser -------------------------------------------------


_OPERATORS = ("->", "+", "-", "*", "^", "(", ")", ";")
_NUMBER = re.compile(r"(\d+)(?:/(\d+))?")  # \d is str.isdecimal


def _error(text: str, pos: int, message: str) -> ParseError:
    """A ParseError naming the line:col of a position in the text."""
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return ParseError(f"{message} at {line}:{col}")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Lex polynomial / grammar-rule text into (kind, value, position)
    triples, the last of kind "end".  ``#`` comments run to end of line."""
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch, start = text[i], i
        if ch.isspace():
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isdecimal():
            match = _NUMBER.match(text, i)
            numer, denom = match.groups()
            try:
                numer = parse_int(numer, "number")
                denom = denom and parse_int(denom, "number")
            except ParseError as exc:
                # too many digits: in the numerator if it is still unparsed text
                run = 1 if isinstance(numer, str) else 2
                raise _error(text, match.start(run), str(exc)) from None
            if denom == 0:
                raise _error(text, start, "zero denominator")
            value = numer if denom is None else Fraction(numer, denom)
            tokens.append(("num", value, start))
            i = match.end()
        elif ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
        else:
            for op in _OPERATORS:
                if text.startswith(op, i):
                    tokens.append((op, op, i))
                    i += len(op)
                    break
            else:
                raise _error(text, i, f"unexpected character {ch!r}")
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive-descent parser over the tokens of one text.

    Grammar: rules := rule (';' rule)*, with any run of ';' allowed
                      before, between and after rules
             rule := name '->' expr
             expr := ['-'] term (('+'|'-') term)*
             term := factor (['*'] factor)*
             factor := atom ['^' integer]
             atom := number | name | '(' expr ')'
    Juxtaposition of factors multiplies.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        """Step over the next token if it is of this kind; whether it was."""
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def fail(self, message: str, index: int | None = None) -> ParseError:
        """A ParseError at a token, by default the next one."""
        return _error(self.text, self.tokens[self.pos if index is None else index][2], message)

    def parse_rules(self) -> dict[str, Polynomial]:
        rules: dict[str, Polynomial] = {}
        while True:
            while self.accept(";"):
                pass
            if self.peek() == "end":
                break
            lhs = self.pos
            kind, name, _ = self.next()
            if kind != "name":
                raise self.fail("expected rule symbol", lhs)
            if not self.accept("->"):
                raise self.fail("expected '->'")
            if self.peek() in (";", "end"):
                raise self.fail("empty rule image")
            image = self.parse_top()
            if name in rules:
                raise self.fail(f"duplicate left-hand side {name!r}", lhs)
            rules[name] = image
            if self.peek() not in (";", "end"):
                raise self.fail("expected ';' between rules")
        if not rules:
            raise ParseError("empty rule set")
        return rules

    def parse_top(self) -> Polynomial:
        """parse_expr, with nesting too deep for Python's recursion limit
        reported as a ParseError at the expression's first token."""
        first = self.pos
        try:
            return self.parse_expr()
        except RecursionError:
            raise self.fail("expression nested too deeply", first) from None

    def parse_expr(self) -> Polynomial:
        negate = self.accept("-")
        result = self.parse_term()
        if negate:
            result = -result
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek() in ("*", "num", "name", "("):
            self.accept("*")
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        if self.accept("^"):
            kind, value, _ = self.tokens[self.pos]
            if kind != "num" or value.denominator != 1:
                raise self.fail("expected nonnegative integer exponent")
            self.pos += 1
            base = base ** int(value)
        return base

    def parse_atom(self) -> Polynomial:
        kind, value, _ = self.next()
        if kind == "num":
            return Polynomial.rational(value)
        if kind == "name":
            return Polynomial.symbol(value)
        if kind == "(":
            inner = self.parse_expr()
            if not self.accept(")"):
                raise self.fail("expected ')'")
            return inner
        raise self.fail("expected number, symbol or '('", self.pos - 1)


def parse_polynomial(text: str) -> Polynomial:
    parser = _Parser(text)
    result = parser.parse_top()
    if parser.peek() != "end":
        raise parser.fail("unexpected trailing input")
    return result


def parse_rules(text: str) -> dict[str, Polynomial]:
    """Parse the rule list ``sym -> poly ; sym -> poly ; ...`` into a
    {symbol: image} map."""
    return _Parser(text).parse_rules()


# -- falling-factorial basis --------------------------------------------


def falling_factorial(base: Polynomial | Rational, n: int) -> Polynomial:
    """base*(base-1)*...*(base-n+1); the empty product for n=0."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    base = coerce_polynomial(base)
    result = Polynomial.one()
    for i in range(n):
        result = result * (base - i)
    return result


def to_falling_factorial_basis(p: Polynomial, name: str) -> list[Polynomial]:
    """Coefficients c_k with p = sum c_k * name^(falling k).

    Computed by successive evaluation at 0, 1, 2, ... and exact division
    by the linear factors, so the result does not presuppose any triangle
    of basis-change numbers.  Both steps run on one list of coefficients
    in `name`, highest power first.  Synthetic division by (name - k)
    rewrites the list in place into the quotient; its last accumulator,
    popped off the end, is the remainder, which is the value at k.
    """
    by_power = p.coefficients_in(name)
    zero = Polynomial.zero()
    rest = [by_power.get(e, zero) for e in range(max(by_power, default=0), -1, -1)]
    coeffs: list[Polynomial] = []
    for k in range(len(rest)):
        for i in range(1, len(rest)):
            rest[i] = rest[i] + rest[i - 1].scale(k)
        coeffs.append(rest.pop())
    return coeffs


def from_falling_factorial_basis(coeffs: Iterable[Polynomial | Rational], name: str) -> Polynomial:
    """sum c_k * name^(falling k), in the nested form
    c_0 + name*(c_1 + (name - 1)*(c_2 + ...)): one product per coefficient."""
    var = Polynomial.symbol(name)
    result = Polynomial.zero()
    for k, c in reversed(list(enumerate(coeffs))):
        result = coerce_polynomial(c) + (var - k) * result
    return result


# -- truncated power series ----------------------------------------------


class TruncatedSeries:
    """Power series in one distinguished variable, truncated at a fixed
    order, with polynomial coefficients free of that variable."""

    __slots__ = ("variable", "coefficients")

    def __init__(self, variable: str, coefficients: Sequence[Polynomial | Rational]):
        if not coefficients:
            raise ValueError("need at least the order-0 coefficient")
        coeffs = tuple(coerce_polynomial(c) for c in coefficients)
        for c in coeffs:
            if variable in c.symbols():
                raise ValueError(
                    f"coefficient {c} contains the series variable {variable!r}"
                )
        self.variable = variable
        self.coefficients = coeffs

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @staticmethod
    def constant(variable: str, value: Polynomial | Rational, order: int) -> "TruncatedSeries":
        coeffs = [coerce_polynomial(value)] + [Polynomial.zero()] * order
        return TruncatedSeries(variable, coeffs)

    @staticmethod
    def var(variable: str, order: int) -> "TruncatedSeries":
        """The series consisting of the variable itself."""
        if order < 1:
            raise ValueError("order must be >= 1 to hold the variable")
        coeffs = [Polynomial.zero(), Polynomial.one()] + [Polynomial.zero()] * (order - 1)
        return TruncatedSeries(variable, coeffs)

    def coefficient(self, n: int) -> Polynomial:
        return self.coefficients[n]

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.variable != other.variable:
            raise ValueError(
                f"mismatched series variables {self.variable!r} and {other.variable!r}"
            )

    def __add__(self, other: "TruncatedSeries | Polynomial | Rational") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.variable, other, self.order)
        self._check_compatible(other)
        order = min(self.order, other.order)
        coeffs = [self.coefficients[i] + other.coefficients[i] for i in range(order + 1)]
        return TruncatedSeries(self.variable, coeffs)

    __radd__ = __add__

    def __sub__(self, other: "TruncatedSeries | Polynomial | Rational") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.variable, other, self.order)
        return self + other.scale(-1)

    def __rsub__(self, other: "TruncatedSeries | Polynomial | Rational") -> "TruncatedSeries":
        return self.scale(-1) + other

    def __mul__(self, other: "TruncatedSeries | Polynomial | Rational") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_compatible(other)
        order = min(self.order, other.order)
        a, b = self.coefficients, other.coefficients
        coeffs = [
            poly_sum(a[i] * b[n - i] for i in range(n + 1) if a[i] and b[n - i])
            for n in range(order + 1)
        ]
        return TruncatedSeries(self.variable, coeffs)

    __rmul__ = __mul__

    def scale(self, value: Polynomial | Rational) -> "TruncatedSeries":
        factor = coerce_polynomial(value)
        return TruncatedSeries(self.variable, [c * factor for c in self.coefficients])

    def exp(self) -> "TruncatedSeries":
        """Exponential of a series with zero constant term, same order."""
        if not self.coefficients[0].is_zero():
            raise ValueError("series exponential needs zero constant term")
        a = self.coefficients
        coeffs = [Polynomial.one()]
        for n in range(1, self.order + 1):
            acc = poly_sum(a[k].scale(k) * coeffs[n - k] for k in range(1, n + 1) if a[k])
            coeffs.append(acc.scale(Fraction(1, n)))
        return TruncatedSeries(self.variable, coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.variable == other.variable and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash((self.variable, self.coefficients))

    def __str__(self) -> str:
        parts: list[str] = []
        for n, coeff in enumerate(self.coefficients):
            if coeff.is_zero():
                continue
            power = "" if n == 0 else self.variable if n == 1 else f"{self.variable}^{n}"
            parts.append(render_scaled(coeff, power))
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.variable}^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self})"
