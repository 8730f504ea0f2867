"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in ``m`` variables x1, ..., xm is a finite map from exponent
vectors (tuples of ``m`` nonnegative ints) to nonzero ``Fraction``
coefficients.  The zero polynomial is the empty map.  All arithmetic is
exact; nothing in this module touches floating point, and floats are refused.

The constructor builds one Fraction per term: a coefficient that already
is one is kept as it is, and coefficients are added only where an
exponent repeats.  Exponents must be sequences of nonnegative ints.  The
parser blanks comments to spaces of the same length, reads the whole body
with one regex match per term (sign, numerator, denominator and the run of
factors), and likewise makes one Fraction per term.  Only a malformed text
is read again, term by term, to name its first error with line and column.

The module also provides the normalization operator ``normalize`` sending
each monomial x^mu to x^mu / mu! (componentwise factorials), and the
canonical text format used by the command line tools and the bundled
corpus files.

Variable indices in the public API are 1-based, matching the x1, x2, ...
naming of the text format.
"""

import math
import operator
import re
import sys
from fractions import Fraction

Exponent = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _rational(value) -> Fraction:
    """``Fraction(value)``, refusing a float, whose binary value is seldom
    the number meant (0.1 is 3602879701896397/36028797018963968)."""
    if isinstance(value, float):
        raise ValueError(f"float {value!r} is not exact; use an int, a Fraction or a string")
    return Fraction(value)


def _int_entries(values) -> tuple:
    """The entries of ``values`` as a tuple of ints, refusing any entry that
    is not an integer, where ``int()`` would truncate 2.7 to 2."""
    entries = tuple(values)
    try:
        return tuple(map(operator.index, entries))
    except TypeError:
        raise ValueError(f"entries must be integers, got {entries!r}") from None


def _int_count(value, name: str) -> int:
    """A scalar argument such as an arity or a degree as an int, refusing a
    value that is not an integer, which would give an arity of 2.5 or a
    degree no exponent reaches."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _factorial_product(exponent: Exponent) -> int:
    prod = 1
    for e in exponent:
        if e > 1:
            prod *= math.factorial(e)
    return prod


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero Fractions and must be treated
    as read-only; every operation returns a fresh Polynomial.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        arity = _int_count(arity, "arity")
        if arity < 1:
            raise ValueError(f"arity must be positive, got {arity}")
        canonical: dict[Exponent, Fraction] = {}
        for exponent, coeff in (terms or {}).items():
            exponent = tuple(exponent)
            if len(exponent) != arity:
                raise ValueError(
                    f"exponent {exponent} has length {len(exponent)}, expected {arity}"
                )
            if not all(isinstance(e, int) and e >= 0 for e in exponent):
                if all(isinstance(e, int) for e in exponent):
                    raise ValueError(f"negative exponent in {exponent}")
                raise ValueError(f"non-integer exponent {exponent}")
            if type(coeff) is not Fraction:
                coeff = _rational(coeff)
            if not coeff:
                continue
            previous = canonical.get(exponent)
            if previous is not None:
                coeff += previous
                if not coeff:
                    del canonical[exponent]
                    continue
            canonical[exponent] = coeff
        self.arity = arity
        self.terms = canonical

    @classmethod
    def _raw(cls, arity: int, terms: dict) -> "Polynomial":
        # Internal fast path: terms must already be canonical.
        poly = object.__new__(cls)
        poly.arity = arity
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "Polynomial":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value) -> "Polynomial":
        arity = _int_count(arity, "arity")
        return cls(arity, {(0,) * arity: _rational(value)})

    @classmethod
    def variable(cls, arity: int, index: int) -> "Polynomial":
        """The polynomial x_index (index is 1-based)."""
        arity = _int_count(arity, "arity")
        index = _int_count(index, "index")
        if not 1 <= index <= arity:
            raise ValueError(f"variable index {index} out of range 1..{arity}")
        exponent = [0] * arity
        exponent[index - 1] = 1
        return cls(arity, {tuple(exponent): Fraction(1)})

    @classmethod
    def monomial(cls, arity: int, exponent, coeff=1) -> "Polynomial":
        return cls(arity, {tuple(exponent): _rational(coeff)})

    # -- basic queries ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"Polynomial({self.arity}, {format_terms(self)!r})"

    def coefficient(self, exponent) -> Fraction:
        return self.terms.get(tuple(exponent), _ZERO)

    def support(self) -> frozenset:
        return frozenset(self.terms)

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if mixed or zero."""
        degrees = {sum(e) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        out = dict(self.terms)
        for exponent, coeff in other.terms.items():
            acc = out.get(exponent, _ZERO) + coeff
            if acc:
                out[exponent] = acc
            else:
                out.pop(exponent, None)
        return Polynomial._raw(self.arity, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            scalar = Fraction(other)
            if not scalar:
                return Polynomial._raw(self.arity, {})
            return Polynomial._raw(
                self.arity, {e: c * scalar for e, c in self.terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exponent = tuple(a + b for a, b in zip(ea, eb))
                acc = out.get(exponent, _ZERO) + ca * cb
                if acc:
                    out[exponent] = acc
                else:
                    del out[exponent]
        return Polynomial._raw(self.arity, out)

    __rmul__ = __mul__

    # -- calculus and structural operations ----------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to x_index (1-based)."""
        index = _int_count(index, "index")
        if not 1 <= index <= self.arity:
            raise ValueError(f"variable index {index} out of range 1..{self.arity}")
        i = index - 1
        out: dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            k = exponent[i]
            if k == 0:
                continue
            lowered = exponent[:i] + (k - 1,) + exponent[i + 1 :]
            out[lowered] = out.get(lowered, _ZERO) + coeff * k
        return Polynomial._raw(self.arity, {e: c for e, c in out.items() if c})

    def derivative(self, mu) -> "Polynomial":
        """Iterated derivative: apply d/dx_i exactly mu_i times for each i."""
        mu = _int_entries(mu)
        if len(mu) != self.arity:
            raise ValueError(f"mu has length {len(mu)}, expected {self.arity}")
        result = self
        for index, reps in enumerate(mu, start=1):
            for _ in range(reps):
                result = result.partial_derivative(index)
        return result

    def dualize(self, mu) -> "Polynomial":
        """Return x^mu * p(1/x1, ..., 1/xn); requires mu_i >= deg_{x_i}(p)."""
        mu = _int_entries(mu)
        if len(mu) != self.arity:
            raise ValueError(f"mu has length {len(mu)}, expected {self.arity}")
        for index in range(self.arity):
            bound = max((e[index] for e in self.terms), default=0)
            if mu[index] < bound:
                raise ValueError(
                    f"exponent deficit: mu[{index + 1}] = {mu[index]} < "
                    f"degree {bound} in x{index + 1}"
                )
        out = {
            tuple(m - e for m, e in zip(mu, exponent)): coeff
            for exponent, coeff in self.terms.items()
        }
        return Polynomial._raw(self.arity, out)

    def homogeneous_component(self, degree: int) -> "Polynomial":
        """Sum of the terms of total degree exactly ``degree``."""
        degree = _int_count(degree, "degree")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        out = {e: c for e, c in self.terms.items() if sum(e) == degree}
        return Polynomial._raw(self.arity, out)

    def specialize(self, assignments) -> "Polynomial":
        """Substitute variables exactly, keeping the ambient arity.

        ``assignments`` maps a 1-based variable index to either a rational
        constant or another variable named as ``"x<j>"``.
        """
        consts: dict[int, Fraction] = {}
        renames: dict[int, int] = {}
        for index, value in assignments.items():
            index = _int_count(index, "index")
            if not 1 <= index <= self.arity:
                raise ValueError(f"variable index {index} out of range 1..{self.arity}")
            if isinstance(value, str):
                match = re.fullmatch(r"x([0-9]+)", value)
                if not match or not 1 <= int(match.group(1)) <= self.arity:
                    raise ValueError(f"bad substitution target {value!r}")
                renames[index - 1] = int(match.group(1)) - 1
            else:
                consts[index - 1] = _rational(value)
        out: dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            reduced = list(exponent)
            for i, value in consts.items():
                k = reduced[i]
                if k:
                    coeff = coeff * value**k
                    reduced[i] = 0
                if not coeff:
                    break
            if not coeff:
                continue
            # renames act simultaneously: every power moves from its original
            # position, so swaps like {x1 -> x2, x2 -> x1} behave correctly
            new = [0] * self.arity
            for i, k in enumerate(reduced):
                if k:
                    new[renames.get(i, i)] += k
            key = tuple(new)
            acc = out.get(key, _ZERO) + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
        return Polynomial._raw(self.arity, out)

    def evaluate(self, point) -> Fraction:
        """Exact value at a point given as one rational per variable."""
        values = [_rational(v) for v in point]
        if len(values) != self.arity:
            raise ValueError(f"point has length {len(values)}, expected {self.arity}")
        total = _ZERO
        for exponent, coeff in self.terms.items():
            term = coeff
            for value, k in zip(values, exponent):
                if k:
                    term *= value**k
            total += term
        return total

    def with_arity(self, arity: int) -> "Polynomial":
        """Embed into a larger variable set by zero-padding exponents."""
        arity = _int_count(arity, "arity")
        if arity < self.arity:
            raise ValueError(f"cannot shrink arity {self.arity} to {arity}")
        pad = (0,) * (arity - self.arity)
        return Polynomial._raw(arity, {e + pad: c for e, c in self.terms.items()})


# -- the normalization operator ----------------------------------------


def normalize(poly: Polynomial) -> Polynomial:
    """Send each coefficient c at exponent mu to c / mu! (componentwise)."""
    out = {
        exponent: coeff / _factorial_product(exponent)
        for exponent, coeff in poly.terms.items()
    }
    return Polynomial._raw(poly.arity, out)


# -- text format --------------------------------------------------------
#
# poly     := ['+'|'-'] term (('+'|'-') term)*
# term     := [rational] var*          (at least one factor)
# rational := int | int '/' posint
# var      := 'x' index ['^' posint]
#
# int, index and posint are runs of the ASCII digits 0-9, in the header too;
# the patterns spell out [0-9] because \d would also match other scripts'
# digits, and re.ASCII would also narrow \s.
#
# Factors are whitespace-separated; '#' starts a comment running to end of
# line; the arity is declared by a leading header line "vars: n".  Canonical
# printing orders terms by descending total degree, ties broken by
# descending exponent tuple (graded lexicographic), with coefficients in
# lowest terms.
#
# The header is one anchored match.  The body is read by one findall of
# _TERM_RE, one match per term, once its comments are blanked to spaces of
# the same length, which keeps every offset.  Every piece after the leading
# whitespace is optional, so the greedy first attempt always succeeds, and
# each match ends after the whitespace that follows it.  A character that
# no piece can start gives an empty match, and so does the end of the body.

_TERM_RE = re.compile(
    r"\s*(?:([+-])\s*)?(?:([0-9]+)(?:/([0-9]+))?\s*)?((?:x[0-9]+(?:\^[0-9]+)?\s*)*)"
)
# \s also matches these separators, which int() does not skip; they are
# blanked with the comments
_SEPARATORS = "\x1c\x1d\x1e\x1f"
_BLANKED_RE = re.compile(r"#[^\n]*|[" + _SEPARATORS + "]+")
# A well-formed body is a run of these pieces; where one match of the run
# stops is the first unexpected character.
_PIECES_RE = re.compile(r"(?:\s+|#[^\n]*|[+-]|x[0-9]+(?:\^[0-9]+)?|[0-9]+(?:/[0-9]+)?)*")
_FACTOR_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")
# Blank and comment lines, then the header line; [^\S\n] is whitespace
# that does not end the line.
_BLANK_LINES = r"(?:[^\S\n]*(?:#[^\n]*)?\n)*"
_BLANK_LINES_RE = re.compile(_BLANK_LINES + r"[^\S\n]*")
_HEADER_RE = re.compile(
    _BLANK_LINES + r"[^\S\n]*vars:[^\S\n]*([0-9]+)[^\S\n]*(?:#[^\n]*)?(?:\n|\Z)"
)

# Exponent vectors are dense, so the header's arity is capped; no family
# goes past 9 variables.
MAX_PARSE_ARITY = 1000


def _long_number(match):
    """(message, offset) for the first group of ``match`` with more digits
    than int() converts, ``sys.get_int_max_str_digits()``."""
    limit = sys.get_int_max_str_digits()
    offset = next(
        match.start(group)
        for group in range(1, match.re.groups + 1)
        if len(match.group(group) or "") > limit
    )
    return f"number with more than {limit} digits", offset


def _blank(match) -> str:
    return " " * len(match.group())


def _read_terms(matches, arity: int):
    """The terms of a body from ``_TERM_RE.findall``, less its final empty
    match and its zero terms, or None if the body is malformed anywhere.

    Each distinct coefficient and each distinct factor is read once per
    call, checked on its first sight: ``coefficients`` maps (sign, num,
    den) to its Fraction and ``places`` a factor to (index - 1, power).
    """
    terms: dict[Exponent, Fraction] = {}
    coefficients = {}
    places = {}
    zero = False  # some coefficient, or some sum of repeated terms, is zero
    try:
        for sign, num, den, factors in matches:
            if not (num or factors) or not sign and terms:
                return None  # no term, or no sign before a term but the first
            coeff = coefficients.get((sign, num, den))
            if coeff is None:
                if num:
                    numerator = int(num)
                    denominator = int(den) if den else 1
                    if not denominator:
                        return None
                    coeff = Fraction(-numerator if sign == "-" else numerator, denominator)
                    zero = zero or not numerator
                else:
                    coeff = _MINUS_ONE if sign == "-" else _ONE
                coefficients[sign, num, den] = coeff
            exponent = [0] * arity
            # "x1^2 x3 " splits into "", "1^2 ", "3 "; int() skips the spaces
            for factor in factors.split("x")[1:]:
                place = places.get(factor)
                if place is None:
                    index, _, power = factor.partition("^")
                    index = int(index)
                    if not 0 < index <= arity:
                        return None
                    place = places[factor] = (index - 1, int(power) if power else 1)
                exponent[place[0]] += place[1]
            key = tuple(exponent)
            previous = terms.get(key)
            if previous is None:
                terms[key] = coeff
            else:
                terms[key] = total = previous + coeff
                zero = zero or not total
    except ValueError:  # a number past int()'s digit limit
        return None
    if not terms:
        return None
    if zero:
        return {e: c for e, c in terms.items() if c}
    return terms


def parse_polynomial(text: str) -> Polynomial:
    """Parse the text format (header line ``vars: n`` followed by one polynomial)."""
    header = _HEADER_RE.match(text)
    if header is None:
        start = _BLANK_LINES_RE.match(text).end()
        if start == len(text) or text[start] == "#":
            raise PolynomialSyntaxError("missing header 'vars: n'", text.count("\n") + 1, 1)
        line_start = text.rfind("\n", 0, start) + 1
        raise PolynomialSyntaxError(
            "expected header 'vars: n'", text.count("\n", 0, start) + 1, start - line_start + 1
        )
    digits_at = header.start(1)
    header_line = text.count("\n", 0, digits_at) + 1
    try:
        arity = int(header.group(1))
    except ValueError:
        message, _ = _long_number(header)
        column = digits_at - text.rfind("\n", 0, digits_at)
        raise PolynomialSyntaxError(message, header_line, column) from None
    if arity < 1:
        raise PolynomialSyntaxError("arity must be positive", header_line, 1)
    if arity > MAX_PARSE_ARITY:
        raise PolynomialSyntaxError(
            f"arity {arity} exceeds the limit of {MAX_PARSE_ARITY}", header_line, 1
        )
    body = text[header.end():]
    blanked = body
    if "#" in body or any(c in body for c in _SEPARATORS):
        blanked = _BLANKED_RE.sub(_blank, body)
    matches = _TERM_RE.findall(blanked)
    matches.pop()  # the empty match at the end of the body; any other is an error
    terms = _read_terms(matches, arity)
    if terms is not None:
        return Polynomial._raw(arity, terms)

    def fail(message, pos):
        line = header_line + 1 + body.count("\n", 0, pos)
        raise PolynomialSyntaxError(message, line, pos - body.rfind("\n", 0, pos))

    # The body is malformed.  An unexpected character anywhere is reported
    # first; otherwise the first grammar error, term by term.
    stop = _PIECES_RE.match(body).end()
    if stop < len(body):
        fail(f"unexpected character {body[stop]!r}", stop)
    for k, match in enumerate(_TERM_RE.finditer(blanked)):
        sign, num, den, factors = match.groups()
        if not (sign or num or factors):  # the end, with no term before it
            fail("empty polynomial body", 0)
        if k and not sign:
            fail("expected '+' or '-' between terms", match.start())
        if num:
            try:
                int(num)
                den = int(den or 1)
            except ValueError:
                fail(*_long_number(match))
            if not den:
                fail("zero denominator", match.start(2))
        for factor in _FACTOR_RE.finditer(blanked, match.start(4), match.end(4)):
            try:
                index = int(factor.group(1))
                int(factor.group(2) or 1)
            except ValueError:
                fail(*_long_number(factor))
            if not 0 < index <= arity:
                fail(f"variable x{index} out of range for vars: {arity}", factor.start())
        if not (num or factors):  # a sign that ends the body is reported at the sign
            term_at = match.start(4)
            fail("expected a term", term_at if term_at < len(body) else match.start(1))


def _term_order_key(exponent: Exponent):
    return (sum(exponent), exponent)


def format_terms(poly: Polynomial) -> str:
    """Canonical body text (no header)."""
    if not poly.terms:
        return "0"
    pieces = []
    for exponent in sorted(poly.terms, key=_term_order_key, reverse=True):
        coeff = poly.terms[exponent]
        factors = []
        for index, power in enumerate(exponent, start=1):
            if power == 1:
                factors.append(f"x{index}")
            elif power > 1:
                factors.append(f"x{index}^{power}")
        magnitude = abs(coeff)
        if factors and magnitude == 1:
            body = " ".join(factors)
        elif factors:
            body = f"{magnitude} " + " ".join(factors)
        else:
            body = str(magnitude)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def format_polynomial(poly: Polynomial) -> str:
    """The text format: header line ``vars: n``, then the canonical body."""
    return f"vars: {poly.arity}\n{format_terms(poly)}\n"
