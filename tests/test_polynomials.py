import pathlib
import random
import re
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from lorentzpoly import corpus
from lorentzpoly.polynomials import (
    MAX_PARSE_ARITY,
    Polynomial,
    PolynomialSyntaxError,
    format_polynomial,
    format_terms,
    normalize,
    parse_polynomial,
)

from second_routes import parse_polynomial_by_pieces


def poly(text):
    return parse_polynomial(text)


def random_polynomial(rng, arity, degree, terms=6):
    out = {}
    for _ in range(terms):
        exponent = tuple(rng.randint(0, degree) for _ in range(arity))
        if sum(exponent) > degree:
            continue
        out[exponent] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(arity, out)


class TestConstruction:
    def test_zero_is_empty_map(self):
        assert Polynomial.zero(3).terms == {}
        assert not Polynomial.zero(3)

    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
        assert p.terms == {(1, 0): 1}

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1, 0, 0): 1})

    def test_non_integer_arity_rejected(self):
        with pytest.raises(ValueError, match=r"arity must be an integer, got 2\.5"):
            Polynomial(2.5, {})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(-1, 0): 1})

    @pytest.mark.parametrize("exponent", [(1.5, 0.5), (1.0, 1), (Fraction(1), 0), ("1", 0)])
    def test_non_integer_exponent_rejected(self, exponent):
        with pytest.raises(ValueError, match=re.escape(str(exponent))):
            Polynomial(2, {exponent: 1})

    # each entry point that reads a coefficient or a value, called with it
    RATIONAL_ENTRIES = {
        "constructor": lambda value: Polynomial(2, {(1, 0): value, (0, 1): 1}),
        "constant": lambda value: Polynomial.constant(2, value),
        "monomial": lambda value: Polynomial.monomial(2, (1, 1), value),
        "specialize": lambda value: Polynomial(2, {(1, 1): 1}).specialize({1: value}),
        "evaluate": lambda value: Polynomial(2, {(1, 1): 1}).evaluate([value, 2]),
    }

    @pytest.mark.parametrize("entry", RATIONAL_ENTRIES)
    @pytest.mark.parametrize("value", [0.1, 2.0, -0.5])
    def test_float_value_rejected(self, entry, value):
        # a float's binary value is not the decimal it prints as
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            self.RATIONAL_ENTRIES[entry](value)

    @pytest.mark.parametrize("entry", RATIONAL_ENTRIES)
    def test_exact_values_accepted(self, entry):
        call = self.RATIONAL_ENTRIES[entry]
        assert call(3) == call(Fraction(3))
        if entry != "specialize":  # which reads a string as a variable name
            assert call("1/2") == call(Fraction(1, 2))


class Entries:
    """A ``terms`` argument whose items may repeat an exponent, as a list
    or as a tuple, which a dict cannot hold."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return iter(self.pairs)


@st.composite
def term_entries(draw):
    """(arity, entries): exponents given as lists or tuples, coefficients as
    ints, strings or Fractions, and some entries followed by their negation."""
    arity = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * arity)
    values = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    entries = []
    for exponent, value in draw(st.lists(st.tuples(exponents, values), max_size=10)):
        for value in [value, -value] if draw(st.booleans()) else [value]:
            key = draw(st.sampled_from([tuple, list]))(exponent)
            coeff = draw(st.sampled_from([
                value,
                str(value),
                *([value.numerator] if value.denominator == 1 else []),
            ]))
            entries.append((key, coeff))
    return arity, entries


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(term_entries())
def test_constructor_sums_repeated_exponents(case):
    arity, entries = case
    expected = {}
    for exponent, coeff in entries:
        key = tuple(exponent)
        expected[key] = expected.get(key, 0) + Fraction(coeff)
    expected = {e: c for e, c in expected.items() if c}
    p = Polynomial(arity, Entries(entries))
    assert p.terms == expected
    assert all(p.terms.values())
    assert all(type(c) is Fraction for c in p.terms.values())


class TestArithmetic:
    def test_add_cancels_to_zero(self):
        x1 = Polynomial.variable(1, 1)
        assert (x1 + (-x1)).terms == {}

    def test_add_two_terms(self):
        p = poly("vars: 2\nx1^2") + poly("vars: 2\nx1 x2")
        assert p == poly("vars: 2\nx1^2 + x1 x2")

    def test_add_arity_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 1) + Polynomial.variable(3, 1)

    def test_square_of_binomial(self):
        x1 = Polynomial.variable(2, 1)
        x2 = Polynomial.variable(2, 2)
        assert (x1 + x2) * (x1 + x2) == poly("vars: 2\nx1^2 + 2 x1 x2 + x2^2")

    def test_multiply_by_one(self):
        rng = random.Random(7)
        p = random_polynomial(rng, 3, 4)
        assert p * Polynomial.constant(3, 1) == p

    def test_scalar_multiplication(self):
        p = poly("vars: 2\n2 x1 + x2")
        assert p * Fraction(1, 2) == poly("vars: 2\nx1 + 1/2 x2")


class TestNormalize:
    def test_square_halves(self):
        assert normalize(poly("vars: 1\nx1^2")) == poly("vars: 1\n1/2 x1^2")

    def test_constant_fixed(self):
        one = Polynomial.constant(2, 1)
        assert normalize(one) == one

    def test_termwise_on_quadratic(self):
        # N(x1^2 + x1 x2 + x2^2) divides the square terms by 2 only
        got = normalize(poly("vars: 2\nx1^2 + x1 x2 + x2^2"))
        assert got == poly("vars: 2\n1/2 x1^2 + x1 x2 + 1/2 x2^2")

    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(25):
            p = random_polynomial(rng, 2, 5)
            q = random_polynomial(rng, 2, 5)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            assert normalize(a * p + b * q) == a * normalize(p) + b * normalize(q)

    def test_derivative_undoes_shifted_normalize(self):
        # d^mu N(x^mu f) == N(f), exactly, for random f and mu
        rng = random.Random(13)
        for _ in range(50):
            arity = rng.randint(1, 3)
            f = random_polynomial(rng, arity, 5)
            mu = tuple(rng.randint(0, 3) for _ in range(arity))
            shift = Polynomial.monomial(arity, mu)
            assert normalize(shift * f).derivative(mu) == normalize(f)


class TestCalculus:
    def test_derivative_power_rule(self):
        assert poly("vars: 2\nx1^2 x2").partial_derivative(1) == poly("vars: 2\n2 x1 x2")

    def test_derivative_of_constant(self):
        assert Polynomial.constant(2, 5).partial_derivative(2) == Polynomial.zero(2)

    def test_derivative_index_range(self):
        with pytest.raises(ValueError):
            Polynomial.constant(2, 1).partial_derivative(3)

    def test_iterated_derivative_refuses_fractional_count(self):
        with pytest.raises(ValueError, match=r"entries must be integers, got \(0\.5,\)"):
            poly("vars: 1\nx1^2").derivative((0.5,))

    def test_iterated_derivative_refuses_wrong_length(self):
        with pytest.raises(ValueError, match="mu has length 4, expected 3"):
            poly("vars: 3\nx1 x2 x3").derivative((1, 0, 0, 0))

    def test_specialize_refuses_fractional_index(self):
        with pytest.raises(ValueError, match=r"index must be an integer, got 1\.5"):
            poly("vars: 2\nx1 x2").specialize({1.5: 1})

    def test_specialize_refuses_float_index(self):
        # 2.0 == 2, so a dict lookup alone would take it as the index 2
        with pytest.raises(ValueError, match=r"index must be an integer, got 2\.0"):
            poly("vars: 2\nx1 x2").specialize({2.0: "x1"})

    def test_dualize_single_variable(self):
        assert Polynomial.variable(2, 1).dualize((1, 1)) == Polynomial.variable(2, 2)

    def test_dualize_self_complementary(self):
        s = poly("vars: 2\nx1^2 + x1 x2 + x2^2")
        assert s.dualize((2, 2)) == s

    def test_dualize_deficit(self):
        with pytest.raises(ValueError):
            poly("vars: 2\nx1^2").dualize((1, 1))

    def test_dualize_involution(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_polynomial(rng, 3, 4)
            mu = tuple(max((e[i] for e in p.terms), default=0) + rng.randint(0, 2)
                       for i in range(3))
            assert p.dualize(mu).dualize(mu) == p

    def test_homogeneous_component(self):
        p = poly("vars: 2\nx1 + x1 x2")
        assert p.homogeneous_component(1) == poly("vars: 2\nx1")
        assert p.homogeneous_component(5) == Polynomial.zero(2)

    def test_components_reconstruct(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_polynomial(rng, 3, 5)
            total = Polynomial.zero(3)
            for k in range(p.total_degree() + 1):
                total = total + p.homogeneous_component(k)
            assert total == p

    def test_specialize_constant(self):
        p = poly("vars: 2\nx1 + x2").specialize({2: 1})
        assert p == poly("vars: 2\nx1 + 1")

    def test_specialize_empty(self):
        p = poly("vars: 2\nx1 + x2")
        assert p.specialize({}) == p

    def test_specialize_variable_target(self):
        p = poly("vars: 2\nx1 x2").specialize({2: "x1"})
        assert p == poly("vars: 2\nx1^2")

    def test_specialize_simultaneous_swap(self):
        p = poly("vars: 2\nx1^2 x2").specialize({1: "x2", 2: "x1"})
        assert p == poly("vars: 2\nx1 x2^2")

    def test_evaluate(self):
        p = poly("vars: 2\nx1^2 + 1/2 x2")
        assert p.evaluate((Fraction(1, 2), 3)) == Fraction(7, 4)


class TestTextFormat:
    def test_basic_term(self):
        p = poly("vars: 2\n1/12 x1 x2^2")
        assert p.terms == {(1, 2): Fraction(1, 12)}

    def test_round_trip_is_canonical(self):
        text = "vars: 2\nx2 + 1 + x1   # comment\n"
        assert format_polynomial(parse_polynomial(text)) == "vars: 2\nx1 + x2 + 1\n"

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(40):
            p = random_polynomial(rng, rng.randint(1, 4), 6)
            assert parse_polynomial(format_polynomial(p)) == p

    def test_graded_lex_descending_order(self):
        p = poly("vars: 2\nx2^2 + x1 x2 + x1^2 + x1 + 1")
        assert format_terms(p) == "x1^2 + x1 x2 + x2^2 + x1 + 1"

    def test_leading_negative(self):
        p = poly("vars: 2\nx1 - x1 x2")
        assert format_terms(p) == "-x1 x2 + x1"
        assert parse_polynomial(format_polynomial(p)) == p

    def test_zero_polynomial(self):
        assert format_terms(Polynomial.zero(2)) == "0"
        assert parse_polynomial("vars: 2\n0") == Polynomial.zero(2)

    def test_repeated_monomial_accumulates(self):
        assert poly("vars: 1\nx1 + x1") == poly("vars: 1\n2 x1")

    @pytest.mark.parametrize("body, terms", [
        ("x1 - x1 + x2", {(0, 1): 1}),
        ("2/4 x1 + 1/2 x1", {(1, 0): 1}),
        ("0 x1 + x2", {(0, 1): 1}),
        ("x1 - x1", {}),
        ("-3/6 x2 + 1", {(0, 1): Fraction(-1, 2), (0, 0): 1}),
    ])
    def test_sums_and_zeros(self, body, terms):
        p = parse_polynomial(f"vars: 2\n{body}")
        assert p.terms == terms
        assert all(type(c) is Fraction for c in p.terms.values())
        assert p == Polynomial(2, terms)

    def test_missing_header(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1 + x2")

    def test_syntax_error_carries_position(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("vars: 2\nx1 + @")
        assert err.value.line == 2
        assert err.value.column == 6

    def test_out_of_range_variable(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("vars: 2\nx3")

    def test_consecutive_signs_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("vars: 2\nx1 + - x2")


# (text, message, line, column) for each kind of syntax error; the
# positions are 1-based and count lines of the whole text, header included.
SYNTAX_ERRORS = [
    ("vars: 2\nx1 + 2 x2\n  + x1 @ x2", "unexpected character '@'", 3, 8),
    ("vars: 2\nx1 +\n\tx x2", "unexpected character 'x'", 3, 2),
    ("vars: 2\nx1^ x2", "unexpected character '^'", 2, 3),
    ("vars: 2\n# comment\n3/ x1", "unexpected character '/'", 3, 2),
    ("vars: 2\nx1 x2 2 x1 @", "unexpected character '@'", 2, 12),
    ("vars: 2\nx1 - 3/0 x2", "zero denominator", 2, 6),
    ("vars: 2\nx1 x2 +\n  x3^2", "variable x3 out of range for vars: 2", 3, 3),
    ("vars: 2\nx0", "variable x0 out of range for vars: 2", 2, 1),
    ("vars: 2\nx1 + - x2", "expected a term", 2, 6),
    ("vars: 2\nx1 + x2 -  # dangling\n\n", "expected a term", 2, 9),
    ("vars: 2\nx1\n2 x2", "expected '+' or '-' between terms", 3, 1),
    ("# leading\nvars: 3  # header\n# just a comment\n   \n",
     "empty polynomial body", 3, 1),
    ("# nothing here\n\n", "missing header 'vars: n'", 3, 1),
    ("\n  vars 2\nx1", "expected header 'vars: n'", 2, 3),
    ("# c\nvars: 0\nx1", "arity must be positive", 2, 1),
    ("vars: 1000000000000\nx1", "arity 1000000000000 exceeds the limit of 1000", 1, 1),
    ("# c\nvars: 1001\nx1", "arity 1001 exceeds the limit of 1000", 2, 1),
]


@pytest.mark.parametrize("text, message, line, column", SYNTAX_ERRORS)
def test_syntax_error_message_and_position(text, message, line, column):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"{message} (line {line}, column {column})", line, column
    )


@pytest.fixture
def digit_limit():
    """int()'s default limit on the digits of a string it converts."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


NINES = "9" * 4400


@pytest.mark.parametrize(
    "text, line, column",
    [
        (f"# c\n  vars: {NINES}\nx1", 2, 9),
        (f"vars: 2\nx1 +\n  {NINES} x2", 3, 3),
        (f"vars: 2\nx1 + 3/{NINES} x2", 2, 8),
        (f"vars: 2\nx1^{NINES}", 2, 4),
        (f"vars: 2\nx2 x{NINES}", 2, 5),
    ],
    ids=["header", "coefficient", "denominator", "exponent", "index"],
)
def test_number_past_the_digit_limit(digit_limit, text, line, column):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"number with more than {digit_limit} digits (line {line}, column {column})",
        line,
        column,
    )


def test_largest_parsed_arity():
    p = parse_polynomial(f"vars: {MAX_PARSE_ARITY}\nx1 + x{MAX_PARSE_ARITY}")
    assert p.arity == MAX_PARSE_ARITY == 1000
    assert len(p.terms) == 2


# Digits are ASCII 0-9 only: a digit of another script (here Arabic-Indic)
# is a syntax error in the header, in an index and in a coefficient.
NON_ASCII_DIGITS = [
    ("vars: \u0662\nx1 + 3 x2", "expected header 'vars: n'", 1, 1),
    ("vars: 2\nx1 +\n x\u0661 x2", "unexpected character 'x'", 3, 2),
    ("vars: 2\nx1 + \u0663 x2", "unexpected character '\u0663'", 2, 6),
]


@pytest.mark.parametrize("text, message, line, column", NON_ASCII_DIGITS)
def test_non_ascii_digits_rejected(text, message, line, column):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"{message} (line {line}, column {column})", line, column
    )


def test_specialize_rejects_non_ascii_index():
    with pytest.raises(ValueError, match="bad substitution target"):
        poly("vars: 2\nx1 x2").specialize({1: "x\u0661"})


def test_unicode_whitespace_still_separates():
    assert poly("vars:\u20032\nx1\u2003+\u00a0x2") == poly("vars: 2\nx1 + x2")


GAPS = st.sampled_from([" ", "  ", "\t", "\n", " \n\t", " # note x1 + @\n", "\n# line\n"])


@st.composite
def polynomials(draw):
    arity = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 4)] * arity)
    coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    return Polynomial(arity, draw(st.dictionaries(exponents, coefficients, max_size=6)))


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(polynomials(), st.data())
def test_parse_inverts_format_across_gaps(p, data):
    """Comments, tabs and newlines between tokens do not change the parse."""
    header, body = format_polynomial(p).split("\n", 1)
    tokens = body.split()
    if tokens[0].startswith("-"):
        tokens[:1] = ["-", tokens[0][1:]]
    elif data.draw(st.booleans()):
        tokens.insert(0, "+")
    text = data.draw(GAPS) + header + data.draw(st.sampled_from(["\n", "  # arity\n"]))
    for token in tokens:
        text += data.draw(GAPS) + token
    assert parse_polynomial(text + data.draw(GAPS)) == p


# -- the one-match-per-term parser against the piece-by-piece oracle ---------

SOUP_LIMIT = 640  # the least digit limit sys.set_int_max_str_digits takes
LONG = "9" * (SOUP_LIMIT + 1)
# mostly good headers, then each way a header can be wrong
SOUP_HEADERS = st.sampled_from([
    *["vars: 3\n"] * 12, "vars:3\n", "  vars:\t3  # arity\n", "# c\n\n vars: 3\n",
    "vars: 3\u2003\n", "vars: 3\x1c\n", "vars: 3",
    "vars 3\n", "vars: 0\n", "vars: 1001\n", "vars: \u0663\n", f"vars: {LONG}\n",
    "vars: 3 x1\n", "", "# only a comment", "\n \n",
])
SOUP_GAPS = st.sampled_from(
    ["", " ", " ", "\t", "\n", "\u00a0", "\x1c", "\x1f", "\r", " # c x9 @\n"]
)
SOUP_SIGNS = st.sampled_from([*["+", "-"] * 3, ""])
SOUP_COEFFICIENTS = st.sampled_from(
    [*[""] * 6, *["3", "07", "12/5"] * 2, "0", "3/0", LONG, f"5/{LONG}"]
)
SOUP_FACTORS = st.sampled_from(
    [*["x1", "x2", "x3", "x1^2", "x3^0"] * 4, "x0", "x4", "x12", f"x{LONG}", f"x2^{LONG}"]
)
SOUP_ODD = st.sampled_from(
    ["@", "x", "^", "/", "2/", "x1^", "+", "-", "3", "#", "\u0663", "x\u0661"]
)


@st.composite
def token_soups(draw):
    """A header, then signed terms with gaps after the tokens, and in half
    of the texts up to two odd tokens at random places."""
    tokens = []
    for _ in range(draw(st.integers(0, 5))):
        tokens += [draw(SOUP_SIGNS), draw(SOUP_COEFFICIENTS)]
        tokens += draw(st.lists(SOUP_FACTORS, max_size=3))
    for odd in draw(st.lists(SOUP_ODD, max_size=2)) if draw(st.booleans()) else ():
        tokens.insert(draw(st.integers(0, len(tokens))), odd)
    return draw(SOUP_HEADERS) + "".join(token + draw(SOUP_GAPS) for token in tokens)


def parse_outcome(parse, text):
    try:
        p = parse(text)
    except PolynomialSyntaxError as err:
        return str(err), err.line, err.column
    # insertion order and the type of each coefficient are compared too
    return p.arity, [(e, type(c), c) for e, c in p.terms.items()]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(token_soups())
def test_parse_matches_piece_by_piece_oracle(text):
    """Random token soups give the same polynomial, or the same error at
    the same line and column, both ways."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(SOUP_LIMIT)
    try:
        assert parse_outcome(parse_polynomial, text) == parse_outcome(
            parse_polynomial_by_pieces, text
        )
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("text, message, line, column", [
    ("vars: 2\nx1@", "unexpected character '@'", 2, 3),
    ("vars: 2\nx1 + x2 @@", "unexpected character '@'", 2, 9),
    ("vars: 2\nx1^2 x2\n/", "unexpected character '/'", 3, 1),
    ("vars: 2\nx1 x2^", "unexpected character '^'", 2, 6),
])
def test_bad_character_at_the_end_of_the_body(text, message, line, column):
    """A bad last character also leaves an empty match before the one at
    the end of the body; only the latter may be dropped."""
    for parse in (parse_polynomial, parse_polynomial_by_pieces):
        assert parse_outcome(parse, text) == (
            f"{message} (line {line}, column {column})", line, column
        )


GOLDEN_GEN = sorted((pathlib.Path(__file__).parent / "golden").glob("gen-*.txt"))


@pytest.mark.parametrize("text", [
    *(corpus._read_text(name) for name in corpus.names()),
    *(path.read_text(encoding="utf-8") for path in GOLDEN_GEN),
], ids=[*corpus.names(), *(path.name for path in GOLDEN_GEN)])
def test_bundled_texts_parse_the_same_both_ways(text):
    assert parse_polynomial(text)
    assert parse_outcome(parse_polynomial, text) == parse_outcome(parse_polynomial_by_pieces, text)
