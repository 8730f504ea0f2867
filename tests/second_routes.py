"""Cross-check routes that only the tests compare the package against.

Each function here recomputes something the main modules produce, by a
deliberately different method: the alternant a_alpha = det(x_i^{alpha_j}),
through which the tests check the alternant identity s_lambda a_delta =
a_{lambda + delta} (versus the branching rule), skew Schur polynomials,
Kostka numbers and Schur P-polynomials by walking every semistandard or
marked shifted tableau (versus the branching rule), characteristic
polynomials by the Faddeev-LeVerrier recursion (versus minor expansion
over column subsets in ``lorentzpoly.oracles``), eigenvalue sign counts by
Descartes counting on the Faddeev-LeVerrier characteristic polynomial
(versus congruence elimination and the Sturm bracketing of
``lorentzpoly.oracles``), the root-direction log-concavity scan by
checking each point with three exact coefficient lookups (versus integer
lines), the first exchange-axiom violation by building and looking up the
moved points of every pair (versus bit masks of the moves within the set),
the first Hessian failure by differentiating along each derivative
multiset, with no symmetry reduction (versus one pass over the terms, one
multiset per symmetry orbit), the Kostant partition function by a bounded
knapsack over the negative roots (versus one truncated product expansion
on int counts, shared with the Verma character), that expansion testing
every coordinate for every power of every factor (versus one interval of
viable powers per partial product), the isobaric operator
pi_i as d_i(p) - d_i(x_{i+1} p) in ``Polynomial`` arithmetic (versus one
shift and one subtraction on the term map before a single d_i), degree
polynomials from
Bruhat covers found by comparing lengths, summed upward through the
interval one length at a time with ``Polynomial`` linear forms (versus
covers read off the one-line entries and a memoized recursion down from w
on int coefficients), the advisory log-concavity spot check, the exact
inertia of the Hessian of log h at sample points (versus the Hessian
certificate), the polynomial text format by one anchored match per sign,
coefficient and factor, each checked as it is read (versus one regex match
per term over a body with its comments blanked), and the real roots of one
polynomial counted by a Sturm chain over a Cauchy bound.

The package imports nothing from here.  The only second route it ships is
``lorentzpoly.oracles.inertia_by_sturm_bracketing``, which the benchmark's
result checks use; test modules import this one by name, as they import
``test_family_table``.
"""

import itertools
import math
import re
from fractions import Fraction

from lorentzpoly.certify import (
    InertiaSignature,
    _exchange_ok,
    _integer_scaled,
    SymmetricMatrix,
    inertia,
    quadratic_form_matrix,
)
from lorentzpoly.oracles import (
    Coeffs,
    cauchy_root_bound,
    count_real_roots_in,
    degree,
    trim,
)
from lorentzpoly.polynomials import (
    MAX_PARSE_ARITY,
    _MINUS_ONE,
    _ONE,
    _PIECES_RE,
    Exponent,
    Polynomial,
    PolynomialSyntaxError,
    _long_number,
    _rational,
)
from lorentzpoly.schubert import Permutation, divided_difference
from lorentzpoly.symmetric import Partition, SkewShape, StrictPartition, _negative_roots


def alternant(exponents, m: int) -> Polynomial:
    """det(x_i^{a_j}) expanded as a signed permutation sum."""
    terms = {}
    for perm in itertools.permutations(range(m)):
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if perm[i] > perm[j]:
                    sign = -sign
        exponent = tuple(exponents[perm[i]] for i in range(m))
        terms[exponent] = terms.get(exponent, 0) + sign
    return Polynomial(m, {e: Fraction(c) for e, c in terms.items() if c})


def _char_poly_int(rows) -> list:
    """det(tI - B) for an integer matrix B, ascending coefficients.

    Faddeev-LeVerrier: M_1 = B, c_k = -tr(M_k)/k, M_{k+1} = B(M_k + c_k I).
    All intermediate matrices and coefficients stay integral.
    """
    n = len(rows)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m_k = [row[:] for row in rows]
    for k in range(1, n + 1):
        trace = sum(m_k[i][i] for i in range(n))
        c, rem = divmod(-trace, k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier trace must divide exactly")
        coeffs[n - k] = c
        if k == n:
            break
        for i in range(n):
            m_k[i][i] += c
        m_k = [
            [sum(rows[i][t] * m_k[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def characteristic_polynomial(matrix: SymmetricMatrix) -> list:
    """Monic det(tI - M), ascending Fraction coefficients, by Faddeev-LeVerrier
    on the integer-scaled matrix."""
    scaled, scale = _integer_scaled(matrix)
    coeffs = _char_poly_int(scaled)
    n = matrix.dimension
    # eigenvalues of L*M are L times those of M
    return [Fraction(c, scale ** (n - k)) for k, c in enumerate(coeffs)]


def _signature_from_char_coeffs(coeffs, n: int) -> InertiaSignature:
    """Sign counts from the coefficients of a monic det(tI - M), ascending.

    Sign variations equal the positive-root count because a symmetric
    matrix has an all-real spectrum.
    """
    zero = next(k for k, c in enumerate(coeffs) if c)  # power of t dividing it
    signs = [c > 0 for c in coeffs[zero:] if c]
    positive = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return InertiaSignature(positive, n - zero - positive, zero)


def inertia_by_char_poly(matrix: SymmetricMatrix) -> InertiaSignature:
    """Sign counts by Descartes' rule on the Faddeev-LeVerrier polynomial."""
    return _signature_from_char_coeffs(characteristic_polynomial(matrix), matrix.dimension)


# -- tableau walks ------------------------------------------------------------
#
# Semistandard cells are filled column by column; within a column the values
# strictly increase downward, and each cell is bounded below by its left
# neighbor (weak row increase).  For skew shapes the rows present in a column
# are contiguous, so the same walk applies with per-column row offsets.


def _skew_columns(outer: Partition, inner: Partition):
    """Per column (1-based): list of row indices holding a cell."""
    width = outer.part(1)
    columns = []
    for c in range(1, width + 1):
        rows = [r for r in range(1, len(outer) + 1) if inner.part(r) < c <= outer.part(r)]
        columns.append(rows)
    return columns


def _enumerate_fillings(outer: Partition, inner: Partition, m: int, budget=None):
    """Yield weight tuples of semistandard fillings with entries in 1..m.

    With ``budget`` (a tuple capping how many times each value may occur)
    the walk prunes fillings that overdraw any value; used for Kostka
    counting with a fixed target weight.
    """
    columns = _skew_columns(outer, inner)
    weight = [0] * m
    remaining = list(budget) if budget is not None else None
    # entries[r] is the value currently in row r of the previous column
    previous: dict[int, int] = {}

    def fill_column(c: int, rows, row_pos: int, current: dict[int, int]):
        if row_pos == len(rows):
            yield from next_column(c + 1, current)
            return
        r = rows[row_pos]
        low = 1
        if r - 1 in current:
            low = current[r - 1] + 1  # strict increase down the column
        left = previous.get(r)  # set iff cell (r, c-1) is in the shape
        if left is not None and left > low:
            low = left
        for value in range(low, m + 1):
            if remaining is not None:
                if remaining[value - 1] == 0:
                    continue
                remaining[value - 1] -= 1
            weight[value - 1] += 1
            current[r] = value
            yield from fill_column(c, rows, row_pos + 1, current)
            del current[r]
            weight[value - 1] -= 1
            if remaining is not None:
                remaining[value - 1] += 1

    def next_column(c: int, current: dict[int, int]):
        nonlocal previous
        if c > len(columns):
            yield tuple(weight)
            return
        saved = previous
        previous = current
        yield from fill_column(c, columns[c - 1], 0, {})
        previous = saved

    # A column taller than m admits no strictly increasing filling.
    if any(len(rows) > m for rows in columns):
        return
    yield from next_column(1, {})


def skew_schur_by_tableaux(shape: SkewShape, m: int) -> Polynomial:
    """Skew Schur polynomial as the weight sum of every semistandard filling."""
    terms: dict[tuple, int] = {}
    for weight in _enumerate_fillings(shape.outer, shape.inner, m):
        terms[weight] = terms.get(weight, 0) + 1
    return Polynomial(m, {w: Fraction(c) for w, c in terms.items()})


def kostka_by_tableaux(lam, mu) -> int:
    """Kostka number by the walk with each value's count capped by ``mu``."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    mu = tuple(mu)
    if any(x < 0 for x in mu) or lam.size() != sum(mu):
        return 0
    return sum(
        1 for weight in _enumerate_fillings(lam, Partition(), len(mu), budget=mu)
        if weight == mu
    )


# -- Kostant partition function ---------------------------------------------


def _kostant_ways(index, target, roots, settled, bound, memo) -> int:
    """Multisets of ``roots[index:]``, each root used at most ``bound`` times,
    summing to ``target``; ``memo`` maps (index, target) to the count."""
    key = (index, target)
    if key not in memo:
        if any(target[i] for i in settled[index]):
            total = 0
        elif index == len(roots):
            total = 1
        else:
            a, b = roots[index]
            total = 0
            for count in range(bound + 1):
                nxt = list(target)
                nxt[a] += count
                nxt[b] -= count
                total += _kostant_ways(index + 1, tuple(nxt), roots, settled, bound, memo)
        memo[key] = total
    return memo[key]


def kostant_partition_by_knapsack(v) -> int:
    """Count multisets of negative roots e_b - e_a (a < b) summing to ``v``.

    Bounded knapsack over the lexicographically ordered roots, each used at
    most the total negative mass of ``v`` times.
    """
    v = tuple(int(x) for x in v)
    if sum(v) != 0:
        return 0
    m = len(v)
    roots = _negative_roots(m)
    bound = sum(-x for x in v if x < 0)
    if bound == 0:
        return 1  # the empty multiset expresses the zero vector

    # settled[t]: coordinates no root from position t onward can change
    settled = [set(range(m))]
    for a, b in reversed(roots):
        settled.append(settled[-1] - {a, b})
    settled.reverse()
    return _kostant_ways(0, v, roots, settled, bound, {})


def kostant_counts_by_full_check(delta: tuple) -> dict:
    """``symmetric._kostant_counts``, insertion order included, with every
    power k of every factor kept only when each coordinate of the partial
    product can still be brought to zero or above by later factors and the
    shift by x^delta."""
    m = len(delta)
    cap = sum(delta)
    factors = _negative_roots(m)
    raises_left = [[0] * m for _ in range(len(factors) + 1)]
    for t in range(len(factors) - 1, -1, -1):
        raises_left[t] = list(raises_left[t + 1])
        raises_left[t][factors[t][1]] += 1
    current = {(0,) * m: 1}
    for t, (j, i) in enumerate(factors):
        nxt = {}
        for exponent, coeff in current.items():
            for k in range(cap + 1):
                e = list(exponent)
                e[i] += k
                e[j] -= k
                if all(e[c] + delta[c] + cap * raises_left[t + 1][c] >= 0 for c in range(m)):
                    key = tuple(e)
                    nxt[key] = nxt.get(key, 0) + coeff
        current = nxt
    return {tuple(e + d for e, d in zip(exponent, delta)): coeff
            for exponent, coeff in current.items()}


# Marked shifted tableaux: entries come from the ordered alphabet
# 1' < 1 < 2' < 2 < ..., encoded as 2k-1 for k' and 2k for k.  Rows and
# columns weakly increase; a primed letter repeats in no row, an unprimed
# letter repeats in no column, and the main diagonal is unprimed.  Row i of
# the shifted diagram occupies columns i .. i + lam_i - 1.


def schur_p_by_marked_tableaux(lam, m: int) -> Polynomial:
    """Schur P-polynomial as the weight sum of every marked shifted tableau."""
    if not isinstance(lam, StrictPartition):
        lam = StrictPartition(lam)
    rows = lam.parts
    cells = [(r, c) for r in range(1, len(rows) + 1) for c in range(r, r + rows[r - 1])]
    terms: dict[tuple, int] = {}
    weight = [0] * m
    values: dict[tuple, int] = {}

    def place(pos: int):
        if pos == len(cells):
            key = tuple(weight)
            terms[key] = terms.get(key, 0) + 1
            return
        r, c = cells[pos]
        left = values.get((r, c - 1))
        above = values.get((r - 1, c))
        low = max(left or 1, above or 1)
        for v in range(low, 2 * m + 1):
            if c == r and v % 2 == 1:
                continue  # diagonal cells are unprimed
            if v == left and v % 2 == 1:
                continue  # primed letters do not repeat along a row
            if v == above and v % 2 == 0:
                continue  # unprimed letters do not repeat down a column
            values[(r, c)] = v
            weight[(v + 1) // 2 - 1] += 1
            place(pos + 1)
            weight[(v + 1) // 2 - 1] -= 1
            del values[(r, c)]

    place(0)
    return Polynomial(m, {w: Fraction(c) for w, c in terms.items()})


# -- permutation families ----------------------------------------------------


def demazure_pi_by_product(poly: Polynomial, i: int) -> Polynomial:
    """pi_i p = d_i(p) - d_i(x_{i+1} p), with x_{i+1} p a ``Polynomial``
    product and the two images subtracted as polynomials."""
    shifted = Polynomial.variable(poly.arity, i + 1) * poly
    return divided_difference(poly, i) - divided_difference(shifted, i)


# -- degree polynomials ------------------------------------------------------


def lower_covers_by_length(w: Permutation):
    """(lower, i, j) for every lower cover of w, ordered by (i, j): each swap
    of positions i < j (1-based) that lowers the length by exactly one."""
    length = w.length()
    covers = []
    for i in range(1, w.n):
        for j in range(i + 1, w.n + 1):
            lower = w.swap_positions(i, j)
            if lower.length() == length - 1:
                covers.append((lower, i, j))
    return covers


def degree_polynomial_by_levels(w: Permutation) -> Polynomial:
    """The chain sum of ``degree_polynomial``, built upward by length.

    The Bruhat interval [id, w] is collected one length at a time down from
    w through ``lower_covers_by_length``.  Then, from the identity's 1 up,
    each element's sum is that of the linear form x_i + ... + x_{j-1} times
    the lower element's sum, over its covers (lower, i, j), in ``Polynomial``
    arithmetic.
    """
    arity = max(1, w.n - 1)
    levels = [{w: lower_covers_by_length(w)}]
    for _ in range(w.length()):
        lowers = {lower for covers in levels[-1].values() for lower, _, _ in covers}
        levels.append({u: lower_covers_by_length(u) for u in lowers})
    sums = {}
    for level in reversed(levels):
        for u, covers in level.items():
            # the identity, alone on the last level, has one empty chain
            total = Polynomial.constant(arity, 0 if covers else 1)
            for lower, i, j in covers:
                form = Polynomial.zero(arity)
                for k in range(i, j):
                    form = form + Polynomial.variable(arity, k)
                total = total + form * sums[lower]
            sums[u] = total
    return sums[w]


# -- the text format ------------------------------------------------------

_GAP = r"(?:\s+|#[^\n]*)*"  # whitespace and comments
_GAP_RE = re.compile(_GAP)
_SIGN_RE = re.compile(r"([+-])" + _GAP)
_RATIONAL_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?" + _GAP)
_VAR_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?" + _GAP)


def parse_polynomial_by_pieces(text: str) -> Polynomial:
    """``parse_polynomial`` by one anchored match per sign, coefficient and
    factor, checking each piece as it is read."""
    lines = text.split("\n")
    arity = None
    body_start = 0
    for lineno, raw in enumerate(lines):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        match = re.fullmatch(r"vars:\s*([0-9]+)", stripped)
        column = raw.index(stripped[0]) + 1
        if not match:
            raise PolynomialSyntaxError("expected header 'vars: n'", lineno + 1, column)
        try:
            arity = int(match.group(1))
        except ValueError:
            message, offset = _long_number(match)
            raise PolynomialSyntaxError(message, lineno + 1, column + offset) from None
        body_start = lineno + 1
        break
    if arity is None:
        raise PolynomialSyntaxError("missing header 'vars: n'", len(lines), 1)
    if arity < 1:
        raise PolynomialSyntaxError("arity must be positive", body_start, 1)
    if arity > MAX_PARSE_ARITY:
        raise PolynomialSyntaxError(
            f"arity {arity} exceeds the limit of {MAX_PARSE_ARITY}", body_start, 1
        )
    body = "\n".join(lines[body_start:])

    def fail(message, pos):
        # an unexpected character anywhere is reported before any grammar error
        stop = _PIECES_RE.match(body).end()
        if stop < end:
            message, pos = f"unexpected character {body[stop]!r}", stop
        line = body_start + 1 + body.count("\n", 0, pos)
        raise PolynomialSyntaxError(message, line, pos - body.rfind("\n", 0, pos))

    end = len(body)
    pos = _GAP_RE.match(body).end()
    if pos == end:
        fail("empty polynomial body", 0)
    terms: dict[Exponent, Fraction] = {}
    while pos < end:
        sign_at = pos
        match = _SIGN_RE.match(body, pos)
        if match:
            pos = match.end()
        elif terms:  # only the first term may omit its sign
            fail("expected '+' or '-' between terms", pos)
        negative = match is not None and match.group(1) == "-"
        exponent = [0] * arity
        term_at = pos
        match = _RATIONAL_RE.match(body, pos)
        if match:
            try:
                num = int(match.group(1))
                den = int(match.group(2) or 1)
            except ValueError:
                fail(*_long_number(match))
            if den == 0:
                fail("zero denominator", pos)
            coeff = Fraction(-num if negative else num, den)
            pos = match.end()
        else:
            coeff = _MINUS_ONE if negative else _ONE
        while match := _VAR_RE.match(body, pos):
            try:
                vindex = int(match.group(1))
                power = int(match.group(2) or 1)
            except ValueError:
                fail(*_long_number(match))
            if not 1 <= vindex <= arity:
                fail(f"variable x{vindex} out of range for vars: {arity}", pos)
            exponent[vindex - 1] += power
            pos = match.end()
        if pos == term_at:  # a sign that ends the body is reported at the sign
            fail("expected a term", term_at if term_at < end else sign_at)
        key = tuple(exponent)
        previous = terms.get(key)
        terms[key] = coeff if previous is None else previous + coeff
    # the exponents are built here, so only zero sums need dropping
    return Polynomial._raw(arity, {e: c for e, c in terms.items() if c})


# -- the exchange axiom -----------------------------------------------------


def exchange_scan_by_pairs(pts, index):
    """First exchange violation over the pairs of sorted ``pts``, or None.

    Each (alpha, beta, i) with alpha_i > beta_i is checked by
    ``_exchange_ok``, which builds the moved points and looks them up in
    the set ``index``."""
    for a_pos, alpha in enumerate(pts):
        for beta in pts[a_pos + 1 :]:
            for i in range(len(alpha)):
                if alpha[i] > beta[i]:
                    if not _exchange_ok(index, alpha, beta, i):
                        return (alpha, beta, i + 1)
                elif beta[i] > alpha[i]:
                    if not _exchange_ok(index, beta, alpha, i):
                        return (beta, alpha, i + 1)
    return None


# -- Hessians of the order-(d - 2) derivatives ---------------------------


def _first_failure_below(derivative: Polynomial, prefix: tuple, remaining: int):
    """(multiset, inertia) of the first failing extension of ``prefix`` by
    ``remaining`` indices no smaller than its last, or None; ``derivative``
    is the input differentiated by ``prefix``."""
    if not remaining:
        signature = inertia(quadratic_form_matrix(derivative))
        return (prefix, signature) if signature.positive > 1 else None
    for index in range(prefix[-1] if prefix else 1, derivative.arity + 1):
        below = derivative.partial_derivative(index)
        if not below:
            continue  # every further derivative is zero, and zero passes
        found = _first_failure_below(below, prefix + (index,), remaining - 1)
        if found is not None:
            return found
    return None


def first_hessian_failure_by_derivatives(poly: Polynomial):
    """(multiset, inertia) of the first sorted multiset of d - 2 derivative
    indices whose quadratic form has two or more positive eigenvalues, or
    None.  The multisets are walked depth-first in lexicographic order, each
    derivative taken from its prefix's with ``Polynomial.partial_derivative``
    and a zero derivative cut off with everything below it; ``poly`` must
    be homogeneous of degree d."""
    degree = poly.homogeneous_degree()
    if degree is None or degree < 2:
        return None
    return _first_failure_below(poly, (), degree - 2)


# -- root-direction log-concavity -----------------------------------------


def discrete_root_log_concavity(poly: Polynomial, mu, i: int, j: int) -> bool:
    """coeff(mu)^2 >= coeff(mu + e_i - e_j) * coeff(mu + e_j - e_i), exactly.

    Indices are 1-based; an exponent with a negative entry contributes 0.
    """
    if i == j:
        raise ValueError("indices must differ")
    n = poly.arity
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices must lie in 1..{n}")
    mu = tuple(int(x) for x in mu)
    if len(mu) != n:
        raise ValueError(f"mu has length {len(mu)}, expected {n}")

    def coeff_at(shift_up, shift_down):
        e = list(mu)
        e[shift_up - 1] += 1
        e[shift_down - 1] -= 1
        if e[shift_down - 1] < 0:
            return Fraction(0)
        return poly.coefficient(e)

    center = poly.coefficient(mu) if all(x >= 0 for x in mu) else Fraction(0)
    return center * center >= coeff_at(i, j) * coeff_at(j, i)


def root_direction_violations_by_lookup(poly: Polynomial):
    """``root_direction_violations`` point by point: every integer point of
    each line, padded by one step on both ends, checked by
    ``discrete_root_log_concavity`` with its three coefficient lookups, and
    listed by (i, j), then by mu."""
    violations = []
    n = poly.arity
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            lines = {}
            for exponent in poly.terms:
                rest = tuple(
                    e for k, e in enumerate(exponent) if k not in (i - 1, j - 1)
                )
                key = (exponent[i - 1] + exponent[j - 1], rest)
                lines.setdefault(key, []).append(exponent)
            for members in lines.values():
                positions = sorted(e[i - 1] for e in members)
                base = members[0]
                total = base[i - 1] + base[j - 1]
                for t in range(positions[0] - 1, positions[-1] + 2):
                    mu = list(base)
                    mu[i - 1] = t
                    mu[j - 1] = total - t
                    if mu[j - 1] < 0 or t < 0:
                        continue
                    if not discrete_root_log_concavity(poly, mu, i, j):
                        violations.append((tuple(mu), i, j))
    return sorted(violations, key=lambda v: (v[1], v[2], v[0]))


# -- log-concavity spot check ----------------------------------------------


def numeric_log_concavity_spot(poly: Polynomial, points) -> bool:
    """Test concavity of log(h) at strictly positive points, exactly.

    At a point p where h > 0 the Hessian of log h is (h H - g g^T) / h^2, with
    g and H the gradient and Hessian of h, so it has the inertia of
    D (h H - g g^T) D for D = diag(p).  That matrix is h T - S S^T, where
    S_i = p_i g_i is the sum of t_a a_i and T_ij = p_i p_j H_ij the sum of
    t_a a_i (a_j - [i = j]) over the terms x^a, t_a being the term's value
    at p.  One pass over the terms gives h, S and T; every t_a is first
    multiplied by one positive integer that clears all denominators, which
    scales the matrix by a positive square.  The test fails at the first
    point where the matrix has a positive eigenvalue.  Advisory only; never
    a certification path.
    """
    if not poly:
        raise ValueError("polynomial must be nonzero")
    n = poly.arity
    tops = [max(e[i] for e in poly.terms) for i in range(n)]
    scale = 1
    for coeff in poly.terms.values():
        scale = scale * coeff.denominator // math.gcd(scale, coeff.denominator)
    terms = [(e, int(c * scale)) for e, c in poly.terms.items()]
    for point in points:
        point = [_rational(v) for v in point]
        if any(v <= 0 for v in point):
            raise ValueError("points must be strictly positive")
        # x_i^a at p, times d_i^top_i: n_i^a d_i^(top_i - a) for p_i = n_i / d_i
        powers = [
            [v.numerator ** a * v.denominator ** (top - a) for a in range(top + 1)]
            for v, top in zip(point, tops)
        ]
        value = 0
        first = [0] * n
        second = [[0] * n for _ in range(n)]
        for exponent, coeff in terms:
            t = coeff
            for i, a in enumerate(exponent):
                t *= powers[i][a]
            value += t
            for i, a in enumerate(exponent):
                if a:
                    first[i] += t * a
                    row = second[i]
                    for j, b in enumerate(exponent):
                        if j == i:
                            b -= 1
                        if b:
                            row[j] += t * a * b
        if value <= 0:
            raise ValueError(f"polynomial is not positive at ({', '.join(map(str, point))})")
        matrix = SymmetricMatrix(
            [[value * second[i][j] - first[i] * first[j] for j in range(n)] for i in range(n)]
        )
        if inertia(matrix).positive > 0:
            return False
    return True


# -- real roots of one polynomial -----------------------------------------


def count_real_roots(coeffs: Coeffs) -> int:
    """Distinct real roots on the whole line."""
    coeffs = trim(coeffs)
    if degree(coeffs) < 1:
        return 0
    bound = cauchy_root_bound(coeffs)
    return count_real_roots_in(coeffs, -bound, bound)
