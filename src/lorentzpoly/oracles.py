"""Eigenvalue sign counts by Sturm-chain bracketing, apart from elimination.

``inertia_by_sturm_bracketing`` classifies the eigenvalues of a symmetric
rational matrix without the congruence elimination of ``certify.inertia``:
it expands det(tI - M) over column subsets, strips the power of t, splits
the rest into square-free factors by Yun's algorithm, and isolates each
factor's roots in disjoint rational intervals with Sturm chains, refined
until every root lies on one side of zero.

The main modules answer each question by one route and import nothing
from here.  This is one of the two second routes the package ships,
because the benchmark's result checks classify Hessians with it; the
other, ``certify.bivariate_ulc``, stays in ``certify`` because those
checks call it from there.  The tests' other cross-check routes live with
the tests.

Univariate polynomials are plain lists of Fractions in ascending power
order ([a0, a1, ..., ad] for a0 + a1 t + ... + ad t^d).
"""

import itertools
from fractions import Fraction

from .certify import InertiaSignature, SymmetricMatrix

Coeffs = list[Fraction]


def trim(coeffs) -> Coeffs:
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def degree(coeffs: Coeffs) -> int:
    return len(trim(coeffs)) - 1


def evaluate(coeffs: Coeffs, x) -> Fraction:
    x = Fraction(x)
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return value


def derivative(coeffs: Coeffs) -> Coeffs:
    return trim(c * k for k, c in enumerate(coeffs) if k)


def divide(num: Coeffs, den: Coeffs):
    """Long division; returns (quotient, remainder)."""
    num = trim(num)
    den = trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead = den[-1]
    quotient = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den):
        factor = num[-1] / lead
        shift = len(num) - len(den)
        quotient[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num = trim(num)
        if not num:
            break
    return trim(quotient), num


def remainder(num: Coeffs, den: Coeffs) -> Coeffs:
    """Remainder of exact polynomial division."""
    return divide(num, den)[1]


def exact_divide(num: Coeffs, den: Coeffs) -> Coeffs:
    quotient, rem = divide(num, den)
    if rem:
        raise ArithmeticError("inexact univariate division")
    return quotient


def monic(coeffs: Coeffs) -> Coeffs:
    coeffs = trim(coeffs)
    if not coeffs:
        return coeffs
    lead = coeffs[-1]
    return [c / lead for c in coeffs]


def gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Monic greatest common divisor by the Euclidean algorithm."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, remainder(a, b)
    return monic(a)


def subtract(a: Coeffs, b: Coeffs) -> Coeffs:
    width = max(len(a), len(b))
    return trim(
        (a[k] if k < len(a) else Fraction(0)) - (b[k] if k < len(b) else Fraction(0))
        for k in range(width)
    )


def squarefree_decomposition(coeffs: Coeffs):
    """Yun's algorithm: list of (monic squarefree factor, multiplicity)."""
    p = monic(coeffs)
    if degree(p) < 1:
        return []
    out = []
    g = gcd(p, derivative(p))
    b = exact_divide(p, g)
    c = exact_divide(derivative(p), g)
    d = subtract(c, derivative(b))
    k = 1
    while degree(b) >= 1:
        f = gcd(b, d)
        if degree(f) >= 1:
            out.append((f, k))
        b = exact_divide(b, f)
        c = exact_divide(d, f)
        d = subtract(c, derivative(b))
        k += 1
    return out


def sign_variations(values) -> int:
    """Sign changes in a sequence, ignoring zeros."""
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_chain(coeffs: Coeffs) -> list[Coeffs]:
    chain = [trim(coeffs)]
    if degree(chain[0]) >= 1:
        chain.append(derivative(chain[0]))
        while degree(chain[-1]) >= 1:
            rem = remainder(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return chain


def _variations_at(chain, x) -> int:
    return sign_variations(evaluate(p, x) for p in chain)


def count_real_roots_in(coeffs: Coeffs, lo, hi, chain=None) -> int:
    """Distinct real roots in the half-open interval (lo, hi]."""
    chain = chain if chain is not None else sturm_chain(coeffs)
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def cauchy_root_bound(coeffs: Coeffs) -> Fraction:
    """Every real root lies strictly inside [-B, B]."""
    coeffs = trim(coeffs)
    if len(coeffs) <= 1:
        return Fraction(1)
    lead = abs(coeffs[-1])
    return 1 + max(abs(c) for c in coeffs[:-1]) / lead


def strip_zero_root(coeffs: Coeffs):
    """Factor out t^z; returns (reduced coeffs, multiplicity z)."""
    coeffs = trim(coeffs)
    if not coeffs:
        return [], 0
    z = 0
    while not coeffs[0]:
        coeffs = coeffs[1:]
        z += 1
    return coeffs, z


def characteristic_polynomial_by_minors(matrix: SymmetricMatrix) -> list:
    """det(tI - M) by expansion over column subsets, ascending coefficients.

    g[S] is the determinant of the submatrix of tI - M on rows 1..|S| and
    column set S, built up one row at a time with univariate coefficient
    lists in t.
    """
    n = matrix.dimension
    minors = {(): [Fraction(1)]}
    for size in range(1, n + 1):
        row = size - 1
        nxt = {}
        for cols in itertools.combinations(range(n), size):
            total = []
            for pos, col in enumerate(cols):
                entry = [-matrix.rows[row][col]]
                if col == row:
                    entry.append(Fraction(1))
                sub = minors[cols[:pos] + cols[pos + 1 :]]
                product = [Fraction(0)] * (len(entry) + len(sub) - 1)
                for a, ca in enumerate(entry):
                    for b, cb in enumerate(sub):
                        product[a + b] += ca * cb
                if pos % 2:
                    product = [-c for c in product]
                width = max(len(total), len(product))
                total = [
                    (total[k] if k < len(total) else Fraction(0))
                    + (product[k] if k < len(product) else Fraction(0))
                    for k in range(width)
                ]
            nxt[cols] = trim(total) or [Fraction(0)]
        minors = nxt
    return minors[tuple(range(n))]


def _bracket_sign_counts(squarefree):
    """(positive, negative) distinct-root counts for a squarefree polynomial.

    Roots are bracketed in disjoint rational intervals by bisection, each
    bracket refined until it lies entirely on one side of zero.
    """
    chain = sturm_chain(squarefree)
    bound = cauchy_root_bound(squarefree)
    positive = negative = 0
    queue = [(-bound, bound)]
    while queue:
        lo, hi = queue.pop()
        count = count_real_roots_in(squarefree, lo, hi, chain=chain)
        if count == 0:
            continue
        if count == 1 and lo >= 0:
            positive += 1
            continue
        if count == 1 and hi <= 0:
            negative += 1
            continue
        mid = Fraction(0) if lo < 0 < hi else (lo + hi) / 2
        queue.append((lo, mid))
        queue.append((mid, hi))
    return positive, negative


def inertia_by_sturm_bracketing(matrix: SymmetricMatrix) -> InertiaSignature:
    """Sign counts via square-free factorization and Sturm bracketing.

    The power of t is stripped first (zero count); each square-free factor
    of the rest has simple roots, which are isolated by bisection and
    classified by sign, weighted with the factor's multiplicity.
    """
    n = matrix.dimension
    coeffs = characteristic_polynomial_by_minors(matrix)
    reduced, zero = strip_zero_root(coeffs)
    positive = negative = 0
    if degree(reduced) >= 1:
        for factor, multiplicity in squarefree_decomposition(reduced):
            pos, neg = _bracket_sign_counts(factor)
            positive += multiplicity * pos
            negative += multiplicity * neg
    if positive + negative + zero != n:
        raise ArithmeticError("all eigenvalues of a symmetric matrix must be real")
    return InertiaSignature(positive, negative, zero)
