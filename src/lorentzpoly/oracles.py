"""Independent cross-check routes for the primary algorithms.

Each function here recomputes something the main modules produce, by a
deliberately different method: the alternant a_alpha = det(x_i^{alpha_j}),
through which the tests check the alternant identity s_lambda a_delta =
a_{lambda + delta} (versus tableau enumeration), characteristic
polynomials by minor expansion over column subsets (versus the
Faddeev-LeVerrier recursion),
eigenvalue sign counts by Descartes counting on the Faddeev-LeVerrier
characteristic polynomial and by Sturm-chain interval bracketing of the
minor-expansion one, refined until every root is separated from zero
(both versus congruence elimination), the root-direction log-concavity
scan by three exact coefficient lookups per point (versus integer
lines), the first exchange-axiom violation by building and looking up the
moved points of every pair (versus bit masks of the moves within the
set), the first Hessian failure by differentiating along each derivative
multiset, with no symmetry reduction (versus one pass over the terms,
one multiset per symmetry orbit), and the advisory
log-concavity spot check, the exact inertia of the Hessian of log h at
sample points (versus the Hessian certificate).
"""

import itertools
from fractions import Fraction

from . import univariate
from .certify import (
    InertiaSignature,
    _exchange_ok,
    SymmetricMatrix,
    characteristic_polynomial,
    discrete_root_log_concavity,
    inertia,
    quadratic_form_matrix,
)
from .polynomials import Polynomial


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
            nxt[cols] = univariate.trim(total) or [Fraction(0)]
        minors = nxt
    return minors[tuple(range(n))]


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


def _bracket_sign_counts(squarefree):
    """(positive, negative) distinct-root counts for a squarefree polynomial.

    Roots are bracketed in disjoint rational intervals by bisection, each
    bracket refined until it lies entirely on one side of zero.
    """
    chain = univariate.sturm_chain(squarefree)
    bound = univariate.cauchy_root_bound(squarefree)
    positive = negative = 0
    queue = [(-bound, bound)]
    while queue:
        lo, hi = queue.pop()
        count = univariate.count_real_roots_in(squarefree, lo, hi, chain=chain)
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
    reduced, zero = univariate.strip_zero_root(coeffs)
    positive = negative = 0
    if univariate.degree(reduced) >= 1:
        for factor, multiplicity in univariate.squarefree_decomposition(reduced):
            pos, neg = _bracket_sign_counts(factor)
            positive += multiplicity * pos
            negative += multiplicity * neg
    if positive + negative + zero != n:
        raise ArithmeticError("all eigenvalues of a symmetric matrix must be real")
    return InertiaSignature(positive, negative, zero)


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


def root_direction_violations_by_lookup(poly: Polynomial):
    """``root_direction_violations`` point by point: every integer point of
    each line, padded by one step on both ends, checked by
    ``discrete_root_log_concavity`` with its three coefficient lookups."""
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
    return violations


# -- log-concavity spot check ----------------------------------------------


def numeric_log_concavity_spot(poly: Polynomial, points) -> bool:
    """Test concavity of log(h) at strictly positive points, exactly.

    At a point where h > 0 the Hessian of log h is (h H(h) - grad grad^T) / h^2,
    so it has the inertia of the rational matrix h H(h) - grad grad^T; the
    test fails at the first point where that matrix has a positive
    eigenvalue.  Advisory only; never a certification path.
    """
    if not poly:
        raise ValueError("polynomial must be nonzero")
    n = poly.arity
    grads = [poly.partial_derivative(i) for i in range(1, n + 1)]
    hess = [
        [grads[i].partial_derivative(j + 1) for j in range(n)] for i in range(n)
    ]
    for point in points:
        point = [Fraction(v) for v in point]
        if any(v <= 0 for v in point):
            raise ValueError("points must be strictly positive")
        value = poly.evaluate(point)
        if value <= 0:
            raise ValueError(f"polynomial is not positive at ({', '.join(map(str, point))})")
        grad = [g.evaluate(point) for g in grads]
        matrix = SymmetricMatrix(
            [[value * hess[i][j].evaluate(point) - grad[i] * grad[j] for j in range(n)]
             for i in range(n)]
        )
        if inertia(matrix).positive > 0:
            return False
    return True
