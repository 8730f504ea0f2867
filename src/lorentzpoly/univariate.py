"""Exact univariate polynomial utilities over the rationals.

Polynomials are plain lists of Fractions in ascending power order
([a0, a1, ..., ad] for a0 + a1 t + ... + ad t^d).  Provides Sturm chains
for exact real-root counting and Yun's square-free decomposition.

Within the package only ``oracles`` imports this module: it is the
second route that the tests compare the production code against.
"""

from fractions import Fraction

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


def count_real_roots(coeffs: Coeffs) -> int:
    """Distinct real roots on the whole line."""
    coeffs = trim(coeffs)
    if degree(coeffs) < 1:
        return 0
    bound = cauchy_root_bound(coeffs)
    return count_real_roots_in(coeffs, -bound, bound)


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
