#!/usr/bin/env python3
"""A guided tour: why plain Schur polynomials can fail the Lorentzian test
and why their monomial-normalized versions pass it.

Run:  python demos/normalized_schur_walkthrough.py
"""

from fractions import Fraction

from lorentzpoly import (
    format_terms,
    lorentzian_certify,
    normalize,
    quadratic_form_matrix,
    schur,
)

print("=" * 72)
print("1. A quadratic that is NOT Lorentzian")
print("=" * 72)

s = schur((2, 0), 2)
print(f"s_(2)(x1, x2) = {format_terms(s)}")

cert = lorentzian_certify(s)
print(f"verdict: {cert.verdict}")
print(f"witness: {cert.failure.to_dict()}")

matrix = quadratic_form_matrix(s)
print(f"quadratic form matrix rows: {[list(r) for r in matrix.rows]}")
# det(tI - M) of a 2x2 form is t^2 - (trace) t + det
(a, b), (_, c) = matrix.rows
coeffs = [a * c - b * b, -(a + c), Fraction(1)]
print(f"characteristic polynomial (ascending): {coeffs}")
print("-> factors as (t - 3/2)(t - 1/2): two positive eigenvalues, so the")
print("   'at most one positive eigenvalue' condition fails.\n")

print("=" * 72)
print("2. Normalizing each monomial x^mu by mu! repairs it")
print("=" * 72)

ns = normalize(s)
print(f"N(s_(2)) = {format_terms(ns)}")
print(f"verdict: {lorentzian_certify(ns).verdict}\n")

print("=" * 72)
print("3. A five-variable showcase")
print("=" * 72)

big = normalize(schur((3, 1, 1, 1, 1), 5))
print(f"N(s_(3,1,1,1,1)) has {len(big.terms)} terms of degree "
      f"{big.homogeneous_degree()}; a few of them:")
shown = format_terms(big).split(" + ")[:4]
print("   " + " + ".join(shown) + " + ...")
print(f"verdict: {lorentzian_certify(big).verdict}")

# Setting x2 = x3 = x4 = x5 = 1 leaves a univariate cubic whose quadratic
# factor has no real roots: the polynomial is Lorentzian yet not stable.
line = big.specialize({2: 1, 3: 1, 4: 1, 5: 1}) * 6
print(f"6 N(s)|_(x,1,1,1,1) = {format_terms(line)}")
discriminant = 6**2 - 4 * 13
roots = 0 if discriminant < 0 else 1 if discriminant == 0 else 2
print(f"real roots of x^2 + 6x + 13: {roots} "
      "(a certificate of non-stability, not of non-log-concavity)\n")

print("=" * 72)
print("4. Products stay Lorentzian after normalization")
print("=" * 72)

a, b = schur((2, 1), 3), schur((1, 1), 3)
both = [
    ("N(s_(2,1) * s_(1,1))", normalize(a * b)),
    ("N(s_(2,1)) * N(s_(1,1))", normalize(a) * normalize(b)),
]
for label, h in both:
    print(f"{label}: {lorentzian_certify(h).verdict}")
