"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is fixed here: all algebraic checks are exact (Fraction
equality), the advisory log-concavity spot check included; wall-clock
targets are asserted where stated.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from lorentzpoly import corpus
from lorentzpoly.certify import (
    InertiaSignature,
    SymmetricMatrix,
    bivariate_ulc,
    inertia,
    is_m_convex,
    lorentzian_certify,
    quadratic_form_matrix,
    root_direction_violations,
    verify_certificate,
)
from lorentzpoly.oracles import inertia_by_sturm_bracketing
from lorentzpoly.polynomials import Polynomial, normalize, parse_polynomial
from lorentzpoly.schubert import (
    Permutation,
    all_permutations,
    degree_polynomial,
    grassmannian_for,
    grothendieck,
    homogeneous_grothendieck,
    key_polynomial,
    schubert,
    schubert_dual,
)
from lorentzpoly.symmetric import (
    Partition,
    SkewShape,
    complement_partition,
    complete_homogeneous,
    kostka,
    schur,
    schur_p,
    skew_schur,
    verma_truncated_normalized,
)
from lorentzpoly.sweeps import (
    compositions_within,
    partitions_within,
    strict_partitions_within,
    subpartitions,
)

from second_routes import characteristic_polynomial, count_real_roots, numeric_log_concavity_spot


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def positive_points(rng, arity, count=10):
    return [
        tuple(Fraction(rng.randint(1, 8), rng.choice((1, 2, 4))) for _ in range(arity))
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def schur_m4_certified():
    """(label, polynomial) for N(s_lambda), lambda <= 8 boxes and <= 4 parts."""
    out = []
    for lam in partitions_within(8, 4):
        for m in range(1, 5):
            out.append((f"lambda={lam.parts} m={m}", normalize(schur(lam, m))))
    return out


@pytest.fixture(scope="module")
def schubert_s5():
    cache = {}
    return [(w, schubert(w, cache)) for w in all_permutations(5)]


@pytest.fixture(scope="module")
def verma_certified():
    out = []
    for m in range(1, 5):
        for delta in itertools.product(range(3), repeat=m):
            out.append((f"delta={delta}", verma_truncated_normalized(delta)))
    return out


def test_01_quadratic_counterexample_with_eigenvalues():
    start = time.monotonic()
    s = schur((2, 0), 2)
    cert = lorentzian_certify(s)
    ok = not cert.is_lorentzian and cert.failure.kind == "hessian_failure"
    derivative = s
    for index in cert.failure.multiset:
        derivative = derivative.partial_derivative(index)
    coeffs = characteristic_polynomial(quadratic_form_matrix(derivative))
    # (t - 3/2)(t - 1/2) = 3/4 - 2t + t^2
    ok = ok and coeffs == [Fraction(3, 4), Fraction(-2), Fraction(1)]
    ok = ok and cert.failure.inertia == InertiaSignature(2, 0, 0)
    ok = ok and verify_certificate(s, cert)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"refuted with eigenvalues 3/2, 1/2 in {elapsed:.3f}s")


def test_02_normalized_schur_sweep(schur_m4_certified):
    start = time.monotonic()
    failures = [
        label
        for label, h in schur_m4_certified
        if not lorentzian_certify(h).is_lorentzian
    ]
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    report(
        2,
        ok,
        f"{len(schur_m4_certified)} normalized Schur instances "
        f"(<= 8 boxes, <= 4 parts, m <= 4) in {elapsed:.1f}s, "
        f"failures: {failures[:3]}",
    )


def test_03_kostka_inequality_sweep():
    checked = 0
    bad = []
    for lam in partitions_within(10, 10):
        for m in range(1, 6):
            table = schur(lam, m)
            if not table:
                continue
            violations = root_direction_violations(table)
            checked += 1
            if violations:
                bad.append((lam.parts, m, violations[0]))
    report(
        3,
        not bad,
        f"coefficient log-concavity along all root directions for "
        f"{checked} Kostka tables (<= 10 boxes, m <= 5), violations: {bad[:3]}",
    )


def test_04_dual_schubert_and_supports():
    cache = {}
    failures = []
    for n in (4, 5):
        for w in all_permutations(n):
            if not lorentzian_certify(schubert_dual(w, cache)).is_lorentzian:
                failures.append(f"dual {w!r}")
    support_cache = {}
    for w in all_permutations(6):
        if not is_m_convex(schubert(w, support_cache).support()):
            failures.append(f"support {w!r}")
    ok = not failures
    report(
        4,
        ok,
        f"144 reflected-normalized certificates (S4, S5) and 720 "
        f"M-convex supports (S6), failures: {failures[:3]}",
    )


def test_04b_dual_schubert_s5_within_time_target():
    cache = {}
    start = time.monotonic()
    bad = [
        w
        for w in all_permutations(5)
        if not lorentzian_certify(schubert_dual(w, cache)).is_lorentzian
    ]
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 600.0
    report(4, ok, f"S5 reflected-normalized sweep alone took {elapsed:.1f}s (< 600s)")


def test_05_normalized_schubert_s5(schubert_s5):
    failures = [
        repr(w) for w, s in schubert_s5 if not lorentzian_certify(normalize(s)).is_lorentzian
    ]
    report(
        5,
        not failures,
        f"normalized Schubert certificates for all 120 of S5, failures: {failures[:3]}",
    )


def test_06_quartic_refutations():
    bad = []
    for line in ((1, 4, 2, 3), (1, 4, 3, 2)):
        cert = lorentzian_certify(schubert(Permutation(line)))
        if cert.is_lorentzian or not verify_certificate(schubert(Permutation(line)), cert):
            bad.append(line)
    report(6, not bad, "Schubert polynomials 1423 and 1432 both refuted with witnesses")


def test_07_showcase_polynomial():
    display = corpus.load("normalized-schur-31111.poly")
    generated = normalize(schur((3, 1, 1, 1, 1), 5))
    ok = generated == display
    ok = ok and len(display.terms) == 15 and display.homogeneous_degree() == 7
    ok = ok and lorentzian_certify(generated).is_lorentzian
    specialized = generated.specialize({2: 1, 3: 1, 4: 1, 5: 1}) * 6
    target = Polynomial(5, {(3, 0, 0, 0, 0): 1, (2, 0, 0, 0, 0): 6, (1, 0, 0, 0, 0): 13})
    ok = ok and specialized == target
    real_roots = count_real_roots([Fraction(13), Fraction(6), Fraction(1)])
    ok = ok and real_roots == 0
    report(
        7,
        ok,
        "15-term display matches coefficient-for-coefficient, certifies, and "
        "its specialization is (1/6) x (x^2 + 6x + 13) with 0 real quadratic roots",
    )


def test_08_grassmannian_and_complement_identities():
    box = list(subpartitions(Partition((3, 3))))
    bad = []
    for kappa in box:
        w = grassmannian_for(kappa, 2, 5)
        if schubert(w) != schur(kappa, 2).with_arity(5):
            bad.append(("grassmannian", kappa.parts))
        if schur(kappa, 2).dualize((3, 3)) != schur(complement_partition(kappa, 2, 3), 2):
            bad.append(("complement", kappa.parts))
    report(
        8,
        not bad,
        f"both identities exact for all {len(box)} shapes in the 2x3 box, "
        f"failures: {bad[:3]}",
    )


def test_09_pieri_expansion():
    bad = []
    checked = 0
    for m in range(1, 4):
        for mu in compositions_within(6, m):
            product = Polynomial.constant(m, 1)
            for part in mu:
                product = product * complete_homogeneous(part, m)
            expansion = Polynomial.zero(m)
            for lam in partitions_within(sum(mu), sum(mu) or 1):
                if lam.size() == sum(mu):
                    count = kostka(lam, mu)
                    if count:
                        expansion = expansion + count * schur(lam, m)
            checked += 1
            if product != expansion:
                bad.append((mu, m))
    report(9, not bad, f"product of complete homogeneous parts equals the "
                       f"Kostka-weighted Schur expansion for {checked} weights")


def test_10_derivative_normalization_identity():
    rng = random.Random(2024)
    bad = 0
    for _ in range(100):
        arity = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 7)):
            exponent = tuple(rng.randint(0, 5) for _ in range(arity))
            if sum(exponent) <= 5:
                terms[exponent] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        f = Polynomial(arity, terms)
        mu = tuple(rng.randint(0, 3) for _ in range(arity))
        shifted = Polynomial.monomial(arity, mu) * f
        if normalize(shifted).derivative(mu) != normalize(f):
            bad += 1
    report(10, bad == 0, f"d^mu N(x^mu f) == N(f) for 100 random polynomials, exact")


def test_11_truncated_characters(verma_certified):
    failures = [
        label for label, h in verma_certified if not lorentzian_certify(h).is_lorentzian
    ]
    character = corpus.load("normalized-character-sl4.poly")
    if not lorentzian_certify(character).is_lorentzian:
        failures.append("bundled sl4 character")
    report(
        11,
        not failures,
        f"{len(verma_certified)} truncated characters (m <= 4, delta <= 2) and the "
        f"bundled sl4 display all certify, failures: {failures[:3]}",
    )


def test_12_degree_polynomials_s4():
    failures = [
        repr(w)
        for w in all_permutations(4)
        if not lorentzian_certify(degree_polynomial(w)).is_lorentzian
    ]
    report(12, not failures, f"degree polynomials of all 24 of S4 certify, "
                             f"failures: {failures[:3]}")


def test_13_grothendieck_components(schubert_s5):
    cache = {}
    bad = []
    for w, s in schubert_s5:
        if grothendieck(w, cache).homogeneous_component(w.length()) != s:
            bad.append(f"lowest component {w!r}")
    small_cache = {}
    for w in all_permutations(4):
        g = grothendieck(w, small_cache)
        ell = w.length()
        for k in range(0, g.total_degree() - ell + 1):
            signed = normalize(g.homogeneous_component(ell + k)) * ((-1) ** k)
            if not lorentzian_certify(signed).is_lorentzian:
                bad.append(f"component {w!r} k={k}")
        if not lorentzian_certify(normalize(homogeneous_grothendieck(w, small_cache))).is_lorentzian:
            bad.append(f"homogenized {w!r}")
    report(
        13,
        not bad,
        "lowest Grothendieck component equals the Schubert polynomial on S5; "
        f"signed normalized components and homogenizations certify on S4, failures: {bad[:3]}",
    )


def test_14_key_polynomials():
    bad = []
    checked = 0
    for mu in compositions_within(7, 4):
        kappa = key_polynomial(mu)
        checked += 1
        if not lorentzian_certify(normalize(kappa)).is_lorentzian:
            bad.append(("certify", mu))
        if list(mu) == sorted(mu):
            target = schur(Partition(sorted(mu, reverse=True)), 4)
            if kappa != target:
                bad.append(("schur", mu))
    report(14, not bad, f"{checked} normalized key polynomials (<= 7 boxes, 4 parts) "
                        f"certify; weakly increasing ones equal Schur polynomials")


def test_15_skew_and_p_polynomials():
    bad = []
    skew_count = 0
    for lam in partitions_within(7, 3):
        for nu in subpartitions(lam):
            for m in range(1, 4):
                skew_count += 1
                h = normalize(skew_schur(SkewShape(lam, nu), m))
                if not lorentzian_certify(h).is_lorentzian:
                    bad.append(("skew", lam.parts, nu.parts, m))
    p_count = 0
    for lam in strict_partitions_within(5, 3):
        for m in range(1, 4):
            p_count += 1
            if not lorentzian_certify(normalize(schur_p(lam, m))).is_lorentzian:
                bad.append(("P", lam.parts, m))
    report(15, not bad, f"{skew_count} normalized skew instances and {p_count} "
                        f"normalized P-polynomial instances certify, failures: {bad[:3]}")


def test_16_oracle_agreement():
    rng = random.Random(1601)
    mismatches = []
    lorentzian_count = 0
    for _ in range(500):
        d = rng.randint(0, 8)
        terms = {}
        for k in range(d + 1):
            if rng.random() < 0.35:
                continue
            terms[(k, d - k)] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        h = Polynomial(2, terms)
        verdict = lorentzian_certify(h).is_lorentzian
        lorentzian_count += verdict
        if verdict != bivariate_ulc(h):
            mismatches.append(h)
    styles = ("dense", "sparse", "low_rank")
    for trial in range(200):
        n = rng.randint(1, 6)
        style = styles[trial % 3]
        if style == "low_rank":
            k = rng.randint(0, n - 1)
            rows = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(k)
            ]
            matrix = SymmetricMatrix(
                [
                    [sum(rows[t][i] * rows[t][j] for t in range(k)) for j in range(n)]
                    for i in range(n)
                ]
            )
        else:
            entries = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    if style == "sparse" and rng.random() < 0.5:
                        value = Fraction(0)
                    entries[i][j] = entries[j][i] = value
            matrix = SymmetricMatrix(entries)
        if inertia(matrix) != inertia_by_sturm_bracketing(matrix):
            mismatches.append(matrix)
    report(
        16,
        not mismatches,
        f"certifier == bivariate criterion on 500 random bivariate polynomials "
        f"({lorentzian_count} Lorentzian), inertia == Sturm bracketing on 200 "
        f"random matrices, mismatches: {len(mismatches)}",
    )


def test_17_numeric_advisory(schur_m4_certified, schubert_s5, verma_certified):
    rng = random.Random(1701)
    checked = 0
    bad = []
    for label, h in schur_m4_certified:
        if not h:
            continue
        checked += 1
        if not numeric_log_concavity_spot(h, positive_points(rng, h.arity)):
            bad.append(label)
    for w, s in schubert_s5:
        checked += 1
        if not numeric_log_concavity_spot(
            normalize(s), positive_points(rng, 5)
        ):
            bad.append(repr(w))
    for label, h in verma_certified:
        if not h:
            continue
        checked += 1
        if not numeric_log_concavity_spot(h, positive_points(rng, h.arity)):
            bad.append(label)
    report(
        17,
        not bad,
        f"log-Hessian negative semidefinite (exact inertia) at 10 random positive "
        f"points for each of {checked} certified polynomials, failures: {bad[:3]}",
    )
