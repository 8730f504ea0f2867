import ast
import dataclasses
import gc
import itertools
import json
import math
import pathlib
import random
import re
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

import lorentzpoly
from lorentzpoly.certify import (
    HessianFailure,
    InertiaSignature,
    LorentzCertificate,
    NegativeCoefficient,
    NotHomogeneous,
    SupportNotMConvex,
    SymmetricMatrix,
    _inertia_int,
    _multiset_indices,
    _packed,
    _pairwise_scan_shape,
    _scaled_coefficients,
    _support_key,
    bivariate_ulc,
    inertia,
    is_m_convex,
    lorentzian_certify,
    m_convex_failure,
    quadratic_form_matrix,
    root_direction_violations,
    verify_certificate,
)
from lorentzpoly.oracles import inertia_by_sturm_bracketing
from lorentzpoly.polynomials import Polynomial, normalize, parse_polynomial
from lorentzpoly.schubert import Permutation, schubert
from lorentzpoly.symmetric import schur
from lorentzpoly.sweeps import partitions_within

from second_routes import (
    characteristic_polynomial,
    discrete_root_log_concavity,
    first_hessian_failure_by_derivatives,
    inertia_by_char_poly,
    numeric_log_concavity_spot,
    root_direction_violations_by_lookup,
)


def poly(text):
    return parse_polynomial(text)


# passes homogeneity, signs and M-convexity; both first derivatives fail
FLAT_CUBIC = "x1^3 + x1^2 x2 + x1 x2^2 + x2^3"


def random_symmetric(rng, n, style="dense"):
    if style == "low_rank":
        k = rng.randint(0, max(0, n - 1))
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(k)]
        out = [[sum(rows[t][i] * rows[t][j] for t in range(k)) for j in range(n)]
               for i in range(n)]
        return SymmetricMatrix(out)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if style == "sparse" and rng.random() < 0.5:
                value = Fraction(0)
            out[i][j] = out[j][i] = value
    return SymmetricMatrix(out)


class TestMConvexity:
    def test_unit_vectors(self):
        assert is_m_convex({(1, 0), (0, 1)})

    def test_gap_with_witness(self):
        witness = m_convex_failure({(2, 0), (0, 2)})
        assert witness == ((2, 0), (0, 2), 1)

    def test_empty_and_singleton(self):
        assert is_m_convex(set())
        assert is_m_convex({(3, 1, 0)})

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError):
            is_m_convex({(1, 0), (0, 1, 0)})

    def test_unequal_total_degree_fails(self):
        assert not is_m_convex({(1, 0), (0, 0)})

    def test_schur_supports(self):
        for lam in partitions_within(6, 3):
            assert is_m_convex(schur(lam, 3).support())


class TestInertia:
    def test_identity(self):
        m = SymmetricMatrix([[1, 0], [0, 1]])
        assert inertia(m) == InertiaSignature(2, 0, 0)

    def test_off_diagonal_pair(self):
        m = SymmetricMatrix([[0, 1], [1, 0]])
        assert inertia(m) == InertiaSignature(1, 1, 0)

    def test_display_quadratic_form(self):
        m = quadratic_form_matrix(schur((2, 0), 2))
        assert m == SymmetricMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
        # characteristic polynomial (t - 3/2)(t - 1/2) = 3/4 - 2t + t^2
        assert characteristic_polynomial(m) == [Fraction(3, 4), Fraction(-2), Fraction(1)]
        assert inertia(m) == InertiaSignature(2, 0, 0)

    def test_zero_matrix(self):
        m = SymmetricMatrix([[0, 0], [0, 0]])
        assert inertia(m) == InertiaSignature(0, 0, 2)

    def test_repeated_eigenvalues(self):
        m = SymmetricMatrix([[2, 0, 0], [0, 2, 0], [0, 0, -1]])
        assert inertia(m) == InertiaSignature(2, 1, 0)
        assert inertia_by_sturm_bracketing(m) == InertiaSignature(2, 1, 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            SymmetricMatrix([[0, 1], [2, 0]])

    def test_agrees_with_sturm_bracketing(self):
        rng = random.Random(59)
        for trial in range(60):
            n = rng.randint(1, 5)
            style = ("dense", "sparse", "low_rank")[trial % 3]
            m = random_symmetric(rng, n, style)
            assert inertia(m) == inertia_by_sturm_bracketing(m)


class TestQuadraticForm:
    def test_single_cross_term(self):
        m = quadratic_form_matrix(poly("vars: 2\nx1 x2"))
        assert m == SymmetricMatrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])

    def test_zero_polynomial(self):
        m = quadratic_form_matrix(Polynomial.zero(3))
        assert inertia(m) == InertiaSignature(0, 0, 3)

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            quadratic_form_matrix(poly("vars: 2\nx1"))


class TestCertifier:
    def test_quadratic_counterexample(self):
        cert = lorentzian_certify(schur((2, 0), 2))
        assert not cert.is_lorentzian
        assert cert.failure.kind == "hessian_failure"
        assert cert.failure.multiset == ()
        assert cert.failure.inertia == InertiaSignature(2, 0, 0)

    def test_normalized_large_schur(self):
        cert = lorentzian_certify(normalize(schur((3, 1, 1, 1, 1), 5)))
        assert cert.is_lorentzian
        assert cert.checks == (
            "homogeneous",
            "nonnegative_coefficients",
            "m_convex_support",
            "hessian_spectra",
        )

    def test_schubert_refutations(self):
        for line in ((1, 4, 2, 3), (1, 4, 3, 2)):
            cert = lorentzian_certify(schubert(Permutation(line)))
            assert not cert.is_lorentzian
            assert cert.failure.kind == "hessian_failure"

    def test_not_homogeneous(self):
        cert = lorentzian_certify(poly("vars: 2\nx1 + x1 x2"))
        assert cert.failure.kind == "not_homogeneous"
        assert cert.failure.degrees == (1, 2)

    def test_negative_coefficient(self):
        cert = lorentzian_certify(poly("vars: 2\nx1 x2 - x2^2"))
        assert cert.failure.kind == "negative_coefficient"
        assert cert.failure.exponent == (0, 2)

    def test_negative_coefficient_names_the_smallest_exponent(self):
        # written largest first; the witness is the smallest negative exponent
        text = "vars: 3\n- x1 x3 + x1^2 - x2 x3 + x1 x2 - 2 x3^2 + x2^2"
        cert = lorentzian_certify(poly(text))
        assert cert.failure == NegativeCoefficient((0, 0, 2))
        assert verify_certificate(poly(text), cert)

    def test_support_gap(self):
        cert = lorentzian_certify(poly("vars: 2\nx1^2 + x2^2"))
        assert cert.failure.kind == "support_not_m_convex"

    def test_low_degree_conventions(self):
        assert lorentzian_certify(Polynomial.zero(3)).is_lorentzian
        assert lorentzian_certify(Polynomial.constant(2, 5)).is_lorentzian
        assert not lorentzian_certify(Polynomial.constant(2, -1)).is_lorentzian
        assert lorentzian_certify(poly("vars: 3\nx1 + x3")).is_lorentzian

    def test_multiset_reported_lexicographically_smallest(self):
        # the flat cubic passes homogeneity, signs and M-convexity, and both
        # first derivatives have two positive eigenvalues; d_1 must be named
        bad = poly("vars: 2\nx1^3 + x1^2 x2 + x1 x2^2 + x2^3")
        cert = lorentzian_certify(bad)
        assert cert.failure.kind == "hessian_failure"
        assert cert.failure.multiset == (1,)
        assert verify_certificate(bad, cert)

    def test_witnesses_reverify(self):
        cases = [
            schur((2, 0), 2),
            schubert(Permutation((1, 4, 2, 3))),
            schubert(Permutation((1, 4, 3, 2))),
            poly("vars: 2\nx1 + x1 x2"),
            poly("vars: 2\nx1 x2 - x2^2"),
            poly("vars: 2\nx1^2 + x2^2"),
        ]
        for p in cases:
            cert = lorentzian_certify(p)
            assert not cert.is_lorentzian
            assert verify_certificate(p, cert)

    @pytest.mark.parametrize("index", [-1, 0, 3])
    def test_exchange_index_outside_the_variables_is_refused(self, index):
        # -1 once read alpha[-2] and accepted; 3 raised IndexError
        gap = poly("vars: 2\nx1^2 + x2^2")
        cert = lorentzian_certify(gap)
        assert cert.failure == SupportNotMConvex((2, 0), (0, 2), 1)
        assert verify_certificate(gap, cert)
        forged = dataclasses.replace(cert, failure=SupportNotMConvex((2, 0), (0, 2), index))
        assert verify_certificate(gap, forged) is False

    @pytest.mark.parametrize("multiset", [(0,), (3,), (-1,), (1, 1), ()])
    def test_hessian_multiset_that_does_not_fit_is_refused(self, multiset):
        # a cubic needs one derivative, by x1 or x2; these once raised ValueError
        flat = poly("vars: 2\nx1^3 + x1^2 x2 + x1 x2^2 + x2^3")
        cert = lorentzian_certify(flat)
        assert cert.failure.multiset == (1,)
        forged = dataclasses.replace(
            cert, failure=dataclasses.replace(cert.failure, multiset=multiset))
        assert verify_certificate(flat, forged) is False

    @pytest.mark.parametrize("text, failure", [
        # alpha and beta as lists, as to_dict() writes them, once raised
        # TypeError (unhashable), and so did an index of 1.0
        ("x1^2 + x2^2", SupportNotMConvex([2, 0], [0, 2], 1)),
        ("x1^2 + x2^2", SupportNotMConvex((2, 0), [0, 2], 1)),
        ("x1^2 + x2^2", SupportNotMConvex((2, 0), (0, 2), 1.0)),
        ("x1^2 + x2^2", SupportNotMConvex((2.0, 0), (0, 2), 1)),
        # a multiset entry of 1.0 once raised ValueError in partial_derivative
        (FLAT_CUBIC, HessianFailure((1.0,), InertiaSignature(2, 0, 0))),
        (FLAT_CUBIC, HessianFailure([1], InertiaSignature(2, 0, 0))),
        # a degree pair of one entry once raised ValueError, an int exponent TypeError
        ("x1 + x1 x2", NotHomogeneous((1,))),
        ("x1 + x1 x2", NotHomogeneous([1, 2])),
        ("x1^2 - x2^2", NegativeCoefficient(2)),
        ("x1^2 - x2^2", NegativeCoefficient([0, 2])),
        # a plain tuple or a float count for the inertia verified True (the
        # tuple's to_dict() raised AttributeError), and so did a bool index
        (FLAT_CUBIC, HessianFailure((1,), (2, 0, 0))),
        (FLAT_CUBIC, HessianFailure((1,), InertiaSignature(2.0, 0, 0))),
        (FLAT_CUBIC, HessianFailure((True,), InertiaSignature(2, 0, 0))),
        ("x1^2 + x2^2", SupportNotMConvex((2, 0), (0, 2), True)),
    ])
    def test_badly_typed_witness_is_refused(self, text, failure):
        target = poly("vars: 2\n" + text)
        cert = lorentzian_certify(target)
        assert cert.failure.kind == failure.kind
        assert verify_certificate(target, cert)
        forged = dataclasses.replace(cert, failure=failure)
        assert verify_certificate(target, forged) is False

    def test_hessian_witness_on_mixed_degrees_is_refused(self):
        flat = poly("vars: 2\nx1^3 + x1^2 x2 + x1 x2^2 + x2^3")
        mixed = poly("vars: 2\nx1^3 + x1 x2")
        cert = dataclasses.replace(lorentzian_certify(flat), degree=None)
        assert verify_certificate(mixed, cert) is False

    def test_witness_against_wrong_polynomial_fails(self):
        cert = lorentzian_certify(schur((2, 0), 2))
        other = normalize(schur((2, 0), 2))
        assert not verify_certificate(other, cert)

    def test_lorentzian_claim_against_another_arity_fails(self):
        cert = lorentzian_certify(poly("vars: 2\nx1 x2"))
        assert cert.is_lorentzian
        assert not verify_certificate(poly("vars: 3\nx1^2 - x2 x3"), cert)
        assert not verify_certificate(poly("vars: 2\nx1 x2").with_arity(3), cert)

    def test_lorentzian_claim_against_another_degree_fails(self):
        cert = lorentzian_certify(poly("vars: 2\nx1 x2"))
        assert not verify_certificate(poly("vars: 2\nx1^2 x2"), cert)
        assert not verify_certificate(Polynomial.zero(2), cert)

    def test_lorentzian_claim_against_mixed_degrees_fails(self):
        # the zero polynomial's certificate names no degree, as mixed ones do
        cert = lorentzian_certify(Polynomial.zero(2))
        assert cert.is_lorentzian and cert.degree is None
        assert verify_certificate(Polynomial.zero(2), cert)
        assert not verify_certificate(poly("vars: 2\nx1 + x1 x2"), cert)

    def test_lorentzian_claim_against_a_negative_coefficient_fails(self):
        cert = lorentzian_certify(poly("vars: 2\nx1 + x2"))
        assert not verify_certificate(poly("vars: 2\nx1 - x2"), cert)

    def test_failure_witness_against_another_arity_fails(self):
        cert = lorentzian_certify(poly("vars: 2\nx1 + x1 x2"))
        assert cert.failure == NotHomogeneous((1, 2))
        assert verify_certificate(poly("vars: 2\nx1 + x1 x2"), cert)
        assert not verify_certificate(poly("vars: 3\nx1 + x2 x3"), cert)

    def test_certificate_is_its_arity_degree_and_failure(self):
        # the verdict and the checks are read off the failure and the degree,
        # so no certificate can contradict itself
        cert = lorentzian_certify(poly("vars: 2\n" + FLAT_CUBIC))
        fields = tuple(f.name for f in dataclasses.fields(LorentzCertificate))
        assert fields == ("arity", "degree", "failure")
        with pytest.raises(TypeError):
            dataclasses.replace(cert, verdict="Lorentzian")
        with pytest.raises(TypeError):
            dataclasses.replace(cert, checks=cert.checks[:1])

    def test_derivative_closure(self):
        seeds = [normalize(schur(lam, 3)) for lam in partitions_within(5, 3)]
        for h in seeds:
            if not lorentzian_certify(h).is_lorentzian:
                continue
            for i in range(1, 4):
                assert lorentzian_certify(h.partial_derivative(i)).is_lorentzian

    def test_product_closure(self):
        lams = [lam for lam in partitions_within(4, 3)]
        rng = random.Random(3)
        pairs = [(rng.choice(lams), rng.choice(lams)) for _ in range(25)]
        pairs += [(lams[0], lams[0])]
        for lam, rho in pairs:
            a, b = schur(lam, 3), schur(rho, 3)
            assert lorentzian_certify(normalize(a * b)).is_lorentzian
            assert lorentzian_certify(normalize(a) * normalize(b)).is_lorentzian

    def test_certificate_json_schema(self):
        cert = lorentzian_certify(schur((2, 0), 2)).to_dict()
        assert set(cert) == {"verdict", "arity", "degree", "checks", "failure"}
        assert cert["verdict"] == "NotLorentzian"
        assert cert["failure"]["kind"] == "hessian_failure"
        assert set(cert["failure"]) == {"kind", "multiset", "inertia"}
        assert set(cert["failure"]["inertia"]) == {"positive", "negative", "zero"}
        good = lorentzian_certify(Polynomial.zero(2)).to_dict()
        assert good["verdict"] == "Lorentzian" and good["failure"] is None


def test_certifier_leaves_no_reference_cycles():
    # the M-convexity rank test runs here, then every Hessian
    h = normalize(schur((3, 2, 1), 4))
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            assert m_convex_failure(h.terms) is None
            assert lorentzian_certify(h).is_lorentzian
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestBivariateUlc:
    def test_perfect_square(self):
        assert bivariate_ulc(poly("vars: 2\nx1^2 + 2 x1 x2 + x2^2"))

    def test_flat_sequence_fails(self):
        assert not bivariate_ulc(poly("vars: 2\nx1^2 + x1 x2 + x2^2"))

    def test_internal_zero_fails(self):
        assert not bivariate_ulc(poly("vars: 2\nx1^2 + x2^2"))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bivariate_ulc(poly("vars: 3\nx1 x2 x3"))
        with pytest.raises(ValueError):
            bivariate_ulc(poly("vars: 2\nx1 + x1 x2"))
        with pytest.raises(ValueError):
            bivariate_ulc(poly("vars: 2\nx1^2 - x2^2"))

    def test_certifier_agreement_sample(self):
        rng = random.Random(101)
        for _ in range(120):
            d = rng.randint(0, 8)
            terms = {}
            for k in range(d + 1):
                if rng.random() < 0.35:
                    continue
                terms[(k, d - k)] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            h = Polynomial(2, terms)
            assert bivariate_ulc(h) == lorentzian_certify(h).is_lorentzian


class TestDiscreteLogConcavity:
    def test_display_point(self):
        assert discrete_root_log_concavity(schur((2, 0), 2), (1, 1), 1, 2)

    def test_zero_boundary(self):
        assert discrete_root_log_concavity(schur((2, 0), 2), (2, 0), 1, 2)

    def test_requires_distinct_indices(self):
        with pytest.raises(ValueError):
            discrete_root_log_concavity(schur((2, 0), 2), (1, 1), 1, 1)

    @pytest.mark.parametrize("mu, i, j", [
        ((1, 1, 0), 0, 2),  # index 0 would wrap round to x3
        ((1, 1, 0), 1, 4),  # index arity + 1
        ((1, 1), 1, 2),  # mu shorter than the arity
    ])
    def test_rejects_out_of_range_arguments(self, mu, i, j):
        h = poly("vars: 3\nx1^2 + x1 x2 + 3 x2^2 + x3")
        assert not discrete_root_log_concavity(h, (1, 1, 0), 1, 2)
        with pytest.raises(ValueError):
            discrete_root_log_concavity(h, mu, i, j)

    def test_full_table_sweep(self):
        assert root_direction_violations(schur((2, 1), 3)) == []

    def test_detects_violation(self):
        # 1, 1, 3 along a root line is not log-concave at the middle point
        h = poly("vars: 2\nx1^2 + x1 x2 + 3 x2^2")
        violations = root_direction_violations(h)
        assert ((1, 1), 1, 2) in violations


class TestNumericSpot:
    def test_monomial_hessian(self):
        assert numeric_log_concavity_spot(poly("vars: 2\nx1 x2"), [(1, 1)])

    def test_normalized_schur_spot(self):
        h = normalize(schur((2, 0), 2))
        rng = random.Random(7)
        points = [
            (Fraction(rng.randint(1, 8), 2), Fraction(rng.randint(1, 8), 2))
            for _ in range(10)
        ]
        assert numeric_log_concavity_spot(h, points)

    def test_informational_on_unnormalized(self):
        # not certified Lorentzian, yet log-concavity can still hold pointwise;
        # record the outcome without asserting a particular verdict
        outcome = numeric_log_concavity_spot(schur((2, 0), 2), [(1, 1)])
        assert outcome in (True, False)

    def test_rejects_nonpositive_point(self):
        with pytest.raises(ValueError):
            numeric_log_concavity_spot(poly("vars: 2\nx1 x2"), [(0, 1)])

    def test_rejects_nonpositive_value(self):
        # a raise, not an assert, so it also holds under python -O
        with pytest.raises(ValueError):
            numeric_log_concavity_spot(poly("vars: 2\nx1 - 2 x2"), [(1, 1)])

    @pytest.mark.parametrize("point", [(0.1, 1), (1, 0.5), (2.0, 3)])
    def test_rejects_float_point(self, point):
        # read as Polynomial.evaluate reads a value: a float is refused
        with pytest.raises(ValueError, match="float"):
            numeric_log_concavity_spot(schur((2,), 2), [point])

    def test_exact_below_any_tolerance(self):
        # x1^2 + (2 - 10^-12) x1 x2 + x2^2 is positive definite, so log h has
        # a positive Hessian eigenvalue, far below 1e-8 at (1, 1)
        b = 2 - Fraction(1, 10**12)
        h = Polynomial(2, {(2, 0): 1, (1, 1): b, (0, 2): 1})
        assert not numeric_log_concavity_spot(h, [(1, 1)])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
            st.dictionaries(
                st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
                st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
                min_size=1, max_size=6,
            ),
            st.lists(
                st.tuples(*[st.fractions(min_value=Fraction(1, 4), max_value=8,
                                         max_denominator=4)] * n),
                min_size=1, max_size=3,
            ),
        ))
    )
    def test_one_pass_matches_derivative_polynomials(self, case):
        # the verdict of h H(h) - grad grad^T read off the derivative
        # polynomials, evaluated point by point, on inhomogeneous inputs too
        terms, points = case
        h = Polynomial(len(points[0]), terms)
        n = h.arity
        grads = [h.partial_derivative(i) for i in range(1, n + 1)]
        expected = True
        for point in points:
            value = h.evaluate(point)
            grad = [g.evaluate(point) for g in grads]
            matrix = SymmetricMatrix([
                [value * grads[i].partial_derivative(j + 1).evaluate(point) - grad[i] * grad[j]
                 for j in range(n)]
                for i in range(n)
            ])
            if inertia(matrix).positive > 0:
                expected = False
                break
        assert numeric_log_concavity_spot(h, points) == expected


# -- the integer kernels against their oracles, on generated inputs --------

MATRIX_SHAPES = ("dense", "sparse", "zero_diagonal", "low_rank", "rank_one", "block_diagonal")


@st.composite
def symmetric_matrices(draw):
    """Integer or rational symmetric matrices up to 7 x 7, in the shapes that
    take each branch of the elimination: zero-diagonal ones take the
    x_i <- x_i + x_j step, low-rank ones end with a zero block."""
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(MATRIX_SHAPES))
    if draw(st.booleans()):
        values = st.integers(-6, 6).map(Fraction)
    else:
        values = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    entries = st.one_of(st.just(Fraction(0)), values) if shape == "sparse" else values
    if shape in ("low_rank", "rank_one"):
        rank = 1 if shape == "rank_one" else draw(st.integers(0, n - 1))
        rows = [[Fraction(0)] * n for _ in range(n)]
        for _ in range(rank):
            vector = draw(st.lists(values, min_size=n, max_size=n))
            sign = draw(st.sampled_from((1, -1)))
            for i in range(n):
                for j in range(n):
                    rows[i][j] += sign * vector[i] * vector[j]
        return SymmetricMatrix(rows)
    split = draw(st.integers(0, n)) if shape == "block_diagonal" else n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i < split) != (j < split) or (shape == "zero_diagonal" and i == j):
                continue
            rows[i][j] = rows[j][i] = draw(entries)
    return SymmetricMatrix(rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(symmetric_matrices())
def test_inertia_matches_char_poly_and_sturm(m):
    signature = inertia(m)
    assert signature == inertia_by_char_poly(m)
    assert signature == inertia_by_sturm_bracketing(m)


@st.composite
def matrices_with_zero_rows(draw):
    """Integer symmetric matrices, dense or sparse, with one to four zero
    rows and columns inserted at random positions."""
    n = draw(st.integers(0, 6))
    entries = st.integers(-6, 6) | st.just(0)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entries)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(rows)))
        for row in rows:
            row.insert(at, 0)
        rows.insert(at, [0] * (len(rows) + 1))
    return SymmetricMatrix(rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices_with_zero_rows())
def test_zero_rows_count_as_zero_eigenvalues(m):
    """Elimination starts without the zero rows and counts them as zeros."""
    assert inertia(m) == inertia_by_char_poly(m)


@st.composite
def polynomials_for_scan(draw):
    """Arity 1-4, homogeneous or not, with rational and negative coefficients."""
    arity = draw(st.integers(1, 4))
    if draw(st.booleans()):
        degree = draw(st.integers(0, 5))
        exponents = st.lists(
            st.integers(0, arity - 1), min_size=degree, max_size=degree
        ).map(lambda picks: tuple(picks.count(k) for k in range(arity)))
    else:
        exponents = st.tuples(*[st.integers(0, 4)] * arity)
    coefficients = st.one_of(
        st.integers(1, 30).map(Fraction),
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
    )
    return Polynomial(arity, draw(st.dictionaries(exponents, coefficients, max_size=12)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(polynomials_for_scan())
def test_root_direction_violations_match_lookup(h):
    # the full list, in order, not only the verdict
    assert root_direction_violations(h) == root_direction_violations_by_lookup(h)


# exponents next to the widths where the packed scan's fields, each holding
# an exponent plus at most 4, gain a bit: 2^k - 5 .. 2^k for k = 3..6
FIELD_EDGES = [v for k in range(3, 7) for v in range(2**k - 5, 2**k + 1)]


@st.composite
def polynomials_on_root_lines(draw):
    """Arity 2-5: a few runs of points along root lines mu + t (e_i - e_j),
    t in -2..2, from bases with entries in 0..3 and at the field edges, with
    integer, fractional and negative coefficients.  Runs of three points or
    more make both neighbours of a centre terms, where violations occur."""
    arity = draw(st.integers(2, 5))
    entries = st.one_of(st.integers(0, 3), st.sampled_from(FIELD_EDGES))
    coefficients = st.one_of(
        st.integers(-30, 30).map(Fraction),
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
    )
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        base = draw(st.lists(entries, min_size=arity, max_size=arity))
        i, j = draw(st.lists(st.integers(0, arity - 1), min_size=2, max_size=2, unique=True))
        for t in draw(st.sets(st.integers(-2, 2), min_size=1)):
            point = list(base)
            point[i] += t
            point[j] -= t
            if min(point) >= 0:
                terms[tuple(point)] = draw(coefficients)
    return Polynomial(arity, terms)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(polynomials_on_root_lines())
def test_packed_scan_matches_lookup_at_field_edges(h):
    assert root_direction_violations(h) == root_direction_violations_by_lookup(h)


@pytest.mark.parametrize("top", FIELD_EDGES)
def test_packed_scan_finds_violations_at_the_largest_exponent(top):
    # c(mu)^2 < c(mu + e_1 - e_2) c(mu - e_1 + e_2) at mu = (top - 1, 1, 0),
    # whose upper neighbour holds the largest exponent, and at (1, 1, top),
    # which holds it in the coordinate the direction leaves alone; the terms
    # (2, top, 0) and (0, 0, top) sit where a + 2 e_j fills a field most
    h = Polynomial(3, {
        (top, 0, 0): 4, (top - 1, 1, 0): 1, (top - 2, 2, 0): 1,
        (2, 0, top): 9, (1, 1, top): -2, (0, 2, top): 1,
        (2, top, 0): 1, (0, 0, top): 1,
    })
    violations = root_direction_violations(h)
    assert ((top - 1, 1, 0), 1, 2) in violations
    assert ((1, 1, top), 1, 2) in violations
    assert violations == root_direction_violations_by_lookup(h)


def _denormalized(h):
    """The p with normalize(p) == h: each term times mu!."""
    return Polynomial(h.arity, {
        e: c * math.prod(map(math.factorial, e)) for e, c in h.terms.items()
    })


@st.composite
def homogeneous_supports(draw, arity, degree, min_size=1):
    picks = st.lists(st.integers(0, arity - 1), min_size=degree, max_size=degree)
    exponents = picks.map(lambda p: tuple(p.count(k) for k in range(arity)))
    return draw(st.sets(exponents, min_size=min_size, max_size=10))


positive_rationals = st.fractions(min_value=Fraction(1, 9), max_value=30, max_denominator=9)


@st.composite
def with_negative_coefficient(draw):
    arity, degree = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    support = sorted(draw(homogeneous_supports(arity, degree)))
    terms = {e: draw(positive_rationals) for e in support}
    for e in draw(st.sets(st.sampled_from(support), min_size=1)):
        terms[e] = -terms[e]
    return Polynomial(arity, terms)


@st.composite
def with_mixed_degrees(draw):
    arity = draw(st.integers(1, 4))
    low, high = sorted(draw(st.sets(st.integers(0, 4), min_size=2, max_size=2)))
    terms = {}
    for degree in (low, high):
        for e in draw(homogeneous_supports(arity, degree)):
            terms[e] = draw(st.one_of(positive_rationals, positive_rationals.map(lambda c: -c)))
    return Polynomial(arity, terms)


@st.composite
def with_support_gap(draw):
    """d x1^d-type corners e_1 d and e_2 d with no (d-1) e_1 + e_2: the
    exchange (alpha, beta, 1) from d e_1 to d e_2 fails."""
    arity, degree = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    corner_1 = (degree,) + (0,) * (arity - 1)
    corner_2 = (0, degree) + (0,) * (arity - 2)
    next_to_1 = (degree - 1, 1) + (0,) * (arity - 2)
    support = draw(homogeneous_supports(arity, degree, min_size=0))
    support = (support | {corner_1, corner_2}) - {next_to_1}
    return Polynomial(arity, {e: draw(positive_rationals) for e in support})


@st.composite
def with_hessian_failure(draw):
    """p = sum c_k x1^k x2^(d-k) with c_k > 0 and c_k^2 < c_(k-1) c_(k+1) at
    some k, in 2-4 variables: N(p) is Lorentzian exactly when the c_k are
    log-concave, so some Hessian of N(p) fails."""
    arity, degree = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    seq = draw(st.lists(positive_rationals, min_size=degree + 1, max_size=degree + 1))
    k = draw(st.integers(1, degree - 1))
    seq[k] = min(seq[k], seq[k - 1], seq[k + 1]) / 2
    zeros = (0,) * (arity - 2)
    return Polynomial(arity, {(t, degree - t) + zeros: c for t, c in enumerate(seq)})


@st.composite
def denormalized_products(draw):
    """N^-1 of a product of nonnegative linear forms: N(p) is stable, hence
    Lorentzian."""
    n = draw(st.integers(2, 4))
    h = Polynomial.constant(n, 1)
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        h = h * Polynomial(n, {
            tuple(int(k == i) for k in range(n)): w for i, w in enumerate(row) if w
        })
    return _denormalized(h * draw(positive_rationals))


OUTCOMES = {
    "negative_coefficient": with_negative_coefficient(),
    "not_homogeneous": with_mixed_degrees(),
    "support_not_m_convex": with_support_gap(),
    "hessian_failure": with_hessian_failure(),
    None: denormalized_products(),
}


def test_normalize_flag_on_a_hessian_failure():
    # N(2 x1^2 + x1 x2 + 2 x2^2) = x1^2 + x1 x2 + x2^2
    h = poly("vars: 2\n2 x1^2 + x1 x2 + 2 x2^2")
    certificate = lorentzian_certify(h, normalize=True)
    assert certificate == lorentzian_certify(normalize(h))
    assert certificate.failure == HessianFailure((), InertiaSignature(2, 0, 0))


@pytest.mark.parametrize("kind", OUTCOMES)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_normalize_flag_matches_normalize_then_certify(kind, data):
    h = data.draw(OUTCOMES[kind])
    certificate = lorentzian_certify(h, normalize=True)
    assert certificate.to_dict() == lorentzian_certify(normalize(h)).to_dict()
    assert (certificate.failure and certificate.failure.kind) == kind


@st.composite
def homogeneous_int_maps(draw):
    """Arity 1-4, degree 0-4, integer coefficients of either sign."""
    arity, degree = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    support = draw(homogeneous_supports(arity, degree, min_size=0))
    return Polynomial(arity, {e: draw(st.integers(-3, 9)) for e in sorted(support)})


@st.composite
def certify_streams(draw):
    """(polynomial, normalize) pairs that repeat a few bases, each time with
    its terms in another order and times a positive scale, which can give a
    new polynomial the same scaled map (x1/2 and x1/3 both read x1)."""
    bases = draw(st.lists(st.one_of(homogeneous_int_maps(), *OUTCOMES.values()),
                          min_size=1, max_size=4))
    stream = []
    for _ in range(draw(st.integers(1, 12))):
        base = draw(st.sampled_from(bases))
        items = draw(st.permutations(list(base.terms.items())))
        scale = draw(st.sampled_from([1, 2, Fraction(1, 3), Fraction(5, 2)]))
        stream.append((Polynomial(base.arity, {e: c * scale for e, c in items}),
                       draw(st.booleans())))
    return stream


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(certify_streams())
def test_certificate_memo_matches_uncached(stream):
    cache = {}
    for h, flag in stream:
        assert lorentzian_certify(h, normalize=flag, cache=cache) == \
            lorentzian_certify(h, normalize=flag)
    # one entry per distinct (arity, flag, scaled map); inhomogeneous targets
    # are refused before the key is built
    distinct = {
        (h.arity, flag, frozenset(_scaled_coefficients(h).items()))
        for h, flag in stream
        if len({sum(e) for e in h.terms}) <= 1
    }
    assert len(cache) == len(distinct)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(certify_streams())
def test_support_memo_keeps_every_certificate(stream):
    # the M-convexity answers of one table, witnesses read off each target
    supports = {}
    for h, flag in stream:
        assert lorentzian_certify(h, normalize=flag, supports=supports) == \
            lorentzian_certify(h, normalize=flag)


def test_certificate_memo_keys_on_arity_and_every_coefficient():
    cache = {}
    h = poly("vars: 2\nx1^2 + x1 x2 + x2^2")
    reordered = poly("vars: 2\nx2^2 + x1 x2 + x1^2")
    bumped = poly("vars: 2\nx1^2 + 3 x1 x2 + x2^2")  # Lorentzian, unlike h
    # only the arity tells the zero polynomials apart, and only the flag
    # tells h from N(h) = (x1 + x2)^2 / 2, which has the same scaled map
    targets = (h, reordered, bumped, h.with_arity(3), Polynomial.zero(2), Polynomial.zero(3))
    for target, flag in [(t, False) for t in targets] + [(h, True)]:
        assert lorentzian_certify(target, normalize=flag, cache=cache) == \
            lorentzian_certify(target, normalize=flag)
    assert [c.is_lorentzian for c in cache.values()] == [False, True, False, True, True, True]
    assert [c.arity for c in cache.values()] == [2, 2, 3, 2, 3, 2]


def test_certificate_memo_keeps_degree_256():
    cache = {}
    for degree in (255, 256):
        h = Polynomial.monomial(2, (degree, 0))
        assert lorentzian_certify(h, cache=cache) == lorentzian_certify(h)
    assert [c.degree for c in cache.values()] == [255, 256]


def test_keys_tell_bytes_from_tuples():
    # values from 256 up are kept as a tuple, which never equals bytes, so
    # a tuple-form key never equals a byte-form key
    assert _packed([0, 1, 255]) == bytes([0, 1, 255])
    assert _packed([0, 256]) == (0, 256)
    assert _packed([0, 1]) != (0, 1)
    # one varying column, (0, 256) against (0, 1), on two points
    wide, narrow = _support_key(2, [(0, 256)], [0], [0]), _support_key(2, [(0, 1)], [0], [0])
    assert wide == (2, (0, 256))
    assert narrow == (2, bytes([0, 1]))
    cache = {}
    for points in ([(3, 0), (3, 256)], [(3, 0), (3, 1)], [(0, 256), (256, 0)]):
        assert m_convex_failure(points, cache) == m_convex_failure(points)
    assert list(cache) == [wide, narrow, (2, (0, 256, 256, 0))]
    # a degree-300 target, its exponents kept as a tuple, through the memo
    h = poly("vars: 3\nx1^300 + 2 x1^299 x2 + x1^298 x2^2 + 5 x1^299 x3")
    cache = {}
    cert = lorentzian_certify(h, cache=cache)
    assert cert == lorentzian_certify(h) and cert.degree == 300
    assert lorentzian_certify(h, cache=cache) is cert and len(cache) == 1


@pytest.mark.parametrize("target, expected", [
    ("vars: 2\nx1 + x1 x2", {
        "verdict": "NotLorentzian", "arity": 2, "degree": None, "checks": [],
        "failure": {"kind": "not_homogeneous", "degrees": [1, 2]}}),
    ("vars: 2\nx1^2 - x2^2", {
        "verdict": "NotLorentzian", "arity": 2, "degree": 2, "checks": ["homogeneous"],
        "failure": {"kind": "negative_coefficient", "exponent": [0, 2]}}),
    ("vars: 2\nx1^2 + x2^2", {
        "verdict": "NotLorentzian", "arity": 2, "degree": 2,
        "checks": ["homogeneous", "nonnegative_coefficients"],
        "failure": {"kind": "support_not_m_convex", "alpha": [2, 0], "beta": [0, 2],
                    "index": 1}}),
    ("vars: 2\n" + FLAT_CUBIC, {
        "verdict": "NotLorentzian", "arity": 2, "degree": 3,
        "checks": ["homogeneous", "nonnegative_coefficients", "m_convex_support"],
        "failure": {"kind": "hessian_failure", "multiset": [1],
                    "inertia": {"positive": 2, "negative": 0, "zero": 0}}}),
    (Polynomial.zero(2), {
        "verdict": "Lorentzian", "arity": 2, "degree": None,
        "checks": ["homogeneous", "nonnegative_coefficients", "m_convex_support"],
        "failure": None}),
    (Polynomial(2, {(0, 0): Fraction(3)}), {
        "verdict": "Lorentzian", "arity": 2, "degree": 0,
        "checks": ["homogeneous", "nonnegative_coefficients", "m_convex_support"],
        "failure": None}),
    ("vars: 2\nx1 + x2", {
        "verdict": "Lorentzian", "arity": 2, "degree": 1,
        "checks": ["homogeneous", "nonnegative_coefficients", "m_convex_support"],
        "failure": None}),
    ("vars: 2\nx1^2 + 2 x1 x2 + x2^2", {
        "verdict": "Lorentzian", "arity": 2, "degree": 2,
        "checks": ["homogeneous", "nonnegative_coefficients", "m_convex_support",
                   "hessian_spectra"],
        "failure": None}),
])
def test_certificate_dict_is_pinned(target, expected):
    # keys, their order and their values, as the JSON reports print them
    target = poly(target) if isinstance(target, str) else target
    cert = lorentzian_certify(target)
    assert json.dumps(cert.to_dict()) == json.dumps(expected)
    assert verify_certificate(target, cert)


def _checked_table(passed):
    """Each key of a set of passed Hessians is bytes and spells a matrix
    that a fresh elimination finds to have at most one positive eigenvalue."""
    for key in passed:
        assert isinstance(key, bytes)
        n = math.isqrt(2 * len(key))  # the lower triangle, row by row
        assert n * (n + 1) == 2 * len(key)
        rows = [list(key[i * (i + 1) // 2:(i + 1) * (i + 2) // 2]) for i in range(n)]
        matrix = [[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        assert _inertia_int(matrix).positive <= 1


@st.composite
def inertia_streams(draw):
    """(polynomial, normalize) pairs of mixed arities that share Hessians:
    block-symmetric forms, raw Schur polynomials (whose Hessians fail from
    lambda = (2)), products and the generated outcomes, each drawn a few
    times with its terms reordered and rescaled."""
    schur_targets = st.builds(
        schur, st.sampled_from(list(partitions_within(4, 3))), st.integers(1, 4))
    kinds = [block_symmetric_forms(), sparse_block_symmetric_forms(), schur_targets,
             raised_products_of_linear_forms(), homogeneous_int_maps(), *OUTCOMES.values()]
    bases = draw(st.lists(st.one_of(kinds), min_size=1, max_size=4))
    stream = []
    for _ in range(draw(st.integers(1, 10))):
        base = draw(st.sampled_from(bases))
        items = draw(st.permutations(list(base.terms.items())))
        scale = draw(st.sampled_from([1, 3, Fraction(1, 2)]))
        stream.append((Polynomial(base.arity, {e: c * scale for e, c in items}),
                       draw(st.booleans())))
    return stream


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(inertia_streams())
def test_inertia_table_keeps_every_certificate(stream):
    # the certificates, witnesses and inertias included, from one set of
    # passed Hessians that every target of the stream fills and reads
    passed = set()
    for h, flag in stream:
        assert lorentzian_certify(h, normalize=flag, passed=passed) == \
            lorentzian_certify(h, normalize=flag)
    _checked_table(passed)


def test_inertia_table_holds_no_matrix_with_an_entry_of_256():
    # x1^2 + c x1 x2 + x2^2 has the one Hessian [[2, c], [c, 2]] raw and
    # [[1, c], [c, 1]] normalized
    passed = set()
    for text, flag in [("3 x1 x2", False), ("300 x1 x2", False), ("300 x1 x2", True),
                       ("255 x1 x2", True)]:
        h = poly("vars: 2\nx1^2 + " + text + " + x2^2")
        assert lorentzian_certify(h, normalize=flag, passed=passed) == \
            lorentzian_certify(h, normalize=flag)
    assert passed == {bytes([2, 3, 2]), bytes([1, 255, 1])}
    _checked_table(passed)


@st.composite
def bivariate_forms(draw):
    """Nonnegative bivariate forms of degree 2-8: products of nonnegative
    linear forms (real-rooted, so ultra-log-concave), then some coefficients
    changed or zeroed, which makes Hessian failures and internal zeros."""
    degree = draw(st.integers(2, 8))
    seq = [1]
    for _ in range(degree):
        a, b = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        seq = [a * (seq[k - 1] if k else 0) + b * (seq[k] if k < len(seq) else 0)
               for k in range(len(seq) + 1)]
    for k in draw(st.lists(st.integers(0, degree), max_size=3)):
        seq[k] = draw(st.integers(0, 2 * seq[k] + 2))
    return Polynomial(2, {(k, degree - k): Fraction(c) for k, c in enumerate(seq)})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bivariate_forms())
def test_certifier_agrees_with_bivariate_ulc(h):
    certificate = lorentzian_certify(h)
    assert certificate.is_lorentzian == bivariate_ulc(h)
    assert verify_certificate(h, certificate)


@st.composite
def raised_products_of_linear_forms(draw):
    """Products of 2-4 nonnegative linear forms in 3-5 variables, so
    Lorentzian with M-convex support; every other one has one coefficient
    multiplied up, which keeps the support and can fail a Hessian."""
    n = draw(st.integers(3, 5))
    weights = st.one_of(
        st.integers(0, 3).map(Fraction),
        st.fractions(min_value=0, max_value=3, max_denominator=4),
    )
    h = Polynomial.constant(n, 1)
    for _ in range(draw(st.integers(2, 4))):
        row = draw(st.lists(weights, min_size=n, max_size=n).filter(any))
        h = h * Polynomial(n, {
            tuple(int(k == i) for k in range(n)): w for i, w in enumerate(row) if w
        })
    if draw(st.booleans()):
        terms = dict(h.terms)
        raised = draw(st.sampled_from(sorted(terms)))
        terms[raised] *= draw(st.integers(2, 30))
        h = Polynomial(n, terms)
    return h


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(raised_products_of_linear_forms())
def test_hessian_pass_matches_derivative_oracle(h):
    certificate = lorentzian_certify(h)
    expected = first_hessian_failure_by_derivatives(h)
    if expected is None:
        assert certificate.is_lorentzian
    else:
        assert certificate.failure == HessianFailure(*expected)


@st.composite
def block_symmetric_forms(draw):
    """Forms in 2-5 variables of degree 2-5 fixed by every permutation of
    the coordinates inside random blocks of consecutive ones: the sum over
    those permutations of a product of nonnegative linear forms.  Every
    other one has the coefficients of one whole orbit multiplied up, which
    keeps the symmetry and can fail a Hessian."""
    n = draw(st.integers(2, 5))
    degree = draw(st.integers(2, 5))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    ends = [0, *cuts, n]
    blocks = [range(a, b) for a, b in zip(ends, ends[1:])]
    perms = [
        tuple(itertools.chain(*parts))
        for parts in itertools.product(*map(itertools.permutations, blocks))
    ]
    h = Polynomial.constant(n, 1)
    for _ in range(degree):
        row = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        h = h * Polynomial(n, {
            tuple(int(k == i) for k in range(n)): w for i, w in enumerate(row) if w
        })
    terms = {}
    for perm in perms:
        for exponent, c in h.terms.items():
            moved = tuple(exponent[p] for p in perm)
            terms[moved] = terms.get(moved, 0) + c
    if draw(st.booleans()):
        exponent = draw(st.sampled_from(sorted(terms)))
        factor = draw(st.integers(2, 30))
        for moved in {tuple(exponent[p] for p in perm) for perm in perms}:
            terms[moved] *= factor
    return Polynomial(n, terms)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(block_symmetric_forms())
def test_symmetry_reduction_matches_derivative_oracle(h):
    # the certifier checks one multiset per orbit; the oracle checks them all
    certificate = lorentzian_certify(h)
    assert verify_certificate(h, certificate)
    if certificate.failure is not None and certificate.failure.kind != "hessian_failure":
        return
    expected = first_hessian_failure_by_derivatives(h)
    if expected is None:
        assert certificate.is_lorentzian
    else:
        assert certificate.failure == HessianFailure(*expected)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(block_symmetric_forms().map(_denormalized))
def test_normalize_flag_keeps_the_symmetry_reduction(h):
    # the multinomial weights are symmetric, so every tied pair stays tied
    assert lorentzian_certify(h, normalize=True) == lorentzian_certify(normalize(h))


@st.composite
def with_constant_coordinates(draw, polynomials):
    """A polynomial of ``polynomials`` with zero to two coordinates inserted at
    drawn positions, each held at one drawn exponent over every term."""
    h = draw(polynomials)
    for _ in range(draw(st.integers(0, 2))):
        at, value = draw(st.integers(0, h.arity)), draw(st.integers(0, 2))
        h = Polynomial(h.arity + 1, {e[:at] + (value,) + e[at:]: c for e, c in h.terms.items()})
    return h


SQUARE_FREE_QUADRATIC = Polynomial(6, {
    tuple(int(k in pair) for k in range(6)): 1 for pair in itertools.combinations(range(6), 2)
})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(with_constant_coordinates(st.one_of(
    homogeneous_int_maps(), with_mixed_degrees(), with_negative_coefficient(),
    with_support_gap(), raised_products_of_linear_forms(), block_symmetric_forms(),
)))
@example(SQUARE_FREE_QUADRATIC)  # 15 points in 6 varying coordinates: the scan alone
@example(normalize(schur((2, 1), 3)))  # 7 points in 3: the rank test first
def test_scan_shape_predicts_the_route(h):
    # `lorentz certify` refuses a support above MAX_SCAN_POINTS exactly when
    # _pairwise_scan_shape names it, which must be when the scan runs alone
    runs = dict.fromkeys(("_rank_m_convex", "_exchange_scan"), 0)

    def counted(name, route):
        def run(*args):
            runs[name] += 1
            return route(*args)
        return run

    with pytest.MonkeyPatch.context() as patch:
        for name in runs:
            patch.setattr(lorentzpoly.certify, name,
                          counted(name, getattr(lorentzpoly.certify, name)))
        lorentzian_certify(h)
    alone = runs["_exchange_scan"] and not runs["_rank_m_convex"]
    varying = sum(min(col) != max(col) for col in zip(*h.terms))
    assert _pairwise_scan_shape(h) == ((len(h.terms), varying) if alone else None)


def _check_flat_target(support, c):
    """h = c sum_{e in support} x^e certifies with ``normalize`` set as
    normalize(h) does raw, through the Hessians; on an M-convex support,
    the derivative oracle finds no failing Hessian of normalize(h)."""
    n = len(next(iter(support)))
    h = Polynomial(n, {e: c for e in support})
    certificate = lorentzian_certify(h, normalize=True)
    assert certificate == lorentzian_certify(normalize(h))
    if is_m_convex(support):
        assert certificate.is_lorentzian
        assert first_hessian_failure_by_derivatives(normalize(h)) is None


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_flat_normalized_targets_match_the_hessian_route(n, d):
    # every nonempty subset J of the exponents of degree d in n variables:
    # N(c sum_J x^e) = c sum_J x^e / e! is Lorentzian for M-convex J
    # (Branden-Huh, Theorem 3.10), and the certifier skips its Hessians
    simplex = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
    for size in range(1, len(simplex) + 1):
        for support in itertools.combinations(simplex, size):
            for c in (Fraction(1), Fraction(3, 2)):
                _check_flat_target(support, c)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(raised_products_of_linear_forms(), block_symmetric_forms()), positive_rationals)
def test_flat_normalized_targets_on_generated_supports(h, c):
    _check_flat_target(list(h.terms), c)


class TestFlatShortcut:
    """A normalized target with equal scaled coefficients and an M-convex
    support is certified before the tied pairs and the Hessians; every
    other target reaches them."""

    S_1432 = schubert(Permutation((1, 4, 3, 2)))  # five terms, each coefficient 1

    @pytest.fixture
    def tied_calls(self, monkeypatch):
        import lorentzpoly.certify as certify_module

        calls = []
        route = certify_module._tied_pairs

        def counted(coeffs, n):
            calls.append(n)
            return route(coeffs, n)

        monkeypatch.setattr(certify_module, "_tied_pairs", counted)
        return calls

    def test_flat_normalized_target_skips_the_hessians(self, monkeypatch):
        import lorentzpoly.certify as certify_module

        def unreachable(coeffs, n):
            raise AssertionError("a flat normalized target reached the Hessian stage")

        monkeypatch.setattr(certify_module, "_tied_pairs", unreachable)
        assert set(self.S_1432.terms.values()) == {1}
        assert lorentzian_certify(self.S_1432, normalize=True) == LorentzCertificate(4, 3)

    def test_raw_flat_target_takes_the_hessian_route(self, tied_calls):
        assert lorentzian_certify(self.S_1432).failure == HessianFailure(
            (3,), InertiaSignature(2, 0, 2))
        # x1^2 + x1 x2 + x2^2, the quadratic counterexample
        assert lorentzian_certify(schur((2, 0), 2)).failure == HessianFailure(
            (), InertiaSignature(2, 0, 0))
        assert tied_calls == [4, 2]

    def test_flat_support_that_is_not_m_convex_keeps_its_witness(self, tied_calls):
        certificate = lorentzian_certify(poly("vars: 2\nx1^2 + x2^2"), normalize=True)
        assert certificate.failure == SupportNotMConvex((2, 0), (0, 2), 1)
        assert tied_calls == []

    def test_negated_coefficient_fails_the_signs(self, tied_calls):
        terms = dict(self.S_1432.terms)
        terms[(1, 1, 1, 0)] = -terms[(1, 1, 1, 0)]
        certificate = lorentzian_certify(Polynomial(4, terms), normalize=True)
        assert certificate.failure == NegativeCoefficient((1, 1, 1, 0))
        assert tied_calls == []

    def test_doubled_coefficient_reaches_the_tied_pairs(self, tied_calls):
        terms = dict(self.S_1432.terms)
        terms[(1, 1, 1, 0)] *= 2
        h = Polynomial(4, terms)
        certificate = lorentzian_certify(h, normalize=True)
        assert tied_calls == [4]
        assert certificate == lorentzian_certify(normalize(h))


# degrees 2^k - 3 .. 2^k - 1 for k = 3, 4: the packed Hessian keys hold
# fields of (d + 2).bit_length() + 1 bits, which grow at d = 6 and d = 14
HESSIAN_EDGE_DEGREES = [5, 6, 7, 13, 14, 15]


@st.composite
def sparse_block_symmetric_forms(draw):
    """Forms of degree 2^k - 3 .. 2^k - 1 in 2-4 variables, fixed by every
    permutation inside random blocks of consecutive coordinates: x^m, with
    m constant on each block, times a power of each block's sum.  The
    support is M-convex and small.  Every other one has the coefficients of
    one whole orbit multiplied up, which keeps the symmetry and can fail a
    Hessian."""
    n = draw(st.integers(2, 4))
    degree = draw(st.sampled_from(HESSIAN_EDGE_DEGREES))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    ends = [0, *cuts, n]
    blocks = [range(a, b) for a, b in zip(ends, ends[1:])]
    left = degree
    powers = []
    for block in blocks:
        powers.append(draw(st.integers(0, min(left, degree if len(block) <= 2 else 2))))
        left -= powers[-1]
    level = [0] * n
    for position, block in enumerate(blocks):
        share = left // len(block)
        if position < len(blocks) - 1:
            share = draw(st.integers(0, share))
        for k in block:
            level[k] = share
        left -= share * len(block)
    powers[-1] += left  # less than the size of the last block
    h = Polynomial.monomial(n, level)
    for block, power in zip(blocks, powers):
        block_sum = Polynomial(n, {tuple(int(k == i) for k in range(n)): 1 for i in block})
        for _ in range(power):
            h = h * block_sum
    if draw(st.booleans()):
        terms = dict(h.terms)
        exponent = draw(st.sampled_from(sorted(terms)))
        factor = draw(st.integers(2, 30))
        perms = [
            tuple(itertools.chain(*parts))
            for parts in itertools.product(*map(itertools.permutations, blocks))
        ]
        for moved in {tuple(exponent[p] for p in perm) for perm in perms}:
            terms[moved] *= factor
        h = Polynomial(n, terms)
    return h


def _agrees_with_derivative_oracle(h, normalized):
    """``lorentzian_certify(h, normalize=normalized)`` against the unreduced
    derivative walk over the certified polynomial; the oracle's answer."""
    certificate = lorentzian_certify(h, normalize=normalized)
    expected = first_hessian_failure_by_derivatives(normalize(h) if normalized else h)
    if expected is None:
        assert certificate.is_lorentzian
    else:
        assert certificate.failure == HessianFailure(*expected)
    return expected


@pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(sparse_block_symmetric_forms())
def test_packed_assembly_matches_derivative_oracle_at_field_edges(normalized, h):
    assert h.homogeneous_degree() in HESSIAN_EDGE_DEGREES
    _agrees_with_derivative_oracle(h, normalized)


@pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
@pytest.mark.parametrize("degree", HESSIAN_EDGE_DEGREES)
def test_packed_assembly_witness_at_field_edges(degree, normalized):
    # (x1 + x2)^(d-1) x3 with the orbit of x1^(d-2) x2 x3 raised: x1 and x2 stay
    # tied, and a Hessian fails, so the witness is unpacked from its key
    h = Polynomial.monomial(3, (0, 0, 1))
    for _ in range(degree - 1):
        h = h * Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1})
    raised = {(degree - 2, 1, 1), (1, degree - 2, 1)}
    h = Polynomial(3, {e: c * (30 if e in raised else 1) for e, c in h.terms.items()})
    assert _agrees_with_derivative_oracle(h, normalized) is not None


def _answers(h):
    """Every answer the certifier module gives about ``h``."""
    raw, normalized = lorentzian_certify(h), lorentzian_certify(h, normalize=True)
    return (root_direction_violations(h), raw.to_dict(), normalized.to_dict(),
            m_convex_failure(h.terms), verify_certificate(h, raw))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(polynomials_on_root_lines(), polynomials_for_scan(), block_symmetric_forms(),
                 sparse_block_symmetric_forms()),
       st.data())
def test_answers_do_not_depend_on_term_order(h, data):
    # equal polynomials, their terms inserted in another order, get equal
    # answers, witnesses and violation lists included
    items = data.draw(st.permutations(list(h.terms.items())))
    shuffled = Polynomial(h.arity, dict(items))
    assert shuffled == h
    assert _answers(shuffled) == _answers(h)
    assert verify_certificate(h, lorentzian_certify(shuffled))
    assert verify_certificate(shuffled, lorentzian_certify(h))


def test_violations_on_two_lines_are_listed_by_mu():
    # x1^2 + x1 x2 + 3 x2^2 fails at its middle term, and so does the same
    # line times x3; the list is the same for both orders of the two lines
    lower = {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 3}
    upper = {(2, 0, 1): 1, (1, 1, 1): 1, (0, 2, 1): 3}
    for first, second in ((lower, upper), (upper, lower)):
        h = Polynomial(3, {**first, **second})
        assert root_direction_violations(h) == [((1, 1, 0), 1, 2), ((1, 1, 1), 1, 2)]


def test_bool_exponents_are_stored_as_ints():
    # True == 1, so the two are one polynomial, and its witness is plain ints
    h = Polynomial(2, {(True, False): -1})
    assert h == Polynomial(2, {(1, 0): -1})
    assert [type(e) for e in next(iter(h.terms))] == [int, int]
    certificate = lorentzian_certify(h)
    assert certificate.failure == NegativeCoefficient((1, 0))
    assert verify_certificate(h, certificate)


@st.composite
def multiplicity_vectors_of_one_size(draw):
    n = draw(st.integers(1, 6))
    size = draw(st.integers(0, 7))
    pool = [
        tuple(picks.count(i) for i in range(n))
        for picks in itertools.combinations_with_replacement(range(n), size)
    ]
    return draw(st.lists(st.sampled_from(pool), unique=True))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(multiplicity_vectors_of_one_size())
def test_reverse_order_is_sorted_index_order(alphas):
    # the certifier walks its multisets in the first order and reports the
    # first failure of the second
    assert sorted(alphas, reverse=True) == sorted(alphas, key=_multiset_indices)


def _top_level_names(tree):
    """Names that the module ``tree`` defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def test_hot_paths_use_the_integer_kernels():
    package = pathlib.Path(lorentzpoly.__file__).parent
    tests = pathlib.Path(__file__).resolve().parent
    names = {}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                names[path.name, node.name] = {
                    getattr(sub, "id", None) or getattr(sub, "attr", None)
                    for sub in ast.walk(node)
                }
    assert "coefficient" not in names["certify.py", "root_direction_violations"]
    # the witness scan works on bit masks; _exchange_ok re-checks witnesses
    assert "_exchange_ok" not in names["certify.py", "_exchange_scan"]
    # oracles.py defines the Sturm oracle and only the functions it calls
    oracles = {function for module, function in names if module == "oracles.py"}
    reached, queue = set(), ["inertia_by_sturm_bracketing"]
    while queue:
        function = queue.pop()
        if function not in reached:
            reached.add(function)
            queue.extend(names["oracles.py", function] & oracles)
    assert reached == oracles
    # every other second route (Faddeev-LeVerrier, the tableau walks, the
    # Kostant knapsack, the per-point root scan, the piece-by-piece parser
    # and the rest) is defined once, in tests/second_routes.py: no module
    # of the package, oracles.py included, and no demo defines or names one,
    # and no other test module defines one again
    second_routes = _top_level_names(ast.parse((tests / "second_routes.py").read_text()))
    assert {"parse_polynomial_by_pieces", "kostant_partition_by_knapsack",
            "_char_poly_int", "discrete_root_log_concavity"} <= second_routes
    assert not second_routes & oracles
    pattern = re.compile(r"\b(" + "|".join(sorted(second_routes)) + r")\b")
    demos = tests.parent / "demos"
    for path in [*package.glob("*.py"), *demos.glob("*.py")]:
        found = pattern.search(path.read_text(encoding="utf-8"))
        assert found is None, (path.name, found and found.group())
    for path in tests.glob("test_*.py"):
        defined = _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
        assert not defined & second_routes, path.name


def test_package_has_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    package = pathlib.Path(lorentzpoly.__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], (path.name, asserts)


def test_package_has_no_dead_private_helpers():
    # every top-level private function or class of a module is named in some
    # other top-level statement of the package: a call, an attribute or an
    # import; a helper left behind by a refactor fails here
    package = pathlib.Path(lorentzpoly.__file__).parent
    statements = []  # (module, node, the names it reads)
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    names.add(sub.name)
            statements.append((path.name, node, names))
    helpers = [
        (module, node) for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    assert helpers
    dead = [
        (module, node.name) for module, node in helpers
        if not any(node.name in names for _, other, names in statements if other is not node)
    ]
    assert dead == []


def test_only_polynomials_makes_fractions_and_divides_by_factorials():
    # the generators hand int maps to Polynomial._from_ints and divide by
    # mu! only through normalize; the small-Fraction table and the factorial
    # product stay private to polynomials.py
    package = pathlib.Path(lorentzpoly.__file__).parent
    private = {"_SMALL_FRACTIONS", "_factorial_product"}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name in ("schubert.py", "symmetric.py"):
            fraction_imports = [
                node for node in ast.walk(tree)
                if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
                or (isinstance(node, ast.Import)
                    and any(alias.name == "fractions" for alias in node.names))
            ]
            assert fraction_imports == [], path.name
        if path.name != "polynomials.py":
            named = {
                getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "name", None)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            }
            assert named & private == set(), path.name
