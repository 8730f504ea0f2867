import gc
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentzpoly.certify import is_m_convex
from lorentzpoly.polynomials import Polynomial, normalize, parse_polynomial
from lorentzpoly.schubert import (
    Permutation,
    all_permutations,
    demazure_pi,
    divided_difference,
    grassmannian_for,
    key_polynomial,
    permutation_from_code,
    staircase_monomial,
)
from lorentzpoly.symmetric import (
    Partition,
    SkewShape,
    StrictPartition,
    _kostant_counts,
    complement_partition,
    complete_homogeneous,
    kostant_partition,
    kostka,
    schur,
    schur_p,
    skew_schur,
    verma_truncated_normalized,
)
from lorentzpoly.sweeps import partitions_within

from second_routes import (
    alternant,
    kostant_counts_by_full_check,
    kostant_partition_by_knapsack,
    kostka_by_tableaux,
    schur_p_by_marked_tableaux,
    skew_schur_by_tableaux,
)


def poly(text):
    return parse_polynomial(text)


# -- independent brute-force oracles --------------------------------------


def brute_ssyt_count(shape, weight):
    """Row-major backtracking over the straight shape, no column walk."""
    rows = Partition(shape).parts
    cells = [(r, c) for r in range(len(rows)) for c in range(rows[r])]
    remaining = list(weight)

    def place(k, tableau):
        if k == len(cells):
            return 1
        r, c = cells[k]
        total = 0
        for value in range(1, len(weight) + 1):
            if remaining[value - 1] == 0:
                continue
            if c > 0 and value < tableau[r][c - 1]:
                continue
            if r > 0 and value <= tableau[r - 1][c]:
                continue
            tableau[r][c] = value
            remaining[value - 1] -= 1
            total += place(k + 1, tableau)
            remaining[value - 1] += 1
            tableau[r][c] = 0
        return total

    grid = [[0] * rows[r] for r in range(len(rows))]
    return place(0, grid)


def brute_kostant(v):
    """Enumerate root multisets directly, reverse-lex order, plain bounds."""
    m = len(v)
    roots = [(a, b) for a in range(m) for b in range(a + 1, m)][::-1]
    cap = sum(-x for x in v if x < 0)

    def count(index, target):
        if index == len(roots):
            return 1 if not any(target) else 0
        if max(abs(t) for t in target) > cap * (len(roots) - index):
            return 0
        a, b = roots[index]
        total = 0
        for c in range(cap + 1):
            nxt = list(target)
            nxt[a] += c
            nxt[b] -= c
            total += count(index + 1, nxt)
        return total

    if sum(v) != 0:
        return 0
    return count(0, list(v))


# -- Kostka numbers --------------------------------------------------------


class TestKostka:
    def test_display_coefficient(self):
        assert kostka((2, 0), (1, 1)) == 1

    def test_diagonal_weight_unique(self):
        for lam in ((3,), (2, 1), (3, 2, 2), (4, 1, 1, 1)):
            assert kostka(lam, lam) == 1

    def test_two_tableaux(self):
        assert kostka((2, 1), (1, 1, 1)) == 2

    def test_size_mismatch_gives_zero(self):
        assert kostka((2, 1), (1, 1)) == 0

    def test_weight_symmetry(self):
        rng = random.Random(23)
        for _ in range(20):
            lam = Partition(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
            mu = [rng.randint(0, 2) for _ in range(3)]
            base = kostka(lam, mu)
            for perm in itertools.permutations(mu):
                assert kostka(lam, perm) == base

    def test_matches_brute_force(self):
        for lam in partitions_within(6, 3):
            if not lam.parts:
                continue
            for mu in itertools.product(range(4), repeat=3):
                if sum(mu) == lam.size():
                    assert kostka(lam, mu) == brute_ssyt_count(lam.parts, mu)


# -- the branching rules against the tableau walks ---------------------------


@st.composite
def partitions(draw, boxes, parts):
    rows = draw(st.lists(st.integers(min_value=1, max_value=boxes), max_size=parts))
    while sum(rows) > boxes:
        rows.pop()
    return tuple(sorted(rows, reverse=True))


@st.composite
def skew_shapes(draw, boxes):
    outer = draw(partitions(boxes, boxes))
    inner = []
    for row in outer:
        inner.append(draw(st.integers(min_value=0, max_value=min([row, *inner[-1:]]))))
    return SkewShape(outer, inner)


@st.composite
def strict_partitions(draw, top, parts):
    rows = draw(st.sets(st.integers(min_value=1, max_value=top), max_size=parts))
    return StrictPartition(sorted(rows, reverse=True))


class TestBranchingRules:
    @settings(max_examples=150, deadline=None)
    @given(skew_shapes(9), st.integers(min_value=1, max_value=6))
    def test_skew_schur_matches_tableau_walk(self, shape, m):
        assert skew_schur(shape, m).terms == skew_schur_by_tableaux(shape, m).terms

    @settings(max_examples=150, deadline=None)
    @given(strict_partitions(7, 3), st.integers(min_value=1, max_value=4))
    @example(StrictPartition((7, 6)), 3)  # x^(6,6,1) has coefficient 4
    def test_schur_p_matches_marked_walk(self, lam, m):
        assert schur_p(lam, m).terms == schur_p_by_marked_tableaux(lam, m).terms

    def test_schur_p_joined_strip_rows(self):
        # P_(7,6) -> P_(6,1) -> P_(6): the strip (7,6)/(6,1) has rows 1 and 2
        # joined through mu_1 = lam_2, one piece, weight 2^(1 - 2 + 2) = 2
        assert schur_p((7, 6), 3).coefficient((6, 6, 1)) == 4

    @settings(max_examples=200, deadline=None)
    @given(
        partitions(8, 4),
        st.lists(st.integers(min_value=0, max_value=4), max_size=4),
    )
    def test_kostka_matches_budgeted_walk(self, lam, mu):
        assert kostka(lam, mu) == kostka_by_tableaux(lam, mu)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(skew_shapes(6), st.integers(min_value=1, max_value=5)),
                    min_size=1, max_size=8))
    def test_memo_changes_nothing(self, cases):
        # one memo across shapes, inner shapes and arities, as in a sweep
        cache = {}
        for shape, m in cases:
            assert skew_schur(shape, m, cache) == skew_schur(shape, m)
            assert schur(shape.outer, m, cache) == schur(shape.outer, m)

    def test_memo_keeps_only_lower_levels(self):
        cache = {}
        schur((3, 2, 1), 4, cache)
        assert cache
        assert all(k < 4 for _, _, k in cache)
        p_cache = {}
        schur_p((4, 2, 1), 5, p_cache)
        assert p_cache
        assert all(k < 5 for _, k in p_cache)
        assert schur_p((4, 2, 1), 5, p_cache) == schur_p((4, 2, 1), 5)


class TestSchur:
    def test_row_two(self):
        assert schur((2, 0), 2) == poly("vars: 2\nx1^2 + x1 x2 + x2^2")

    def test_empty_shape(self):
        assert schur((0,), 3) == Polynomial.constant(3, 1)

    def test_too_many_rows_gives_zero(self):
        assert schur((1, 1, 1), 2) == Polynomial.zero(2)

    def test_bialternant_agreement(self):
        # the branching rule satisfies s_lam a_delta = a_{lam + delta} across
        # the full range; a_delta is nonzero, so this pins s_lam down
        for m in range(1, 5):
            delta = [m - j for j in range(1, m + 1)]
            a_delta = alternant(delta, m)
            for lam in partitions_within(8, m):
                shifted = [lam.part(j) + d for j, d in enumerate(delta, start=1)]
                assert schur(lam, m) * a_delta == alternant(shifted, m)

    def test_root_direction_log_concavity_small(self):
        # K^2 >= K(i,j) K(j,i) spot checks on a moderate table
        table = schur((3, 2), 3)
        for mu in table.support():
            for i, j in itertools.combinations(range(1, 4), 2):
                up = list(mu)
                up[i - 1] += 1
                up[j - 1] -= 1
                down = list(mu)
                down[i - 1] -= 1
                down[j - 1] += 1
                lhs = table.coefficient(mu) ** 2
                rhs = (table.coefficient(up) if min(up) >= 0 else 0) * (
                    table.coefficient(down) if min(down) >= 0 else 0
                )
                assert lhs >= rhs


class TestSkewSchur:
    def test_empty_inner_matches_schur(self):
        assert skew_schur(SkewShape((3, 1), ()), 2) == schur((3, 1), 2)

    def test_full_inner_gives_one(self):
        assert skew_schur(SkewShape((2, 2), (2, 2)), 2) == Polynomial.constant(2, 1)

    def test_disconnected_cells(self):
        got = skew_schur(SkewShape((2, 1), (1,)), 2)
        assert got == poly("vars: 2\nx1^2 + 2 x1 x2 + x2^2")

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            SkewShape((1,), (2,))


class TestSchurP:
    def test_single_box(self):
        assert schur_p((1,), 2) == poly("vars: 2\nx1 + x2")

    def test_single_row_single_variable(self):
        assert schur_p((2,), 1) == poly("vars: 1\nx1^2")

    def test_staircase_two_variables(self):
        assert schur_p((2, 1), 2) == poly("vars: 2\nx1^2 x2 + x1 x2^2")

    def test_strictness_enforced(self):
        with pytest.raises(ValueError):
            StrictPartition((2, 2))

    def test_supports_are_m_convex(self):
        for parts in ((1,), (2,), (3, 1), (4, 2, 1), (3, 2, 1)):
            assert is_m_convex(schur_p(parts, 3).support())


class TestCompleteHomogeneous:
    def test_degree_zero(self):
        assert complete_homogeneous(0, 2) == Polynomial.constant(2, 1)

    def test_equals_single_row_schur(self):
        assert complete_homogeneous(2, 2) == schur((2, 0), 2)

    def test_square_of_h1_splits(self):
        h1 = complete_homogeneous(1, 2)
        assert h1 * h1 == schur((2,), 2) + schur((1, 1), 2)

    def test_pieri_product(self):
        mu = (2, 1)
        lhs = complete_homogeneous(2, 2) * complete_homogeneous(1, 2)
        rhs = Polynomial.zero(2)
        for lam in partitions_within(3, 3):
            if lam.size() == 3:
                rhs = rhs + kostka(lam, mu) * schur(lam, 2)
        assert lhs == rhs


@st.composite
def sum_zero_vectors(draw, arities, low, high):
    """Vectors with entries in low..high that sum to zero."""
    m = draw(arities)
    head = draw(
        st.lists(st.integers(low, high), min_size=m - 1, max_size=m - 1)
        .filter(lambda head: low <= -sum(head) <= high)
    )
    at = draw(st.integers(0, m - 1))
    return tuple(head[:at] + [-sum(head)] + head[at:])


class TestKostant:
    def test_zero_vector(self):
        assert kostant_partition((0, 0, 0)) == 1

    def test_two_expressions(self):
        assert kostant_partition((-1, 0, 1)) == 2

    def test_nonzero_sum(self):
        assert kostant_partition((1, 1, 0)) == 0

    def test_brute_force_window(self):
        # exhaustive agreement with direct enumeration up to arity 4
        for m in (2, 3, 4):
            for v in itertools.product(range(-3, 4), repeat=m):
                assert kostant_partition(v) == brute_kostant(v)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sum_zero_vectors(st.integers(5, 6), -3, 3))
    @example((-3, -3, -3, 3, 3, 3))
    def test_matches_the_knapsack_beyond_the_window(self, v):
        assert kostant_partition(v) == kostant_partition_by_knapsack(v)

    def test_expansion_keeps_terms_and_order(self):
        # one interval of viable powers per partial product gives the map
        # of the full check, in its insertion order
        deltas = [d for m in (1, 2, 3) for d in itertools.product(range(5), repeat=m)]
        deltas += list(itertools.product(range(4), repeat=4))
        for delta in deltas:
            expected = kostant_counts_by_full_check(delta)
            assert list(_kostant_counts(delta).items()) == list(expected.items())

    def test_leaves_no_reference_cycles(self):
        # the knapsack memo goes with the call
        v = (-2, -1, 1, 2)
        expected = brute_kostant(v)
        gc.collect()
        gc.disable()
        try:
            assert kostant_partition(v) == expected
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestVerma:
    def test_zero_shift(self):
        assert verma_truncated_normalized((0, 0)) == Polynomial.constant(2, 1)

    def test_two_variable_shift(self):
        got = verma_truncated_normalized((1, 1))
        assert got == poly("vars: 2\nx1 x2 + 1/2 x2^2")

    def test_nothing_truncated_away(self):
        # every weight mu of size |delta| reachable from delta by negative
        # roots appears, with coefficient K(mu - delta) / mu!
        for delta in ((1, 1), (2, 0, 1), (1, 1, 1), (2, 1, 1)):
            expected = {}
            for mu in itertools.product(range(sum(delta) + 1), repeat=len(delta)):
                if sum(mu) != sum(delta):
                    continue
                count = brute_kostant(tuple(a - b for a, b in zip(mu, delta)))
                if count:
                    mu_factorial = 1
                    for e in mu:
                        mu_factorial *= math.factorial(e)
                    expected[mu] = Fraction(count, mu_factorial)
            assert verma_truncated_normalized(delta).terms == expected, delta

    def test_terms_are_knapsack_counts_over_factorials(self):
        # K(mu - delta) / mu! at every mu >= 0 of size |delta|, at arity 5
        rng = random.Random(5)
        deltas = [(1, 1, 1, 1, 1)] + [
            tuple(rng.randint(0, 2) for _ in range(5)) for _ in range(8)
        ]
        for delta in deltas:
            expected = {}
            for mu in itertools.product(range(sum(delta) + 1), repeat=5):
                if sum(mu) != sum(delta):
                    continue
                count = kostant_partition_by_knapsack(
                    tuple(a - b for a, b in zip(mu, delta))
                )
                if count:
                    expected[mu] = Fraction(count, math.prod(map(math.factorial, mu)))
            assert verma_truncated_normalized(delta).terms == expected, delta

    def test_homogeneous_of_shift_degree(self):
        for delta in ((1, 1), (2, 1, 0), (1, 1, 1, 1)):
            got = verma_truncated_normalized(delta)
            assert got.homogeneous_degree() == sum(delta)

    def test_unit_shift_certifies(self):
        from lorentzpoly.certify import lorentzian_certify

        assert lorentzian_certify(verma_truncated_normalized((1, 1, 1))).is_lorentzian

    def test_coefficients_match_kostant_counts(self):
        # before normalization the coefficient at mu is the number of ways
        # of reaching mu - delta by negative roots
        delta = (2, 1, 1)
        got = verma_truncated_normalized(delta)
        for exponent, coeff in got.terms.items():
            v = tuple(e - d for e, d in zip(exponent, delta))
            count = kostant_partition(v)
            mu_factorial = 1
            for e in exponent:
                for k in range(2, e + 1):
                    mu_factorial *= k
            assert coeff == Fraction(count, mu_factorial)


class TestComplement:
    def test_self_complementary(self):
        assert complement_partition((2, 0), 2, 2) == Partition((2, 0))

    def test_single_column(self):
        assert complement_partition((1, 0), 2, 1) == Partition((1, 0))

    def test_box_too_small(self):
        with pytest.raises(ValueError):
            complement_partition((3,), 2, 2)

    def test_duality_identity(self):
        lam = Partition((2, 1))
        kappa = complement_partition(lam, 2, 3)
        assert schur(lam, 2).dualize((3, 3)) == schur(kappa, 2)

    def test_normalized_duality_reflects(self):
        # N(s_kappa) is the reflected normalized form used by the dual family
        lam = Partition((2, 1))
        kappa = complement_partition(lam, 2, 3)
        assert normalize(schur(lam, 2).dualize((3, 3))) == normalize(schur(kappa, 2))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Partition((2.7, 1)), id="Partition"),
    pytest.param(lambda: Partition((Fraction(2), 1)), id="Partition-Fraction"),
    pytest.param(lambda: StrictPartition((2.5, 1)), id="StrictPartition"),
    pytest.param(lambda: Permutation((1.0, 2.0)), id="Permutation"),
    pytest.param(lambda: key_polynomial((1.9, 0)), id="key_polynomial"),
    pytest.param(lambda: verma_truncated_normalized((1.5, 0)), id="verma"),
    pytest.param(lambda: kostant_partition((0.5, -0.5)), id="kostant_partition"),
    pytest.param(lambda: kostka((2, 1), (1.5, 1.5)), id="kostka-weight"),
    pytest.param(lambda: kostka((2.0, 1), (2, 1)), id="kostka-shape"),
    pytest.param(lambda: grassmannian_for((1.5,), 1, 3), id="grassmannian_for"),
    pytest.param(lambda: permutation_from_code((1.0, 0, 0)), id="permutation_from_code"),
    pytest.param(lambda: Polynomial.monomial(2, (1, 0)).dualize((1.5, 1)), id="dualize"),
])
def test_non_integer_entries_are_refused(build):
    # int() would truncate them; a ValueError makes the command line exit 2
    with pytest.raises(ValueError, match="entries must be integers"):
        build()


def test_non_integer_variable_count_is_refused():
    with pytest.raises(ValueError, match=r"m must be an integer, got 2\.0"):
        schur(Partition((1,)), 2.0)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Polynomial.zero(2.0), id="zero"),
    pytest.param(lambda: Polynomial.constant(1.5, 1), id="constant"),
    pytest.param(lambda: Polynomial.variable(2.0, 1), id="variable-arity"),
    pytest.param(lambda: Polynomial.variable(2, 1.0), id="variable-index"),
    pytest.param(lambda: Polynomial.zero(2).with_arity(3.0), id="with_arity"),
    pytest.param(lambda: Polynomial.zero(2).partial_derivative(1.0), id="partial_derivative"),
    pytest.param(lambda: divided_difference(Polynomial.zero(2), 1.0), id="divided_difference"),
    pytest.param(lambda: demazure_pi(Polynomial.zero(2), 1.0), id="demazure_pi"),
    pytest.param(lambda: Polynomial.zero(2).homogeneous_component(0.5), id="component"),
    pytest.param(lambda: Permutation.identity(3.0), id="identity"),
    pytest.param(lambda: Permutation.longest(3.0), id="longest"),
    pytest.param(lambda: list(all_permutations(2.0)), id="all_permutations"),
    pytest.param(lambda: staircase_monomial(3.0), id="staircase_monomial"),
    pytest.param(lambda: grassmannian_for((1,), 1.0, 3), id="grassmannian_for-m"),
    pytest.param(lambda: grassmannian_for((1,), 1, 3.0), id="grassmannian_for-n"),
    pytest.param(lambda: skew_schur(SkewShape(Partition((2,)), Partition((1,))), 2.0),
                 id="skew_schur"),
    pytest.param(lambda: schur_p((2, 1), 2.0), id="schur_p"),
    pytest.param(lambda: complete_homogeneous(2.0, 2), id="complete_homogeneous-k"),
    pytest.param(lambda: complete_homogeneous(2, 2.0), id="complete_homogeneous-m"),
    pytest.param(lambda: complement_partition((1,), 2.0, 3), id="complement_partition-m"),
    pytest.param(lambda: complement_partition((1,), 2, 3.0), id="complement_partition-ell"),
])
def test_non_integer_counts_are_refused(build):
    # a count is read like an entry: ValueError, naming the argument
    with pytest.raises(ValueError, match="must be an integer"):
        build()
