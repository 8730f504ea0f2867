import gc
import hashlib
import importlib
import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from lorentzpoly.polynomials import Polynomial, parse_polynomial
from lorentzpoly.schubert import (
    Permutation,
    RootPath,
    _covers_below,
    all_permutations,
    avoids_pattern,
    degree_polynomial,
    demazure_pi,
    descent_tree,
    divided_difference,
    grassmannian_for,
    grothendieck,
    grothendieck_component,
    homogeneous_grothendieck,
    key_polynomial,
    lehmer_code,
    permutation_from_code,
    schubert,
    schubert_dual,
    staircase_monomial,
)
from lorentzpoly.symmetric import Partition, schur
from lorentzpoly.sweeps import compositions_within

from second_routes import (
    degree_polynomial_by_levels,
    demazure_pi_by_product,
    lower_covers_by_length,
)

# the package exports a function of the same name
schubert_module = importlib.import_module("lorentzpoly.schubert")


def poly(text):
    return parse_polynomial(text)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))

    def test_length_counts_inversions(self):
        assert Permutation((3, 2, 1)).length() == 3
        assert Permutation.identity(4).length() == 0
        assert Permutation.longest(4).length() == 6

    def test_lehmer_code(self):
        assert lehmer_code(Permutation((3, 2, 1))) == (2, 1, 0)
        assert lehmer_code(Permutation((2, 4, 1, 3))) == (1, 2, 0, 0)

    def test_code_round_trip(self):
        for w in all_permutations(4):
            assert permutation_from_code(lehmer_code(w)) == w

    def test_from_string_forms(self):
        assert Permutation.from_string("1432") == Permutation((1, 4, 3, 2))
        assert Permutation.from_string("1,4,3,2") == Permutation((1, 4, 3, 2))

    def test_from_string_rejects_ambiguous_digits(self):
        with pytest.raises(ValueError, match="comma form"):
            Permutation.from_string("12345678910")
        ten = Permutation.from_string("1,2,3,4,5,6,7,8,9,10")
        assert ten == Permutation(range(1, 11))

    def test_helpers_only_tests_called_are_gone(self):
        # the tests compute ascents, the identity check and per-variable
        # degrees inline
        assert not hasattr(Permutation, "ascents")
        assert not hasattr(Permutation, "is_identity")
        assert not hasattr(Polynomial, "degree_in")


class TestDividedDifference:
    def test_kills_to_one(self):
        assert divided_difference(Polynomial.variable(2, 1), 1) == Polynomial.constant(2, 1)

    def test_second_variable_gives_minus_one(self):
        assert divided_difference(Polynomial.variable(2, 2), 1) == Polynomial.constant(2, -1)

    def test_cubic_example(self):
        assert divided_difference(poly("vars: 2\nx1^2 x2"), 1) == poly("vars: 2\nx1 x2")

    def test_symmetric_input_gives_zero(self):
        assert divided_difference(poly("vars: 2\nx1 x2"), 1) == Polynomial.zero(2)


@st.composite
def small_polynomials(draw):
    """Arity 2-5, exponents 0-6, integer and rational coefficients of both signs."""
    arity = draw(st.integers(2, 5))
    exponents = st.tuples(*[st.integers(0, 6)] * arity)
    coeffs = st.one_of(
        st.integers(-30, 30),
        st.fractions(min_value=-10, max_value=10, max_denominator=12),
    )
    return Polynomial(arity, draw(st.dictionaries(exponents, coeffs, max_size=8)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(small_polynomials())
def test_divided_difference_matches_its_definition(p):
    # (x_i - x_{i+1}) d_i p = p - s_i p, with s_i p by simultaneous renaming,
    # and d_i d_i = 0
    n = p.arity
    for i in range(1, n):
        image = divided_difference(p, i)
        swapped = p.specialize({i: f"x{i + 1}", i + 1: f"x{i}"})
        difference = Polynomial.variable(n, i) - Polynomial.variable(n, i + 1)
        assert difference * image == p - swapped
        assert divided_difference(image, i) == Polynomial.zero(n)
    for i in (0, n):
        with pytest.raises(ValueError):
            divided_difference(p, i)


@st.composite
def int_term_maps(draw):
    """(arity, map): arity 2-5, total degree at most 6, nonzero int
    coefficients of both signs, as the ascent recursion carries them."""
    arity = draw(st.integers(2, 5))
    exponents = st.lists(st.integers(0, arity - 1), max_size=6).map(
        lambda factors: tuple(factors.count(k) for k in range(arity))
    )
    coeffs = st.integers(-30, 30).filter(bool)
    return arity, draw(st.dictionaries(exponents, coeffs, max_size=8))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(int_term_maps())
def test_map_operators_match_their_polynomial_definitions(drawn):
    arity, terms = drawn
    p = Polynomial(arity, terms)
    for i in range(1, arity):
        swap = {i: f"x{i + 1}", i + 1: f"x{i}"}
        difference = Polynomial.variable(arity, i) - Polynomial.variable(arity, i + 1)
        shifted = Polynomial.variable(arity, i) * p
        divided = schubert_module._divided_terms(terms, i)
        key = schubert_module._key_terms(terms, i)
        pi = schubert_module._pi_terms(terms, i)
        # (x_i - x_{i+1}) d_i q = q - s_i q, for q = p and for q = x_i p
        assert difference * Polynomial(arity, divided) == p - p.specialize(swap)
        assert difference * Polynomial(arity, key) == shifted - shifted.specialize(swap)
        assert pi == demazure_pi_by_product(p, i).terms
        for image in (divided, key, pi):
            assert all(type(c) is int and c for c in image.values())
        assert demazure_pi(p, i) == demazure_pi_by_product(p, i)


class TestDemazurePi:
    def test_on_first_variable(self):
        assert demazure_pi(Polynomial.variable(2, 1), 1) == Polynomial.constant(2, 1)

    def test_on_constant(self):
        # d_1(1) - d_1(x2) = 0 - (-1) = 1
        assert demazure_pi(Polynomial.constant(2, 1), 1) == Polynomial.constant(2, 1)

    def test_idempotent_on_images(self):
        rng = random.Random(41)
        for _ in range(20):
            terms = {
                tuple(rng.randint(0, 3) for _ in range(3)): Fraction(rng.randint(-4, 4))
                for _ in range(5)
            }
            p = Polynomial(3, terms)
            i = rng.randint(1, 2)
            image = demazure_pi(p, i)
            assert demazure_pi(image, i) == image


class TestSchubert:
    def test_longest_is_staircase(self):
        assert schubert(Permutation((3, 2, 1))) == poly("vars: 3\nx1^2 x2")
        assert staircase_monomial(4) == poly("vars: 4\nx1^3 x2^2 x3")

    def test_identity_is_one(self):
        assert schubert(Permutation.identity(3)) == Polynomial.constant(3, 1)

    def test_simple_sum(self):
        assert schubert(Permutation((1, 3, 2))) == poly("vars: 3\nx1 + x2")

    def test_path_independence(self):
        # recompute along the largest-ascent path instead of the smallest
        def schubert_largest_path(w):
            ascents = [i for i in range(1, w.n) if w(i) < w(i + 1)]
            if not ascents:
                return staircase_monomial(w.n)
            i = ascents[-1]
            return divided_difference(schubert_largest_path(w.swap_positions(i, i + 1)), i)

        for w in all_permutations(4):
            assert schubert(w) == schubert_largest_path(w)

    def test_degree_is_length_and_coefficients_positive_integers(self):
        cache = {}
        for w in all_permutations(5):
            s = schubert(w, cache)
            assert s.total_degree() == w.length()
            assert s.homogeneous_degree() == w.length() or not s.terms
            for coeff in s.terms.values():
                assert coeff.denominator == 1 and coeff > 0

    def test_long_permutation_needs_no_recursion_depth(self):
        # 2,1,3,...,50 is 1,224 swaps below w_0, more than the stack allows
        # one frame each
        w = Permutation((2, 1, *range(3, 51)))
        x1 = Polynomial.variable(50, 1)
        assert schubert(w) == x1
        assert grothendieck(w) == x1
        cache = {}
        assert schubert(w, cache) == x1
        assert len(cache) == Permutation.longest(50).length() - w.length() + 1

    def test_cache_holds_the_climbed_path(self, monkeypatch):
        # each tuple from w up its smallest ascents to w_0 gets an entry: the
        # int term map of its polynomial
        applied = []
        divided_terms = schubert_module._divided_terms

        def counted(terms, i):
            applied.append(i)
            return divided_terms(terms, i)

        monkeypatch.setattr(schubert_module, "_divided_terms", counted)
        for w in all_permutations(4):
            cache = {}
            applied.clear()
            result = schubert(w, cache)
            path, line = [], w.one_line
            while True:
                path.append(line)
                ascent = next((i for i in range(1, len(line)) if line[i - 1] < line[i]), None)
                if ascent is None:
                    break
                line = line[: ascent - 1] + (line[ascent], line[ascent - 1]) + line[ascent + 1 :]
            assert set(cache) == set(path)
            assert len(applied) == len(path) - 1
            assert cache[w.one_line] == result.terms
            assert all(type(c) is int for terms in cache.values() for c in terms.values())
            # a second call from a tuple on the path applies no operator
            applied.clear()
            for line in path:
                assert schubert(Permutation(line), cache).terms == cache[line]
            assert applied == []


def _parent(line):
    """w with positions i, i+1 swapped at its smallest ascent i; None at w_0."""
    for i in range(1, len(line)):
        if line[i - 1] < line[i]:
            return line[: i - 1] + (line[i], line[i - 1]) + line[i + 1 :]
    return None


_UNCACHED = {}


def _uncached(family, line):
    """The generator's result with no memo, computed once per tuple."""
    key = (family.__name__, line)
    if key not in _UNCACHED:
        _UNCACHED[key] = family(Permutation(line))
    return _UNCACHED[key]


@st.composite
def request_orders(draw):
    # S_n in lexicographic order, shuffled, or as a drawn run with repeats
    n = draw(st.integers(1, 6))
    lines = list(itertools.permutations(range(1, n + 1)))
    kind = draw(st.sampled_from(["lexicographic", "shuffled", "drawn"]))
    if kind == "shuffled":
        lines = draw(st.permutations(lines))
    elif kind == "drawn":
        lines = draw(st.lists(st.sampled_from(lines), min_size=1, max_size=60))
    return n, lines


class TestRootPath:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_descent_tree_is_a_preorder_of_s_n(self, n):
        lines = list(descent_tree(n))
        assert sorted(lines) == list(itertools.permutations(range(1, n + 1)))
        assert lines[0] == tuple(range(n, 0, -1))
        # every node comes after its parent, while the parent is still on
        # the path from w_0 to the node before it: a node of length l has
        # n(n-1)/2 - l ancestors there
        path = []
        for line in lines:
            while path and path[-1] != _parent(line):
                path.pop()
            assert len(path) == n * (n - 1) // 2 - Permutation(line).length(), line
            path.append(line)

    def test_preorder_applies_one_operator_per_permutation(self, monkeypatch):
        applied = []
        divided_terms = schubert_module._divided_terms

        def counted(terms, i):
            applied.append(i)
            return divided_terms(terms, i)

        monkeypatch.setattr(schubert_module, "_divided_terms", counted)
        memo = RootPath()
        for line in descent_tree(6):
            expected = _uncached(schubert, line)
            applied.clear()
            assert schubert(Permutation(line), memo) == expected
            length = Permutation(line).length()
            assert len(applied) == (length < 15)  # none at w_0
            assert len(memo) == 15 - length + 1

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(request_orders())
    def test_results_match_the_uncached_ones(self, order):
        n, lines = order
        bound = n * (n - 1) // 2 + 1
        for family in (schubert, grothendieck):
            memo = RootPath()
            for line in lines:
                assert family(Permutation(line), memo) == _uncached(family, line), line
                assert len(memo) <= bound
                # the memo holds one chain from w_0 down to ``line``
                keys = list(memo)
                assert keys[0] == tuple(range(n, 0, -1)) and keys[-1] == line
                assert all(_parent(low) == high for high, low in zip(keys, keys[1:]))


class TestSchubertDual:
    def test_identity_two_variables(self):
        assert schubert_dual(Permutation.identity(2)) == poly("vars: 2\nx1 x2")

    def test_transposition_two_variables(self):
        assert schubert_dual(Permutation((2, 1))) == poly("vars: 2\nx2")

    def test_degree_complements_length(self):
        for w in all_permutations(4):
            dual = schubert_dual(w)
            assert dual.homogeneous_degree() == 4 * 3 - w.length()


class TestGrothendieck:
    def test_longest_is_staircase(self):
        assert grothendieck(Permutation((3, 2, 1))) == poly("vars: 3\nx1^2 x2")

    def test_identity_is_one(self):
        assert grothendieck(Permutation.identity(4)) == Polynomial.constant(4, 1)

    def test_132_display(self):
        assert grothendieck(Permutation((1, 3, 2))) == poly("vars: 3\nx1 + x2 - x1 x2")

    def test_path_independence(self):
        def grothendieck_largest_path(w):
            ascents = [i for i in range(1, w.n) if w(i) < w(i + 1)]
            if not ascents:
                return staircase_monomial(w.n)
            i = ascents[-1]
            return demazure_pi(grothendieck_largest_path(w.swap_positions(i, i + 1)), i)

        for w in all_permutations(4):
            assert grothendieck(w) == grothendieck_largest_path(w)

    def test_lowest_component_is_schubert(self):
        for w in all_permutations(4):
            assert grothendieck_component(w, 0) == schubert(w)

    def test_component_signs_alternate(self):
        cache = {}
        for w in all_permutations(4):
            g = grothendieck(w, cache)
            ell = w.length()
            top = g.total_degree()
            for k in range(0, top - ell + 1):
                component = g.homogeneous_component(ell + k)
                for coeff in component.terms.values():
                    assert coeff * (-1) ** k > 0

    def test_non_integer_component_rejected(self):
        with pytest.raises(ValueError, match=r"k must be an integer, got 0\.5"):
            grothendieck_component(Permutation((1, 3, 2)), 0.5)

    def test_out_of_range_component_is_zero(self):
        w = Permutation((1, 3, 2))
        assert grothendieck_component(w, 9) == Polynomial.zero(3)

    def test_homogeneous_version(self):
        w = Permutation((1, 3, 2))
        # x1 + x2 - x1 x2 homogenizes to z(x1 + x2) + x1 x2 in 4 variables
        assert homogeneous_grothendieck(w) == poly("vars: 4\nx1 x2 + x1 x4 + x2 x4")
        wo = Permutation((3, 2, 1))
        assert homogeneous_grothendieck(wo) == poly("vars: 4\nx1^2 x2")

    def test_homogeneous_specializes_to_alternating_sum(self):
        # setting z = 1 collapses to the sign-alternated component sum
        cache = {}
        for w in all_permutations(4):
            homog = homogeneous_grothendieck(w, cache)
            collapsed = homog.specialize({5: 1})
            g = grothendieck(w, cache)
            ell = w.length()
            expected = Polynomial.zero(4)
            for k in range(0, g.total_degree() - ell + 1):
                expected = expected + g.homogeneous_component(ell + k) * ((-1) ** k)
            assert collapsed == expected.with_arity(5)
            # the top z layer carries the Schubert polynomial
            d = g.total_degree()
            top_layer = Polynomial(
                4,
                {
                    e[:4]: c
                    for e, c in homog.terms.items()
                    if e[4] == d - ell
                },
            )
            assert top_layer == schubert(w, {})


class TestKeyPolynomials:
    def test_partition_gives_monomial(self):
        assert key_polynomial((2, 1)) == poly("vars: 2\nx1^2 x2")

    def test_single_ascent(self):
        assert key_polynomial((0, 1)) == poly("vars: 2\nx1 + x2")

    def test_weakly_increasing_is_schur(self):
        assert key_polynomial((0, 2)) == schur((2,), 2)
        assert key_polynomial((0, 1, 2)) == schur((2, 1), 3)
        assert key_polynomial((1, 1, 3)) == schur((3, 1, 1), 3)

    def test_matches_own_sorting_recursion(self):
        # reference: the sort toward a partition written out on its own, 0-based
        def build(comp):
            n = len(comp)
            for i in range(n - 1):
                if comp[i] < comp[i + 1]:
                    swapped = comp[:i] + (comp[i + 1], comp[i]) + comp[i + 2 :]
                    inner = Polynomial.variable(n, i + 1) * build(swapped)
                    return divided_difference(inner, i + 1)
            return Polynomial.monomial(n, comp)

        compositions = list(compositions_within(5, 4))
        assert len(compositions) == 126
        for mu in compositions:
            assert key_polynomial(mu) == build(mu), mu


def test_generators_are_pinned():
    # sha256 of every term map, insertion order included only as a
    # fingerprint of the generators: no answer depends on the order.  The
    # caches are shared the way a sweep shares them.
    digest = hashlib.sha256()
    schubert_cache, grothendieck_cache = {}, {}
    for w in all_permutations(5):
        for p in (
            schubert(w, schubert_cache),
            schubert_dual(w, schubert_cache),
            grothendieck(w, grothendieck_cache),
            homogeneous_grothendieck(w, grothendieck_cache),
        ):
            digest.update(repr((p.arity, list(p.terms.items()))).encode())
    for mu in compositions_within(5, 4):
        p = key_polynomial(mu)
        digest.update(repr((p.arity, list(p.terms.items()))).encode())
    assert digest.hexdigest() == (
        "d6d22188b2dad4832071e411526f62223b16511b4a4a2f1cd361f6edaccc34c1"
    )


class TestDegreePolynomials:
    def test_identity_is_one(self):
        assert degree_polynomial(Permutation.identity(3)) == Polynomial.constant(2, 1)

    def test_simple_transposition(self):
        assert degree_polynomial(Permutation((2, 1))) == poly("vars: 1\nx1")

    def test_longest_in_s3(self):
        d = degree_polynomial(Permutation((3, 2, 1)))
        assert d == poly("vars: 2\n3 x1^2 x2 + 3 x1 x2^2")
        from lorentzpoly.certify import lorentzian_certify

        assert lorentzian_certify(d).is_lorentzian

    def test_trivial_group(self):
        assert degree_polynomial(Permutation((1,))) == Polynomial.constant(1, 1)

    def test_degree_and_positivity(self):
        for w in all_permutations(4):
            d = degree_polynomial(w)
            if w == Permutation.identity(w.n):
                continue
            assert d.homogeneous_degree() == w.length()
            assert all(c > 0 for c in d.terms.values())

    def test_chain_counts_match_memoized_recursion(self):
        # plain DFS chain count against a cached bottom-up count
        def dfs_chains(u):
            if u == Permutation.identity(u.n):
                return 1
            return sum(dfs_chains(lower) for lower, _, _ in lower_covers_by_length(u))

        cached = {Permutation.identity(4).one_line: 1}

        def dp_chains(u):
            if u.one_line in cached:
                return cached[u.one_line]
            value = sum(dp_chains(lower) for lower, _, _ in lower_covers_by_length(u))
            cached[u.one_line] = value
            return value

        for w in all_permutations(4):
            assert dfs_chains(w) == dp_chains(w)

    def test_matches_oracle_in_s4(self):
        for w in all_permutations(4):
            assert degree_polynomial(w) == degree_polynomial_by_levels(w), w

    def test_matches_oracle_in_s5(self):
        for w in all_permutations(5):
            assert degree_polynomial(w) == degree_polynomial_by_levels(w), w

    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(st.permutations(range(1, 7)))
    def test_matches_oracle_in_s6(self, line):
        w = Permutation(line)
        assert degree_polynomial(w) == degree_polynomial_by_levels(w)

    def test_leaves_no_reference_cycles(self):
        # the memo of the Bruhat interval goes with the call
        gc.collect()
        gc.disable()
        try:
            degree_polynomial(Permutation((5, 4, 3, 2, 1)))
            assert gc.collect() == 0
        finally:
            gc.enable()


def covers_below(w):
    """The production lower covers of w as (lower, i, j), 1-based."""
    return [(Permutation(lower), i + 1, j + 1) for lower, i, j in _covers_below(w.one_line)]


class TestBruhatCovers:
    def test_identity_covers(self):
        # the identity covers nothing; s_i covers only the identity, via (i, i+1)
        assert covers_below(Permutation.identity(3)) == []
        assert covers_below(Permutation((1, 3, 2))) == [(Permutation.identity(3), 2, 3)]

    def test_each_cover_raises_length_by_one(self):
        for w in all_permutations(4):
            for lower, _, _ in covers_below(w):
                assert lower.length() == w.length() - 1

    def test_cover_labels_unique(self):
        # the transposition joining a cover pair is lower^-1 upper, so at most
        # one (i, j) can witness any pair
        for w in all_permutations(4):
            lowers = [lower for lower, _, _ in covers_below(w)]
            assert len(set(lowers)) == len(lowers)

    def test_matches_length_rule(self):
        for n in range(1, 7):
            for w in all_permutations(n):
                assert covers_below(w) == lower_covers_by_length(w), w


class TestGrassmannianAndPatterns:
    def test_known_code(self):
        w = grassmannian_for(Partition((2, 1)), 2, 4)
        assert w == Permutation((2, 4, 1, 3))
        assert lehmer_code(w) == (1, 2, 0, 0)

    def test_schubert_equals_schur(self):
        kappa = Partition((2, 1))
        w = grassmannian_for(kappa, 2, 4)
        assert schubert(w) == schur(kappa, 2).with_arity(4)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            grassmannian_for(Partition((3,)), 2, 4)

    def test_non_partition_rejected(self):
        # code (2, 1, 0, 0) has descents at 1 and 2; raised, not asserted
        with pytest.raises(ValueError):
            grassmannian_for((1, 2), 2, 4)

    def test_short_permutations_avoid_long_patterns(self):
        for n in (1, 2, 3):
            for w in all_permutations(n):
                assert avoids_pattern(w, Permutation((1, 4, 2, 3)))
                assert avoids_pattern(w, Permutation((1, 4, 3, 2)))

    def test_pattern_containment(self):
        assert not avoids_pattern(Permutation((2, 5, 3, 4, 1)), Permutation((1, 4, 2, 3)))
        assert avoids_pattern(Permutation((3, 2, 1)), Permutation((1, 2, 3)))
