"""The rank test and the bit-set exchange scan against the pair-by-pair scan.

``m_convex_failure`` decides through the rank function of the support's
base polyhedron and runs the exchange scan only for the witness, with
``certify._exchange_scan`` checking one point against bit sets of the
positions of all later points.  Both read the columns of the sorted
support, and the scan names its witness by positions.  The slow oracle,
``second_routes.exchange_scan_by_pairs``, builds and looks up the moved
points of every pair.  All must give the same verdict and the same first
witness on every input, and so must ``m_convex_failure`` answering from a
table of support shapes.  The rank test runs first when 2^m <= |S| for m
varying coordinates, or when m <= 7 and 2^m <= 4 |S|; supports of that
band, with one varying coordinate, and on either side of it are checked
apart.  Besides the small sets, the scan meets supports
of more than 64 and more than 256 points, whose bit sets span several
machine words, square-free quadratic supports in up to 64 variables,
coordinates spanning 128 or more, which widen the packed fields, and
failing supports whose first witness lies past the first point.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from lorentzpoly import certify
from lorentzpoly.certify import m_convex_failure
from lorentzpoly.polynomials import normalize
from lorentzpoly.sweeps import (
    FAMILIES,
    FAMILY_TABLE,
    SweepSpec,
    _instances,
    compositions_within,
)
from lorentzpoly.symmetric import schur

from second_routes import exchange_scan_by_pairs
from test_family_table import SWEEPS

GENERATED = settings(max_examples=150, deadline=2000, derandomize=True, database=None)
LARGE = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def scan(points):
    return exchange_scan_by_pairs(sorted(points), set(points))


def assert_agrees(points):
    """Same result as the scan; the rank test alone gives the scan's verdict."""
    expected = scan(points)
    assert m_convex_failure(points) == expected
    assert certify._rank_m_convex(list(zip(*sorted(points)))) == (expected is None)


def scan_points(pts):
    """``certify._exchange_scan`` on the columns of the sorted ``pts``, its
    positions read as points."""
    found = certify._exchange_scan(list(zip(*pts)))
    if found is None:
        return None
    a, b, i = found
    return (pts[a], pts[b], i)


def compositions(total, n):
    return [c for c in compositions_within(total, n) if sum(c) == total]


@st.composite
def linear_form_products(draw):
    """Support of prod_k sum_{i in A_k} x_i: the Minkowski sum of the unit
    vectors e_i, i in A_k, which is M-convex."""
    n = draw(st.integers(2, 6))
    forms = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=4))
    support = {(0,) * n}
    for form in forms:
        support = {
            tuple(v + (k == i) for k, v in enumerate(point))
            for point in support
            for i in form
        }
    return support


@st.composite
def edited_products(draw):
    """A product support with one point removed or one same-degree point added."""
    support = draw(linear_form_products())
    point = next(iter(support))
    if len(support) > 1 and draw(st.booleans()):
        return support - {draw(st.sampled_from(sorted(support)))}
    return support | {draw(st.sampled_from(compositions(sum(point), len(point))))}


@st.composite
def constant_sum_subsets(draw):
    n = draw(st.integers(2, 5))
    pool = compositions(draw(st.integers(1, 4)), n)
    return draw(st.sets(st.sampled_from(pool), min_size=1))


@st.composite
def mixed_sum_sets(draw):
    n = draw(st.integers(1, 5))
    return draw(st.sets(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=12))


@st.composite
def negative_entry_sets(draw):
    """Shifted product supports (still M-convex), edited or not, and loose
    sets of small integer vectors."""
    if draw(st.booleans()):
        support = draw(st.one_of(linear_form_products(), edited_products()))
        shift = draw(st.tuples(*[st.integers(-3, 1)] * len(next(iter(support)))))
        return {tuple(v + s for v, s in zip(point, shift)) for point in support}
    n = draw(st.integers(1, 4))
    return draw(st.sets(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=12))


@st.composite
def thinned_products(draw):
    """A product support with any number of its points removed."""
    support = draw(linear_form_products())
    removed = draw(st.sets(st.sampled_from(sorted(support)), max_size=len(support) - 1))
    return support - removed


def varying(points):
    return sum(min(col) != max(col) for col in zip(*points))


@st.composite
def rank_test_skipped(draw):
    """Sets whose m varying coordinates have 2^m > |S|, so only the scan runs:
    a few points of one degree, of mixed degrees, or with large or negative
    entries."""
    n = draw(st.integers(3, 8))
    if draw(st.booleans()):
        pool = compositions(draw(st.integers(1, 4)), n)
        points = draw(st.sets(st.sampled_from(pool), min_size=2, max_size=7))
    else:
        entry = st.integers(-2, 2) | st.integers(0, 300)
        points = draw(st.sets(st.tuples(*[entry] * n), min_size=2, max_size=7))
    assume(2 ** varying(points) > len(points))
    return points


@GENERATED
@given(st.one_of(thinned_products(), edited_products(), rank_test_skipped()))
def test_bitmask_scan_names_the_oracle_witness(points):
    pts = sorted(points)
    assert scan_points(pts) == exchange_scan_by_pairs(pts, set(points))


def insert_constants(draw, points, count):
    """``points`` with ``count`` coordinates, constant over the set, inserted
    at drawn positions."""
    for _ in range(count):
        at = draw(st.integers(0, len(next(iter(points)))))
        value = draw(st.integers(0, 3))
        points = {p[:at] + (value,) + p[at:] for p in points}
    return points


@st.composite
def with_constant_coordinates(draw):
    """Sets of the shapes above with one to three coordinates, constant over
    the set, inserted at random positions."""
    points = draw(st.one_of(
        linear_form_products(), edited_products(), mixed_sum_sets(), rank_test_skipped()
    ))
    return insert_constants(draw, points, draw(st.integers(1, 3)))


@GENERATED
@given(with_constant_coordinates())
def test_constant_coordinates_keep_the_witness(points):
    """The tests run on the varying coordinates; the witness maps back."""
    assert m_convex_failure(points) == scan(points)


def shape(points):
    """The sorted support with its constant coordinates dropped and each
    other coordinate shifted to least value 0."""
    pts = sorted(set(points))
    varying = [col for col in zip(*pts) if len(set(col)) > 1]
    shifted = [[v - min(col) for v in col] for col in varying]
    return (len(pts), *map(tuple, zip(*shifted)))


@st.composite
def support_streams(draw):
    """Supports that repeat a few bases, failing ones among them: each time
    translated, often to coordinates of 256 or more, with zero to two more
    constant coordinates at drawn positions, in a shuffled order.  A base
    stretched 90-fold spans 256 or more in some coordinate."""
    bases = draw(st.lists(
        st.one_of(with_constant_coordinates(), edited_products(), mixed_sum_sets()),
        min_size=1, max_size=3,
    ))
    if draw(st.booleans()):
        bases.append({tuple(90 * v for v in p) for p in bases[0]})
    stream = []
    for _ in range(draw(st.integers(1, 8))):
        points = draw(st.sampled_from(bases))
        offsets = st.sampled_from([0, 1, -2, 256, 300])
        shift = draw(st.tuples(*[offsets] * len(next(iter(points)))))
        points = {tuple(v + s for v, s in zip(p, shift)) for p in points}
        points = insert_constants(draw, points, draw(st.integers(0, 2)))
        stream.append(draw(st.permutations(sorted(points))))
    return stream


@GENERATED
@given(support_streams())
def test_support_memo_matches_uncached(stream):
    """Every answer through one shared table is the uncached one, witness
    included, and the table keeps one entry per support shape."""
    cache = {}
    for points in stream:
        expected = scan(set(points))
        assert m_convex_failure(points) == expected
        assert m_convex_failure(points, cache) == expected
    assert len(cache) == len({shape(points) for points in stream})


def test_support_memo_keys_on_the_point_count():
    """After the shift both sets list 0,1,1,0,0,1 column by column; only the
    point count tells three columns of two from two columns of three."""
    cache = {}
    for points in ([(0, 1, 0), (1, 0, 1)], [(0, 0), (1, 0), (1, 1)]):
        assert m_convex_failure(points, cache) == scan(set(points)) is not None
    assert len(cache) == 2


@pytest.mark.parametrize("points", [
    [(0, 2, 1), (0, 3, 0), (1, 1, 1), (1, 2, 0), (2, 0, 1), (3, 0, 0)],
    [(0, 1, 2), (1, 0, 2), (1, 1, 1), (2, 1, 0), (3, 0, 0)],
])
def test_witness_led_by_the_earlier_point(points):
    """Rare sets whose first witness has alpha before beta in sorted order:
    the pair passes at its first differing coordinate and fails later."""
    witness = exchange_scan_by_pairs(points, set(points))
    assert witness[0] < witness[1]
    assert scan_points(points) == witness


def multiplied(support, form):
    """The support of a polynomial with ``support`` times sum_{i in form} x_i."""
    return {tuple(v + (k == i) for k, v in enumerate(point)) for point in support for i in form}


@st.composite
def edited_late(draw, support):
    """``support`` as it is, less one point of the later half of its sorted
    order, or with one point added: a point with one to three units moved
    from one coordinate to another."""
    pts = sorted(support)
    edit = draw(st.sampled_from(["keep", "drop", "add"]))
    if edit == "drop":
        return support - {draw(st.sampled_from(pts[len(pts) // 2:]))}
    if edit == "add":
        point = list(draw(st.sampled_from(pts)))
        i, j = draw(st.lists(st.integers(0, len(point) - 1), min_size=2, max_size=2,
                             unique=True))
        units = draw(st.integers(1, 3))
        point[i] -= units
        point[j] += units
        return support | {tuple(point)}
    return support


@st.composite
def products_past_a_word(draw):
    """Product supports of more than 64 or more than 256 points, in 3 to 8
    variables, edited or not."""
    n = draw(st.integers(3, 8))
    least = draw(st.sampled_from([64, 256]))
    support = {(0,) * n}
    while len(support) <= least:
        support = multiplied(support, draw(st.sets(st.integers(0, n - 1), min_size=2,
                                                   max_size=3)))
    return draw(edited_late(support))


def square_free(pairs, n):
    return {tuple(int(k in pair) for k in range(n)) for pair in pairs}


@st.composite
def square_free_supports(draw):
    """Supports x_i x_j (i < j) in 12 to 64 variables, as in the CLI test's
    ``square_free_quadratic``: the first 65 to 300 pairs in lexicographic
    order, or every pair within 12 to 24 variables, which is M-convex;
    edited or not."""
    n = draw(st.integers(12, 64))
    if draw(st.booleans()):
        pairs = list(itertools.combinations(range(n), 2))
        chosen = pairs[: draw(st.integers(65, min(len(pairs), 300)))]
    else:
        within = draw(st.sets(st.integers(0, n - 1), min_size=12, max_size=24))
        chosen = itertools.combinations(sorted(within), 2)
    return draw(edited_late(square_free(chosen, n)))


@st.composite
def late_failures(draw):
    """Every pair within 12 to 24 of 12 to 64 variables, less {u, v} and
    {v, w}, none of u, v, w one of the two largest variables y < z.  Then
    ({u, w}, {v, t}, u) fails for every other t, each of its exchanges
    needing {u, v} or {v, w}, but the first point, {y, z}, passes against
    every other pair, as every pair that holds y or z is in the set."""
    n = draw(st.integers(12, 64))
    within = sorted(draw(st.sets(st.integers(0, n - 1), min_size=12, max_size=24)))
    u, v, w = draw(st.permutations(within[:-2]))[:3]
    pairs = set(itertools.combinations(within, 2)) - {tuple(sorted(e)) for e in ((u, v), (v, w))}
    return square_free(pairs, n)


@st.composite
def wide_segments(draw):
    """The support of (x_i + x_j)^p in 2 to 6 variables, the others held
    at drawn constants, with p from 256 to 300, or from 128 to 160 and
    times a second form: a coordinate spans 128 or more, which widens every
    packed field; edited or not."""
    n = draw(st.integers(2, 6))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    power = draw(st.integers(128, 160) | st.integers(256, 300))
    base = draw(st.tuples(*[st.sampled_from([0, 1, -3, 300])] * n))
    support = {
        tuple(v + t * (k == i) + (power - t) * (k == j) for k, v in enumerate(base))
        for t in range(power + 1)
    }
    if power <= 160:
        support = multiplied(support, draw(st.sets(st.integers(0, n - 1), min_size=2,
                                                   max_size=2)))
    return draw(edited_late(support))


@LARGE
@given(st.one_of(products_past_a_word(), square_free_supports(), wide_segments()))
def test_bitset_scan_past_one_machine_word(points):
    pts = sorted(points)
    assert scan_points(pts) == exchange_scan_by_pairs(pts, points)


@LARGE
@given(late_failures())
def test_bitset_scan_names_a_witness_past_the_first_point(points):
    """The first witness pair starts after position 0, so the scan has
    cleared every set of the earlier points first."""
    pts = sorted(points)
    witness = exchange_scan_by_pairs(pts, points)
    assert witness is not None and min(map(pts.index, witness[:2])) > 0
    assert scan_points(pts) == witness


@GENERATED
@given(linear_form_products())
def test_products_of_linear_forms(points):
    assert m_convex_failure(points) is None
    assert_agrees(points)


@GENERATED
@given(edited_products())
def test_one_point_removed_or_added(points):
    assert_agrees(points)


@GENERATED
@given(constant_sum_subsets())
def test_constant_sum_subsets(points):
    assert_agrees(points)


@GENERATED
@given(mixed_sum_sets())
def test_mixed_sums(points):
    assert_agrees(points)


@GENERATED
@given(negative_entry_sets())
def test_negative_entries(points):
    assert_agrees(points)


@st.composite
def rank_test_band(draw):
    """Supports with m = 3 to 7 varying coordinates and |S| < 2^m <= 4 |S|,
    which the rank test decides before the scan: products of linear forms
    in 3 to 7 variables, as they are, less one point, with one point of
    the same degree added, or with one point raised by a unit vector, so
    that the coordinate sums are not constant."""
    n = draw(st.integers(3, 7))
    forms = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True),
                          min_size=1, max_size=4))
    support = {(0,) * n}
    for form in forms:
        support = multiplied(support, form)
    pts = sorted(support)
    edit = draw(st.sampled_from(["keep", "drop", "add", "raise"]))
    if edit == "drop":
        support = support - {draw(st.sampled_from(pts))}
    elif edit == "add":
        support = support | {draw(st.sampled_from(compositions(len(forms), n)))}
    elif edit == "raise":
        point = list(draw(st.sampled_from(pts)))
        point[draw(st.integers(0, n - 1))] += 1
        support = support | {tuple(point)}
    m = varying(support)
    assume(3 <= m <= 7 and len(support) < 2**m <= 4 * len(support))
    return support


@GENERATED
@given(rank_test_band())
def test_rank_test_band(points):
    assert certify._rank_test_runs(varying(points), len(points))
    assert_agrees(points)


@st.composite
def one_varying_coordinate(draw):
    """Two to five values of one coordinate, the others held at drawn
    constants: m = 1, and never a constant coordinate sum."""
    n = draw(st.integers(1, 3))
    at = draw(st.integers(0, n - 1))
    base = draw(st.tuples(*[st.integers(0, 3)] * n))
    values = draw(st.sets(st.integers(-2, 5), min_size=2, max_size=5))
    return {base[:at] + (v,) + base[at + 1:] for v in values}


@GENERATED
@given(one_varying_coordinate())
def test_one_varying_coordinate(points):
    assert m_convex_failure(points) is not None
    assert_agrees(points)


@pytest.mark.parametrize("family", FAMILIES)
def test_family_supports(family):
    bounds, _ = SWEEPS[family]
    entry = FAMILY_TABLE[family]
    for _, payload in _instances(SweepSpec(family, "certify", bounds)):
        raw = entry.generate(payload)
        for poly in [raw, *(target for _, target in entry.targets(payload, raw))]:
            assert m_convex_failure(poly.terms) == scan(set(poly.terms))


@pytest.mark.parametrize("points", [
    [(0, 0, 1, 1), (1, 1, 0, 0)],
    [(0, 0, 0, 2), (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 0)],
])
def test_rank_function_must_be_submodular(points):
    """Sets that are all the integer points of {y(X) <= r(X), y(V) = r(V)}
    without being M-convex: only the submodularity of r rejects them."""
    assert scan(set(points)) is not None
    assert certify._rank_m_convex(list(zip(*points))) is False


def _refuse(*args):
    raise AssertionError("this route must not run")


def test_scan_decides_when_rank_test_would_cost_more(monkeypatch):
    """{e_1 + e_j : 2 <= j <= 16}: 15 varying coordinates and 15 points."""
    monkeypatch.setattr(certify, "_rank_m_convex", _refuse)
    points = {tuple(int(k in (0, j)) for k in range(16)) for j in range(1, 16)}
    assert m_convex_failure(points) is None


def test_rank_test_decides_without_scan(monkeypatch):
    monkeypatch.setattr(certify, "_exchange_scan", _refuse)
    assert m_convex_failure(normalize(schur((3, 2, 1), 4)).terms) is None


def test_rank_test_decides_in_the_band_without_scan(monkeypatch):
    """The support of (x1 + ... + x7)^3: 84 points in 7 varying
    coordinates, 84 < 2^7 <= 4 * 84."""
    monkeypatch.setattr(certify, "_exchange_scan", _refuse)
    assert m_convex_failure(compositions(3, 7)) is None


def test_scan_decides_past_the_band(monkeypatch):
    """The support of (x1 + ... + x8)^3: 120 points in 8 varying
    coordinates.  2^8 <= 4 * 120, but the band stops at 7 coordinates."""
    monkeypatch.setattr(certify, "_rank_m_convex", _refuse)
    assert m_convex_failure(compositions(3, 8)) is None
