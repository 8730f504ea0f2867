"""Exact decision procedures for the Lorentzian property and log-concavity.

A homogeneous polynomial of degree d with nonnegative coefficients is
Lorentzian when its support satisfies the symmetric exchange axiom
(M-convexity) and, for every multiset of d - 2 derivative indices, the
resulting quadratic form has at most one positive eigenvalue.  Degree at
most 1 and the zero polynomial are Lorentzian exactly when coefficients
are nonnegative and the support is M-convex.

Eigenvalue sign counts are computed exactly by congruence elimination.
Scale the rational symmetric matrix to integers (inertia is invariant under
positive scaling).  A nonzero diagonal pivot p is counted by its sign and
eliminated: the remaining block becomes sign(p) (p a_ij - a_ik a_kj), which
is congruent to |p| times the Schur complement, so by Sylvester's law of
inertia the sign counts of the rest are unchanged.  The block is then
divided by the gcd of its entries, as in Bareiss's fraction-free
elimination (Math. Comp. 22, 1968), which keeps the integers small.  When
every remaining diagonal entry is zero but some a_ij is not, the
substitution x_i <- x_i + x_j (adding row and column j to i) makes the new
diagonal entry 2 a_ij.  Once the block is all zero, its size is the count
of zero eigenvalues.

M-convexity is decided by the rank function r(X) = max_{x in S} x(X) of
the support S over the 2^m subsets X of its m varying coordinates.  A set
with constant coordinate sum is M-convex exactly when it is the set of
integer points of an integral base polyhedron (Murota, Discrete Convex
Analysis, SIAM 2003, ch. 4), that is, when r is submodular and S is all of
B(r) = {y : y(X) <= r(X), y(V) = r(V)} in Z^m.  The integer points of
B(r) are walked depth-first, one coordinate at a time, within the bounds
that the projections of B(r) put on it; at the last walked coordinate the
points of its range are looked up in place, and the walk stops at the
first point outside S.  Coordinates constant over S never move in an
exchange, so they are dropped first, for the rank test and the scan alike.
The rank test runs when 2^m <= |S|, or when m <= 7 and 2^m <= 4 |S|, and
both bounds come from timing the two routes.  On small supports the rank
test is the faster: the supports of the benchmark's Schubert sweeps that
the first bound alone leaves to the scan have m = 2 to 5 and at most 31
points, and the rank test decides them in about two thirds of the scan's
time.  Past m = 7 the band does not pay: on (x_1 + ... + x_8)^3, 120
points, the rank test takes 5 ms and the scan 4 ms.  From m = 9 the scan
is the faster even where 2^m <= |S|, as on h_5 in 13 variables, 6,188
points, 3.8 s against 0.7 s (2-vCPU Xeon, Python 3.11.7); the first bound
stays there, as it also fixes which supports ``lorentz certify`` refuses
as too large to scan.  The scan of the exchange axiom runs only to find
the lexicographically first witness once the answer is "no", or when the
rank test is skipped.  It takes the points in sorted order, and each point
a meets all later points at once, as bit sets of their positions: for
each i, the later b with b_i < a_i fail (a, b, i) unless some j with
a - e_i + e_j in S and b_j > a_j has b + e_i - e_j in S, and the later b
with b_i > a_i fail (b, a, i) unless some j with a + e_i - e_j in S and
b_j < a_j has b - e_i + e_j in S.  The points below and above each value
of each coordinate are bit sets made once; the points b with
b + e_i - e_j in S are one bit set, made on its first read and shared by
every a.  Packing each point into one integer, a field per coordinate,
gives the neighbours x +- e_j by one addition.  The lowest position left,
then the smallest index, names the pair and index that a scan of the
pairs in order meets first.

The answer for a support S decides every support that equals S once the
coordinates constant over each are dropped and each remaining coordinate
is shifted to least value 0.  The exchange axiom moves only varying
coordinates and compares only differences of points, so a translate of S
is M-convex exactly when S is, and the rank test, an exact decision, gives
both the same verdict; the scan packs each point relative to the least
value of every coordinate, so it reads the same keys for both and names
the same pair and index.  Dropping and shifting keep the sorted order of
the points, so a witness kept as two positions in the sorted support and
an index among its varying coordinates is read off any support with the
same reduced form, by its own points and its own varying coordinates.  A
sweep meets far fewer reduced forms than supports: the Schubert
polynomials of S6 have 720 supports and 173 reduced forms.

Mixed partial derivatives commute, so derivative index sequences and
multisets give identical quadratic forms; the certifier therefore
enumerates sorted multisets only.  Every Hessian is read off the terms of
the input in one pass, with the coefficients scaled to integers.  As
d^beta x^mu / mu! = x^(mu - beta) / (mu - beta)!, a term c x^e / e! of a
normalized target puts c at (i, j) and (j, i) of the Hessian of the
derivative by alpha = e - e_i - e_j, and a raw term c x^e puts
alpha! c e_i (e_j - [i = j]) there; the matrix of alpha gets c, or the
latter less the positive factor alpha!, which keeps the inertia, for each
i <= j with alpha >= 0.  Each entry of each matrix comes from exactly one
term.  A multiset under no term has the zero derivative, which passes.
Witness re-verification goes the other way, through the public derivative
chain, so each verdict is covered by two independent routes.  Each
exponent is packed into one integer key, coordinate 0 in the highest of n
fields of w bits, w being (d + 2).bit_length() + 1, so the top bit of a
field, its guard bit, stays clear for every value up to d + 2.  The key of
alpha is then the key of e less the steps of fields i and j, no field ever
borrowing, and matrices are kept under these keys.

Only one multiset per symmetry orbit is checked.  An adjacent pair k is
tied when every scaled term c x^e has the same coefficient at e with e_k
and e_{k+1} swapped; Schur, skew and P-polynomials tie every pair, and a
Schubert polynomial ties k exactly when w(k) < w(k+1) (Macdonald, Notes on
Schubert polynomials, 1991).  If h is fixed by that swap, the derivative by
alpha and the one by alpha with alpha_k and alpha_{k+1} swapped have the
same Hessian up to a permutation of rows and columns, hence the same
inertia.  The tied pairs cut the coordinates into blocks, and the
canonical alpha of an orbit is the one that is non-increasing inside each
block: alpha_k >= alpha_{k+1} for every tied k.  Its sorted index tuple is
the lexicographically smallest of the orbit, so the first failing multiset
overall is canonical and the witness is the one an unreduced check would
report.  Entries are written only for canonical multisets, each met for the
first time getting its matrix, and each matrix is tested once; with no tied
pair every multiset is canonical and the assembly runs as without the
reduction.  A term with e_k + 2 < e_{k+1} for a tied k yields no canonical
alpha and is skipped whole.  Both tests take one subtraction on packed
keys, and the first runs before the matrix of alpha is looked up: with
every guard bit set in the key shifted down one field, subtracting the
key leaves the guard bit of field k + 1 set exactly where alpha_k >=
alpha_{k+1}, and adding 2 to each field first tests e_k + 2 >= e_{k+1};
a mask of the guards of the tied pairs reads every tied k at once.  For
multiplicity vectors of one size, the lexicographic order of their sorted
index tuples is the reverse lexicographic order of the vectors (at the
first coordinate where two differ, the larger count gives the smaller
tuple), and as no field overflows, the keys compare as the vectors do, so
the matrices are checked in the order of ``sorted(hessians, reverse=True)``
and a key is unpacked to its index tuple only for the witness.

A normalized polynomial N(p) = sum c_mu x^mu / mu! is certified on the
integer-scaled terms of p, without being built.  Dividing a term by mu!
keeps its sign, and mu! does not change when two coordinates of mu are
swapped, so p and N(p) have the same support and the same tied pairs.
Scaling by the least integer L that clears the denominators of p multiplies
every Hessian by L, which keeps every inertia; a positive multiple of a
Lorentzian polynomial is Lorentzian (Branden-Huh, Lorentzian polynomials,
2020).  The Hessians of L N(p) are read off the scaled terms as above, so
the certificate of N(p), witness included, comes from these integers.

A certificate is a function of the arity, the ``normalize`` flag and the
scaled integer map alone.  Past the homogeneity check, the certifier reads
nothing else: the signs and the negative witness come from the map, the
support is its set of keys, the degree is the sum of any key, and the tied
pairs and every Hessian are read off its terms.  Two targets with equal
(arity, flag, map) triples, such as a skew Schur polynomial and its
translate or half-turn, therefore get equal certificates, witnesses
included, and a sweep may certify such a pair once.  The key of a map is
exact and ignores the order of its terms: its exponents in sorted order,
one byte per coordinate, or a list of ints once a coordinate reaches 256,
then their integers.  Supports are keyed by the same rule (``_packed``).

A sweep also keeps the inertia of every Hessian it eliminates, under the
bytes of its lower triangle, row by row.  The length n(n + 1)/2 fixes n and
the matrix is symmetric, so equal keys are equal matrices, which have equal
inertia.  Every entry is nonnegative once the signs have passed; a matrix
with an entry of 256 or more has no such key, and is eliminated and not kept.

Log-concavity along a root direction e_i - e_j fails at mu when c(mu)^2 <
c(mu + e_i - e_j) c(mu - e_i + e_j).  A square is never negative, so the
product on the right is positive and both neighbours of mu are terms.
The scan therefore needs no walk along each line: for every term a and
i < j it looks up whether b = a - 2 e_i + 2 e_j is a term, on packed keys
where both moves are one addition, and only then reads the centre
a - e_i + e_j.  A line's table, which orders the violations as the lines
are met, is built only for a direction that has one.
"""

import itertools
import marshal
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .polynomials import Polynomial

LORENTZIAN = "Lorentzian"
NOT_LORENTZIAN = "NotLorentzian"

CHECK_HOMOGENEOUS = "homogeneous"
CHECK_NONNEGATIVE = "nonnegative_coefficients"
CHECK_M_CONVEX = "m_convex_support"
CHECK_HESSIANS = "hessian_spectra"


# -- M-convexity ---------------------------------------------------------


def _exchange_ok(support, alpha, beta, i) -> bool:
    """Some j with alpha_j < beta_j has alpha - e_i + e_j and beta - e_j + e_i
    both in ``support`` (0-based i)."""
    for j in range(len(alpha)):
        if alpha[j] >= beta[j]:
            continue
        moved_a = list(alpha)
        moved_a[i] -= 1
        moved_a[j] += 1
        if tuple(moved_a) not in support:
            continue
        moved_b = list(beta)
        moved_b[j] -= 1
        moved_b[i] += 1
        if tuple(moved_b) in support:
            return True
    return False


def _fill_rank(rank, columns, low, sums, first):
    """Set rank[X] for every X above ``low`` with bits ``first`` and up;
    ``sums`` lists p(low) for every point p, in the order of ``columns``."""
    for k in range(first, len(columns)):
        above = list(map(operator.add, sums, columns[k]))
        rank[low | 1 << k] = max(above)
        _fill_rank(rank, columns, low | 1 << k, above, k + 1)


def _walk_base(lows, highs, prefixes, prefix, prefix_sums):
    """Number of integer points of B(r) that extend ``prefix``, or None at
    the first one whose leading coordinates are not in ``prefixes``.

    ``prefix_sums`` lists y(X) for every subset X of the prefix, X read as
    a bit mask; coordinate k ranges over the bounds in lows[k], highs[k].
    Below the last walked coordinate each value calls the walk again; at it,
    every point of the range is looked up in place and the range's length
    is the count.
    """
    k = len(prefix)
    if k == len(lows):  # nothing to walk: m = 1
        return 1 if prefix in prefixes else None
    span = range(max(map(operator.sub, lows[k], prefix_sums)),
                 min(map(operator.sub, highs[k], prefix_sums)) + 1)
    if k + 1 == len(lows):
        for t in span:
            if prefix + (t,) not in prefixes:
                return None
        return len(span)
    count = 0
    for t in span:
        below = _walk_base(lows, highs, prefixes, prefix + (t,),
                           prefix_sums + list(map(t.__add__, prefix_sums)))
        if below is None:
            return None
        count += below
    return count


def _rank_m_convex(pts) -> bool:
    """M-convexity of a sorted, duplicate-free list of points of one arity
    m >= 1, decided through the rank function r(X) = max_{x in S} x(X).

    S is M-convex exactly when r is submodular and S is the set of integer
    points of the base polyhedron B(r); S always lies in B(r), so the walk
    below only has to stop at the first integer point of B(r) outside S.
    """
    total = sum(pts[0])
    if any(sum(p) != total for p in pts):
        return False
    m = len(pts[0])
    columns = list(zip(*pts))
    rank = [0] * (1 << m)  # rank[X], bit k of X standing for coordinate k
    _fill_rank(rank, columns, 0, [0] * len(pts), 0)
    bits = [1 << k for k in range(m)]
    for low, base in enumerate(rank):
        free = [b for b in bits if not low & b]
        for a, b in itertools.combinations(free, 2):
            if rank[low | a] + rank[low | b] < rank[low | a | b] + base:
                return False
    # Projections of B(r) onto the leading coordinates are g-polymatroids,
    # so coordinate k given the prefix y ranges over
    # [max_X r(V) - r(V - X - k) - y(X), min_X r(X + k) - y(X)], X within
    # the prefix, and every step of the walk reaches a point of B(r).  The
    # last coordinate is total - y(V - (m - 1)), so the walk stops one short.
    full = (1 << m) - 1
    lows = [
        [rank[full] - rank[full ^ (low | 1 << k)] for low in range(1 << k)]
        for k in range(m - 1)
    ]
    highs = [[rank[low | 1 << k] for low in range(1 << k)] for k in range(m - 1)]
    prefixes = {p[:-1] for p in pts}
    return _walk_base(lows, highs, prefixes, (), [0]) == len(pts)


def _exchange_scan(pts):
    """First exchange violation over the pairs of sorted ``pts``, or None.

    A set of points is a bit set of their positions in ``pts``.  Point a
    meets all later points b at once, one coordinate i at a time: ``down``
    keeps the b with b_i < a_i that no j rescues, a j with a - e_i + e_j in
    S rescuing the b with b_j > a_j and b + e_i - e_j in S; ``up`` keeps
    the b with b_i > a_i that no j rescues, a j with a + e_i - e_j in S
    rescuing the b with b_j < a_j and b - e_i + e_j in S.  One move
    a - e_i + e_j in S serves both, for ``down`` of i and ``up`` of j.  What
    is left are violations, (a, b, i) and (b, a, i), and the lowest
    position left, then the smallest i holding it, is the one a scan of the
    pairs in order returns.

    Each point x is packed into one integer: coordinate k, shifted into
    1..D, fills a field of w bits with D + 1 < 2^w, so a neighbour x +- e_j
    is the key +- 2^(jw) and no move borrows or carries.  The set of b with
    b + e_i - e_j in S is built on its first read, by one intersection of
    the keys of S with those of the points c with c_i above its least,
    moved by e_j - e_i.
    """
    size = len(pts)
    if size < 2:
        return None
    n = len(pts[0])
    columns = list(zip(*pts))
    offsets = [min(col) - 1 for col in columns]
    width = max(max(col) - low for col, low in zip(columns, offsets)).bit_length() + 1
    steps = [1 << shift for shift in range(0, n * width, width)]
    keys = [sum(map(operator.mul, map(operator.sub, x, offsets), steps)) for x in pts]
    position = {key: pos for pos, key in enumerate(keys)}
    lower = []  # lower[j][v]: the points with coordinate j below v
    upper = []  # upper[j][v]: the points with coordinate j above v
    movable = []  # movable[j]: the keys of the points whose coordinate j is above its least
    for col in columns:
        order = sorted(range(size), key=col.__getitem__)
        values, bits = [], []  # each value of the column, and the points holding it
        for v, group in itertools.groupby(order, col.__getitem__):
            values.append(v)
            bits.append(sum(map((1).__lshift__, group)))
        movable.append(list(map(keys.__getitem__, order[bits[0].bit_count():])))
        lower.append(dict(zip(values, itertools.accumulate(bits, operator.or_, initial=0))))
        upper.append(dict(zip(reversed(values),
                              itertools.accumulate(reversed(bits), operator.or_, initial=0))))
    reach = {}  # key of e_i - e_j -> the points b with b + e_i - e_j in S
    later = (1 << size) - 1
    for a, x in enumerate(pts[:-1]):  # the last point has no later one
        later ^= 1 << a
        key = keys[a]
        below = [lower[j][v] & later for j, v in enumerate(x)]
        above = [upper[j][v] & later for j, v in enumerate(x)]
        rising = [j for j, more in enumerate(above) if more]
        down = []  # down[i]: the b with b_i < a_i that fail (a, b, i)
        up = above[:]  # up[j]: the b with b_j > a_j that fail (b, a, j)
        for i, less in enumerate(below):
            failed = less
            for j in rising if less else ():
                # a - e_i + e_j in S lets the b with b + e_i - e_j in S pass
                # (a, b, i) when b_j > a_j and (b, a, j) when b_i < a_i
                cleared = failed & above[j]
                raised = up[j] & less
                if not (cleared or raised):
                    continue
                move = steps[i] - steps[j]
                if key - move not in position:
                    continue
                onto = reach.get(move)
                if onto is None:
                    # the b + e_i - e_j in S have their coordinate i above its least
                    back = map((-move).__add__, movable[i])
                    onto = reach[move] = sum(map((1).__lshift__, map(position.__getitem__,
                                                                     position.keys() & back)))
                failed ^= cleared & onto
                up[j] ^= raised & onto
            down.append(failed)
        if any(down) or any(up):
            failing = 0
            for left in down + up:
                failing |= left
            b = failing & -failing
            beta = pts[b.bit_length() - 1]
            for i in range(n):
                if down[i] & b:
                    return (x, beta, i + 1)
                if up[i] & b:
                    return (beta, x, i + 1)
    return None


def _rank_test_runs(varying: int, size: int) -> bool:
    """Whether the rank test, over 2^varying subsets, runs before the
    exchange scan: when that is at most the number of points, or at most
    four times it in up to 7 varying coordinates (see the module notes)."""
    subsets = 2**varying
    return varying > 0 and (subsets <= size or varying <= 7 and subsets <= 4 * size)


def _packed(values: list):
    """``values`` as bytes, one per value, or the list itself once a value
    is 256 or more; ``marshal`` writes the two under different type codes,
    so a key holding one never equals a key holding the other."""
    try:
        return bytes(values)
    except ValueError:
        return values


def _support_key(size: int, columns, lows, moving) -> bytes:
    """An exact key of a sorted support of ``size`` points with ``columns``:
    the size, then each varying column k less its least value ``lows[k]``,
    in sorted point order, by ``_packed``.  The size and the number of
    values give the number of varying columns.
    """
    return marshal.dumps((size, _packed([v - lows[k] for k in moving for v in columns[k]])), 2)


def _reduced_failure(pts, columns, moving):
    """Positions (a, b, i) of the first violation of the exchange axiom on
    the sorted, duplicate-free ``pts``, read as pts[a], pts[b] and the
    coordinate moving[i - 1]; None when M-convex.

    Both tests run on the varying coordinates ``moving`` alone.
    """
    reduced = pts
    if len(moving) < len(columns):
        reduced = list(zip(*[columns[k] for k in moving]))
    if _rank_test_runs(len(moving), len(pts)) and _rank_m_convex(reduced):
        return None
    witness = _exchange_scan(reduced)
    if witness is None:
        return None
    alpha, beta, index = witness
    return (reduced.index(alpha), reduced.index(beta), index)


def m_convex_failure(points, cache: Optional[dict] = None):
    """First violation of the exchange axiom, or None when M-convex.

    A violation is a triple (alpha, beta, i) with alpha_i > beta_i and no
    index j with alpha_j < beta_j, alpha - e_i + e_j and beta - e_j + e_i
    both in the set.  Points are scanned in sorted order so the returned
    witness is deterministic.  The rank test decides first when its 2^m
    subsets of the m varying coordinates are at most |S|, or, for m <= 7,
    at most 4 |S| (``_rank_test_runs``); the exchange scan runs only to find
    the witness, or when the rank test would cost more.
    A ``cache`` dict keeps the answer, as positions in the sorted points,
    under the support with its constant coordinates dropped and the others
    shifted to least value 0 (``_support_key``); a support with an equal
    key is answered from it, its witness read off its own points.
    """
    pts = sorted({tuple(p) for p in points})
    if pts:
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise ValueError("mixed arity in support set")
    # The exchange axiom never moves a coordinate constant over the set, so
    # both tests run on the others.  Dropping them keeps the sorted order of
    # the points and the order of the remaining indices, hence the witness.
    columns = list(zip(*pts))
    lows = list(map(min, columns))
    moving = [k for k, col in enumerate(columns) if max(col) != lows[k]]
    if cache is None:
        found = _reduced_failure(pts, columns, moving)
    else:
        key = _support_key(len(pts), columns, lows, moving)
        if key in cache:
            found = cache[key]
        else:
            found = cache[key] = _reduced_failure(pts, columns, moving)
    if found is None:
        return None
    a, b, index = found
    return (pts[a], pts[b], moving[index - 1] + 1)


def is_m_convex(points) -> bool:
    return m_convex_failure(points) is None


# -- exact symmetric matrices and inertia --------------------------------


class InertiaSignature(NamedTuple):
    positive: int
    negative: int
    zero: int

    def to_dict(self):
        return {"positive": self.positive, "negative": self.negative, "zero": self.zero}


class SymmetricMatrix:
    """Exactly symmetric rational matrix."""

    __slots__ = ("dimension", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ")
        self.dimension = n
        self.rows = rows

    def __eq__(self, other):
        if not isinstance(other, SymmetricMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return f"SymmetricMatrix({[list(r) for r in self.rows]})"


def _integer_scaled(matrix: SymmetricMatrix):
    """Integer matrix L * M for the least positive L clearing denominators."""
    scale = math.lcm(*{v.denominator for row in matrix.rows for v in row})
    return [[int(v * scale) for v in row] for row in matrix.rows], scale


def _inertia_int(rows) -> InertiaSignature:
    """Sign counts of an integer symmetric matrix, by congruence elimination.

    Overwrites ``rows``.  The live block is the set of rows and columns not
    yet eliminated; every step keeps its inertia, up to the counted pivot.
    A zero row, with its zero column, is a zero eigenvalue that no step
    changes, so the block starts without them.
    """
    live = [i for i, row in enumerate(rows) if any(row)]
    zero_rows = len(rows) - len(live)
    positive = negative = 0
    while live:
        k = next((k for k in live if rows[k][k]), None)
        if k is None:
            pair = next(
                ((i, j) for a, i in enumerate(live) for j in live[a + 1 :] if rows[i][j]),
                None,
            )
            if pair is None:
                break
            # x_i <- x_i + x_j: the zero diagonal entry at i becomes 2 a_ij
            i, j = pair
            row_i, row_j = rows[i], rows[j]
            for t in live:
                row_i[t] += row_j[t]
            for t in live:
                rows[t][i] += rows[t][j]
            k = i
        pivot_row = rows[k]
        p = pivot_row[k]
        if p > 0:
            positive += 1
            sign = 1
        else:
            negative += 1
            sign, p = -1, -p
        live.remove(k)
        g = 0
        for a, i in enumerate(live):
            row_i = rows[i]
            c = sign * pivot_row[i]
            for j in live[a:]:
                value = p * row_i[j] - c * pivot_row[j]
                row_i[j] = value
                rows[j][i] = value
                g = math.gcd(g, value)
        if g > 1:
            for i in live:
                row_i = rows[i]
                for j in live:
                    row_i[j] //= g
    return InertiaSignature(positive, negative, zero_rows + len(live))


def inertia(matrix: SymmetricMatrix) -> InertiaSignature:
    """Exact eigenvalue sign counts (positive, negative, zero)."""
    scaled, _ = _integer_scaled(matrix)
    return _inertia_int(scaled)


def quadratic_form_matrix(q: Polynomial) -> SymmetricMatrix:
    """Symmetric matrix of a homogeneous quadratic: H_ii = coeff(x_i^2),
    H_ij = coeff(x_i x_j) / 2."""
    if q and q.homogeneous_degree() != 2:
        raise ValueError("polynomial must be homogeneous of degree 2 (or zero)")
    n = q.arity
    rows = [[Fraction(0)] * n for _ in range(n)]
    for exponent, coeff in q.terms.items():
        hot = [i for i, e in enumerate(exponent) if e]
        if len(hot) == 1:
            rows[hot[0]][hot[0]] = coeff
        else:
            i, j = hot
            rows[i][j] = coeff / 2
            rows[j][i] = coeff / 2
    return SymmetricMatrix(rows)


# -- certificates --------------------------------------------------------


@dataclass(frozen=True)
class NegativeCoefficient:
    exponent: tuple
    kind = "negative_coefficient"

    def to_dict(self):
        return {"kind": self.kind, "exponent": list(self.exponent)}


@dataclass(frozen=True)
class NotHomogeneous:
    degrees: tuple
    kind = "not_homogeneous"

    def to_dict(self):
        return {"kind": self.kind, "degrees": list(self.degrees)}


@dataclass(frozen=True)
class SupportNotMConvex:
    alpha: tuple
    beta: tuple
    index: int
    kind = "support_not_m_convex"

    def to_dict(self):
        return {
            "kind": self.kind,
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "index": self.index,
        }


@dataclass(frozen=True)
class HessianFailure:
    multiset: tuple
    inertia: InertiaSignature
    kind = "hessian_failure"

    def to_dict(self):
        return {
            "kind": self.kind,
            "multiset": list(self.multiset),
            "inertia": self.inertia.to_dict(),
        }


Failure = Union[NegativeCoefficient, NotHomogeneous, SupportNotMConvex, HessianFailure]

_STAGES = (CHECK_HOMOGENEOUS, CHECK_NONNEGATIVE, CHECK_M_CONVEX, CHECK_HESSIANS)
# the number of stages a certificate passes before each kind of failure
_STAGES_BEFORE = {NotHomogeneous: 0, NegativeCoefficient: 1, SupportNotMConvex: 2,
                  HessianFailure: 3}


@dataclass(frozen=True)
class LorentzCertificate:
    """The outcome of ``lorentzian_certify``: the arity and degree of the
    target (None when it is zero or not homogeneous) and its first failure,
    None when it is Lorentzian.  The verdict and the stages passed follow
    from these: a failure passes the stages before its own, and a Lorentzian
    target passes every stage, ``hessian_spectra`` from degree 2 only."""

    arity: int
    degree: Optional[int]
    failure: Optional[Failure] = None

    @property
    def is_lorentzian(self) -> bool:
        return self.failure is None

    @property
    def verdict(self) -> str:
        return LORENTZIAN if self.failure is None else NOT_LORENTZIAN

    @property
    def checks(self) -> tuple:
        if self.failure is not None:
            return _STAGES[:_STAGES_BEFORE[type(self.failure)]]
        return _STAGES if (self.degree or 0) >= 2 else _STAGES[:3]

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "arity": self.arity,
            "degree": self.degree,
            "checks": list(self.checks),
            "failure": self.failure.to_dict() if self.failure else None,
        }


def _scaled_coefficients(poly: Polynomial) -> dict:
    """The terms of ``poly`` times the least positive integer clearing their
    denominators, as exponent -> int."""
    scale = math.lcm(*{c.denominator for c in poly.terms.values()})
    return {e: c.numerator * (scale // c.denominator) for e, c in poly.terms.items()}


def _tied_pairs(coeffs, n) -> list:
    """The 0-based k < n - 1 for which swapping coordinates k and k + 1 maps
    every term of ``coeffs`` to a term with the same coefficient."""
    return [
        k
        for k in range(n - 1)
        if all(
            e[k] == e[k + 1] or coeffs.get(e[:k] + (e[k + 1], e[k]) + e[k + 2 :]) == c
            for e, c in coeffs.items()
        )
    ]


def _multiset_indices(alpha) -> tuple:
    """1-based derivative indices of a multiplicity vector, sorted."""
    out = []
    for i, reps in enumerate(alpha, start=1):
        out.extend([i] * reps)
    return tuple(out)


def _field_steps(n: int, width: int) -> list:
    """The step 2^(width (n - 1 - k)) of each coordinate k < n: packed as
    sum(e_k * step_k), coordinate 0 fills the highest field, so keys of
    one arity whose fields never overflow compare as their tuples do."""
    return [1 << width * (n - 1 - k) for k in range(n)]


def _unpacked(key: int, width: int, n: int, offset: int = 0) -> tuple:
    """The exponent packed in ``key`` by ``_field_steps(n, width)``, each
    field holding its coordinate plus ``offset``."""
    mask = (1 << width) - 1
    return tuple((key >> width * (n - 1 - k) & mask) - offset for k in range(n))


def _certificate_key(arity: int, normalize: bool, coeffs: dict) -> bytes:
    """An exact key of (arity, ``normalize``, ``coeffs``), blind to term
    order: the coordinates of the exponents in sorted order, by ``_packed``,
    and the ints.

    Version 2 of ``marshal`` writes no back-references, so equal values
    always give equal bytes.
    """
    exponents = sorted(coeffs)
    packed = _packed(list(itertools.chain.from_iterable(exponents)))
    return marshal.dumps((arity, normalize, packed, [coeffs[e] for e in exponents]), 2)


def lorentzian_certify(
    poly: Polynomial,
    *,
    normalize: bool = False,
    cache: Optional[dict] = None,
    supports: Optional[dict] = None,
    inertias: Optional[dict] = None,
) -> LorentzCertificate:
    """Decide the Lorentzian property with a re-checkable witness on failure.

    Checks run in order: homogeneity, coefficient signs, M-convexity of the
    support, then the spectrum of every order-(d-2) derivative quadratic
    form.  The first failing multiset in lexicographic order is reported.
    With ``normalize`` set, the certificate is that of ``normalize(poly)``,
    read off the integer-scaled terms of ``poly`` without building N(poly).
    A ``cache`` dict keeps each certificate under its arity, the flag and
    that integer map, of any degree, and a target with an equal key is
    answered from it.  A ``supports`` dict is handed to ``m_convex_failure``
    as its ``cache``, and an ``inertias`` dict keeps the inertia of each
    Hessian under its bytes.
    """
    degrees = sorted({sum(e) for e in poly.terms})
    if len(degrees) > 1:
        return LorentzCertificate(poly.arity, None, NotHomogeneous((degrees[0], degrees[-1])))
    degree = degrees[0] if degrees else None
    coeffs = _scaled_coefficients(poly)
    if cache is None:
        return _certify_terms(poly.arity, degree, coeffs, normalize, supports, inertias)
    key = _certificate_key(poly.arity, normalize, coeffs)
    certificate = cache.get(key)
    if certificate is None:
        certificate = cache[key] = _certify_terms(poly.arity, degree, coeffs, normalize,
                                                  supports, inertias)
    return certificate


def _certify_terms(arity: int, degree, coeffs: dict, normalize: bool,
                   supports, inertias) -> LorentzCertificate:
    """The certificate of the homogeneous polynomial of ``arity`` and ``degree``
    (None when zero) with integer terms ``coeffs``, or of its normalization
    with ``normalize`` set; ``supports`` is the ``m_convex_failure`` cache
    and ``inertias`` the table of Hessian inertias."""
    negative = [exponent for exponent, coeff in coeffs.items() if coeff < 0]
    if negative:
        return LorentzCertificate(arity, degree, NegativeCoefficient(min(negative)))

    witness = m_convex_failure(coeffs, supports)
    if witness is not None:
        return LorentzCertificate(arity, degree, SupportNotMConvex(*witness))

    if degree is not None and degree >= 2:
        n = arity
        tied = _tied_pairs(coeffs, n)
        width = (degree + 2).bit_length() + 1
        steps = _field_steps(n, width)
        high = sum(steps) << (width - 1)
        # guard bit of field k + 1 for each tied k: set in (x >> width | high) - y
        # where x_k >= y_{k+1}, as no field holds more than degree + 2
        ordered = sum(steps[k + 1] for k in tied) << (width - 1)
        twos = 2 * sum(steps)
        ones = (1,) * n
        lower = [slice(k) for k in range(1, n + 1)]  # row k up to the diagonal
        hessians = {}
        for exponent, c in coeffs.items():
            key = sum(map(operator.mul, exponent, steps))
            if ordered and (((key >> width) + twos | high) - key) & ordered != ordered:
                continue  # e_k + 2 < e_{k+1}: every alpha of this term has alpha_k < alpha_{k+1}
            hot = [i for i in range(n) if exponent[i]]
            # c e_i (e_j - [i = j]) on a raw term, c on a normalized one
            weights = ones if normalize else exponent
            for a, i in enumerate(hot):
                scaled = c * weights[i]
                lead = -1 if normalize else i  # the j whose weight drops by one
                key_i = key - steps[i]
                for j in hot[a + (exponent[i] == 1):]:
                    alpha = key_i - steps[j]
                    if ordered and ((alpha >> width | high) - alpha) & ordered != ordered:
                        continue  # alpha_k < alpha_{k+1} for a tied k: not canonical
                    matrix = hessians.get(alpha)
                    if matrix is None:
                        matrix = hessians[alpha] = [[0] * n for _ in range(n)]
                    value = scaled * (weights[j] - (j == lead))
                    matrix[i][j] = value
                    matrix[j][i] = value
        for alpha in sorted(hessians, reverse=True):  # sorted index tuples, ascending
            matrix = hessians[alpha]
            shape = signature = None
            if inertias is not None:
                try:  # the exact matrix, read before _inertia_int overwrites its rows
                    shape = bytes(itertools.chain.from_iterable(map(operator.getitem, matrix,
                                                                    lower)))
                    signature = inertias.get(shape)
                except ValueError:  # an entry of 256 or more: eliminated, not kept
                    pass
            if signature is None:
                signature = _inertia_int(matrix)
                if shape is not None:  # one shared object per distinct signature
                    inertias[shape] = inertias.setdefault(signature, signature)
            if signature.positive > 1:
                return LorentzCertificate(
                    arity,
                    degree,
                    HessianFailure(_multiset_indices(_unpacked(alpha, width, n)), signature),
                )
    return LorentzCertificate(arity, degree)


def _pairwise_scan_shape(poly: Polynomial):
    """(|S|, m) when ``lorentzian_certify(poly)`` decides M-convexity of its
    support S by the exchange scan alone, m being the number of coordinates
    that vary over S; None when it stops earlier or runs the rank test."""
    if len({sum(e) for e in poly.terms}) > 1 or any(c < 0 for c in poly.terms.values()):
        return None  # refused as not homogeneous or for a negative coefficient
    size = len(poly.terms)
    varying = sum(min(col) != max(col) for col in zip(*poly.terms))
    return None if _rank_test_runs(varying, size) else (size, varying)


def _int_tuple(value) -> bool:
    return isinstance(value, tuple) and all(isinstance(v, int) for v in value)


def verify_certificate(poly: Polynomial, certificate: LorentzCertificate) -> bool:
    """Re-check a failure witness through the public operations only.

    Hessian witnesses are re-derived with repeated partial derivatives and
    the quadratic form constructor, independently of the coefficient
    formula used inside ``lorentzian_certify``.  A certificate is its
    arity, degree and failure, and its arity and degree must be those of
    ``poly``.  A Lorentzian one, with no failure, also needs ``poly``
    homogeneous with nonnegative coefficients, and is not re-checked
    further; a failure of no kind the certifier reports is refused.
    A witness that does not fit ``poly`` (an exchange index outside
    1..arity, a multiset not of d - 2 variables of ``poly``) is refused, and
    so is one whose fields are not of their types: each exponent, degree
    pair and multiset a tuple of ints, and the exchange index an int.
    """
    if certificate.arity != poly.arity or certificate.degree != poly.homogeneous_degree():
        return False
    failure = certificate.failure
    if failure is None:
        return len({sum(e) for e in poly.terms}) <= 1 and all(c >= 0 for c in poly.terms.values())
    if type(failure) not in _STAGES_BEFORE:
        return False
    if isinstance(failure, NotHomogeneous):
        if not _int_tuple(failure.degrees) or len(failure.degrees) != 2:
            return False
        lo, hi = failure.degrees
        present = {sum(e) for e in poly.terms}
        return lo in present and hi in present and lo != hi
    if isinstance(failure, NegativeCoefficient):
        return _int_tuple(failure.exponent) and poly.coefficient(failure.exponent) < 0
    if isinstance(failure, SupportNotMConvex):
        support = poly.support()
        alpha, beta, index = failure.alpha, failure.beta, failure.index
        if not (_int_tuple(alpha) and _int_tuple(beta) and isinstance(index, int)):
            return False
        i = index - 1
        if (not 0 <= i < poly.arity or alpha not in support or beta not in support
                or alpha[i] <= beta[i]):
            return False
        return not _exchange_ok(support, alpha, beta, i)
    multiset = failure.multiset  # a HessianFailure
    if (certificate.degree is None or not _int_tuple(multiset)
            or len(multiset) != certificate.degree - 2
            or not all(1 <= index <= poly.arity for index in multiset)):
        return False
    derivative = poly
    for index in multiset:
        derivative = derivative.partial_derivative(index)
    signature = inertia(quadratic_form_matrix(derivative))
    return signature == failure.inertia and signature.positive >= 2


# -- bivariate criterion and coefficient log-concavity --------------------


def bivariate_ulc(poly: Polynomial) -> bool:
    """Exact ultra-log-concavity test for bivariate homogeneous polynomials.

    With h = sum a_k x1^k x2^(d-k), requires the sequence a_0..a_d to have
    no internal zeros and a_k^2 / C(d,k)^2 >= (a_{k-1}/C(d,k-1)) *
    (a_{k+1}/C(d,k+1)) for 0 < k < d.  Serves as an independent oracle for
    ``lorentzian_certify`` on bivariate inputs.
    """
    if poly.arity != 2:
        raise ValueError("bivariate test requires arity 2")
    if not poly:
        return True
    d = poly.homogeneous_degree()
    if d is None:
        raise ValueError("polynomial must be homogeneous")
    seq = [poly.coefficient((k, d - k)) for k in range(d + 1)]
    if any(c < 0 for c in seq):
        raise ValueError("coefficients must be nonnegative")
    hot = [k for k, c in enumerate(seq) if c]
    if hot and hot[-1] - hot[0] + 1 != len(hot):
        return False  # internal zero
    for k in range(1, d):
        lhs = (seq[k] / math.comb(d, k)) ** 2
        rhs = (seq[k - 1] / math.comb(d, k - 1)) * (seq[k + 1] / math.comb(d, k + 1))
        if lhs < rhs:
            return False
    return True


def _root_line(mu, i: int, j: int) -> tuple:
    """The line {mu + t (e_i - e_j)} through mu: mu_i + mu_j and the other
    coordinates (0-based i < j)."""
    return (mu[i] + mu[j], mu[:i], mu[i + 1 : j], mu[j + 1 :])


def root_direction_violations(poly: Polynomial):
    """All (mu, i, j) where the root-direction log-concavity check fails.

    Only a centre of two terms a and a - 2 e_i + 2 e_j can fail (see the
    module notes), so this finite scan covers every mu in Z^n.  The
    coefficients are scaled to integers once (a positive scale keeps every
    inequality).  Each field of a packed key holds its exponent plus 2 and
    has room for 2 more, so a - 2 e_i + 2 e_j never borrows from or carries
    into another field, and it is a key exactly when it is a term.  The
    violations are listed by (i, j), then by line (the points
    mu + t (e_i - e_j)) in the order of the first term on each, then by mu_i.
    """
    coeffs = _scaled_coefficients(poly)
    n = poly.arity
    if n < 2 or not coeffs:
        return []
    width = (max(map(max, coeffs)) + 4).bit_length()
    steps = _field_steps(n, width)
    lift = 2 * sum(steps)
    table = {sum(map(operator.mul, e, steps)) + lift: c for e, c in coeffs.items()}
    violations = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            move = steps[j] - steps[i]  # x -> x - e_i + e_j
            jump = 2 * move
            found = []
            for b in table.keys() & map(jump.__add__, table):  # a + jump in the support
                centre = table.get(b - move, 0)
                if centre * centre < table[b - jump] * table[b]:
                    found.append(_unpacked(b - move, width, n, 2))
            if found:
                lines = {}  # line -> rank of its first term
                for exponent in coeffs:
                    lines.setdefault(_root_line(exponent, i, j), len(lines))
                found.sort(key=lambda mu: (lines[_root_line(mu, i, j)], mu[i]))
                violations.extend((mu, i + 1, j + 1) for mu in found)
    return violations
