"""Generators for Schur-family symmetric polynomials and weight multiplicities.

Skew Schur polynomials are produced by direct enumeration of semistandard
Young tableaux (column by column, backtracking), and a Schur polynomial is
the skew Schur polynomial of lam/(); Schur P-polynomials come from
enumeration of marked shifted tableaux; Kostka numbers from the same
tableau walk with a fixed target weight.  The determinant-ratio
construction of Schur polynomials lives in ``oracles`` as an independent
cross-check and is never used as the primary path.

Also here: the type A Kostant partition function (bounded-knapsack count
of negative-root multisets) and the normalized truncated character of a
universal highest-weight module, built from the product of geometric
factors over the negative roots, each truncated at sum(delta), which
drops no term of nonnegative exponent.
"""

import itertools
from fractions import Fraction

from .polynomials import Polynomial, normalize


class Partition:
    """Weakly decreasing tuple of nonnegative ints; trailing zeros dropped."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative, got {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        self.parts = parts

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({self.parts})"

    def __len__(self):
        return len(self.parts)

    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-based), zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        return all(other.part(i) <= self.part(i) for i in range(1, len(other) + 1))


class SkewShape:
    """A pair of nested partitions outer/inner."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition):
        if not isinstance(outer, Partition):
            outer = Partition(outer)
        if not isinstance(inner, Partition):
            inner = Partition(inner)
        if not outer.contains(inner):
            raise ValueError(f"inner {inner.parts} not contained in outer {outer.parts}")
        self.outer = outer
        self.inner = inner

    def __repr__(self):
        return f"SkewShape({self.outer.parts}/{self.inner.parts})"

    def size(self) -> int:
        return self.outer.size() - self.inner.size()


class StrictPartition:
    """Strictly decreasing tuple of positive ints."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(a <= b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be strictly decreasing, got {parts}")
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive, got {parts}")
        self.parts = parts

    def __eq__(self, other):
        if not isinstance(other, StrictPartition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"StrictPartition({self.parts})"

    def __len__(self):
        return len(self.parts)

    def size(self) -> int:
        return sum(self.parts)


def _as_partition(value) -> Partition:
    return value if isinstance(value, Partition) else Partition(value)


# -- semistandard tableau enumeration -----------------------------------
#
# Cells are filled column by column; within a column the values strictly
# increase downward, and each cell is bounded below by its left neighbor
# (weak row increase).  For skew shapes the rows present in a column are
# contiguous, so the same walk applies with per-column row offsets.


def _skew_columns(outer: Partition, inner: Partition):
    """Per column (1-based): list of row indices holding a cell."""
    width = outer.part(1)
    columns = []
    for c in range(1, width + 1):
        rows = [r for r in range(1, len(outer) + 1) if inner.part(r) < c <= outer.part(r)]
        columns.append(rows)
    return columns


def _enumerate_fillings(outer: Partition, inner: Partition, m: int, budget=None):
    """Yield weight tuples of semistandard fillings with entries in 1..m.

    With ``budget`` (a tuple capping how many times each value may occur)
    the walk prunes fillings that overdraw any value; used for Kostka
    counting with a fixed target weight.
    """
    columns = _skew_columns(outer, inner)
    weight = [0] * m
    remaining = list(budget) if budget is not None else None
    # entries[r] is the value currently in row r of the previous column
    previous: dict[int, int] = {}

    def fill_column(c: int, rows, row_pos: int, current: dict[int, int]):
        if row_pos == len(rows):
            yield from next_column(c + 1, current)
            return
        r = rows[row_pos]
        low = 1
        if r - 1 in current:
            low = current[r - 1] + 1  # strict increase down the column
        left = previous.get(r)  # set iff cell (r, c-1) is in the shape
        if left is not None and left > low:
            low = left
        for value in range(low, m + 1):
            if remaining is not None:
                if remaining[value - 1] == 0:
                    continue
                remaining[value - 1] -= 1
            weight[value - 1] += 1
            current[r] = value
            yield from fill_column(c, rows, row_pos + 1, current)
            del current[r]
            weight[value - 1] -= 1
            if remaining is not None:
                remaining[value - 1] += 1

    def next_column(c: int, current: dict[int, int]):
        nonlocal previous
        if c > len(columns):
            yield tuple(weight)
            return
        saved = previous
        previous = current
        yield from fill_column(c, columns[c - 1], 0, {})
        previous = saved

    # A column taller than m admits no strictly increasing filling.
    if any(len(rows) > m for rows in columns):
        return
    yield from next_column(1, {})


def schur(lam, m: int) -> Polynomial:
    """Schur polynomial of ``lam`` in m variables: the skew shape lam/()."""
    return skew_schur(SkewShape(lam, Partition()), m)


def skew_schur(shape: SkewShape, m: int) -> Polynomial:
    """Skew Schur polynomial of shape outer/inner in m variables."""
    if m < 1:
        raise ValueError("need at least one variable")
    terms: dict[tuple, int] = {}
    for weight in _enumerate_fillings(shape.outer, shape.inner, m):
        terms[weight] = terms.get(weight, 0) + 1
    return Polynomial(m, {w: Fraction(c) for w, c in terms.items()})


def kostka(lam, mu) -> int:
    """Number of semistandard tableaux of shape ``lam`` and weight ``mu``."""
    lam = _as_partition(lam)
    mu = tuple(int(x) for x in mu)
    if any(x < 0 for x in mu):
        return 0
    if lam.size() != sum(mu):
        return 0
    m = len(mu)
    count = 0
    for weight in _enumerate_fillings(lam, Partition(), m, budget=mu):
        if weight == mu:
            count += 1
    return count


def complete_homogeneous(k: int, m: int) -> Polynomial:
    """Sum of all degree-k monomials in m variables."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if m < 1:
        raise ValueError("need at least one variable")
    terms = {}
    for combo in itertools.combinations_with_replacement(range(m), k):
        exponent = [0] * m
        for i in combo:
            exponent[i] += 1
        terms[tuple(exponent)] = Fraction(1)
    return Polynomial(m, terms)


def complement_partition(lam, m: int, ell: int) -> Partition:
    """Complement of ``lam`` inside the m x ell box: kappa_i = ell - lam_{m+1-i}."""
    lam = _as_partition(lam)
    if len(lam) > m:
        raise ValueError(f"{lam!r} has more than {m} parts")
    if lam.part(1) > ell:
        raise ValueError(f"box width {ell} smaller than largest part {lam.part(1)}")
    return Partition(tuple(ell - lam.part(m + 1 - i) for i in range(1, m + 1)))


# -- marked shifted tableaux ---------------------------------------------
#
# Entries come from the ordered alphabet 1' < 1 < 2' < 2 < ..., encoded as
# 2k-1 for k' and 2k for k.  Rows and columns weakly increase; a primed
# letter repeats in no row, an unprimed letter repeats in no column, and
# the main diagonal is unprimed.  Row i of the shifted diagram occupies
# columns i .. i + lam_i - 1.


def schur_p(lam, m: int) -> Polynomial:
    """Schur P-polynomial of a strict partition in m variables."""
    if m < 1:
        raise ValueError("need at least one variable")
    if not isinstance(lam, StrictPartition):
        lam = StrictPartition(lam)
    rows = lam.parts
    cells = [(r, c) for r in range(1, len(rows) + 1) for c in range(r, r + rows[r - 1])]
    terms: dict[tuple, int] = {}
    weight = [0] * m
    values: dict[tuple, int] = {}

    def place(pos: int):
        if pos == len(cells):
            key = tuple(weight)
            terms[key] = terms.get(key, 0) + 1
            return
        r, c = cells[pos]
        left = values.get((r, c - 1))
        above = values.get((r - 1, c))
        low = max(left or 1, above or 1)
        for v in range(low, 2 * m + 1):
            if c == r and v % 2 == 1:
                continue  # diagonal cells are unprimed
            if v == left and v % 2 == 1:
                continue  # primed letters do not repeat along a row
            if v == above and v % 2 == 0:
                continue  # unprimed letters do not repeat down a column
            values[(r, c)] = v
            weight[(v + 1) // 2 - 1] += 1
            place(pos + 1)
            weight[(v + 1) // 2 - 1] -= 1
            del values[(r, c)]

    place(0)
    return Polynomial(m, {w: Fraction(c) for w, c in terms.items()})


# -- Kostant partition function and truncated characters -----------------


def _negative_roots(m: int):
    """Vectors e_b - e_a for a < b, in lexicographic (a, b) order."""
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


def kostant_partition(v) -> int:
    """Count multisets of negative roots e_b - e_a (a < b) summing to ``v``.

    Bounded knapsack over the lexicographically ordered roots.  Any single
    root multiplicity is at most the total negative mass of ``v`` (each
    unit of an expressing multiset traces an index-increasing path, and no
    edge carries more units than there are paths).
    """
    v = tuple(int(x) for x in v)
    if sum(v) != 0:
        return 0
    m = len(v)
    roots = _negative_roots(m)
    bound = sum(-x for x in v if x < 0)
    if bound == 0:
        return 1  # the empty multiset expresses the zero vector

    # settled[t]: coordinates no root from position t onward can change
    settled = [set(range(m))]
    for a, b in reversed(roots):
        settled.append(settled[-1] - {a, b})
    settled.reverse()

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def ways(index: int, target: tuple) -> int:
        if any(target[i] for i in settled[index]):
            return 0
        if index == len(roots):
            return 1
        a, b = roots[index]
        total = 0
        for count in range(bound + 1):
            nxt = list(target)
            nxt[a] += count
            nxt[b] -= count
            total += ways(index + 1, tuple(nxt))
        return total

    result = ways(0, v)
    ways.cache_clear()
    return result


def verma_truncated_normalized(delta) -> Polynomial:
    """Normalized truncated character of a universal highest-weight module.

    Expands the product over pairs i > j of 1 + x_i/x_j + (x_i/x_j)^2 + ...
    with each geometric factor truncated at exponent sum(delta), multiplies
    by x^delta, keeps the part with nonnegative exponents and normalizes
    it.  No root enters a nonnegative term more than sum(delta) times, so
    nothing is lost to the truncation.  The result is homogeneous of
    degree sum(delta).
    """
    delta = tuple(int(x) for x in delta)
    if any(x < 0 for x in delta):
        raise ValueError("delta entries must be nonnegative")
    m = len(delta)
    if m < 1:
        raise ValueError("need at least one variable")
    cap = sum(delta)

    factors = sorted(_negative_roots(m), key=lambda ab: (ab[0], ab[1]))
    # raises_left[t][c] = how many factors from position t on can still raise
    # coordinate c; used to prune partial products that already sank below
    # what later factors plus the final x^delta shift can recover.  After the
    # last factor nothing can, so every surviving exponent is nonnegative.
    raises_left = [[0] * m for _ in range(len(factors) + 1)]
    for t in range(len(factors) - 1, -1, -1):
        raises_left[t] = list(raises_left[t + 1])
        raises_left[t][factors[t][1]] += 1

    current: dict[tuple, Fraction] = {(0,) * m: Fraction(1)}
    for t, (j, i) in enumerate(factors):
        # factor for the pair (i > j): sum_k x_i^k x_j^-k, 0 <= k <= cap
        nxt: dict[tuple, Fraction] = {}
        for exponent, coeff in current.items():
            for k in range(cap + 1):
                e = list(exponent)
                e[i] += k
                e[j] -= k
                viable = all(
                    e[c] + delta[c] + cap * raises_left[t + 1][c] >= 0 for c in range(m)
                )
                if not viable:
                    continue
                key = tuple(e)
                nxt[key] = nxt.get(key, Fraction(0)) + coeff
        current = nxt

    shifted = {tuple(e + d for e, d in zip(exponent, delta)): coeff
               for exponent, coeff in current.items()}
    return normalize(Polynomial(m, shifted))
