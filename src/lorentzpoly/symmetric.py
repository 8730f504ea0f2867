"""Generators for Schur-family symmetric polynomials and weight multiplicities.

Skew Schur polynomials (and through them Schur polynomials, the skew shape
lam/()) and Schur P-polynomials come from their branching rules: the
polynomial in x_1..x_m is a sum, over the shapes left when a horizontal
strip is removed, of the polynomial in x_1..x_{m-1} times a power of x_m
(Macdonald, *Symmetric Functions and Hall Polynomials*, I (5.11) and III
sections 5 and 8).  The levels are built from one variable up, with int
coefficients, and the int map of the top level goes to
``Polynomial._from_ints``, which makes its Fractions; the cost is the
number of monomials met on the way, not the number of tableaux.  A
caller that builds many shapes passes a ``cache`` dict, which keeps every
level below the one asked for (a sweep keeps one per family and empties it
when the sweep ends).  Kostka numbers are the Schur rule read at one
weight.  The tableau walks these replace live with the tests as
cross-checks.

Also here: the type A Kostant partition function K and the normalized
truncated character of a universal highest-weight module, both read off
one expansion on int counts: the product of geometric factors over the
negative roots, each truncated at sum(delta), times x^delta, which drops
no term of nonnegative exponent and has K(mu - delta) at x^mu.  The tests
check K against a bounded knapsack over the roots.
"""

import itertools

from .polynomials import Polynomial, _int_count, _int_entries, normalize


class Partition:
    """Weakly decreasing tuple of nonnegative ints; trailing zeros dropped."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = _int_entries(parts)
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
        parts = _int_entries(parts)
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


# -- the branching rule ------------------------------------------------------
#
# The entry of a shape at level k is its polynomial in x_1..x_k, as a dict
# from exponents with their trailing zeros dropped to int coefficients.
# Without the trailing zeros an entry reads the same at every arity, and a
# term that takes x_k^0 passes from level k - 1 to level k unchanged.
# ``below(shape, k)`` lists the (shape, weight, strip size) triples at level
# k - 1 that the rule sums for ``shape`` at level k, leaving out shapes whose
# entry there is zero; every shape it lists at level 0 has the entry 1.


def _branch(top, m: int, below, memo, key) -> Polynomial:
    """The polynomial of ``top`` in x_1..x_m, by the rule ``below``.

    A walk down from level m finds the entries each level needs; the levels
    are then built from the bottom up, each from the one below it.  With a
    ``memo`` dict, an entry stored at ``key(shape, k)`` is read instead of
    built, and every entry built below level m is stored; the level-m entry
    is handed back as a polynomial and not kept.
    """
    zeros = (0,) * m  # pads every exponent to m; fails at once for an absurd m
    plan = []  # (k, {shape: its below(shape, k), or None for a memo hit})
    need = {top}
    for k in range(m, 0, -1):
        step = {}
        for shape in need:
            hit = memo is not None and key(shape, k) in memo
            step[shape] = None if hit else below(shape, k)
        plan.append((k, step))
        need = {lower for edges in step.values() if edges for lower, _, _ in edges}
        if not need:
            break
    table = dict.fromkeys(need, {(): 1})
    for k, step in reversed(plan):
        level = {}
        for shape, edges in step.items():
            if edges is None:
                level[shape] = memo[key(shape, k)]
                continue
            terms = {}
            for lower, weight, size in edges:
                if not size:
                    # lower is shape itself, with weight 1; its exponents are
                    # shorter than k, so they meet no other edge's, and a dict
                    # copy does not hash them again
                    terms.update(table[lower])
                    continue
                tail = (size,)
                for exponent, coeff in table[lower].items():
                    exponent = exponent + zeros[len(exponent):k - 1] + tail
                    terms[exponent] = terms.get(exponent, 0) + weight * coeff
            level[shape] = terms
            if memo is not None and k < m:
                memo[key(shape, k)] = terms
        table = level
    return Polynomial._from_ints(m, {e + zeros[len(e):]: c for e, c in table.get(top, {}).items()})


def _horizontal_strips(mu: tuple, nu: tuple, rows: int):
    """(kappa, 1, |mu/kappa|) for every partition kappa with nu inside kappa,
    mu/kappa a horizontal strip (mu_{i+1} <= kappa_i <= mu_i) and no column
    of kappa/nu longer than ``rows`` (kappa_{i+rows} <= nu_i)."""
    ranges = []
    for i, top in enumerate(mu):
        low = max(mu[i + 1] if i + 1 < len(mu) else 0, nu[i] if i < len(nu) else 0)
        if i >= rows:
            j = i - rows
            top = min(top, nu[j] if j < len(nu) else 0)
        if low > top:
            return []
        ranges.append(range(top, low - 1, -1))
    size = sum(mu)
    return [
        (tuple(p for p in kappa if p), 1, size - sum(kappa))
        for kappa in itertools.product(*ranges)
    ]


def schur(lam, m: int, cache: dict | None = None) -> Polynomial:
    """Schur polynomial of ``lam`` in m variables: the skew shape lam/()."""
    return skew_schur(SkewShape(lam, Partition()), m, cache)


def skew_schur(shape: SkewShape, m: int, cache: dict | None = None) -> Polynomial:
    """Skew Schur polynomial of shape outer/inner in m variables.

    s_{lam/nu}(x_1..x_m) is the sum, over mu with nu inside mu and lam/mu a
    horizontal strip, of s_{mu/nu}(x_1..x_{m-1}) x_m^{|lam/mu|} (Macdonald,
    I (5.11)).  ``cache`` keeps the entries below level m, keyed
    ``(mu, nu, k)``; ``schur`` shares them.
    """
    m = _int_count(m, "m")
    if m < 1:
        raise ValueError("need at least one variable")
    nu = shape.inner.parts
    return _branch(shape.outer.parts, m, lambda mu, k: _horizontal_strips(mu, nu, k - 1),
                   cache, lambda mu, k: (mu, nu, k))


def kostka(lam, mu) -> int:
    """Number of semistandard tableaux of shape ``lam`` and weight ``mu``.

    The Schur branching rule read at one weight: remove a horizontal strip
    of size mu_k from each shape, for k = len(mu) down to 1, and count the
    ways of reaching the empty shape.
    """
    lam = _as_partition(lam)
    mu = _int_entries(mu)
    if any(x < 0 for x in mu):
        return 0
    if lam.size() != sum(mu):
        return 0
    counts = {lam.parts: 1}
    for k in range(len(mu), 0, -1):
        below = {}
        for shape, count in counts.items():
            for kappa, _, size in _horizontal_strips(shape, (), k - 1):
                if size == mu[k - 1]:
                    below[kappa] = below.get(kappa, 0) + count
        counts = below
    return counts.get((), 0)


def complete_homogeneous(k: int, m: int) -> Polynomial:
    """Sum of all degree-k monomials in m variables."""
    k, m = _int_count(k, "k"), _int_count(m, "m")
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if m < 1:
        raise ValueError("need at least one variable")
    terms = {}
    for combo in itertools.combinations_with_replacement(range(m), k):
        exponent = [0] * m
        for i in combo:
            exponent[i] += 1
        terms[tuple(exponent)] = 1
    return Polynomial._from_ints(m, terms)


def complement_partition(lam, m: int, ell: int) -> Partition:
    """Complement of ``lam`` inside the m x ell box: kappa_i = ell - lam_{m+1-i}."""
    lam = _as_partition(lam)
    m, ell = _int_count(m, "m"), _int_count(ell, "ell")
    if len(lam) > m:
        raise ValueError(f"{lam!r} has more than {m} parts")
    if lam.part(1) > ell:
        raise ValueError(f"box width {ell} smaller than largest part {lam.part(1)}")
    return Partition(tuple(ell - lam.part(m + 1 - i) for i in range(1, m + 1)))


def _shifted_strips(lam: tuple, rows: int):
    """(mu, weight, |lam/mu|) for every strict partition mu of at most
    ``rows`` parts with lam_1 >= mu_1 >= lam_2 >= mu_2 >= ..., where the
    weight is 2^(c - l(lam) + l(mu)) and c counts the edge-connected pieces
    of the shifted strip lam/mu: rows i and i + 1 of the strip join exactly
    when both are nonempty and mu_i = lam_{i+1}."""
    n = len(lam)
    ranges = []
    for i in range(n):
        low = lam[i + 1] if i + 1 < n else 0
        top = lam[i] if i < rows else 0
        if low > top:
            return []
        ranges.append(range(top, low - 1, -1))
    size = sum(lam)
    out = []
    for mu in itertools.product(*ranges):
        if any(a == b for a, b in zip(mu, mu[1:]) if a):
            continue  # mu must be strict
        filled = [a < b for a, b in zip(mu, lam)]
        joins = sum(
            1 for i in range(n - 1) if filled[i] and filled[i + 1] and mu[i] == lam[i + 1]
        )
        pieces = sum(filled) - joins
        parts = tuple(p for p in mu if p)
        out.append((parts, 1 << (pieces - n + len(parts)), size - sum(mu)))
    return out


def schur_p(lam, m: int, cache: dict | None = None) -> Polynomial:
    """Schur P-polynomial of a strict partition in m variables.

    P_lam(x_1..x_m) is the sum, over the strict mu of ``_shifted_strips``,
    of P_mu(x_1..x_{m-1}) 2^(c - l(lam) + l(mu)) x_m^{|lam/mu|} (Macdonald,
    III sections 5 and 8).  ``cache`` keeps the entries below level m,
    keyed ``(mu, k)``.
    """
    m = _int_count(m, "m")
    if m < 1:
        raise ValueError("need at least one variable")
    if not isinstance(lam, StrictPartition):
        lam = StrictPartition(lam)
    return _branch(lam.parts, m, lambda mu, k: _shifted_strips(mu, k - 1), cache,
                   lambda mu, k: (mu, k))


# -- Kostant partition function and truncated characters -----------------


def _negative_roots(m: int):
    """Vectors e_b - e_a for a < b, in lexicographic (a, b) order."""
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


def _kostant_counts(delta: tuple) -> dict:
    """{mu: K(mu - delta)} over the mu >= 0 with |mu| = |delta| where K,
    the number of multisets of negative roots e_b - e_a (a < b) summing to
    a vector, is not zero.  The product over pairs i > j of the geometric
    series in x_i/x_j, each truncated at exponent |delta| (which loses
    nothing, see ``kostant_partition``), is expanded on int counts and
    shifted by x^delta.
    """
    m = len(delta)
    cap = sum(delta)

    factors = _negative_roots(m)
    # raises_left[t][c] = how many factors from position t on can still raise
    # coordinate c; used to prune partial products that already sank below
    # what later factors plus the final x^delta shift can recover.  After the
    # last factor nothing can, so every surviving exponent is nonnegative.
    raises_left = [[0] * m for _ in range(len(factors) + 1)]
    for t in range(len(factors) - 1, -1, -1):
        raises_left[t] = list(raises_left[t + 1])
        raises_left[t][factors[t][1]] += 1

    current: dict[tuple, int] = {(0,) * m: 1}
    for t, (j, i) in enumerate(factors):
        # factor for the pair (i > j): sum_k x_i^k x_j^-k, 0 <= k <= cap.
        # Every kept exponent is viable (the zero start too, as delta >= 0);
        # only coordinates i and j move, and only i loses a later raise, so
        # the viable k are one interval: e_i + k + slack_i >= 0 and
        # e_j - k + slack_j >= 0.
        slack_i = delta[i] + cap * raises_left[t + 1][i]
        slack_j = delta[j] + cap * raises_left[t + 1][j]
        nxt: dict[tuple, int] = {}
        for exponent, coeff in current.items():
            e = list(exponent)
            e_i, e_j = e[i], e[j]
            for k in range(max(0, -(e_i + slack_i)), min(cap, e_j + slack_j) + 1):
                e[i] = e_i + k
                e[j] = e_j - k
                key = tuple(e)
                nxt[key] = nxt.get(key, 0) + coeff
        current = nxt

    return {tuple(e + d for e, d in zip(exponent, delta)): coeff
            for exponent, coeff in current.items()}


def kostant_partition(v) -> int:
    """Count multisets of negative roots e_b - e_a (a < b) summing to ``v``.

    With v+ and v- the positive and negative parts of ``v``, the count is
    K(v+ - v-), read off ``_kostant_counts(v-)`` at v+.  Any single root
    multiplicity is at most the total negative mass |v-| (each unit of an
    expressing multiset traces an index-increasing path, and no edge
    carries more units than there are paths), so the truncation of the
    expansion at |v-| loses nothing.
    """
    v = _int_entries(v)
    if sum(v) != 0:
        return 0
    below = tuple(max(0, -x) for x in v)
    above = tuple(max(0, x) for x in v)
    return _kostant_counts(below).get(above, 0)


def verma_truncated_normalized(delta) -> Polynomial:
    """Normalized truncated character of a universal highest-weight module.

    The product over pairs i > j of 1 + x_i/x_j + (x_i/x_j)^2 + ..., times
    x^delta, with only its terms of nonnegative exponents kept and then
    normalized: the coefficient at mu is K(mu - delta) / mu!, ``normalize``
    of the counts of ``_kostant_counts``.  The result is homogeneous of
    degree sum(delta).
    """
    delta = _int_entries(delta)
    if any(x < 0 for x in delta):
        raise ValueError("delta entries must be nonnegative")
    m = len(delta)
    if m < 1:
        raise ValueError("need at least one variable")
    return normalize(Polynomial._from_ints(m, _kostant_counts(delta)))
