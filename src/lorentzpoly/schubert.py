"""Permutation combinatorics and divided-difference polynomial generators.

Schubert, Grothendieck and key polynomials share one ascent recursion on
a tuple: at its smallest ascent i the polynomial is op_i of the polynomial
of the tuple with positions i, i+1 swapped, and a tuple with no ascent
gets a top polynomial.  Schubert polynomials apply divided differences
d_i to one-line notation from the staircase monomial; Grothendieck
polynomials the isobaric pi_i = d_i((1 - x_{i+1}) .) from the same top;
key polynomials d_i (x_i * .) to a composition, from x^mu at a partition.
The recursion is deterministic and path-independent, which the tests
verify directly.

Each d_i is computed term by term from its value on a monomial
(Macdonald, Notes on Schubert polynomials, ch. II): with a and b the
powers of x_i and x_{i+1}, d_i x_i^a x_{i+1}^b is the sum of
x_i^k x_{i+1}^(a+b-1-k) over b <= k < a when a > b, minus the same sum
with a and b exchanged when a < b, and 0 when a = b; the other variables
factor out.

All three families have integer coefficients, so the recursion runs on
term maps {exponent: int}.  Multiplying by x_{i+1} or x_i shifts every
exponent, so pi_i is one shift and one subtraction on the map before d_i,
and the key operator a shift before d_i; no step builds a Polynomial.
A memo passed as ``cache`` maps each tuple on the climbed path to its int
map, and each generator hands the int map of its result to
``Polynomial._from_ints``, which makes its Fractions; ``schubert_dual``
hands the reflected map there and then to ``normalize``.  A sweep passes
a ``RootPath`` memo and walks S_n in ``descent_tree`` order, so it holds
one path of the tree at a time.
No answer of the certifier depends on the order of the terms of a map.

Degree polynomials sum, over saturated chains of the Bruhat order, the
product of the linear forms x_i + ... + x_{j-1} attached to each cover by
the transposed positions i < j.  The lower covers of a one-line tuple are
read off its entries, with no length count, and each call memoizes the sum
as int coefficients per tuple of the interval.
"""

import itertools

from .polynomials import Polynomial, _int_count, _int_entries, normalize


class Permutation:
    """A permutation of 1..n in one-line notation."""

    __slots__ = ("one_line",)

    def __init__(self, one_line):
        one_line = _int_entries(one_line)
        n = len(one_line)
        if n == 0 or sorted(one_line) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {one_line}")
        self.one_line = one_line

    @property
    def n(self) -> int:
        return len(self.one_line)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, _int_count(n, "n") + 1))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(range(_int_count(n, "n"), 0, -1))

    @classmethod
    def from_string(cls, text: str) -> "Permutation":
        """Accepts one-line notation as digits ('1432', up to 9 letters) or comma
        form ('1,4,3,2')."""
        text = text.strip()
        if "," in text:
            return cls(int(v) for v in text.split(","))
        if len(text) >= 10:
            raise ValueError(
                f"digit form {text!r} is ambiguous for 10 or more letters; "
                "use the comma form, e.g. 1,2,...,10"
            )
        return cls(int(ch) for ch in text)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.one_line == other.one_line

    def __hash__(self):
        return hash(self.one_line)

    def __repr__(self):
        return f"Permutation({''.join(str(v) for v in self.one_line)})"

    def __call__(self, i: int) -> int:
        """Value at position i (1-based)."""
        return self.one_line[i - 1]

    def length(self) -> int:
        """Number of inversions."""
        return sum(lehmer_code(self))

    def swap_positions(self, i: int, j: int) -> "Permutation":
        """Right multiplication by the transposition of positions i < j."""
        line = list(self.one_line)
        line[i - 1], line[j - 1] = line[j - 1], line[i - 1]
        return Permutation(line)

    def descents(self):
        """Positions i with w(i) > w(i+1)."""
        return [
            i + 1
            for i in range(len(self.one_line) - 1)
            if self.one_line[i] > self.one_line[i + 1]
        ]


def all_permutations(n: int):
    for line in itertools.permutations(range(1, _int_count(n, "n") + 1)):
        yield Permutation(line)


def lehmer_code(w: Permutation) -> tuple:
    """L(w)_i = number of j > i with w(j) < w(i)."""
    line = w.one_line
    return tuple(
        sum(1 for j in range(i + 1, len(line)) if line[j] < line[i])
        for i in range(len(line))
    )


def permutation_from_code(code) -> Permutation:
    """Inverse of ``lehmer_code``."""
    code = list(_int_entries(code))
    available = list(range(1, len(code) + 1))
    line = []
    for c in code:
        if c >= len(available):
            raise ValueError(f"invalid Lehmer code {tuple(code)}")
        line.append(available.pop(c))
    return Permutation(line)


def grassmannian_for(kappa, m: int, n: int) -> Permutation:
    """The permutation in S_n with code (kappa_m, ..., kappa_1, 0, ..., 0).

    It has at most one descent, located at position m, and its Schubert
    polynomial equals the Schur polynomial of kappa in x_1 .. x_m.
    """
    parts = _int_entries(kappa.parts if hasattr(kappa, "parts") else kappa)
    m, n = _int_count(m, "m"), _int_count(n, "n")
    parts = parts + (0,) * (m - len(parts))
    if len(parts) > m:
        raise ValueError(f"kappa has more than {m} parts")
    width = parts[0] if parts else 0  # m = 0: the code is all zeros
    if n < m + width:
        raise ValueError(f"need n >= {m + width}, got {n}")
    code = tuple(parts[m - 1 - i] for i in range(m)) + (0,) * (n - m)
    w = permutation_from_code(code)
    if any(d != m for d in w.descents()):
        raise ValueError(f"kappa={parts} is not a partition")
    return w


def avoids_pattern(w: Permutation, pattern: Permutation) -> bool:
    """True when no subsequence of w is order-isomorphic to the pattern."""
    line = w.one_line
    k = pattern.n
    target = pattern.one_line
    for positions in itertools.combinations(range(len(line)), k):
        values = [line[p] for p in positions]
        ranks = sorted(range(k), key=lambda t: values[t])
        pattern_of_values = [0] * k
        for rank, t in enumerate(ranks, start=1):
            pattern_of_values[t] = rank
        if tuple(pattern_of_values) == target:
            return False
    return True


# -- operator machinery --------------------------------------------------
#
# The operators act on term maps {exponent: coefficient}.  The ascent
# recursion passes int maps; the public operators pass the Fraction maps of
# their Polynomial arguments through the same code.


def _divided_terms(terms: dict, i: int) -> dict:
    """d_i of a term map, term by term, with zero sums dropped.

    A term c x^e with a = e_i and b = e_{i+1} gives +-c times the sum of
    x_i^k x_{i+1}^(a+b-1-k) over min(a, b) <= k < max(a, b), the rest of
    the monomial unchanged: + when a > b, - when a < b, nothing when a = b.
    """
    out = {}
    for exponent, coeff in terms.items():
        a, b = exponent[i - 1], exponent[i]
        if a == b:
            continue
        if a < b:
            a, b, coeff = b, a, -coeff
        head, tail = exponent[: i - 1], exponent[i + 1 :]
        for k in range(b, a):
            key = head + (k, a + b - 1 - k) + tail
            previous = out.get(key)
            out[key] = coeff if previous is None else previous + coeff
    return {e: c for e, c in out.items() if c}


def _pi_terms(terms: dict, i: int) -> dict:
    """pi_i of a term map: d_i of (1 - x_{i+1}) times it, where the product
    is each term shifted by x_{i+1} and subtracted from the map."""
    lowered = dict(terms)
    for exponent, coeff in terms.items():
        key = exponent[:i] + (exponent[i] + 1,) + exponent[i + 1 :]
        acc = lowered.get(key, 0) - coeff
        if acc:
            lowered[key] = acc
        else:
            del lowered[key]
    return _divided_terms(lowered, i)


def _key_terms(terms: dict, i: int) -> dict:
    """d_i of x_i times a term map; the product is a shift of each term."""
    j = i - 1
    return _divided_terms(
        {e[:j] + (e[j] + 1,) + e[i:]: c for e, c in terms.items()}, i
    )


def _operator_index(poly: Polynomial, i) -> int:
    i = _int_count(i, "i")
    if not 1 <= i < poly.arity:
        raise ValueError(f"index {i} out of range 1..{poly.arity - 1}")
    return i


def divided_difference(poly: Polynomial, i: int) -> Polynomial:
    """(p - p with x_i, x_{i+1} swapped) / (x_i - x_{i+1})."""
    i = _operator_index(poly, i)
    return Polynomial._raw(poly.arity, _divided_terms(poly.terms, i))


def demazure_pi(poly: Polynomial, i: int) -> Polynomial:
    """Isobaric operator pi_i p = d_i((1 - x_{i+1}) p)."""
    i = _operator_index(poly, i)
    return Polynomial._raw(poly.arity, _pi_terms(poly.terms, i))


def staircase_monomial(n: int) -> Polynomial:
    """x_1^{n-1} x_2^{n-2} ... x_{n-1}."""
    n = _int_count(n, "n")
    return Polynomial.monomial(n, tuple(range(n - 1, -1, -1)))


def _descent_recursion(line: tuple, apply_op, top, cache):
    """Shared engine: at the smallest i with line[i-1] < line[i], apply_op
    to the result for line with positions i, i+1 swapped; a tuple with no
    ascent gets top(line).  ``cache``, when given, maps tuples to results.

    The swaps are climbed in a loop, up to the first tuple with a cached
    result or no ascent, and the operators applied on the way back down,
    so a tuple of any length needs no recursion depth.  A call tests
    membership on the way up, then either reads its deepest cached
    ancestor once or stores the top, and stores each tuple below it in
    turn, ending with ``line``; a ``RootPath`` memo relies on that order."""
    path = []  # (tuple, its smallest ascent), from ``line`` upward
    while cache is None or line not in cache:
        for i in range(1, len(line)):
            if line[i - 1] < line[i]:
                path.append((line, i))
                line = line[: i - 1] + (line[i], line[i - 1]) + line[i + 1 :]
                break
        else:
            result = top(line)
            if cache is not None:
                cache[line] = result
            break
    else:
        result = cache[line]
    for line, i in reversed(path):
        result = apply_op(result, i)
        if cache is not None:
            cache[line] = result
    return result


class RootPath(dict):
    """A ``_descent_recursion`` memo that keeps one path of the descent tree
    of S_n down from w_0: at most n(n-1)/2 + 1 tuples.

    Insertion order is the path order.  A read lands on the deepest cached
    ancestor of the tuple being built, so every entry stored after it lies
    off that tuple's path and is dropped; the stores that follow extend
    the path.  A sweep in ``descent_tree`` order applies one operator per
    tuple, to its parent's cached result."""

    __slots__ = ()

    def __getitem__(self, key):
        value = dict.__getitem__(self, key)
        while next(reversed(self)) != key:
            self.popitem()
        return value


def descent_tree(n: int):
    """S_n as one-line tuples in depth-first preorder of the descent tree.

    The root is w_0; the parent of w swaps positions i, i+1 at its smallest
    ascent i.  So the children of v swap a descent j with
    v(1) > ... > v(j-1) > v(j+1), and are visited in increasing j."""
    stack = [tuple(range(_int_count(n, "n"), 0, -1))]
    while stack:
        v = stack.pop()
        yield v
        children = []
        for j in range(len(v) - 1):  # 0-based: swap v[j], v[j+1]
            if j > 1 and v[j - 2] < v[j - 1]:
                break
            if v[j] > v[j + 1] and (j == 0 or v[j - 1] > v[j + 1]):
                children.append(v[:j] + (v[j + 1], v[j]) + v[j + 2 :])
        stack.extend(reversed(children))


def _staircase_terms(line: tuple) -> dict:
    n = len(line)
    return {tuple(range(n - 1, -1, -1)): 1}


def _schubert_terms(w: Permutation, cache) -> dict:
    return _descent_recursion(w.one_line, _divided_terms, _staircase_terms, cache)


def _grothendieck_terms(w: Permutation, cache) -> dict:
    return _descent_recursion(w.one_line, _pi_terms, _staircase_terms, cache)


def schubert(w: Permutation, cache: dict | None = None) -> Polynomial:
    """Schubert polynomial of w, via divided differences from the staircase."""
    return Polynomial._from_ints(w.n, _schubert_terms(w, cache))


def grothendieck(w: Permutation, cache: dict | None = None) -> Polynomial:
    """Grothendieck polynomial of w, via isobaric operators from the staircase."""
    return Polynomial._from_ints(w.n, _grothendieck_terms(w, cache))


def schubert_dual(w: Permutation, cache: dict | None = None) -> Polynomial:
    """Normalized reflection: c/mu! at mu = (n-1, ..., n-1) - e for each term
    c x^e of S_w.  The degree of S_w in x_i is at most n - i, so every mu is
    nonnegative."""
    top = w.n - 1
    reflected = {tuple(top - e for e in exponent): coeff
                 for exponent, coeff in _schubert_terms(w, cache).items()}
    return normalize(Polynomial._from_ints(w.n, reflected))


def grothendieck_component(w: Permutation, k: int) -> Polynomial:
    """Homogeneous piece of the Grothendieck polynomial in degree l(w) + k."""
    k = _int_count(k, "k")
    if k < 0:
        raise ValueError("component index must be nonnegative")
    return grothendieck(w).homogeneous_component(w.length() + k)


def homogeneous_grothendieck(w: Permutation, cache: dict | None = None) -> Polynomial:
    """Degree-equalized Grothendieck polynomial in n + 1 variables (z last).

    Component k is weighted by (-1)^k z^(d - l - k) where d is the degree of
    the Grothendieck polynomial and l the length of w, so every term of the
    alternating sum reaches total degree d.
    """
    g = _grothendieck_terms(w, cache)
    ell = w.length()
    d = max(map(sum, g))
    terms = {}
    for e, c in g.items():
        size = sum(e)
        terms[e + (d - size,)] = -c if (size - ell) % 2 else c
    return Polynomial._from_ints(w.n + 1, terms)


def key_polynomial(mu) -> Polynomial:
    """Key polynomial of a composition, by sorting toward a partition.

    A weakly decreasing mu gives the monomial x^mu; at the smallest ascent
    i the operator d_i (x_i * .) applied to the key of mu with positions
    i, i+1 swapped gives the key of mu.
    """
    mu = _int_entries(mu)
    if any(x < 0 for x in mu):
        raise ValueError("composition entries must be nonnegative")
    if not mu:
        raise ValueError("empty composition")
    return Polynomial._from_ints(
        len(mu), _descent_recursion(mu, _key_terms, lambda top: {top: 1}, None)
    )


def _covers_below(line: tuple):
    """(lower, i, j) for each lower cover of ``line``, ordered by (i, j):
    positions i < j (0-based) with line[i] > line[j] and no value strictly
    between the two at a position between them (Bjorner-Brenti, Lemma
    2.1.4); lower is ``line`` with positions i and j swapped."""
    for i, high in enumerate(line):
        floor = 0  # the largest value below ``high`` seen since position i
        for j in range(i + 1, len(line)):
            if floor < line[j] < high:
                floor = line[j]
                yield line[:i] + (floor,) + line[i + 1 : j] + (high,) + line[j + 1 :], i, j


def _chain_sum(line: tuple, arity: int, memo: dict) -> dict:
    """{exponent: int} of the chain sum from the identity to ``line``;
    ``memo`` maps tuples to it."""
    terms = memo.get(line)
    if terms is None:
        terms = {}
        for lower, i, j in _covers_below(line):
            for exponent, coeff in _chain_sum(lower, arity, memo).items():
                for k in range(i, j):  # times x_{i+1} + ... + x_j
                    key = exponent[:k] + (exponent[k] + 1,) + exponent[k + 1 :]
                    terms[key] = terms.get(key, 0) + coeff
        if not terms:  # only the identity has no lower cover; its one chain is empty
            terms = {(0,) * arity: 1}
        memo[line] = terms
    return terms


def degree_polynomial(w: Permutation) -> Polynomial:
    """Sum over saturated Bruhat chains from the identity to w of the
    product of Chevalley multiplicities; a polynomial in n - 1 variables
    (one variable when n = 1, where the only chain is empty)."""
    arity = max(1, w.n - 1)
    return Polynomial._from_ints(arity, _chain_sum(w.one_line, arity, {}))
