"""Workload definitions: sweep rungs, the benchmark's own instance
enumeration, certification targets, and the seeded certify-files stream.

Everything here calls only the public API of ``lorentzpoly``, through the
package attributes, so that the traced run can wrap them.  The enumerators
are written apart from ``lorentzpoly.sweeps`` so that the instance count a
sweep reports can be checked against an independent one.
"""

import itertools
import random
from fractions import Fraction

import lorentzpoly as lp

# A rung is (family, mode, bounds, only), the arguments of
# ``lorentz sweep --family F --mode M <bounds> [--only O] --jobs 1``.
RUNGS = {
    "sweep-symmetric": [
        ("schur", "certify", {"boxes": 7, "parts": 5, "vars": 5}, None),
        ("skew", "certify", {"boxes": 6, "parts": 3, "vars": 4}, None),
        ("schur_p", "certify", {"max_part": 5, "parts": 3, "vars": 4}, None),
        ("verma", "certify", {"vars": 3, "delta": 4}, None),
        ("schur", "inequality", {"boxes": 8, "parts": 4, "vars": 4}, None),
    ],
    "sweep-schubert": [
        ("schubert", "certify", {"n": 6}, None),
        ("schubert_dual", "certify", {"n": 5}, None),
        ("grothendieck", "certify", {"n": 5}, None),
        ("grothendieck_homog", "certify", {"n": 5}, None),
        ("key", "certify", {"boxes": 5, "parts": 4}, None),
        ("degree", "certify", {"n": 5}, "w=3"),
        ("schubert", "inequality", {"n": 6}, None),
    ],
}
WORKLOADS = ("sweep-symmetric", "sweep-schubert", "certify-files")

PERMUTATION_FAMILIES = ("schubert", "schubert_dual", "grothendieck",
                        "grothendieck_homog", "degree")


# -- the benchmark's own instance enumeration -------------------------------


def _partitions(boxes, parts, largest=None):
    """Weakly decreasing tuples of positive ints, sum <= boxes, length <= parts."""
    largest = boxes if largest is None else largest
    yield ()
    if parts == 0:
        return
    for first in range(1, min(boxes, largest) + 1):
        for rest in _partitions(boxes - first, parts - 1, first):
            yield (first,) + rest


def _contained(lam):
    """Partitions nu with nu_i <= lam_i for every row."""
    ranges = [range(p + 1) for p in lam]
    for nu in itertools.product(*ranges):
        if all(a >= b for a, b in zip(nu, nu[1:])):
            yield tuple(p for p in nu if p)


def rung_instances(family, bounds, only=None):
    """(instance id, payload) pairs of one rung, ids in the sweep's format."""
    out = []

    def fmt(seq):
        return ",".join(str(x) for x in seq)

    if family in ("schur", "skew"):
        for lam in _partitions(bounds["boxes"], bounds["parts"]):
            inners = [()] if family == "schur" else list(_contained(lam))
            for nu in inners:
                for m in range(1, bounds["vars"] + 1):
                    if family == "schur":
                        out.append((f"lambda={fmt(lam)}|m={m}", (lam, m)))
                    else:
                        out.append((f"lambda={fmt(lam)}/nu={fmt(nu)}|m={m}", (lam, nu, m)))
    elif family == "schur_p":
        for size in range(bounds["parts"] + 1):
            for combo in itertools.combinations(range(bounds["max_part"], 0, -1), size):
                for m in range(1, bounds["vars"] + 1):
                    out.append((f"lambda={fmt(combo)}|m={m}", (combo, m)))
    elif family == "key":
        for mu in itertools.product(range(bounds["boxes"] + 1), repeat=bounds["parts"]):
            if sum(mu) <= bounds["boxes"]:
                out.append((f"mu={fmt(mu)}", (mu,)))
    elif family in PERMUTATION_FAMILIES:
        for line in itertools.permutations(range(1, bounds["n"] + 1)):
            out.append(("w=" + "".join(map(str, line)), (line,)))
    elif family == "verma":
        for m in range(1, bounds["vars"] + 1):
            for delta in itertools.product(range(bounds["delta"] + 1), repeat=m):
                out.append((f"delta={fmt(delta)}", (delta,)))
    else:
        raise ValueError(f"no enumerator for family {family!r}")
    if only is not None:
        out = [(i, p) for i, p in out if only in i]
    return out


# -- generation and certification targets -----------------------------------


def new_caches():
    """Fresh memo tables shared the way one sweep process shares them."""
    return {"schubert": {}, "grothendieck": {}}


def raw_polynomial(family, payload, caches):
    if family == "schur":
        return lp.schur(lp.Partition(payload[0]), payload[1])
    if family == "skew":
        return lp.skew_schur(lp.SkewShape(lp.Partition(payload[0]), lp.Partition(payload[1])), payload[2])
    if family == "schur_p":
        return lp.schur_p(lp.StrictPartition(payload[0]), payload[1])
    if family == "key":
        return lp.key_polynomial(payload[0])
    if family == "verma":
        return lp.verma_truncated_normalized(payload[0])
    w = lp.Permutation(payload[0])
    if family == "schubert":
        return lp.schubert(w, caches["schubert"])
    if family == "schubert_dual":
        return lp.schubert_dual(w, caches["schubert"])
    if family == "grothendieck":
        return lp.grothendieck(w, caches["grothendieck"])
    if family == "grothendieck_homog":
        return lp.homogeneous_grothendieck(w, caches["grothendieck"])
    if family == "degree":
        return lp.degree_polynomial(w)
    raise ValueError(f"unknown family {family!r}")


def certify_targets(family, payload, caches):
    """(label, polynomial) pairs a certify sweep must find Lorentzian.

    These follow the documented certification target of each family: the
    normalized polynomial, the reflected-normalized one for
    ``schubert_dual``, the sign-corrected normalized homogeneous components
    for ``grothendieck``, and the raw polynomial for ``degree``/``verma``.
    """
    raw = raw_polynomial(family, payload, caches)
    if family in ("schubert_dual", "degree", "verma"):
        return [("raw" if family != "schubert_dual" else "dual", raw)]
    if family == "grothendieck":
        ell = lp.Permutation(payload[0]).length()
        top = raw.total_degree() if raw else ell
        return [
            (f"component k={k}", lp.normalize(raw.homogeneous_component(ell + k)) * ((-1) ** k))
            for k in range(top - ell + 1)
        ]
    return [("normalized", lp.normalize(raw))]


def certify_target_count(family, mode, bounds, only):
    """How many targets ``certify_targets`` gives over the rung's instances.

    Only ``grothendieck`` has more than one target per instance, so only its
    polynomials are built.
    """
    if mode != "certify":
        return 0
    instances = rung_instances(family, bounds, only)
    if family != "grothendieck":
        return len(instances)
    caches = new_caches()
    return sum(len(certify_targets(family, payload, caches)) for _, payload in instances)


# -- the certify-files stream ----------------------------------------------
#
# Every pass sees the same multiset of base polynomials, so the stream's
# cost barely depends on the seed; the seed picks the order, the random
# positive scale of each text, which terms are negated or removed, and the
# coefficients of the random bivariate texts.

MEMBER = "member"            # normalized family member: Lorentzian
RAW_SCHUR = "raw_schur"      # raw Schur polynomial: Lorentzian or a Hessian failure
NEGATED = "negated"          # one coefficient negated: negative_coefficient
THINNED = "thinned"          # one interior support point removed: support_not_m_convex
INHOMOGENEOUS = "inhomogeneous"  # raw Grothendieck with degree > length: not_homogeneous
BIVARIATE = "bivariate"      # random bivariate: agrees with bivariate_ulc

STREAM_REPEATS = 3


def _base_members():
    caches = new_caches()
    members = []
    for lam in _partitions(6, 3):
        if sum(lam) >= 2:
            for m in (3, 4, 5):
                members.append(("schur", (lam, m)))
    for line in itertools.permutations(range(1, 5)):
        members.append(("schubert", (line,)))
        members.append(("grothendieck_homog", (line,)))
    for mu in itertools.product(range(4), repeat=3):
        if sum(mu) >= 2:
            members.append(("key", (mu,)))
    for lam in _partitions(5, 3):
        for nu in _contained(lam):
            if sum(lam) - sum(nu) >= 2 and nu:
                members.append(("skew", (lam, nu, 3)))
    out = [
        (f"{family}:{payload}", lp.normalize(raw_polynomial(family, payload, caches)))
        for family, payload in members
    ]
    return out, caches


def moved(e, i, j):
    """The exponent e + e_i - e_j (0-based i, j)."""
    out = list(e)
    out[i] += 1
    out[j] -= 1
    return tuple(out)


def _interior_points(poly):
    """Support points e with e + e_i - e_j and e - e_i + e_j both present."""
    support = poly.support()
    pairs = [(i, j) for i in range(poly.arity) for j in range(poly.arity) if i != j]
    return [e for e in sorted(support)
            if any(moved(e, i, j) in support and moved(e, j, i) in support for i, j in pairs)]


def _scaled(poly, rng):
    return poly * Fraction(rng.randint(1, 12), rng.randint(1, 12))


def _spread_pick(choices, offset, repeat):
    """Pick ``repeat`` of ``STREAM_REPEATS`` evenly spaced choices, shifted by ``offset``.

    The repeats of one member take choices spread over its list (say, early
    and late support points) rather than independent ones, which keeps the
    cost of a pass nearly the same for every seed.
    """
    return choices[int((offset + repeat / STREAM_REPEATS) * len(choices)) % len(choices)]


def certify_stream(seed):
    """Seeded list of (kind, label, text) triples for ``certify-files``."""
    rng = random.Random(seed)
    members, caches = _base_members()
    members = [(label, poly, sorted(poly.terms), _interior_points(poly), rng.random())
               for label, poly in members]
    raw_schurs = [(f"schur:{lam},{m}", lp.schur(lp.Partition(lam), m))
                  for lam in _partitions(6, 3) if sum(lam) >= 2 for m in (2, 3, 4)]
    inhomogeneous = []
    for line in itertools.permutations(range(1, 6)):
        w = lp.Permutation(line)
        g = lp.grothendieck(w, caches["grothendieck"])
        if g and g.total_degree() > w.length():
            inhomogeneous.append((INHOMOGENEOUS, f"grothendieck:{line}", g))
    items = []
    for repeat in range(STREAM_REPEATS):
        for label, poly, exponents, interior, offset in members:
            items.append((MEMBER, label, _scaled(poly, rng)))
            terms = dict(poly.terms)
            victim = _spread_pick(exponents, offset, repeat)
            terms[victim] = -terms[victim]
            items.append((NEGATED, label, lp.Polynomial(poly.arity, terms)))
            if interior:
                terms = dict(poly.terms)
                del terms[_spread_pick(interior, offset, repeat)]
                items.append((THINNED, label, _scaled(lp.Polynomial(poly.arity, terms), rng)))
        items.extend((RAW_SCHUR, label, _scaled(raw, rng)) for label, raw in raw_schurs)
        items.extend(inhomogeneous)
        for degree in range(2, 9):
            for _ in range(6):
                coeffs = {(k, degree - k): Fraction(rng.randint(0, 9), rng.randint(1, 4))
                          for k in range(degree + 1)}
                items.append((BIVARIATE, f"bivariate:{degree}", lp.Polynomial(2, coeffs)))
    rng.shuffle(items)
    return [(kind, label, lp.format_polynomial(poly)) for kind, label, poly in items]
