"""Correctness checks made apart from the certifier.

Each check recomputes what it needs through routes the certifier does not
use: its own exchange scan for M-convexity, Hessians re-derived through
``Polynomial.derivative`` and ``quadratic_form_matrix`` and classified by
``oracles.inertia_by_sturm_bracketing``, the hook-content formula for
Schur polynomials at (1, ..., 1), and ``bivariate_ulc`` for two-variable
texts.  A failed check raises ``CheckFailure``.
"""

import itertools
from fractions import Fraction

import lorentzpoly as lp
from lorentzpoly.oracles import inertia_by_sturm_bracketing

import workloads as wl


class CheckFailure(Exception):
    """An output of the program disagrees with an independent check."""


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


# -- instance counts and sweep reports ---------------------------------------


def check_sweep_report(rung, report):
    """A sweep checked exactly the instances its bounds allow, all passing."""
    family, mode, bounds, only = rung
    expected = len(wl.rung_instances(family, bounds, only))
    require(expected > 0, f"{family}/{mode}: bounds {bounds} allow no instance")
    require(report["instances_checked"] == expected,
            f"{family}/{mode}: checked {report['instances_checked']} instances, "
            f"bounds allow {expected}")
    require(report["failures"] == 0,
            f"{family}/{mode}: {report['failures']} failures, expected none")


# -- Schur polynomials at (1, ..., 1) ----------------------------------------


def hook_content(lam, m):
    """s_lam(1^m) as the product of (m + content) / hook over the cells."""
    conjugate = [sum(1 for p in lam if p > c) for c in range(lam[0])] if lam else []
    value = Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j - 1) + (conjugate[j] - i - 1) + 1
            value *= Fraction(m + j - i, hook)
    return value


def check_schur_values(rungs):
    for family, mode, bounds, only in rungs:
        if family != "schur":
            continue
        for instance, (lam, m) in wl.rung_instances(family, bounds, only):
            poly = lp.schur(lp.Partition(lam), m)
            value = sum(poly.terms.values(), Fraction(0))
            require(value == hook_content(lam, m),
                    f"schur {instance}: s(1,..,1) = {value}, hook-content gives "
                    f"{hook_content(lam, m)}")


# -- Lorentzian verdicts -----------------------------------------------------


def exchange_violation(support, alpha, beta, i):
    """True when alpha_i > beta_i and no j lets alpha, beta exchange."""
    if alpha[i] <= beta[i]:
        return False
    for j in range(len(alpha)):
        if alpha[j] < beta[j]:
            a = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            a = a[:j] + (a[j] + 1,) + a[j + 1:]
            b = beta[:j] + (beta[j] - 1,) + beta[j + 1:]
            b = b[:i] + (b[i] + 1,) + b[i + 1:]
            if a in support and b in support:
                return False
    return True


def own_m_convex(support):
    """The symmetric exchange axiom, checked over every ordered pair."""
    points = list(support)
    for alpha in points:
        for beta in points:
            for i in range(len(alpha)):
                if exchange_violation(support, alpha, beta, i):
                    return False
    return True


def hessian_candidates(support, n):
    """Multiplicity vectors a with |a| = d - 2 and a + e_i + e_j in the support."""
    found = set()
    for e in support:
        for i in range(n):
            for j in range(i, n):
                a = list(e)
                a[i] -= 1
                a[j] -= 1
                if a[i] >= 0 and a[j] >= 0:
                    found.add(tuple(a))
    return found


def multiset(a):
    return tuple(i for i, reps in enumerate(a, start=1) for _ in range(reps))


def first_hessian_failure(poly, candidates):
    """(multiset, inertia) of the lexicographically first failing candidate."""
    for a in sorted(candidates, key=multiset):
        derivative = poly.derivative(a)
        if not derivative:
            continue
        signature = inertia_by_sturm_bracketing(lp.quadratic_form_matrix(derivative))
        if signature.positive > 1:
            return multiset(a), signature
    return None


def check_verdict(poly, certificate, name, rng=None, max_hessians=None):
    """Re-derive the verdict of ``certificate`` (a ``to_dict`` form) for ``poly``.

    A Lorentzian verdict with more than ``max_hessians`` Hessian candidates
    is checked on a sample of that many drawn with ``rng``; a claimed
    Hessian witness is always checked against every smaller candidate.
    """
    failure = certificate["failure"]
    kind = failure["kind"] if failure else None
    require((certificate["verdict"] == "Lorentzian") == (failure is None),
            f"{name}: verdict {certificate['verdict']} with failure {failure}")
    degrees = sorted({sum(e) for e in poly.terms})
    if len(degrees) > 1:
        require(kind == "not_homogeneous" and failure["degrees"] == [degrees[0], degrees[-1]],
                f"{name}: degrees {degrees}, certificate says {failure}")
        return
    negative = sorted(e for e, c in poly.terms.items() if c < 0)
    if negative:
        require(kind == "negative_coefficient" and tuple(failure["exponent"]) == negative[0],
                f"{name}: first negative coefficient at {negative[0]}, certificate says {failure}")
        return
    support = poly.support()
    if not own_m_convex(support):
        require(kind == "support_not_m_convex",
                f"{name}: support is not M-convex, certificate says {failure}")
        alpha, beta = tuple(failure["alpha"]), tuple(failure["beta"])
        require(alpha in support and beta in support
                and exchange_violation(support, alpha, beta, failure["index"] - 1),
                f"{name}: {failure} is no exchange violation")
        return
    candidates = hessian_candidates(support, poly.arity) if degrees and degrees[0] >= 2 else set()
    if failure is None and max_hessians is not None and len(candidates) > max_hessians:
        candidates = rng.sample(sorted(candidates), max_hessians)
    expected = first_hessian_failure(poly, candidates)
    if expected is None:
        require(failure is None, f"{name}: Lorentzian, certificate says {failure}")
        return
    witness, signature = expected
    require(kind == "hessian_failure" and tuple(failure["multiset"]) == witness
            and failure["inertia"] == signature._asdict(),
            f"{name}: first failing multiset {witness} with {signature._asdict()}, "
            f"certificate says {failure}")


LORENTZIAN = {"verdict": "Lorentzian", "failure": None}


# -- root-direction log-concavity --------------------------------------------


def check_log_concave(poly, name):
    """coeff(mu)^2 >= coeff(mu + e_i - e_j) coeff(mu - e_i + e_j) on all lines.

    Checking the support points and one step past each, in both directions
    of every line, covers every mu where the right side can be nonzero.
    """
    coeff = poly.terms
    zero = Fraction(0)
    for i, j in itertools.permutations(range(poly.arity), 2):
        for e in list(coeff):
            for mu in (e, wl.moved(e, i, j)):
                c = coeff.get(mu, zero)
                up = coeff.get(wl.moved(mu, i, j), zero)
                down = coeff.get(wl.moved(mu, j, i), zero)
                require(c * c >= up * down,
                        f"{name}: log-concavity fails at {mu}, ({i + 1},{j + 1})")


# -- certify-files -----------------------------------------------------------

EXPECTED_KINDS = {
    wl.MEMBER: {None},
    wl.RAW_SCHUR: {None, "hessian_failure"},
    wl.NEGATED: {"negative_coefficient"},
    wl.THINNED: {"support_not_m_convex"},
    wl.INHOMOGENEOUS: {"not_homogeneous"},
    wl.BIVARIATE: {None, "hessian_failure", "support_not_m_convex"},
}


def check_text_outcome(kind, poly, certificate, verified, name):
    """The verdict fits how the text was built; refutations re-verify."""
    failure = certificate.failure
    require((failure.kind if failure else None) in EXPECTED_KINDS[kind],
            f"{name}: built as {kind}, certificate says {certificate.to_dict()['failure']}")
    if failure is not None:
        require(verified, f"{name}: verify_certificate rejects the {failure.kind} witness")
    if poly.arity == 2 and poly.homogeneous_degree() is not None \
            and all(c >= 0 for c in poly.terms.values()):
        require(lp.bivariate_ulc(poly) == certificate.is_lorentzian,
                f"{name}: bivariate_ulc disagrees with verdict {certificate.verdict}")


# -- self-test ---------------------------------------------------------------


def _rejects(check, *args):
    try:
        check(*args)
    except CheckFailure:
        return True
    return False


def self_test():
    """Feed corrupted outputs to the checks and confirm each is caught."""
    square = lp.schur(lp.Partition((2,)), 2)            # x1^2 + x1 x2 + x2^2
    good = lp.normalize(lp.schur(lp.Partition((2, 1)), 3))
    gap = lp.Polynomial(2, {(2, 0): 1, (0, 2): 1})
    hessian = {"kind": "hessian_failure", "multiset": [1],
               "inertia": {"positive": 2, "negative": 1, "zero": 0}}
    corrupted = [
        (check_verdict, good, {"verdict": "NotLorentzian", "failure": hessian}, "self-test"),
        (check_verdict, square, LORENTZIAN, "self-test"),
        (check_verdict, gap, LORENTZIAN, "self-test"),
        (check_verdict, lp.schur(lp.Partition((3, 1)), 3),
         {"verdict": "NotLorentzian", "failure": dict(hessian, multiset=[3, 3])}, "self-test"),
        (check_text_outcome, wl.NEGATED, good, lp.lorentzian_certify(good), True, "self-test"),
        (check_text_outcome, wl.BIVARIATE, square,
         lp.lorentzian_certify(good), True, "self-test"),
        (check_log_concave, gap, "self-test"),
        (check_sweep_report, ("schur", "certify", {"boxes": 2, "parts": 2, "vars": 2}, None),
         {"instances_checked": 7, "failures": 0}),
        (check_sweep_report, ("schur", "certify", {"boxes": 2, "parts": 2, "vars": 2}, None),
         {"instances_checked": 8, "failures": 1}),
    ]
    for check, *args in corrupted:
        require(_rejects(check, *args), f"self-test: {check.__name__}{tuple(args)} was not caught")
    # The program's own verdicts on the same inputs pass.
    for poly in (square, good, gap):
        check_verdict(poly, lp.lorentzian_certify(poly).to_dict(), "self-test")
    require(hook_content((2, 1), 3) == 8, "self-test: hook-content formula")
