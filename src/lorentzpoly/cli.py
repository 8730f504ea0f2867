"""Command line front end.

Subcommands: ``gen`` (print a family polynomial in the text format),
``certify`` (read a polynomial, print a certificate), ``sweep`` (run a
family sweep), ``paper-suite`` (the bundled end-to-end suite of worked
identities and certificates), and ``corpus verify``.

Exit codes: 0 success, 1 mathematical failure or refutation, 2 usage or
parse errors.
"""

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from . import __version__, corpus
from .certify import _pairwise_scan_shape, lorentzian_certify, quadratic_form_matrix
from .polynomials import (
    MAX_PARSE_ARITY,
    Polynomial,
    format_polynomial,
    format_terms,
    normalize,
    parse_polynomial,
)
from .schubert import (
    Permutation,
    grassmannian_for,
    grothendieck,
    grothendieck_component,
    key_polynomial,
    schubert,
)
from .symmetric import (
    Partition,
    complement_partition,
    complete_homogeneous,
    kostka,
    schur,
)
from .sweeps import FAMILY_TABLE, MODES, SweepBounds, SweepSpec, run_sweep

USAGE_ERROR = 2
MATH_FAILURE = 1


def _parse_int_list(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


class UsageError(ValueError):
    """Bad command line arguments."""


# How ``lorentz gen`` reads each flag that can be part of an instance payload.
_PAYLOAD_READERS = {
    "lambda": _parse_int_list,
    "inner": _parse_int_list,
    "mu": _parse_int_list,
    "delta": _parse_int_list,
    "vars": int,
    "w": lambda text: Permutation.from_string(text).one_line,
}


def _generate(args) -> Polynomial:
    if args.component is not None and args.family != "grothendieck":
        raise UsageError("--component only applies to the grothendieck family")
    family = FAMILY_TABLE.get(args.family)
    if family is None:
        raise UsageError(f"unknown family {args.family!r}")
    values = [getattr(args, flag) for flag in family.gen_flags]
    if None in values:
        # --inner has a default, so it is never required
        required = [f"--{flag}" for flag in family.gen_flags if flag != "inner"]
        verb = "is" if len(required) == 1 else "are"
        raise UsageError(f"{' and '.join(required)} {verb} required for {args.family}")
    payload = tuple(_PAYLOAD_READERS[flag](v) for flag, v in zip(family.gen_flags, values))
    scale = None if args.scale is None else _read_scale(args.scale)
    if args.component is not None:  # grothendieck, whose payload is (w,)
        poly = grothendieck_component(Permutation(payload[0]), args.component)
    else:
        poly = family.generate(payload)
    if args.normalize:
        poly = normalize(poly)
    if scale is not None:
        poly = poly * scale
    return poly


def _read_scale(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"--scale {text}: zero denominator") from None
    except ValueError:
        raise UsageError(f"--scale {text!r} is not a rational number") from None


def _check_arity(arity: int):
    # what gen prints, certify must read back
    if arity > MAX_PARSE_ARITY:
        raise UsageError(f"arity {arity} exceeds the limit of {MAX_PARSE_ARITY}")


def _cmd_gen(args) -> int:
    family = FAMILY_TABLE.get(args.family)
    if family is not None and "vars" in family.gen_flags and args.vars is not None:
        _check_arity(args.vars)  # before a build that can take minutes
    try:
        poly = _generate(args)
    except MemoryError:
        # gen puts no cap on its bounds; a polynomial too large to build is
        # still a bad request, not a refutation
        raise UsageError("not enough memory to build this polynomial") from None
    except RecursionError:
        # the degree polynomial recurses once per length of w
        raise UsageError("recursion too deep to build this polynomial") from None
    _check_arity(poly.arity)
    try:
        text = format_polynomial(poly)
    except ValueError:  # a number past int()'s digit limit, which certify could not read
        limit = sys.get_int_max_str_digits()
        raise UsageError(
            f"number with more than {limit} digits in a coefficient; the text "
            f"format reads at most {limit} digits per number"
        ) from None
    sys.stdout.write(text)
    return 0


# The exchange scan takes time quadratic in the support; certify refuses a
# support above this size that the certifier would scan without first
# trying the rank test (``certify._pairwise_scan_shape``).  The rank test
# runs first when its 2^m subsets of the m varying coordinates are at most
# |S|, or when m <= 7 and they are at most 4 |S|; the second case only
# takes supports of fewer than 2^7 = 128 points.  Near the limit,
# `lorentz certify` on e_2 in 89 variables (3,916 points, M-convex, so the
# scan meets every point) takes 1.8-2.7 s, on e_2 in 90 variables less
# x1 x_k for k = 2..6 (4,000 points, refuted at x1 x90, near the end of the
# scan) 1.6-2.4 s, and on the first 4,000 terms of e_2 in 90 variables
# (refuted at the first point) 0.4-0.6 s, at 30-35 MB, on a 2-vCPU 2.1 GHz
# Xeon with Python 3.11.7.
MAX_SCAN_POINTS = 4000


def _check_scan_size(poly: Polynomial):
    scan = _pairwise_scan_shape(poly)
    if scan is not None and scan[0] > MAX_SCAN_POINTS:
        size, varying = scan
        raise UsageError(
            f"support of {size} points in {varying} varying coordinates needs a "
            f"pairwise exchange scan, limited to {MAX_SCAN_POINTS} points"
        )


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_certify(args) -> int:
    try:
        text = _read_input(args.input)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    poly = parse_polynomial(text)
    _check_scan_size(poly)
    certificate = lorentzian_certify(poly)
    if args.out == "json":
        print(json.dumps(certificate.to_dict(), indent=2, sort_keys=True))
    else:
        if certificate.is_lorentzian:
            print(f"Lorentzian (arity {certificate.arity}, degree {certificate.degree})")
        else:
            failure = certificate.failure
            print(f"NotLorentzian: {failure.kind} {failure.to_dict()}")
    return 0 if certificate.is_lorentzian else MATH_FAILURE


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else every core of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_jobs(jobs: int) -> int:
    """The worker count of ``--jobs``: 0 means every usable core, and a
    count below 0 or above the number of usable cores is refused."""
    cores = _usable_cores()
    if jobs == 0:
        return cores
    if not 1 <= jobs <= cores:
        raise ValueError(f"--jobs {jobs} outside 0..{cores} (0 uses every core)")
    return jobs


def _cmd_sweep(args) -> int:
    from concurrent.futures import BrokenExecutor

    fields = dataclasses.fields(SweepBounds)
    bounds = SweepBounds(**{f.name: getattr(args, f.name) for f in fields})
    spec = SweepSpec(args.family, args.mode, bounds)
    try:
        report = run_sweep(spec, jobs=_sweep_jobs(args.jobs), only=args.only)
    except BrokenExecutor:
        print("error: a sweep worker stopped before the sweep ended", file=sys.stderr)
        return MATH_FAILURE
    if args.out == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.ok else MATH_FAILURE


def _suite_checks():
    """The fixed list of worked checks behind ``paper-suite``."""

    def quadratic_not_lorentzian():
        poly = corpus.load("schur-2.poly")
        if schur((2,), 2) != poly:
            return False, "generator disagrees with corpus display"
        certificate = lorentzian_certify(poly)
        if certificate.is_lorentzian:
            return False, "expected NotLorentzian"
        (a, b), (_, c) = quadratic_form_matrix(poly).rows
        coeffs = [a * c - b * b, -(a + c), 1]  # det(tI - M), ascending
        expected = [Fraction(3, 4), Fraction(-2), Fraction(1)]  # (t - 3/2)(t - 1/2)
        if coeffs != expected:
            return False, f"characteristic polynomial {coeffs}"
        if not lorentzian_certify(normalize(poly)).is_lorentzian:
            return False, "normalization should certify"
        return True, "quadratic form eigenvalues 3/2, 1/2; normalized form certifies"

    def showcase_normalized_schur():
        display = corpus.load("normalized-schur-31111.poly")
        generated = normalize(schur((3, 1, 1, 1, 1), 5))
        if generated != display:
            return False, "generator disagrees with corpus display"
        if not lorentzian_certify(generated).is_lorentzian:
            return False, "expected Lorentzian"
        specialized = generated.specialize({2: 1, 3: 1, 4: 1, 5: 1}) * 6
        target = Polynomial(5, {(3, 0, 0, 0, 0): 1, (2, 0, 0, 0, 0): 6, (1, 0, 0, 0, 0): 13})
        if specialized != target:
            return False, f"specialization {format_terms(specialized)}"
        # 6 N(s)|_(x,1,1,1,1) = x (x^2 + 6x + 13); the quadratic has no real roots
        discriminant = 6**2 - 4 * 13
        if discriminant >= 0:
            return False, f"discriminant {discriminant} of x^2 + 6x + 13"
        return True, "display matches, certifies, cubic factor has no real roots"

    def dual_complement_identity():
        lam = Partition((2, 1))
        lhs = schur(lam, 2).dualize((3, 3))
        rhs = schur(complement_partition(lam, 2, 3), 2)
        return lhs == rhs, "x^(3,3) s_(2,1)(1/x) equals the complementary Schur polynomial"

    def grassmannian_identity():
        kappa = Partition((2, 1))
        w = grassmannian_for(kappa, 2, 4)
        ok = schubert(w) == schur(kappa, 2).with_arity(4)
        return ok, f"Schubert polynomial of {w!r} equals the Schur polynomial of (2,1)"

    def staircase_and_small_displays():
        checks = [
            schubert(Permutation((3, 2, 1))) == corpus.load("schubert-321.poly"),
            schubert(Permutation((1, 3, 2))) == corpus.load("schubert-132.poly"),
            grothendieck(Permutation((1, 3, 2))) == corpus.load("grothendieck-132.poly"),
            key_polynomial((2, 1)) == Polynomial.monomial(2, (2, 1)),
            grothendieck(Permutation((1, 3, 2))).homogeneous_component(1)
            == schubert(Permutation((1, 3, 2))),
        ]
        return all(checks), "staircase, key monomial, lowest Grothendieck component"

    def character_display_certifies():
        poly = corpus.load("normalized-character-sl4.poly")
        return lorentzian_certify(poly).is_lorentzian, "bundled sl4 character certifies"

    def pieri_expansion():
        mu = (2, 1)
        product = complete_homogeneous(2, 2) * complete_homogeneous(1, 2)
        total = Polynomial.zero(2)
        for lam in (Partition((3,)), Partition((2, 1)), Partition((1, 1, 1))):
            total = total + kostka(lam, mu) * schur(lam, 2)
        return product == total, "h_2 h_1 equals the Kostka-weighted Schur sum"

    def non_lorentzian_quartic_pair():
        bad = []
        for line in ((1, 4, 2, 3), (1, 4, 3, 2)):
            if lorentzian_certify(schubert(Permutation(line))).is_lorentzian:
                bad.append(line)
        return not bad, "Schubert polynomials of 1423 and 1432 both refuse to certify"

    return [
        ("quadratic-counterexample", quadratic_not_lorentzian),
        ("normalized-schur-showcase", showcase_normalized_schur),
        ("dual-complement-identity", dual_complement_identity),
        ("grassmannian-identity", grassmannian_identity),
        ("small-displays", staircase_and_small_displays),
        ("character-display", character_display_certifies),
        ("pieri-expansion", pieri_expansion),
        ("non-lorentzian-pair", non_lorentzian_quartic_pair),
    ]


def _cmd_paper_suite(args) -> int:
    results = []
    for name, check in _suite_checks():
        try:
            ok, detail = check()
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            ok, detail = False, f"exception: {exc}"
        results.append({"check": name, "ok": ok, "detail": detail})
    if args.out == "json":
        print(json.dumps({"results": results, "version": __version__},
                         indent=2, sort_keys=True))
    else:
        for entry in results:
            status = "PASS" if entry["ok"] else "FAIL"
            print(f"{status} {entry['check']}: {entry['detail']}")
    return 0 if all(entry["ok"] for entry in results) else MATH_FAILURE


def _cmd_corpus(args) -> int:
    # ``verify`` is the only corpus command, and argparse requires one
    results = corpus.verify()
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else MATH_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentz",
        description="Generate symmetric-group polynomial families and certify "
        "the Lorentzian property with exact arithmetic.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print a family polynomial in the text format")
    gen.add_argument("--family", required=True)
    gen.add_argument("--lambda", metavar="LAM", help="partition, e.g. 3,1,1")
    gen.add_argument("--inner", default="", help="inner partition for skew shapes")
    gen.add_argument("--mu", help="composition for key polynomials")
    gen.add_argument("--w", help="permutation in one-line notation, e.g. 1432")
    gen.add_argument("--delta", help="shift vector for verma, e.g. 1,1")
    gen.add_argument("--vars", type=int, help="number of variables")
    gen.add_argument("--component", type=int, help="grothendieck component index k")
    gen.add_argument("--normalize", action="store_true",
                     help="apply the x^mu -> x^mu/mu! operator to the output")
    gen.add_argument("--scale", help="multiply the output by a rational, e.g. "
                     "--scale=-2/3 (write negative values with '=')")
    gen.set_defaults(func=_cmd_gen)

    certify = sub.add_parser("certify", help="certify or refute a polynomial file")
    certify.add_argument("input", help="path to a polynomial file, or - for stdin")
    certify.add_argument("--out", choices=("text", "json"), default="text")
    certify.set_defaults(func=_cmd_certify)

    sweep = sub.add_parser("sweep", help="run a family sweep")
    sweep.add_argument("--family", required=True)
    sweep.add_argument("--mode", choices=MODES, default="certify")
    for bound in dataclasses.fields(SweepBounds):
        sweep.add_argument(f"--{bound.name.replace('_', '-')}", dest=bound.name, type=int)
    sweep.add_argument("--jobs", type=int, default=0,
                       help="parallel workers (default: all available cores)")
    sweep.add_argument("--only", help="restrict to instance ids containing this string")
    sweep.add_argument("--out", choices=("text", "json"), default="text")
    sweep.set_defaults(func=_cmd_sweep)

    suite = sub.add_parser("paper-suite",
                           help="run the bundled suite of worked identities")
    suite.add_argument("--out", choices=("text", "json"), default="text")
    suite.set_defaults(func=_cmd_paper_suite)

    corpus_cmd = sub.add_parser("corpus", help="bundled polynomial data")
    corpus_sub = corpus_cmd.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("verify", help="re-parse corpus files and check hashes")
    corpus_cmd.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
