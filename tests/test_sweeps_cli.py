import dataclasses
import itertools
import json
import multiprocessing
import pathlib
import shutil
import subprocess
import sys

import pytest

from lorentzpoly import corpus, sweeps
from lorentzpoly.cli import MAX_SCAN_POINTS, _generate, build_parser, main
from lorentzpoly.polynomials import (
    MAX_PARSE_ARITY,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from lorentzpoly.schubert import Permutation, schubert_dual
from lorentzpoly.sweeps import (
    FAMILY_TABLE,
    MODES,
    SweepBounds,
    SweepCapError,
    SweepSpec,
    compositions_within,
    partitions_within,
    run_sweep,
    strict_partitions_within,
    subpartitions,
)
from lorentzpoly.symmetric import Partition, SkewShape

from second_routes import schur_p_by_marked_tableaux, skew_schur_by_tableaux


PERMUTATION_FAMILIES = (
    "schubert", "schubert_dual", "grothendieck", "grothendieck_homog", "degree",
)
MEMO_FAMILIES = PERMUTATION_FAMILIES[:4]  # those with a term-map memo


def lorentz(*args, stdin=None):
    result = subprocess.run(
        [sys.executable, "-m", "lorentzpoly.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return result


def square_free_quadratic(points):
    """The first ``points`` terms x_i x_j (i < j) of e_2 in 90 variables, in
    lexicographic order of (i, j): all 90 coordinates vary, so the rank test
    of M-convexity is skipped and the support needs the pairwise scan."""
    pairs = [(i, j) for i in range(1, 91) for j in range(i + 1, 91)][:points]
    return "vars: 90\n" + " + ".join(f"x{i} x{j}" for i, j in pairs) + "\n"


class TestEnumeration:
    def test_partition_counts(self):
        assert sum(1 for _ in partitions_within(8, 4)) == 53
        assert sum(1 for _ in partitions_within(10, 10)) == 139

    def test_subpartitions(self):
        got = {p.parts for p in subpartitions(Partition((2, 1)))}
        assert got == {(), (1,), (2,), (1, 1), (2, 1)}

    def test_strict_partitions(self):
        got = {p.parts for p in strict_partitions_within(3, 2)}
        assert got == {(), (1,), (2,), (3,), (2, 1), (3, 1), (3, 2)}

    def test_compositions(self):
        got = set(compositions_within(2, 2))
        assert got == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


class TestSweeps:
    def test_schubert_certify_s4(self):
        report = run_sweep(SweepSpec("schubert", "certify", SweepBounds(n=4)))
        assert report.instances_checked == 24
        assert report.ok

    def test_schubert_support_s5(self):
        report = run_sweep(SweepSpec("schubert", "support_only", SweepBounds(n=5)))
        assert report.instances_checked == 120
        assert report.ok

    def test_schubert_inequality_s5(self):
        # coefficient log-concavity along root directions across all of S5
        report = run_sweep(SweepSpec("schubert", "inequality", SweepBounds(n=5)))
        assert report.ok

    def test_kostka_inequality_small(self):
        report = run_sweep(
            SweepSpec("schur", "inequality", SweepBounds(boxes=6, parts=3, vars=3))
        )
        assert report.ok

    def test_failure_report_structure(self):
        # Grothendieck polynomials are inhomogeneous, so their supports are
        # legitimately not M-convex; the sweep must say so reproducibly
        report = run_sweep(SweepSpec("grothendieck", "support_only", SweepBounds(n=3)))
        assert not report.ok
        failure = report.failures[0]
        assert set(failure) == {"instance", "target", "detail", "certificate", "repro"}
        assert failure["instance"] == "w=132"
        assert failure["certificate"]["kind"] == "support_not_m_convex"
        assert failure["repro"] == (
            "lorentz sweep --family grothendieck --mode support_only --n 3 "
            "--only 'w=132'"
        )
        # the repro command re-runs just that instance and fails the same way
        rerun = run_sweep(
            SweepSpec("grothendieck", "support_only", SweepBounds(n=3)), only="w=132"
        )
        assert rerun.instances_checked == 1
        assert rerun.failures[0]["certificate"] == failure["certificate"]

    def test_cap_exceeded(self):
        with pytest.raises(SweepCapError):
            run_sweep(SweepSpec("schubert", "certify", SweepBounds(n=9)))

    def test_missing_bound(self):
        with pytest.raises(SweepCapError):
            run_sweep(SweepSpec("schubert", "certify", SweepBounds()))

    def test_bound_the_family_does_not_take(self):
        with pytest.raises(SweepCapError, match="boxes=99"):
            run_sweep(SweepSpec("schubert", "certify", SweepBounds(n=3, boxes=99)))
        with pytest.raises(SweepCapError, match="max_part=3"):
            run_sweep(SweepSpec("schur", "certify",
                                SweepBounds(boxes=2, parts=1, vars=1, max_part=3)))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SweepSpec("nope", "certify", SweepBounds())

    def test_determinism_modulo_wall_time(self):
        spec = SweepSpec("schur", "certify", SweepBounds(boxes=4, parts=2, vars=2))
        first = run_sweep(spec).to_dict()
        second = run_sweep(spec).to_dict()
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second

    @pytest.mark.parametrize("family, bounds", [
        ("schur", SweepBounds(boxes=4, parts=3, vars=3)),
        ("skew", SweepBounds(boxes=3, parts=2, vars=3)),
        ("schur_p", SweepBounds(max_part=4, parts=2, vars=3)),
        ("grothendieck_homog", SweepBounds(n=4)),
    ])
    def test_memo_tables_empty_after_sweep(self, family, bounds):
        spec = SweepSpec(family, "certify", bounds)
        first = run_sweep(spec).to_dict()
        assert all(not table for table in sweeps._CACHES.values())
        second = run_sweep(spec).to_dict()
        assert all(not table for table in sweeps._CACHES.values())
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second

    def test_memo_tables_empty_after_interrupted_sweep(self, monkeypatch):
        # an interrupt is no instance failure; it ends the sweep, and the
        # tables the finished instances filled are still emptied
        family = FAMILY_TABLE["schur"]
        calls = []

        def generate(payload):
            calls.append(payload)
            if len(calls) == 6:
                raise KeyboardInterrupt
            return family.generate(payload)

        monkeypatch.setitem(FAMILY_TABLE, "schur", dataclasses.replace(family, generate=generate))
        with pytest.raises(KeyboardInterrupt):
            run_sweep(SweepSpec("schur", "certify", SweepBounds(boxes=3, parts=2, vars=3)))
        assert len(calls) == 6
        assert all(not table for table in sweeps._CACHES.values())

    def test_certificate_memo_certifies_each_skew_target_once(self, monkeypatch):
        # the benchmark's skew rung: 668 targets, 107 distinct polynomials;
        # every target still makes one certify call
        import lorentzpoly.certify as certify_module

        spec = SweepSpec("skew", "certify", SweepBounds(boxes=6, parts=3, vars=4))
        scans, certified = [], []
        scan, certify = certify_module.m_convex_failure, sweeps.lorentzian_certify

        def counted_scan(points, cache=None):
            scans.append(None)
            return scan(points, cache)

        def counted_certify(*args, **kwargs):
            certified.append(None)
            return certify(*args, **kwargs)

        monkeypatch.setattr(certify_module, "m_convex_failure", counted_scan)
        monkeypatch.setattr(sweeps, "lorentzian_certify", counted_certify)
        memoized = run_sweep(spec).to_dict()
        assert (len(certified), len(scans)) == (668, 107)
        family = FAMILY_TABLE["skew"]
        monkeypatch.setitem(FAMILY_TABLE, "skew", dataclasses.replace(family, repeats=False))
        scans.clear()
        certified.clear()
        unmemoized = run_sweep(spec).to_dict()
        assert (len(certified), len(scans)) == (668, 668)
        memoized.pop("wall_time_s")
        unmemoized.pop("wall_time_s")
        assert memoized == unmemoized

    def test_parallel_matches_serial(self):
        # with skew, each worker fills its own copy of the certificate table;
        # the grothendieck sweep reads failing witnesses off the support table
        for spec in (SweepSpec("schubert", "certify", SweepBounds(n=4)),
                     SweepSpec("skew", "certify", SweepBounds(boxes=5, parts=3, vars=3)),
                     SweepSpec("grothendieck", "support_only", SweepBounds(n=5)),
                     SweepSpec("schubert_dual", "certify", SweepBounds(n=5))):
            serial = run_sweep(spec, jobs=1).to_dict()
            parallel = run_sweep(spec, jobs=2).to_dict()
            serial.pop("wall_time_s")
            parallel.pop("wall_time_s")
            assert serial == parallel

    @pytest.mark.parametrize("spec, failures, runs", [
        (SweepSpec("schubert", "certify", SweepBounds(n=5)), 0, (28, 120)),
        # a failing support that the rank test decides is scanned for its
        # witness too, so each route counts
        (SweepSpec("grothendieck", "support_only", SweepBounds(n=5)), 78, (55, 198)),
    ])
    def test_support_memo_decides_each_shape_once(self, monkeypatch, spec, failures, runs):
        # the same report with the support table as with one that never
        # stores, from fewer runs of the rank test and the exchange scan:
        # 28 shapes among the 120 Schubert supports of S5
        import lorentzpoly.certify as certify_module

        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        decided = []

        def counted(route):
            def run(pts):
                decided.append(None)
                return route(pts)
            return run

        for name in ("_rank_m_convex", "_exchange_scan"):
            monkeypatch.setattr(certify_module, name, counted(getattr(certify_module, name)))
        memoized = run_sweep(spec).to_dict()
        with_table = len(decided)
        monkeypatch.setitem(sweeps._CACHES, "supports", Forgetful())
        decided.clear()
        unmemoized = run_sweep(spec).to_dict()
        assert len(memoized["failures"]) == failures
        assert (with_table, len(decided)) == runs
        memoized.pop("wall_time_s")
        unmemoized.pop("wall_time_s")
        assert memoized == unmemoized

    def test_inertia_table_eliminates_each_hessian_once(self, monkeypatch):
        # the same report with the inertia table as with one that never
        # stores, from fewer eliminations: 53 distinct Hessians among the
        # 422 that the normalized Schubert polynomials of S5 hand the certifier
        import lorentzpoly.certify as certify_module

        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        eliminated = []
        route = certify_module._inertia_int

        def counted(rows):
            eliminated.append(None)
            return route(rows)

        monkeypatch.setattr(certify_module, "_inertia_int", counted)
        spec = SweepSpec("schubert", "certify", SweepBounds(n=5))
        memoized = run_sweep(spec).to_dict()
        with_table = len(eliminated)
        monkeypatch.setitem(sweeps._CACHES, "inertias", Forgetful())
        eliminated.clear()
        unmemoized = run_sweep(spec).to_dict()
        assert (with_table, len(eliminated)) == (53, 422)
        memoized.pop("wall_time_s")
        unmemoized.pop("wall_time_s")
        assert memoized == unmemoized

    @pytest.mark.parametrize("family, mode, n, only", [
        *[(family, mode, 6, None) for family in MEMO_FAMILIES for mode in MODES],
        ("schubert", "certify", 7, None),
        *[(family, "certify", 6, "w=3") for family in MEMO_FAMILIES],
    ])
    def test_permutation_memos_hold_one_root_path(self, monkeypatch, family, mode, n, only):
        # after every instance, at most the n(n-1)/2 + 1 term maps from w_0
        # down to it; a table of every permutation met holds n! of them
        held = []
        check = sweeps._check_instance

        def probed(*args):
            failure = check(*args)
            held.append(max(len(sweeps._CACHES[name]) for name in ("schubert", "grothendieck")))
            return failure

        monkeypatch.setattr(sweeps, "_check_instance", probed)
        report = run_sweep(SweepSpec(family, mode, SweepBounds(n=n)), only=only)
        assert len(held) == report.instances_checked
        assert 0 < max(held) <= n * (n - 1) // 2 + 1

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("family", PERMUTATION_FAMILIES)
    def test_descent_order_matches_lexicographic_order(self, monkeypatch, family, mode):
        # the same reports from descent-tree order with root-path memos as
        # from lexicographic order with tables of every permutation met
        def lexicographic(n):
            for line in itertools.permutations(range(1, n + 1)):
                yield "w=" + "".join(map(str, line)), (line,)

        spec = SweepSpec(family, mode, SweepBounds(n=5))
        reports = [run_sweep(spec, jobs=jobs).to_dict() for jobs in (1, 2)]
        monkeypatch.setitem(FAMILY_TABLE, family,
                            dataclasses.replace(FAMILY_TABLE[family], instances=lexicographic))
        for name in ("schubert", "grothendieck"):
            monkeypatch.setitem(sweeps._CACHES, name, {})
        reports += [run_sweep(spec, jobs=jobs).to_dict() for jobs in (1, 2)]
        for report in reports:
            report.pop("wall_time_s")
        assert all(report == reports[0] for report in reports)

    def test_only_filter(self):
        report = run_sweep(
            SweepSpec("schubert", "certify", SweepBounds(n=4)), only="w=1432"
        )
        assert report.instances_checked == 1

    def test_report_schema(self):
        report = run_sweep(SweepSpec("schubert", "certify", SweepBounds(n=3)))
        data = report.to_dict()
        assert set(data) == {"spec", "instances_checked", "failures", "wall_time_s", "version"}
        assert set(data["spec"]) == {"family", "mode", "bounds"}


class TestCli:
    def test_gen_schur_display(self):
        result = lorentz("gen", "--family", "schur", "--lambda", "2,0", "--vars", "2")
        assert result.returncode == 0
        assert result.stdout == "vars: 2\nx1^2 + x1 x2 + x2^2\n"

    def test_gen_schubert_staircase(self):
        result = lorentz("gen", "--family", "schubert", "--w", "321")
        assert result.stdout.splitlines()[1] == "x1^2 x2"

    def test_gen_key_monomial(self):
        result = lorentz("gen", "--family", "key", "--mu", "2,1")
        assert result.stdout.splitlines()[1] == "x1^2 x2"

    def test_gen_missing_params_exits_2(self):
        result = lorentz("gen", "--family", "schur")
        assert result.returncode == 2

    def test_certify_exit_codes(self):
        raw = lorentz("gen", "--family", "schur", "--lambda", "2,0", "--vars", "2")
        refused = lorentz("certify", "-", stdin=raw.stdout)
        assert refused.returncode == 1
        assert "NotLorentzian" in refused.stdout
        normalized = lorentz(
            "gen", "--family", "schur", "--lambda", "2,0", "--vars", "2", "--normalize"
        )
        accepted = lorentz("certify", "-", stdin=normalized.stdout)
        assert accepted.returncode == 0
        assert "Lorentzian" in accepted.stdout

    def test_certify_parse_error_exits_2(self):
        result = lorentz("certify", "-", stdin="vars: 2\nx1 + @\n")
        assert result.returncode == 2
        assert "line 2" in result.stderr

    def test_certify_huge_arity_exits_2(self):
        # a dense exponent vector of 10^12 entries cannot be allocated, so
        # the header is refused as a syntax error
        result = lorentz("certify", "-", stdin="vars: 1000000000000\nx1\n")
        assert result.returncode == 2
        assert result.stderr == (
            "error: arity 1000000000000 exceeds the limit of 1000 (line 1, column 1)\n"
        )

    def test_certify_refuses_a_pairwise_scan_over_the_limit(self):
        assert MAX_SCAN_POINTS == 4000
        result = lorentz("certify", "-", stdin=square_free_quadratic(MAX_SCAN_POINTS + 1))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: support of 4001 points in 90 varying coordinates needs a pairwise "
            "exchange scan, limited to 4000 points\n"
        )

    def test_certify_runs_a_pairwise_scan_at_the_limit(self):
        # the last 5 pairs are missing, so the scan stops at a witness
        text = square_free_quadratic(MAX_SCAN_POINTS)
        result = lorentz("certify", "-", "--out", "json", stdin=text)
        assert result.returncode == 1
        assert json.loads(result.stdout)["failure"]["kind"] == "support_not_m_convex"

    @pytest.mark.parametrize(
        "edit, kind",
        [
            (lambda text: " - ".join(text.rsplit(" + ", 1)), "negative_coefficient"),
            (lambda text: text[:-1] + " + 1\n", "not_homogeneous"),
        ],
        ids=["negated_term", "constant_term"],
    )
    def test_certify_runs_a_support_it_refutes_before_the_scan(self, edit, kind):
        # over the limit, but the certifier stops before M-convexity
        text = edit(square_free_quadratic(MAX_SCAN_POINTS + 1))
        result = lorentz("certify", "-", "--out", "json", stdin=text)
        assert result.returncode == 1
        assert json.loads(result.stdout)["failure"]["kind"] == kind

    def test_certify_json_schema(self):
        raw = lorentz("gen", "--family", "schubert", "--w", "1423")
        result = lorentz("certify", "-", "--out", "json", stdin=raw.stdout)
        data = json.loads(result.stdout)
        assert data["verdict"] == "NotLorentzian"
        assert set(data) == {"verdict", "arity", "degree", "checks", "failure"}

    def test_gen_component_and_scale(self):
        result = lorentz(
            "gen", "--family", "grothendieck", "--w", "132",
            "--component", "1", "--normalize", "--scale", "-1",
        )
        assert result.stdout.splitlines()[1] == "x1 x2"

    def test_gen_negative_scale_with_equals(self):
        result = lorentz("gen", "--family", "schur", "--lambda", "1", "--vars", "2",
                         "--scale=-2/3")
        assert result.returncode == 0
        assert result.stdout == "vars: 2\n-2/3 x1 - 2/3 x2\n"

    @pytest.mark.parametrize("scale, message", [
        ("1/0", "error: --scale 1/0: zero denominator\n"),
        ("-2/0", "error: --scale -2/0: zero denominator\n"),
        ("two", "error: --scale 'two' is not a rational number\n"),
    ])
    def test_gen_unreadable_scale_exits_2(self, scale, message, monkeypatch, capsys):
        # refused before the generator runs
        family = FAMILY_TABLE["schur"]
        payloads = []

        def generate(payload):
            payloads.append(payload)
            return family.generate(payload)

        monkeypatch.setitem(FAMILY_TABLE, "schur", dataclasses.replace(family, generate=generate))
        code = main(["gen", "--family", "schur", "--lambda", "2,1", "--vars", "3",
                     f"--scale={scale}"])
        assert code == 2
        assert payloads == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_gen_negative_component_exits_2(self):
        result = lorentz("gen", "--family", "grothendieck", "--w", "1432",
                         "--component", "-1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "component index must be nonnegative" in result.stderr

    def test_gen_out_of_memory_exits_2(self, monkeypatch, capsys):
        # the generator stands in for one that cannot allocate its tableaux
        family = FAMILY_TABLE["schur"]
        payloads = []

        def generate(payload):
            payloads.append(payload)
            raise MemoryError

        monkeypatch.setitem(FAMILY_TABLE, "schur", dataclasses.replace(family, generate=generate))
        code = main(["gen", "--family", "schur", "--lambda", "1", "--vars", "1000"])
        assert code == 2
        assert payloads == [((1,), 1000)]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: not enough memory to build this polynomial\n"
        # an arity gen could not print is refused before the generator runs
        code = main(["gen", "--family", "schur", "--lambda", "1", "--vars", "1000000000000"])
        assert code == 2
        assert payloads == [((1,), 1000)]
        assert capsys.readouterr().err == (
            f"error: arity 1000000000000 exceeds the limit of {MAX_PARSE_ARITY}\n"
        )

    @pytest.mark.parametrize("family, flags", [
        ("schur", ["--lambda", "3,2,1"]),
        ("skew", ["--lambda", "3,2,1", "--inner", "1"]),
        ("schur_p", ["--lambda", "3,1"]),
    ])
    def test_gen_refuses_arity_before_building(self, family, flags, monkeypatch, capsys):
        payloads = []
        monkeypatch.setitem(FAMILY_TABLE, family, dataclasses.replace(
            FAMILY_TABLE[family], generate=payloads.append))
        assert main(["gen", "--family", family, *flags, "--vars", "1500"]) == 2
        assert payloads == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: arity 1500 exceeds the limit of {MAX_PARSE_ARITY}\n"

    @pytest.mark.parametrize("flags, expected", [
        (["--family", "schur", "--lambda", "1"],
         lambda m: skew_schur_by_tableaux(SkewShape((1,), ()), m)),
        (["--family", "skew", "--lambda", "2", "--inner", "1"],
         lambda m: skew_schur_by_tableaux(SkewShape((2,), (1,)), m)),
        (["--family", "schur_p", "--lambda", "1"],
         lambda m: schur_p_by_marked_tableaux((1,), m)),
    ])
    def test_gen_many_variables(self, flags, expected, capsys):
        # the branching rule loops over the variables; it never recurses once
        # per variable, which would overflow the stack here
        args = build_parser().parse_args(["gen", *flags, "--vars", "2000"])
        assert _generate(args) == expected(2000)
        # gen prints only what certify can read back
        assert main(["gen", *flags, "--vars", str(MAX_PARSE_ARITY)]) == 0
        captured = capsys.readouterr()
        assert captured.out == format_polynomial(expected(MAX_PARSE_ARITY))
        assert parse_polynomial(captured.out) == expected(MAX_PARSE_ARITY)
        assert captured.err == ""
        assert main(["gen", *flags, "--vars", str(MAX_PARSE_ARITY + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: arity {MAX_PARSE_ARITY + 1} exceeds the limit of {MAX_PARSE_ARITY}\n"
        )

    @pytest.mark.parametrize("family, expected", [
        ("schubert", "vars: 50\nx1\n"),
        ("grothendieck", "vars: 50\nx1\n"),
        ("grothendieck_homog", "vars: 51\nx1\n"),
        ("schubert_dual", None),
    ])
    def test_gen_long_permutation(self, family, expected, capsys):
        # 2,1,3,...,50 is 1,224 swaps below w_0; the ascent recursion climbs
        # them in a loop, not one stack frame per swap
        line = (2, 1, *range(3, 51))
        assert main(["gen", "--family", family, "--w", ",".join(map(str, line))]) == 0
        captured = capsys.readouterr()
        if expected is None:
            expected = format_polynomial(schubert_dual(Permutation(line)))
        assert (captured.out, captured.err) == (expected, "")

    def test_gen_too_deep_exits_2(self, capsys):
        # the degree polynomial recurses once per length, 1,225 here
        w = ",".join(map(str, range(50, 0, -1)))
        assert main(["gen", "--family", "degree", "--w", w]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: recursion too deep to build this polynomial\n"

    def test_gen_names_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert main(["gen", "--family", "schur", "--lambda", "1", "--vars", "1",
                     "--scale", f"1e{limit}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: number with more than {limit} digits in a coefficient; the text "
            f"format reads at most {limit} digits per number\n"
        )
        # one digit fewer prints, and certify reads it back
        assert main(["gen", "--family", "schur", "--lambda", "1", "--vars", "1",
                     "--scale", f"1e{limit - 1}"]) == 0
        assert parse_polynomial(capsys.readouterr().out) == Polynomial.monomial(
            1, (1,), 10 ** (limit - 1))

    def test_sweep_cli_json(self):
        result = lorentz(
            "sweep", "--family", "schubert", "--n", "3", "--out", "json"
        )
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["instances_checked"] == 6
        assert data["failures"] == []

    def test_sweep_cap_exits_2(self):
        result = lorentz("sweep", "--family", "schubert", "--n", "9")
        assert result.returncode == 2

    def test_sweep_bound_flags(self):
        # one flag per SweepBounds field, an underscore spelled as a dash
        args = build_parser().parse_args([
            "sweep", "--family", "schur_p", "--boxes", "1", "--parts", "2", "--vars", "3",
            "--n", "4", "--delta", "5", "--max-part", "6",
        ])
        assert (args.boxes, args.parts, args.vars, args.n, args.delta, args.max_part) == (
            1, 2, 3, 4, 5, 6)

    def test_sweep_bound_the_family_does_not_take_exits_2(self):
        result = lorentz("sweep", "--family", "schubert", "--n", "3", "--boxes", "99")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: bound boxes=99 does not apply to family schubert\n"

    def test_paper_suite_passes(self):
        result = lorentz("paper-suite")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 8
        assert all(line.startswith("PASS") for line in lines)

    def test_corpus_verify(self):
        result = lorentz("corpus", "verify")
        assert result.returncode == 0
        assert all(line.startswith("PASS") for line in result.stdout.strip().splitlines())

    def test_certify_corpus_file_path(self):
        path = (
            pathlib.Path(corpus.__file__).parent
            / "corpus_data"
            / "normalized-character-sl4.poly"
        )
        result = lorentz("certify", str(path))
        assert result.returncode == 0
        assert "Lorentzian" in result.stdout

    def test_gen_ambiguous_digit_permutation_exits_2(self):
        result = lorentz("gen", "--family", "schubert", "--w", "12345678910")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "comma form" in result.stderr

    def test_sweep_failure_exits_1(self):
        result = lorentz(
            "sweep", "--family", "grothendieck", "--mode", "support_only", "--n", "3"
        )
        assert result.returncode == 1
        assert "repro" in result.stdout


class TestCorpus:
    def test_names_and_load(self):
        assert "normalized-schur-31111.poly" in corpus.names()
        poly = corpus.load("normalized-schur-31111.poly")
        assert poly.arity == 5 and len(poly.terms) == 15

    def test_verify_detects_tampering(self, tmp_path):
        source = pathlib.Path(corpus.__file__).parent / "corpus_data"
        for name in source.iterdir():
            shutil.copy(name, tmp_path / name.name)
        victim = tmp_path / "schur-2.poly"
        victim.write_text(victim.read_text().replace("x1^2", "2 x1^2"))
        results = corpus.verify(root=tmp_path)
        failed = {name for name, ok, _ in results if not ok}
        assert failed == {"schur-2.poly"}

    def test_verify_detects_corruption(self, tmp_path):
        source = pathlib.Path(corpus.__file__).parent / "corpus_data"
        for name in source.iterdir():
            shutil.copy(name, tmp_path / name.name)
        victim = tmp_path / "grothendieck-132.poly"
        victim.write_text("vars: 3\nx1 + +\n")
        results = corpus.verify(root=tmp_path)
        entry = [r for r in results if r[0] == "grothendieck-132.poly"][0]
        assert not entry[1] and "parse error" in entry[2]


class TestEmptyOrUnusableSweeps:
    """A sweep that would check nothing exits 2 and names the flag."""

    def test_only_matching_nothing_raises(self):
        with pytest.raises(ValueError, match="--only"):
            run_sweep(
                SweepSpec("schur", "certify", SweepBounds(boxes=3, parts=2, vars=2)),
                only="lambda=9",
            )

    def test_only_matching_nothing_exits_2(self):
        result = lorentz(
            "sweep", "--family", "schur", "--boxes", "3", "--parts", "2",
            "--vars", "2", "--only", "lambda=9",
        )
        assert result.returncode == 2
        assert "--only 'lambda=9'" in result.stderr

    def test_zero_vars_exits_2(self):
        result = lorentz(
            "sweep", "--family", "schur", "--boxes", "3", "--parts", "2", "--vars", "0"
        )
        assert result.returncode == 2
        assert "vars=0" in result.stderr

    def test_key_zero_parts_exits_2(self):
        result = lorentz("sweep", "--family", "key", "--boxes", "3", "--parts", "0")
        assert result.returncode == 2
        assert "parts=0" in result.stderr

    def test_degree_zero_n_exits_2(self):
        result = lorentz("sweep", "--family", "degree", "--n", "0")
        assert result.returncode == 2
        assert "n=0" in result.stderr


class TestCrashingInstance:
    """An exception inside one instance check fails that instance, exit 1."""

    @pytest.fixture(params=[RuntimeError, ValueError])
    def crash(self, request, monkeypatch):
        family = FAMILY_TABLE["key"]

        def generate(payload):
            if payload == ((1, 1, 0),):
                raise request.param("generator broke")
            return family.generate(payload)

        monkeypatch.setitem(FAMILY_TABLE, "key", dataclasses.replace(family, generate=generate))
        return request.param.__name__

    # with --jobs 2 the pool's workers are forked and inherit the patched table;
    # the host's core count would refuse --jobs 2 on a single core
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_crash_is_an_error_failure(self, crash, jobs, capsys, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code = main(["sweep", "--family", "key", "--boxes", "2", "--parts", "3",
                     "--jobs", jobs, "--out", "json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["instances_checked"] == 10
        assert report["failures"] == [{
            "instance": "mu=1,1,0",
            "target": "error",
            "detail": f"{crash}: generator broke",
            "repro": "lorentz sweep --family key --mode certify --boxes 2 --parts 3 "
                     "--only 'mu=1,1,0'",
        }]

    def test_bound_errors_still_exit_2(self, crash, capsys):
        assert main(["sweep", "--family", "key", "--boxes", "99", "--parts", "3"]) == 2
        assert "boxes=99" in capsys.readouterr().err


# A worker that exits at w=2143, as an OOM kill or a segfault would end it.
# The forked workers inherit the patched check.  Exit code 99 marks a worker
# left running once the sweep has returned.
DEAD_WORKER = """
import multiprocessing, os, sys
multiprocessing.set_start_method("fork")
from lorentzpoly import cli, sweeps
checked = sweeps._check_instance
def dying(spec, instance_id, payload):
    if instance_id == "w=2143":
        os._exit(3)
    return checked(spec, instance_id, payload)
sweeps._check_instance = dying
os.sched_getaffinity = lambda pid: {0, 1}
code = cli.main(["sweep", "--family", "schubert", "--n", "4", "--jobs", "2"])
sys.exit(99 if multiprocessing.active_children() else code)
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the dying check reaches the workers only by fork")
def test_dead_worker_ends_the_sweep():
    # a worker's death is no instance's failure: the sweep ends with exit 1,
    # one error line and no report, where a pool once waited for it forever
    result = subprocess.run([sys.executable, "-c", DEAD_WORKER], capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: a sweep worker stopped before the sweep ended\n")


class TestJobs:
    """``--jobs`` takes 0 (every core) up to the core count; a sweep starts
    no more workers than it has instances.  No test here starts a pool."""

    @pytest.fixture
    def started(self, monkeypatch):
        """Worker counts of the pools the sweep asks for; each pool runs its
        tasks in this process."""
        import concurrent.futures

        counts = []

        class SerialPool:
            def __init__(self, workers):
                counts.append(workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, function, *iterables, chunksize=1):
                return map(function, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        return counts

    @pytest.fixture
    def no_pool(self, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("no pool may start")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

    @pytest.mark.parametrize("jobs", ["-3", "-1", "5", "1000000"])
    def test_refused_without_a_pool(self, no_pool, jobs, capsys):
        code = main(["sweep", "--family", "schubert", "--n", "3", "--jobs", jobs])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs {jobs} outside 0..4 (0 uses every core)\n"

    def test_one_job_runs_serially(self, no_pool, capsys):
        assert main(["sweep", "--family", "schubert", "--n", "3", "--jobs", "1"]) == 0
        assert "instances checked: 6" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "4"])
    def test_every_core(self, started, jobs, capsys):
        assert main(["sweep", "--family", "schubert", "--n", "3", "--jobs", jobs]) == 0
        assert "instances checked: 6" in capsys.readouterr().out
        assert started == [4]

    def test_bounded_by_affinity_not_machine(self, no_pool, monkeypatch, capsys):
        # a process pinned to one of the machine's cores may start one worker
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert main(["sweep", "--family", "schubert", "--n", "3", "--jobs", "2"]) == 2
        assert capsys.readouterr().err == "error: --jobs 2 outside 0..1 (0 uses every core)\n"

    def test_workers_capped_at_instances(self, started):
        spec = SweepSpec("schubert", "certify", SweepBounds(n=3))
        assert run_sweep(spec, jobs=64).instances_checked == 6
        assert run_sweep(spec, jobs=64, only="w=1").instances_checked == 2
        assert run_sweep(spec, jobs=64, only="w=321").instances_checked == 1
        assert started == [6, 2]
