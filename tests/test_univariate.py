import ast
import pathlib
from fractions import Fraction

import lorentzpoly
from lorentzpoly import oracles as uni

from second_routes import count_real_roots


def F(*values):
    return [Fraction(v) for v in values]


def test_no_real_roots_for_positive_quadratic():
    # x^2 + 6x + 13 has negative discriminant
    assert count_real_roots(F(13, 6, 1)) == 0


def test_two_real_roots():
    # (t - 1)(t + 2)
    assert count_real_roots(F(-2, 1, 1)) == 2


def test_interval_counting_is_half_open():
    # roots of t^2 - 1 at -1 and 1
    p = F(-1, 0, 1)
    assert uni.count_real_roots_in(p, 0, 1) == 1
    assert uni.count_real_roots_in(p, 1, 2) == 0
    assert uni.count_real_roots_in(p, -1, 1) == 1


def test_strip_zero_root():
    reduced, z = uni.strip_zero_root(F(0, 0, 3, 1))
    assert z == 2 and reduced == F(3, 1)


def test_squarefree_decomposition():
    # (t-1)^2 (t+2)
    p = F(2, -3, 0, 1)
    factors = uni.squarefree_decomposition(p)
    assert sorted((uni.degree(f), mult) for f, mult in factors) == [(1, 1), (1, 2)]


def test_exact_divide_round_trip():
    a = F(1, 2, 1)  # (t+1)^2
    b = F(1, 1)
    q = uni.exact_divide(a, b)
    assert q == F(1, 1)


def test_only_oracles_imports_second_routes():
    # production code and the demos have one route per question: no module
    # of the package or the demos imports the Sturm oracle, the test-side
    # routes or any other module under tests/, and univariate is no module
    package = pathlib.Path(lorentzpoly.__file__).parent
    tests = pathlib.Path(__file__).resolve().parent
    demos = tests.parent / "demos"
    assert not (package / "univariate.py").exists()
    forbidden = {"oracles", "univariate", "tests"} | {path.stem for path in tests.glob("*.py")}
    importers = set()
    for path in [*package.glob("*.py"), *demos.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(part in forbidden for name in names for part in name.split(".")):
                importers.add(path.name)
    assert importers == set()
