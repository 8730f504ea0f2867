"""Byte-for-byte checks of the demo and CLI outputs against tests/golden/.

Each case runs one command from the repository root with ``src`` on the
import path and compares its stdout and exit code with the recorded ones.
To record the files again after an intended change of output, run
``python tests/test_golden_outputs.py`` and review the diff.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CORPUS = ROOT / "src" / "lorentzpoly" / "corpus_data"

# (golden file name, argv after the interpreter, expected exit code)
CASES = [
    ("demo-normalized_schur_walkthrough.txt", ["demos/normalized_schur_walkthrough.py"], 0),
    ("demo-schubert_families_tour.txt", ["demos/schubert_families_tour.py"], 0),
    ("demo-weight_multiplicities_walk.txt", ["demos/weight_multiplicities_walk.py"], 0),
    ("paper-suite.json", ["-m", "lorentzpoly.cli", "paper-suite", "--out", "json"], 0),
] + [
    (
        f"certify-{name[: -len('.poly')]}.json",
        ["-m", "lorentzpoly.cli", "certify", "--out", "json", f"src/lorentzpoly/corpus_data/{name}"],
        code,
    )
    for name, code in (
        ("grothendieck-132.poly", 1),
        ("normalized-character-sl4.poly", 0),
        ("normalized-schur-31111.poly", 0),
        ("schubert-132.poly", 0),
        ("schubert-321.poly", 0),
        ("schur-2.poly", 1),
    )
] + [
    (f"gen-{name}.txt", ["-m", "lorentzpoly.cli", "gen", *flags], 0)
    for name, flags in (
        ("schubert-154623", ["--family", "schubert", "--w", "154623"]),
        ("grothendieck-2413", ["--family", "grothendieck", "--w", "2413"]),
        (
            "grothendieck-1432-component-1-normalized-scaled",
            ["--family", "grothendieck", "--w", "1432", "--component", "1",
             "--normalize", "--scale=-2/3"],
        ),
        ("grothendieck_homog-25143", ["--family", "grothendieck_homog", "--w", "25143"]),
        ("schubert_dual-2413", ["--family", "schubert_dual", "--w", "2413"]),
        ("key-0-2-1-3", ["--family", "key", "--mu", "0,2,1,3"]),
        ("degree-3412", ["--family", "degree", "--w", "3412"]),
    )
]


def tree_env():
    """The environment with this tree's ``src`` first on ``PYTHONPATH``, so a
    subprocess imports the package under test, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _run(argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=tree_env(), capture_output=True, check=False
    )


def test_cases_cover_the_corpus():
    covered = {argv[-1].rsplit("/", 1)[-1] for _, argv, _ in CASES if "certify" in argv}
    assert covered == {p.name for p in CORPUS.glob("*.poly")}


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(name, argv, code):
    result = _run(argv)
    assert result.returncode == code, result.stderr.decode()
    assert result.stdout == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        result = _run(argv)
        if result.returncode != code:
            sys.exit(f"{name}: exit {result.returncode}, expected {code}")
        (GOLDEN / name).write_bytes(result.stdout)
