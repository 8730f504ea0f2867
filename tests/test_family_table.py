"""Every family through ``FAMILY_TABLE``: instance counts, failing
instances, and ``lorentz gen`` against the sweep's own generator."""

from fractions import Fraction

import pytest

from lorentzpoly.certify import lorentzian_certify
from lorentzpoly.cli import main
from lorentzpoly.polynomials import format_polynomial, normalize
from lorentzpoly.sweeps import (
    FAMILIES,
    FAMILY_TABLE,
    SweepBounds,
    SweepSpec,
    _instances,
    run_sweep,
)

PERMUTATION_FAMILIES = (
    "schubert", "schubert_dual", "grothendieck", "grothendieck_homog", "degree",
)

# (bounds, instances) per family
SWEEPS = {
    "schur": (SweepBounds(boxes=4, parts=3, vars=3), 33),
    "skew": (SweepBounds(boxes=4, parts=2, vars=3), 108),
    "schur_p": (SweepBounds(max_part=4, parts=2, vars=3), 33),
    "key": (SweepBounds(boxes=3, parts=3), 20),
    "verma": (SweepBounds(vars=2, delta=2), 12),
    **{family: (SweepBounds(n=4), 24) for family in PERMUTATION_FAMILIES},
}

# Failing instances at those bounds; every other family and mode has none.
# Grothendieck polynomials are inhomogeneous, so some supports are not M-convex.
FAILURES = {
    ("grothendieck", "support_only"): [
        "w=1243", "w=1324", "w=1342", "w=1423", "w=1432",
        "w=2143", "w=2413", "w=2431", "w=3142", "w=4132",
    ],
}


def test_table_covers_every_family():
    assert set(SWEEPS) == set(FAMILIES)


def test_only_skew_memoizes_certificates():
    # the other families repeat few targets, or none, so a memo costs more
    assert [name for name, family in FAMILY_TABLE.items() if family.repeats] == ["skew"]


@pytest.mark.parametrize("mode", ["certify", "support_only", "inequality"])
@pytest.mark.parametrize("family", FAMILIES)
def test_instances_and_failures(family, mode):
    bounds, count = SWEEPS[family]
    report = run_sweep(SweepSpec(family, mode, bounds))
    assert report.instances_checked == count
    assert [f["instance"] for f in report.failures] == FAILURES.get((family, mode), [])


@pytest.mark.parametrize("family", FAMILIES)
def test_certify_matches_normalize_then_certify(family):
    bounds, _ = SWEEPS[family]
    entry = FAMILY_TABLE[family]
    for instance_id, payload in _instances(SweepSpec(family, "certify", bounds)):
        raw = entry.generate(payload)
        for label, target in entry.targets(payload, raw):
            expected = normalize(target) if entry.normalize else target
            got = lorentzian_certify(target, normalize=entry.normalize)
            assert got.to_dict() == lorentzian_certify(expected).to_dict(), (instance_id, label)


@pytest.mark.parametrize("family", FAMILIES)
def test_generators_give_fraction_coefficients(family):
    # generators may count on ints inside, but no int reaches a Polynomial:
    # quadratic_form_matrix halves coefficients, which makes a float of an int
    bounds, _ = SWEEPS[family]
    entry = FAMILY_TABLE[family]
    for instance_id, payload in _instances(SweepSpec(family, "certify", bounds)):
        raw = entry.generate(payload)
        for label, target in [("raw", raw), *entry.targets(payload, raw)]:
            assert all(type(c) is Fraction for c in target.terms.values()), (instance_id, label)


def _flag_text(flag, value):
    if flag == "w":
        return "".join(map(str, value))
    if isinstance(value, int):
        return str(value)
    return ",".join(map(str, value))


@pytest.mark.parametrize("family", FAMILIES)
def test_gen_matches_sweep_generator(family, capsys):
    bounds, _ = SWEEPS[family]
    entry = FAMILY_TABLE[family]
    *_, (instance_id, payload) = _instances(SweepSpec(family, "certify", bounds))
    argv = ["gen", "--family", family]
    for flag, value in zip(entry.gen_flags, payload):
        argv += [f"--{flag}", _flag_text(flag, value)]
    assert main(argv) == 0, instance_id
    assert capsys.readouterr().out == format_polynomial(entry.generate(payload))
