"""Family sweeps: enumerate instances, check each, report failures.

A sweep names a polynomial family, a mode, and size bounds.  Modes:

* ``certify``       - run the Lorentzian certifier on the family's
                      certification targets (``Family.targets``).
* ``support_only``  - check M-convexity of the raw support.
* ``inequality``    - check coefficient log-concavity along every root
                      direction e_i - e_j through the raw coefficients.

Each family is one ``Family`` record in ``FAMILY_TABLE``.  Bounds are
capped (n <= 8, boxes <= 14) so every sweep terminates at desk scale.
Reports are deterministic apart from the wall-time field; each failure
carries a self-contained reproduction command.
"""

import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import __version__
from .certify import (
    SupportNotMConvex,
    lorentzian_certify,
    m_convex_failure,
    root_direction_violations,
)
from .schubert import (
    Permutation,
    RootPath,
    degree_polynomial,
    descent_tree,
    grothendieck,
    homogeneous_grothendieck,
    key_polynomial,
    schubert,
    schubert_dual,
)
from .symmetric import (
    Partition,
    SkewShape,
    StrictPartition,
    schur,
    schur_p,
    skew_schur,
    verma_truncated_normalized,
)

MODES = ("certify", "support_only", "inequality")

CAP_N = 8
CAP_BOXES = 14
CAP_VARS = 8
CAP_DELTA = 6


class SweepCapError(ValueError):
    """A requested bound is missing, exceeds the hard desk-scale caps, or is
    one the family does not take."""


@dataclass(frozen=True)
class SweepBounds:
    boxes: Optional[int] = None
    parts: Optional[int] = None
    vars: Optional[int] = None
    n: Optional[int] = None
    delta: Optional[int] = None
    max_part: Optional[int] = None

    def to_dict(self):
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass(frozen=True)
class SweepSpec:
    family: str
    mode: str = "certify"
    bounds: SweepBounds = field(default_factory=SweepBounds)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    def to_dict(self):
        return {
            "family": self.family,
            "mode": self.mode,
            "bounds": self.bounds.to_dict(),
        }


@dataclass
class SweepReport:
    spec: SweepSpec
    instances_checked: int
    failures: list
    wall_time_s: float
    version: str = __version__

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self):
        return {
            "spec": self.spec.to_dict(),
            "instances_checked": self.instances_checked,
            "failures": self.failures,
            "wall_time_s": self.wall_time_s,
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"sweep family={self.spec.family} mode={self.spec.mode} "
            f"bounds={self.spec.bounds.to_dict()}",
            f"instances checked: {self.instances_checked}",
            f"failures: {len(self.failures)}",
        ]
        for failure in self.failures:
            lines.append(f"  FAIL {failure['instance']}: {failure['detail']}")
            lines.append(f"       repro: {failure['repro']}")
        lines.append(f"wall time: {self.wall_time_s:.3f}s  (version {self.version})")
        return "\n".join(lines)


# -- instance enumeration --------------------------------------------------


def partitions_within(boxes: int, parts: int):
    """All partitions with at most ``boxes`` boxes and ``parts`` parts."""

    def build(prefix, largest, budget):
        yield Partition(prefix)
        for part in range(min(largest, budget), 0, -1):
            if len(prefix) < parts:
                yield from build(prefix + [part], part, budget - part)

    yield from build([], boxes, boxes)


def subpartitions(lam: Partition):
    """All partitions contained in ``lam``."""
    rows = lam.parts

    def build(prefix, i):
        if i == len(rows):
            yield Partition(prefix)
            return
        cap = min(rows[i], prefix[-1] if prefix else rows[i])
        for part in range(cap, -1, -1):
            if part == 0:
                yield Partition(prefix)
                return
            yield from build(prefix + [part], i + 1)

    yield from build([], 0)


def strict_partitions_within(max_part: int, parts: int):
    """All strict partitions with parts <= max_part and at most ``parts`` parts."""

    def build(prefix, ceiling):
        yield StrictPartition(prefix)
        if len(prefix) < parts:
            for part in range(ceiling, 0, -1):
                yield from build(prefix + [part], part - 1)

    yield from build([], max_part)


def compositions_within(boxes: int, parts: int):
    """All vectors in N^parts with coordinate sum at most ``boxes``."""
    for total in range(boxes + 1):
        for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
            points = (0,) + cuts + (total,)
            yield tuple(points[i + 1] - points[i] for i in range(parts))


def _fmt(seq) -> str:
    return ",".join(str(x) for x in seq)


def _require(value, name, low, cap):
    if value is None:
        raise SweepCapError(f"bound {name!r} is required for this family")
    if value < low or value > cap:
        raise SweepCapError(f"bound {name}={value} outside {low}..{cap}")
    return value


def _shape_instances(shapes, nvars):
    for lam in shapes:
        for m in range(1, nvars + 1):
            yield f"lambda={_fmt(lam.parts)}|m={m}", (lam.parts, m)


def _skew_instances(boxes, parts, nvars):
    for lam in partitions_within(boxes, parts):
        for inner in subpartitions(lam):
            for m in range(1, nvars + 1):
                yield (
                    f"lambda={_fmt(lam.parts)}/nu={_fmt(inner.parts)}|m={m}",
                    (lam.parts, inner.parts, m),
                )


def _key_instances(boxes, parts):
    for mu in compositions_within(boxes, parts):
        yield f"mu={_fmt(mu)}", (mu,)


def _permutation_instances(n):
    # descent-tree preorder: each permutation's parent is still on the one
    # path that a ``RootPath`` memo holds when the permutation comes
    for line in descent_tree(n):
        yield f"w={''.join(map(str, line))}", (line,)


def _verma_instances(nvars, delta_cap):
    for m in range(1, nvars + 1):
        for delta in itertools.product(range(delta_cap + 1), repeat=m):
            yield f"delta={_fmt(delta)}", (delta,)


def _whole(payload, raw):
    """The raw polynomial, which the certifier normalizes."""
    return [("normalized", raw)]


def _signed_components(payload, raw):
    """The homogeneous components of a Grothendieck polynomial, component
    k = 0, 1, ... above degree l(w) multiplied by (-1)^k."""
    ell = Permutation(payload[0]).length()
    top = raw.total_degree() if raw else ell
    components = [raw.homogeneous_component(ell + k) for k in range(top - ell + 1)]
    return [(f"component k={k}", -c if k % 2 else c) for k, c in enumerate(components)]


# Memo tables of the divided-difference recursions, the branching rules,
# the certificates of families with repeated targets, the M-convexity
# answers of every family (keyed on the support with its constant
# coordinates dropped, translated to the origin) and the Hessian inertias
# of every certify-mode target (keyed on the exact matrix), emptied when one
# ``run_sweep`` starts and when it returns.  The two permutation tables
# hold one root path of the descent tree, at most n(n-1)/2 + 1 term maps;
# the others grow with the sweep.  Inserts are idempotent, so concurrent
# workers each filling their own copy agree.
_CACHES = {
    "schubert": RootPath(), "grothendieck": RootPath(), "schur": {}, "schur_p": {},
    "certify": {}, "supports": {}, "inertias": {},
}


@dataclass(frozen=True)
class Family:
    """Everything the sweep and ``lorentz gen`` know about one family.

    ``bounds`` lists (bound, least, cap) in the order they are checked;
    ``instances`` takes their values and yields (instance_id, payload)
    pairs.  ``gen_flags`` are the ``lorentz gen`` flags whose values, in
    order, form a payload.  ``generate`` maps a payload to the raw
    polynomial and ``targets(payload, raw)`` gives the (label, polynomial)
    pairs the certify mode must pass.  When ``normalize`` is set, the
    targets are given before normalization and the certifier decides
    their normalizations; otherwise they are certified as they are.  When
    ``repeats`` is set, many instances share a target, and the certifier
    keeps its certificates in ``_CACHES["certify"]``; elsewhere few targets
    repeat, and the keys cost more than they save.  Supports repeat far more
    often than targets once translation and constant coordinates are set
    aside, so every family, in certify and ``support_only`` mode alike,
    hands ``_CACHES["supports"]`` to ``m_convex_failure``.  Hessians repeat
    across the targets of a sweep, rarely within one, so every certify-mode
    target shares ``_CACHES["inertias"]``.
    The permutation families yield S_n in descent-tree preorder and keep
    their term maps in ``RootPath`` tables, which hold only the path from
    w_0 to the current instance; a serial sweep of all of S_n applies one
    operator per instance, to its parent's map.  Generators name the functions they call at call
    time, so wrapping a module attribute reaches them.
    """

    bounds: tuple
    instances: Callable
    gen_flags: tuple
    generate: Callable
    targets: Callable = _whole
    normalize: bool = True
    repeats: bool = False


_PARTITION_BOUNDS = (("boxes", 0, CAP_BOXES), ("parts", 0, CAP_BOXES), ("vars", 1, CAP_VARS))
_PERMUTATION_BOUNDS = (("n", 1, CAP_N),)

# Family(bounds, instances, gen_flags, generate[, targets, normalize, repeats]) per family.
FAMILY_TABLE = {
    "schur": Family(
        _PARTITION_BOUNDS,
        lambda boxes, parts, nvars: _shape_instances(partitions_within(boxes, parts), nvars),
        ("lambda", "vars"),
        lambda p: schur(Partition(p[0]), p[1], _CACHES["schur"]),
    ),
    "skew": Family(
        _PARTITION_BOUNDS, _skew_instances, ("lambda", "inner", "vars"),
        lambda p: skew_schur(SkewShape(Partition(p[0]), Partition(p[1])), p[2],
                             _CACHES["schur"]),
        repeats=True,  # translates, reordered pieces, half-turns: equal polynomials
    ),
    "schur_p": Family(
        (("max_part", 0, CAP_BOXES), ("parts", 0, CAP_BOXES), ("vars", 1, CAP_VARS)),
        lambda top, parts, nvars: _shape_instances(strict_partitions_within(top, parts), nvars),
        ("lambda", "vars"),
        lambda p: schur_p(StrictPartition(p[0]), p[1], _CACHES["schur_p"]),
    ),
    "schubert": Family(
        _PERMUTATION_BOUNDS, _permutation_instances, ("w",),
        lambda p: schubert(Permutation(p[0]), _CACHES["schubert"]),
    ),
    "schubert_dual": Family(
        _PERMUTATION_BOUNDS, _permutation_instances, ("w",),
        lambda p: schubert_dual(Permutation(p[0]), _CACHES["schubert"]),
        lambda payload, raw: [("dual", raw)],
        normalize=False,
    ),
    "grothendieck": Family(
        _PERMUTATION_BOUNDS, _permutation_instances, ("w",),
        lambda p: grothendieck(Permutation(p[0]), _CACHES["grothendieck"]),
        _signed_components,
    ),
    "grothendieck_homog": Family(
        _PERMUTATION_BOUNDS, _permutation_instances, ("w",),
        lambda p: homogeneous_grothendieck(Permutation(p[0]), _CACHES["grothendieck"]),
    ),
    "key": Family(
        (("boxes", 0, CAP_BOXES), ("parts", 1, CAP_VARS)), _key_instances, ("mu",),
        lambda p: key_polynomial(p[0]),
    ),
    "degree": Family(
        _PERMUTATION_BOUNDS, _permutation_instances, ("w",),
        lambda p: degree_polynomial(Permutation(p[0])),
        lambda payload, raw: [("raw", raw)],
        normalize=False,
    ),
    "verma": Family(
        (("vars", 1, CAP_VARS), ("delta", 0, CAP_DELTA)), _verma_instances, ("delta",),
        lambda p: verma_truncated_normalized(p[0]),
        lambda payload, raw: [("raw", raw)],
        normalize=False,
    ),
}
FAMILIES = tuple(FAMILY_TABLE)


def _instances(spec: SweepSpec):
    """(instance_id, payload) pairs; payloads are picklable primitives."""
    family = FAMILY_TABLE[spec.family]
    taken = {name for name, _, _ in family.bounds}
    for name, value in spec.bounds.to_dict().items():
        if name not in taken:
            raise SweepCapError(f"bound {name}={value} does not apply to family {spec.family}")
    values = [
        _require(getattr(spec.bounds, name), name, low, cap)
        for name, low, cap in family.bounds
    ]
    return family.instances(*values)


def _repro_command(spec: SweepSpec, instance_id: str) -> str:
    parts = [f"lorentz sweep --family {spec.family}", f"--mode {spec.mode}"]
    for name, value in spec.bounds.to_dict().items():
        parts.append(f"--{name.replace('_', '-')} {value}")
    parts.append(f"--only '{instance_id}'")
    return " ".join(parts)


def _failure(spec: SweepSpec, instance_id: str, target: str, detail: str, certificate=None):
    """The failure dict of one instance; an ``error`` failure has no certificate."""
    failure = {"instance": instance_id, "target": target, "detail": detail}
    if certificate is not None:
        failure["certificate"] = certificate
    failure["repro"] = _repro_command(spec, instance_id)
    return failure


def _check_instance(spec: SweepSpec, instance_id: str, payload):
    """Return a failure dict or None."""
    family = FAMILY_TABLE[spec.family]
    raw = family.generate(payload)
    if spec.mode == "certify":
        cache = _CACHES["certify"] if family.repeats else None
        for label, target in family.targets(payload, raw):
            certificate = lorentzian_certify(target, normalize=family.normalize, cache=cache,
                                             supports=_CACHES["supports"],
                                             inertias=_CACHES["inertias"])
            if not certificate.is_lorentzian:
                return _failure(spec, instance_id, label,
                                f"{label}: {certificate.failure.kind}", certificate.to_dict())
        return None
    if spec.mode == "support_only":
        witness = m_convex_failure(raw.terms, _CACHES["supports"])
        if witness is not None:
            alpha, beta, index = witness
            return _failure(spec, instance_id, "support",
                            f"exchange fails at alpha={alpha} beta={beta} i={index}",
                            SupportNotMConvex(*witness).to_dict())
        return None
    if spec.mode == "inequality":
        violations = root_direction_violations(raw)
        if violations:
            mu, i, j = violations[0]
            return _failure(spec, instance_id, "coefficients",
                            f"log-concavity fails at mu={mu} (i,j)=({i},{j})",
                            {"kind": "root_direction_log_concavity", "mu": list(mu),
                             "i": i, "j": j})
        return None
    raise AssertionError(spec.mode)


def _guarded_check(spec: SweepSpec, instance_id: str, payload):
    """``_check_instance``, with a crash reported as that instance's failure."""
    try:
        return _check_instance(spec, instance_id, payload)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed instance
        return _failure(spec, instance_id, "error", f"{type(exc).__name__}: {exc}")


def run_sweep(spec: SweepSpec, jobs: int = 1, only: Optional[str] = None) -> SweepReport:
    """Run a sweep; ``only`` restricts to instance ids containing the string.

    The memo tables in ``_CACHES`` are emptied when the sweep starts and
    when it returns, so each sweep starts cold and nothing it built stays
    resident.  With more than one worker, a worker that dies (killed, or
    crashed in C code) ends the sweep with
    ``concurrent.futures.process.BrokenProcessPool``.
    """
    try:
        _clear_caches()
        return _run_sweep(spec, jobs, only)
    finally:
        _clear_caches()


def _clear_caches():
    for table in _CACHES.values():
        table.clear()


def _run_sweep(spec: SweepSpec, jobs: int, only: Optional[str]) -> SweepReport:
    start = time.monotonic()
    instances = [
        (instance_id, payload)
        for instance_id, payload in _instances(spec)
        if only is None or only in instance_id
    ]
    if not instances:
        raise ValueError(f"--only {only!r} matches no instance of this sweep")
    failures = []
    workers = min(jobs, len(instances))
    if workers <= 1:
        for instance_id, payload in instances:
            failure = _guarded_check(spec, instance_id, payload)
            if failure is not None:
                failures.append(failure)
    else:
        # unlike a multiprocessing.Pool, the executor raises BrokenProcessPool
        # once a worker dies, rather than wait for its results forever
        from concurrent.futures import ProcessPoolExecutor

        ids, payloads = zip(*instances)
        with ProcessPoolExecutor(workers) as pool:
            for failure in pool.map(_guarded_check, [spec] * len(ids), ids, payloads,
                                    chunksize=8):
                if failure is not None:
                    failures.append(failure)
    failures.sort(key=lambda f: (f["instance"], f.get("target", "")))
    return SweepReport(
        spec=spec,
        instances_checked=len(instances),
        failures=failures,
        wall_time_s=time.monotonic() - start,
    )
