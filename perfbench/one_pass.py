"""One timed pass of a workload, in a fresh process so memo tables start cold.

Usage (normally started by ``run.py``):

    python3 perfbench/one_pass.py --workload NAME --seed N --trace 0|1 --pass-index K

Prints one JSON line: the monotonic time of the first timed call, the wall
time of the pass, the reference-loop samples taken while it ran, the peak
resident set size, the operations attempted and failed, problems found by
the checks that run on every pass, and the outputs that ``run.py``
re-checks on a seeded sample.  With ``--trace 1`` the public functions of
each layer are wrapped before the pass (``tracing.py``), the per-layer
metrics are added and the spans are written to ``perfbench/out/``.
"""

import argparse
import gc
import json
import random
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import lorentzpoly as lp  # noqa: E402  (needs the path set above)
from lorentzpoly.sweeps import SweepBounds, SweepSpec  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402

REF_INTERVAL_S = 0.01
TEXT_CHUNKS = 12
SAMPLE_PER_KIND = 4


def reference_loop():
    """Fixed Fraction and tuple-keyed dict work, about 0.2 ms on a 2-core host."""
    table = {}
    total = Fraction(0)
    for i in range(6):
        for j in range(6):
            key = (i % 5, j, i // 5)
            value = Fraction(i + 1, j + 2)
            table[key] = table.get(key, 0) + value
            total += value * value
    return total, len(table)


class Pass:
    """Times the parts of a pass and samples the host's speed during them.

    While a part runs, an interval timer interrupts it every
    ``REF_INTERVAL_S`` seconds and the signal handler times one
    ``reference_loop``, so the samples spread evenly over the pass and
    follow the host's drift.  The time spent in the handler is taken off
    the part's wall time.
    """

    def __init__(self):
        self.first_call = None
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0
        self.ref_ms = []
        self.sampling_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # a collection here would time the workload's heap, not the host
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.ref_ms.append(1e3 * took)
        self.sampling_s += took

    def part(self, work, *args):
        if self.first_call is None:
            self.first_call = time.monotonic()
        sampled = self.sampling_s
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        try:
            result = work(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s += time.perf_counter() - start - (self.sampling_s - sampled)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result


# -- sweep workloads ---------------------------------------------------------


def sweep_rung(rung):
    family, mode, bounds, only = rung
    report = lp.run_sweep(SweepSpec(family, mode, SweepBounds(**bounds)), jobs=1, only=only)
    return {"instances_checked": report.instances_checked, "failures": len(report.failures)}


def run_sweeps(workload, tracer):
    rungs = wl.RUNGS[workload]
    if tracer is not None:
        # Counted before the wrappers go in, so the count adds no span.
        expected_targets = sum(wl.certify_target_count(*rung) for rung in rungs)
        tracer.install()
    timer = Pass()
    reports = [timer.part(sweep_rung, rung) for rung in rungs]
    problems = []
    for rung, report in zip(rungs, reports):
        try:
            checks.check_sweep_report(rung, report)
        except checks.CheckFailure as err:
            problems.append(str(err))
    if tracer is not None and not problems and len(tracer.certified) != expected_targets:
        problems.append(f"{workload}: the sweeps certified {len(tracer.certified)} targets, "
                        f"their instances have {expected_targets}")
    attempted = sum(r["instances_checked"] for r in reports)
    failed = sum(r["failures"] for r in reports)
    return timer, attempted, failed, problems, {}


# -- certify-files -----------------------------------------------------------


def certify_chunk(texts):
    outcomes = []
    for kind, label, text in texts:
        try:
            poly = lp.parse_polynomial(text)
            certificate = lp.lorentzian_certify(poly)
            verified = certificate.is_lorentzian or lp.verify_certificate(poly, certificate)
            outcomes.append((poly, certificate, verified))
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outcomes.append(None)
    return outcomes


def sample_indices(seed, stream):
    """A seeded sample of ``SAMPLE_PER_KIND`` texts of each kind."""
    rng = random.Random(f"sample-{seed}")
    by_kind = {}
    for index, (kind, _, _) in enumerate(stream):
        by_kind.setdefault(kind, []).append(index)
    return sorted(i for kind in sorted(by_kind)
                  for i in rng.sample(by_kind[kind], min(SAMPLE_PER_KIND, len(by_kind[kind]))))


def run_certify_files(seed, tracer):
    stream = wl.certify_stream(seed)
    bounds = [len(stream) * k // TEXT_CHUNKS for k in range(TEXT_CHUNKS + 1)]
    if tracer is not None:
        tracer.install()  # after the stream is built: generating it is set-up
    timer = Pass()
    outcomes = []
    for lo, hi in zip(bounds, bounds[1:]):
        if tracer is not None:
            tracer.item = f"texts {lo}..{hi - 1}"
        outcomes.extend(timer.part(certify_chunk, stream[lo:hi]))
    problems = []
    failed = 0
    for index, ((kind, label, _), outcome) in enumerate(zip(stream, outcomes)):
        if outcome is None:
            failed += 1
            continue
        try:
            checks.check_text_outcome(kind, *outcome, f"text {index} ({kind} {label})")
        except checks.CheckFailure as err:
            problems.append(str(err))
    sample = {
        index: outcomes[index][1].to_dict()
        for index in sample_indices(seed, stream)
        if outcomes[index] is not None
    }
    return timer, len(stream), failed, problems, sample


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    if args.workload == "certify-files":
        timer, attempted, failed, problems, sample = run_certify_files(args.seed, tracer)
    else:
        timer, attempted, failed, problems, sample = run_sweeps(args.workload, tracer)
    result = {
        "first_call": timer.first_call,
        "wall_s": timer.wall_s,
        "ref_ms": timer.ref_ms,
        "peak_rss_mb": timer.peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "sample": sample,
    }
    if tracer is not None:
        instances = attempted if args.workload != "certify-files" else 0
        result["layers"] = tracer.layer_metrics(instances)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}-pass{args.pass_index}.json")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
