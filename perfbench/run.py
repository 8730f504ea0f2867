"""Benchmark entry point: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts one process per pass (``one_pass.py``), so every pass starts with
cold memo tables, as a ``lorentz sweep`` user does.  Passes run one after
another, with ``jobs=1``, while the next one is expected to end within
``--seconds``; at least one pass runs.  Afterwards the outputs of the first
pass are re-checked on a seeded sample (``checks.py``), after a self-test
of the checks.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, each the median over the run's passes, and with
``--trace 1`` the per-layer metrics, from passes that alternate between
traced and untraced.  A pass that exits with an error or does not end in
time stops the run; it counts as one attempted and failed operation, and
the JSON line still follows, with ``correct`` false.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 170           # every run must end within 180 s

CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]}
# The host speed that setup_s is expressed at: the reference loop's time on
# this benchmark's 2-vCPU, 2.1 GHz Xeon host with Python 3.11.7.
NOMINAL_REF_MS = 0.2
SAMPLE_HESSIANS = 40        # oracle Hessians per sampled Lorentzian target
SAMPLE_CERTIFY = 2          # instances re-checked per certify rung
SAMPLE_INEQUALITY = 4       # instances re-checked per inequality rung


def run_pass(workload, seed, trace, index, timeout):
    """The pass's JSON result, or a problem string if the pass did not end well."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--pass-index", str(index)],
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return f"pass {index} did not end within {timeout:.0f} s"
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return f"pass {index} exited with code {proc.returncode}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["first_call"] - spawned
    result["duration_s"] = time.monotonic() - spawned
    return result


def ref_ms(result):
    """The pass's reference time: the harmonic mean of its samples.

    The samples are evenly spaced in time, so wall_s times the mean of
    1 / sample counts the reference loops the host could have run during
    the pass; dividing by the harmonic mean is the same figure.
    """
    return statistics.harmonic_mean(result["ref_ms"])


def wall_ref(result):
    """The pass's wall time in reference loops."""
    return result["wall_s"] / (ref_ms(result) / 1e3)


def sampled_checks(workload, seed, first_pass):
    """Independent re-checks of a seeded sample of the first pass's outputs."""
    import checks
    import workloads as wl
    import lorentzpoly as lp

    checks.self_test()
    if workload == "certify-files":
        stream = wl.certify_stream(seed)
        for index, certificate in first_pass["sample"].items():
            kind, label, text = stream[int(index)]
            checks.check_verdict(lp.parse_polynomial(text), certificate,
                                 f"text {index} ({kind} {label})")
        return
    # The sweeps of the first pass reported no failure (``one_pass`` checks
    # that), so each sampled certify target must be Lorentzian.
    rng = random.Random(f"check-{seed}")
    rungs = wl.RUNGS[workload]
    checks.check_schur_values(rungs)
    caches = wl.new_caches()
    for family, mode, bounds, only in rungs:
        instances = wl.rung_instances(family, bounds, only)
        if mode == "inequality":
            for instance, payload in rng.sample(instances, SAMPLE_INEQUALITY):
                checks.check_log_concave(wl.raw_polynomial(family, payload, caches),
                                         f"{family}/{mode}:{instance}")
            continue
        for instance, payload in rng.sample(instances, SAMPLE_CERTIFY):
            for label, poly in wl.certify_targets(family, payload, caches):
                checks.check_verdict(poly, checks.LORENTZIAN, f"{family}:{instance} {label}",
                                     rng, SAMPLE_HESSIANS)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import lorentzpoly
    except ImportError as err:
        sys.exit(f"run.py: cannot import lorentzpoly from {SRC}: {err}")
    if Path(lorentzpoly.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"run.py: lorentzpoly imported from {lorentzpoly.__file__}, not {SRC}")
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}")

    # A traced run alternates traced and untraced passes, so that the
    # tracing overhead is read from passes made under the same host load.
    started = time.monotonic()
    passes = []
    problems = []
    broken = 0  # a pass that did not end counts as one attempted, failed operation
    while True:
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        traced = args.trace == 1 and len(passes) % 2 == 0
        outcome = run_pass(args.workload, args.seed, int(traced), len(passes),
                           min(PASS_TIMEOUT_S, remaining))
        if isinstance(outcome, str):
            problems.append(outcome)
            broken = 1
            break
        passes.append(outcome)
        elapsed = time.monotonic() - started
        if len(passes) >= 1 + args.trace and elapsed + passes[-1]["duration_s"] > args.seconds:
            break

    problems += [p for result in passes for p in result["problems"]]
    if passes:
        try:
            sampled_checks(args.workload, args.seed, passes[0])
        except Exception as err:  # any failed check fails the run
            problems.append(f"{type(err).__name__}: {err}")
    for problem in problems:
        sys.stderr.write(f"CHECK FAILED: {problem}\n")
    sys.stderr.write(f"{len(passes)} passes of {args.workload}, seed {args.seed}\n")

    traced = [p for p in passes if "layers" in p]
    plain = [p for p in passes if "layers" not in p]
    values = {}  # stays empty when no pass of a kind it needs ended
    if args.trace and traced and plain:
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        values["wall_s"] = statistics.median(p["wall_s"] for p in plain)
        values["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        values["trace.plain_wall_ref"] = statistics.median(wall_ref(p) for p in plain)
        values["trace.wall_ref"] = statistics.median(wall_ref(p) for p in traced)
        values["host.ref_ms"] = statistics.median(ref_ms(p) for p in passes)
    elif not args.trace and passes:
        # Set-up is timed at the host speed of its pass, then brought to the
        # nominal speed, so that drift between runs does not move it.
        values = {
            "setup_s": statistics.median(
                p["raw_setup_s"] * NOMINAL_REF_MS / ref_ms(p) for p in passes),
            "wall_ref": statistics.median(wall_ref(p) for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        sys.stderr.write(f"wall_s {statistics.median(p['wall_s'] for p in passes)}\n"
                         f"raw_setup_s {statistics.median(p['raw_setup_s'] for p in passes)}\n")
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes) + broken,
        "failed": sum(p["failed"] for p in passes) + broken,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
