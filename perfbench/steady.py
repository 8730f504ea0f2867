"""Steadiness check: run one workload several times and report the spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]

Runs ``run.py`` once per seed (``--first-seed``, ``--first-seed + 1``, ...),
one run at a time, and prints for each metric the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
``(q3 - q1) / median``, beside the metric's bound in ``BENCHMARK.json``.
Each run is untraced and lasts that file's ``run_seconds``.  The raw pass wall
time and set-up time, which an untraced run prints to standard error as
``wall_s`` and ``raw_setup_s``, are reported beside them.  Every run's JSON
line is kept in ``perfbench/out/steady-<workload>.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in CONFIG["end_to_end"] + CONFIG["per_layer"]}
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"steady-{args.workload}.jsonl"
    results = []
    with open(log, "w", encoding="utf-8") as handle:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(CONFIG["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"steady.py: run with seed {seed} exited with code {proc.returncode}")
            line = proc.stdout.strip().splitlines()[-1]
            handle.write(line + "\n")
            results.append(json.loads(line))
            for text in proc.stderr.splitlines():
                name, _, value = text.partition(" ")
                if name in ("wall_s", "raw_setup_s"):
                    results[-1]["metrics"][name] = {"value": float(value)}
            print(f"seed {seed}: " + "  ".join(
                f"{name}={m['value']:.6g}" for name, m in results[-1]["metrics"].items()),
                flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs of {CONFIG['run_seconds']} s, "
          f"all correct: {all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print(f"{name:36} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}")


if __name__ == "__main__":
    main()
