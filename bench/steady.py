"""Run workloads repeatedly and report how steady each metric is.

    python3 bench/steady.py                                  # every workload once
    python3 bench/steady.py --workload match-ladder --runs 10 --first-seed 1

Each run is ``bench/run.py`` with the next seed and the run length from
BENCHMARK.json, one run at a time.  For every end-to-end metric this prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, beside the metric's bound; ``!`` marks a
spread above a third of its bound.  It also prints operations attempted
and failed, and the failed share, which must be identical across runs.
Exits 1 if any run fails, reports incorrect outputs, or the failed share
differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload: str, results: list[dict], bounds: dict) -> bool:
    ok = True
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{workload}: {len(results)} run(s); attempted "
          f"{[r['attempted'] for r in results]}, failed {[r['failed'] for r in results]}")
    if len(shares) != 1:
        print(f"  failed share differs between runs: {sorted(shares)}")
        ok = False
    if not all(r["correct"] for r in results):
        print("  some run reported incorrect outputs")
        ok = False
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) < 2:
            print(f"  {name:34s} {med:12.6g} {unit}")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = "!" if bound is not None and spread > bound / 3 else " "
        limit = f"bound {bound:.2f}" if bound is not None else ""
        print(f"  {name:34s} median {med:12.6g} {unit:5s} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:6.3f} {mark} {limit}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeat to pick several; default: every workload")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {} if args.trace else {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = [run_once(workload, seed, spec["run_seconds"], args.trace)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        ok = report(workload, results, bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
