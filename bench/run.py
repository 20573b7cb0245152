"""Benchmark for sigmahg: one workload per run, closed loop, one process.

    python3 bench/run.py --workload library --seed 1 --seconds 40 --trace 0

Set-up (a fresh interpreter importing the package, input generation and
warm-up) runs five times; ``setup_s`` is their median.  The timed phase
then runs whole rounds of the workload's operations, about ``--seconds``
in all and at least ``min_ops`` operations.  Every program cache is
emptied before each round.  Timed rounds run no checks;
later rounds must reproduce the first byte for byte.  ``peak_rss_mb`` is
read when the timed phase ends, and only then does one more, untimed
round check every output and compare it with the timed rounds'.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` rounds alternate between untraced
and traced, the traced ones record spans around every call into the
program, and the last line holds the per-layer metrics instead; the spans
are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
HARD_STOP_S = 120.0  # stop adding rounds past this, whatever min_ops says

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sigmahg, sigmahg.cli; "
    "print(time.perf_counter() - t)"
)

# Per-layer metric -> span names whose self time it sums, per traced round.
SPAN_METRICS = {
    "core.verify_s": ("core.verify_matching",),
    "core.encode_s": ("core.matching_to_json", "json.dumps"),
    "core.decode_s": ("json.loads", "core.matching_from_json"),
    "matching.best_s": ("matching.best_matching",),
    "matching.winner_s": ("matching.winner",),
    "matching.greedy_s": ("matching.greedy_matching",),
    "matching.rgood_s": ("matching.r_good_maximum_matching",),
    "independence.alpha_k_first_s": ("independence.alpha_k.first",),
    "independence.alpha_k_repeat_s": ("independence.alpha_k.repeat",),
    "independence.closed_and_bounds_s": ("independence.alpha", "independence.colouring_bounds"),
    "oracle.max_matching_s": ("oracle.bf_max_matching",),
    "oracle.alpha_k_s": ("oracle.bf_alpha_k",),
    "oracle.intersection_s": ("oracle.bf_max_intersection",),
    "oracle.colouring_s": ("oracle.bf_colouring_spectrum",),
    "cli.run_s": ("cli.run",),
}
MAX_METRICS = ("oracle.colouring_peak_mb", "cli.child_rss_mb")  # MB, largest in the round
COUNT_METRICS = (
    "core.json_mb", "core.edges_total", "matching.nu_short_specs",
    "independence.profiles_total", "oracle.budget_exceeded", "cli.stdout_mb",
)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def set_up(wl, env):
    """One set-up: import in a fresh interpreter, make inputs, warm up.
    Returns (seconds, import seconds measured inside the child, inputs)."""
    from workloads import clear_caches

    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, env=env, check=True, timeout=60
    )
    inputs = wl.make_inputs()
    clear_caches()
    wl.warm_up()
    return time.perf_counter() - start, float(child.stdout), inputs


def run_round(wl, inputs, tr, reference: list, check: bool = False):
    """Run every input once, with every program cache emptied first.
    Returns (op durations, failed count, errors)."""
    from workloads import clear_caches

    durations, errors, failed, probes = [], [], 0, []
    state: dict = {}
    clear_caches()
    for i, inp in enumerate(inputs):
        tr.op_id = i
        t0 = time.perf_counter()
        with tr.span("op"):
            result = wl.run_op(inp, state, tr)
        durations.append(wl.op_seconds(result, time.perf_counter() - t0))
        wl.after_op(inp, result, state, tr)
        failed += wl.failed(inp, result)
        if check:
            errors += wl.check(inp, result, state)
        if tr is not spans.NULL:
            probes.append((i, inp, result, dict(state)))
        digest = wl.fingerprint(result)
        if len(reference) <= i:
            reference.append(digest)
        elif reference[i] != digest:
            errors.append(f"operation {i} gave a different output than in the first round")
    # Probes empty the caches, so they wait until every operation has run.
    for i, inp, result, state_then in probes:
        tr.op_id = i
        wl.probe(inp, result, state_then, tr)
    return durations, failed, errors


def measure(wl, inputs, seconds: float, trace: bool, reference: list):
    """The timed phase.  Returns a list of round records."""
    rounds = []
    start = time.perf_counter()
    last = 0.0  # elapsed when the previous round ended
    while True:
        traced = trace and len(rounds) % 2 == 1
        tr = spans.Tracer() if traced else spans.NULL
        durations, failed, errors = run_round(wl, inputs, tr, reference)
        rounds.append({"traced": traced, "durations": durations, "failed": failed,
                       "errors": errors, "tracer": tr})
        elapsed = time.perf_counter() - start
        ops = sum(len(r["durations"]) for r in rounds)
        # Stop where the next round would end more than half of it past
        # --seconds, so a run measures about --seconds on average.  A traced
        # run reports no percentiles; it needs one round of each kind.
        enough = (elapsed + (elapsed - last) / 2 >= seconds
                  and (len(rounds) >= 2 if trace else ops >= wl.min_ops))
        last = elapsed
        if enough or elapsed >= HARD_STOP_S:
            return rounds


def end_to_end(wl, rounds, setups, peak_rss_mb) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    durations = [d for r in plain for d in r["durations"]]
    tail = statistics.quantiles(durations, n=100, method="inclusive")[wl.tail_pct - 1]
    return {
        "wall_s": (_median([sum(r["durations"]) for r in plain]), "s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (_median([s[0] for s in setups]), "s"),
    }


def per_layer(rounds, setups, interpreter_s: float) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = []
    for r in traced:
        tr = r["tracer"]
        self_times = tr.self_times()
        row = {m: sum(self_times.get(s, 0.0) for s in names) for m, names in SPAN_METRICS.items()}
        row.update({m: tr.counters.get(m, 0) for m in COUNT_METRICS})
        row.update({m: tr.maxima.get(m, 0.0) for m in MAX_METRICS})
        per_round.append(row)
    out = {m: (_median([row[m] for row in per_round]), "s") for m in SPAN_METRICS}
    units = {"core.json_mb": "MB", "cli.stdout_mb": "MB"}
    out.update({m: (_median([row[m] for row in per_round]), units.get(m, "count"))
                for m in COUNT_METRICS})
    out.update({m: (_median([row[m] for row in per_round]), "MB") for m in MAX_METRICS})
    best = out["matching.best_s"][0]
    out["matching.useful_ratio"] = (out["matching.winner_s"][0] / best if best else 0.0, "ratio")
    out["cli.import_s"] = (_median([s[1] for s in setups]), "s")
    out["cli.interpreter_s"] = (interpreter_s, "s")
    out["trace.overhead_s"] = (
        _median([sum(r["durations"]) for r in traced]) - _median([sum(r["durations"]) for r in plain]),
        "s",
    )
    return out


def _bare_interpreter_s(env) -> float:
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sigmahg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no sigmahg package under {src}\n")
        return 2
    # numpy's OpenBLAS starts a worker thread per core when imported, and
    # each spins for about 0.1 s of CPU time before it sleeps.  On a 2-core
    # machine that thread takes the core a child's main thread needs whenever
    # the host withholds the other one, so start-up time swung by a quarter
    # with the host's load.  The program makes no BLAS calls; one thread
    # leaves its work unchanged.  Children inherit this through child_env().
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    import sigmahg

    if Path(sigmahg.__file__).resolve().parent != (src / "sigmahg").resolve():
        sys.stderr.write(f"error: imported sigmahg from {sigmahg.__file__}, not {src}\n")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    env = workloads.child_env()

    reference: list = []
    try:
        setups = [set_up(wl, env) for _ in range(SETUP_REPS)]
        interpreter_s = _bare_interpreter_s(env) if args.trace else 0.0
        inputs = setups[-1][2]
        rounds = measure(wl, inputs, args.seconds, bool(args.trace), reference)
        peak_rss_mb = wl.peak_rss_mb()  # before any checker runs in this process
        check_errors = run_round(wl, inputs, spans.NULL, reference, check=True)[2]
    finally:
        wl.close()

    errors = [e for r in rounds for e in r["errors"]] + check_errors
    for e in errors[:20]:
        sys.stderr.write(f"check failed: {e}\n")
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        traced = [r["tracer"] for r in rounds if r["traced"]]
        spans.dump(traced, out_dir / f"spans-{wl.name}-{args.seed}.json")
        metrics = per_layer(rounds, setups, interpreter_s)
    else:
        metrics = end_to_end(wl, rounds, setups, peak_rss_mb)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(r["durations"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
