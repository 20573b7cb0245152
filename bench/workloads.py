"""The workloads, ``library`` (three in-process parts run in turn) and
``cli-roundtrip``: their inputs, operations, warm-up and checks.

A workload makes its inputs from the seed alone and hands the program only
the generated specs.  One round runs every input once, in order; a run is
a whole number of rounds, so every run attempts the same operations and
fails the same share of them.  ``run_op`` is the timed operation.
``probe`` runs only in traced rounds, after the round's last operation and
outside any timing, for per-layer figures that need an extra call.
``check`` compares an operation's output with computations made in
``checks`` (which does not use the program) or with properties the method
must have.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import sigmahg as sh
from sigmahg import cli, core, matching, oracle
from sigmahg.core import matching_from_json, matching_to_json

import checks
from spans import NULL

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first,
    and no oracle budget override."""
    env = dict(os.environ)
    env.pop(cli.BUDGET_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def _ints(lo: int, hi: int, keep=lambda v: True) -> list[int]:
    return [v for v in range(lo, hi + 1) if keep(v)]


def _pick(rng: random.Random, lo: int, hi: int, keep=lambda v: True) -> int:
    return rng.choice(_ints(lo, hi, keep))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Workload:
    name = ""
    tail_pct = 90  # op_tail_ms percentile; min_ops leaves >= 10 ops above it
    min_ops = 100

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def make_inputs(self) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_op(self, inp, state: dict, tr):
        raise NotImplementedError

    def after_op(self, inp, result, state: dict, tr) -> None:
        pass

    def probe(self, inp, result, state: dict, tr) -> None:
        pass

    def check(self, inp, result, state: dict) -> list[str]:
        return []

    def failed(self, inp, result) -> bool:
        return False

    def fingerprint(self, result) -> str:
        return _digest(result)

    def op_seconds(self, result, measured: float) -> float:
        """The operation's latency; by default the time around ``run_op``."""
        return measured

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    def close(self) -> None:
        """Stop any process the workload started."""


# ---------------------------------------------------------------------------
# match-ladder
# ---------------------------------------------------------------------------

def _near(rng: random.Random, target: float, keep=lambda v: True) -> int:
    """An integer within 3% of ``target`` that ``keep`` accepts."""
    return _pick(rng, math.floor(target * 0.97), math.ceil(target * 1.03), keep)


def _by_q(g, qs, area, sigma, keep_n=lambda v: True):
    q = g.choice(qs)
    return _near(g, area / q, keep_n), q, sigma


def _by_n(g, ns, area, sigma, keep_q=lambda v: True):
    n = g.choice(ns)
    return n, _near(g, area / n, keep_q), sigma


# (template, instances per round, generator).  Each template pins the
# construction route it is there to exercise and a grid area n*q that makes
# its operations about as costly as the others'; the seed moves n and q,
# but the area only within 3%.  Regime 2 needs q >= 112 and, to win, n = 64,
# so its seven operations are the costliest but one; p90 of the 43 falls in
# the middle of them rather than at the edge of a group.
LADDER = (
    ("diagonal", 5, lambda g: _by_q(g, (60, 65, 70), 4600, (3, 2))),
    ("rgood-1b", 5, lambda g: _by_n(g, (65, 70), 4600, (3, 2), lambda q: q % 5)),
    ("rgood-2", 7, lambda g: (64, _near(g, 116, lambda q: q % 9), (4, 3, 2))),
    ("rgood-3", 5, lambda g: _by_n(g, range(25, 30), 6000, (3, 2, 1), lambda q: q % 6)),
    ("rgood-3-dls13", 1, lambda g: (g.choice((27, 29)), _pick(g, 2535, 2545, lambda q: q % 14), (2,) + (1,) * 12)),
    ("contract", 5, lambda g: _by_q(g, _ints(51, 59, lambda q: q % 2), 3000, (4, 2))),
    ("all-ones", 5, lambda g: _by_q(g, _ints(45, 50, lambda q: q % 4), 2200, (1, 1, 1, 1), lambda n: n % 4)),
    ("rectangular", 5, lambda g: _by_q(g, _ints(55, 61, lambda q: q % 4), 1900, (2, 2))),
    ("no-regime", 5, lambda g: _by_q(g, _ints(180, 200, lambda q: q % 14), 8400, (5, 4, 3, 2), lambda n: n % 14)),
)

LADDER_WARM_UP = (
    (10, 10, (3, 2)), (10, 11, (3, 2)), (12, 13, (4, 3, 2)), (26, 6, (1, 1, 1, 1)),
    (26, 9, (2, 2)), (12, 13, (4, 2)), (16, 20, (5, 4, 3, 2)), (9, 36, (3, 2, 1)),
)


def _strategy_alone(spec, strategy: str) -> core.Matching:
    """Run only the construction a report names."""
    if strategy.startswith("contract+"):
        inner, _ = matching.contract(spec)
        return matching.expand(spec, _strategy_alone(inner, strategy[len("contract+"):]))
    if strategy == "diagonal":
        return matching.diagonal_perfect_matching(spec)
    if strategy == "greedy":
        return matching.greedy_matching(spec)
    if strategy == "all-ones":
        return matching.all_ones_maximum_matching(spec).matching
    if strategy == "rectangular":
        return matching.rectangular_maximum_matching(spec).matching
    if strategy.startswith("rgood"):
        return matching.r_good_maximum_matching(spec).matching
    raise ValueError(f"unknown matching route {strategy!r}")


class MatchLadder(Workload):
    name = "match-ladder"

    def make_inputs(self) -> list:
        g = self.rng()
        return [gen(g) for _, count, gen in LADDER for _ in range(count)]

    def warm_up(self) -> None:
        for inp in LADDER_WARM_UP:
            self.run_op(inp, {}, NULL)

    def run_op(self, inp, state, tr):
        n, q, sigma = inp
        spec = sh.make_spec(n, q, sigma)
        with tr.span("matching.best_matching"):
            rep = matching.best_matching(spec)
        with tr.span("core.verify_matching"):
            ok = core.verify_matching(spec, rep.matching).ok
        with tr.span("core.matching_to_json"):
            obj = matching_to_json(rep.matching)
        with tr.span("json.dumps"):
            text = json.dumps(obj)
        return rep.strategy, rep.nu, rep.unmatched_count, ok, text

    def probe(self, inp, result, state, tr) -> None:
        n, q, sigma = inp
        spec = sh.make_spec(n, q, sigma)
        strategy, nu, _, _, text = result
        clear_caches()
        with tr.span("matching.winner"):
            _strategy_alone(spec, strategy)
        clear_caches()
        with tr.span("matching.greedy_matching"):
            matching.greedy_matching(spec)
        clear_caches()
        with tr.span("matching.r_good_maximum_matching"):
            try:
                matching.r_good_maximum_matching(spec)
            except (matching.RegimeError, matching.NoSuchDesign, core.NoRepresentation):
                pass
        tr.count("core.edges_total", nu)
        tr.count("core.json_mb", len(text) / 1e6)

    def check(self, inp, result, state) -> list[str]:
        n, q, sigma = inp
        _, nu, unmatched, ok, text = result
        errors = [] if ok else ["verify_matching rejected the matching"]
        return errors + checks.check_match_result(n, q, sigma, nu, unmatched, json.loads(text))

    def fingerprint(self, result) -> str:
        strategy, nu, unmatched, ok, text = result
        return _digest(strategy, nu, unmatched, ok, text.encode())


# ---------------------------------------------------------------------------
# alpha-sweep
# ---------------------------------------------------------------------------

N_RUN = 8  # n values per (sigma, q); the first pays the profile enumeration


def _alpha_strata() -> list[list[tuple[int, ...]]]:
    with open(BENCH_DIR / "alpha_strata.json", encoding="utf-8") as fh:
        return [[tuple(p) for p in stratum] for stratum in json.load(fh)]


class AlphaSweep(Workload):
    name = "alpha-sweep"

    def make_inputs(self) -> list:
        # One sigma from each cost stratum, so every seed gets the same
        # spread of operation sizes; q and n0 barely move the cost.
        g = self.rng()
        inputs = []
        for stratum in _alpha_strata():
            sigma = g.choice(stratum)
            r, s = sum(sigma), len(sigma)
            q = sigma[0] + g.randint(0, 8)
            n0 = s + g.randint(0, 3)
            lo = g.randint(2, r - 1)
            inputs.append((sigma, q, tuple(range(n0, n0 + N_RUN)), lo, g.randint(lo, r - 1)))
        g.shuffle(inputs)
        return inputs

    def warm_up(self) -> None:
        for sigma in ((5, 3, 2), (4, 4, 2, 1), (3, 2, 2, 1, 1)):
            self.run_op((sigma, 7, (5, 6), 2, sum(sigma) - 2), {}, NULL)

    def run_op(self, inp, state, tr):
        sigma, q, ns, a_param, b_param = inp
        r = sum(sigma)
        out = []
        for i, n in enumerate(ns):
            spec = sh.make_spec(n, q, sigma)
            name = "independence.alpha_k.first" if i == 0 else "independence.alpha_k.repeat"
            values = []
            for k in range(1, r):
                with tr.span(name):
                    values.append(sh.alpha_k_witness(spec, k))
            with tr.span("independence.alpha"):
                closed = sh.alpha(spec)
            with tr.span("independence.colouring_bounds"):
                bounds = sh.colouring_bounds(spec, a_param, b_param)
            out.append((values, closed, bounds))
        return out

    def probe(self, inp, result, state, tr) -> None:
        sigma, q = inp[0], inp[1]
        s = sh.Sigma(sigma)
        tr.count(
            "independence.profiles_total",
            sum(len(sh.enumerate_maximal_feasible(q, k, s)) for k in range(1, s.r)),
        )

    def check(self, inp, result, state) -> list[str]:
        sigma, q, ns, a_param, b_param = inp
        r = sum(sigma)
        errors = []
        prev = None
        for n, (values, closed, bounds) in zip(ns, result):
            for k, (value, profile) in enumerate(values, start=1):
                errors += checks.check_alpha_witness(n, q, sigma, k, value, profile)
            alphas = [v for v, _ in values]
            if alphas != sorted(alphas):
                errors.append(f"alpha_k decreases in k at n={n}: {alphas}")
            if prev is not None and any(a < b for a, b in zip(alphas, prev)):
                errors.append(f"alpha_k decreases from n={n - 1} to n={n}")
            prev = alphas
            want = checks.alpha_closed(n, q, sigma)
            if alphas[-1] != want or closed[0] != want:
                errors.append(
                    f"n={n}: alpha_(r-1)={alphas[-1]}, alpha()={closed[0]}, closed form {want}"
                )
            errors += _check_bounds(n, q, sigma, a_param, b_param, bounds, alphas, want)
        for n in (ns[0], ns[-1]):
            taller = sh.make_spec(n, q + 1, sigma)
            here = result[ns.index(n)][0]
            for k in range(1, r):
                if sh.alpha_k_witness(taller, k)[0] < here[k - 1][0]:
                    errors.append(f"alpha_{k} decreases from q={q} to q={q + 1} at n={n}")
        return errors


def _check_bounds(n, q, sigma, a_param, b_param, bounds, alphas, a_ind) -> list[str]:
    ab = alphas[b_param - 1] if b_param < sum(sigma) else n * q
    want = (ab, a_ind, *checks.implied_colouring_bounds(n, q, a_param, ab, a_ind))
    got = (bounds.alpha_beta_ind, bounds.alpha_ind, bounds.chi_lower, bounds.feasible)
    if got != want:
        return [f"colouring_bounds{(n, q, sigma, a_param, b_param)} = {got}, want {want}"]
    return []


# ---------------------------------------------------------------------------
# certify-desk
# ---------------------------------------------------------------------------

COLOURING_MAX_VERTICES = 9


def _partitions(r: int, largest: int | None = None):
    if r == 0:
        yield ()
        return
    for a in range(min(r, largest or r), 0, -1):
        for rest in _partitions(r - a, a):
            yield (a,) + rest


def desk_specs() -> list[tuple[int, int, tuple[int, ...]]]:
    """Every spec with an edge, r 2..6, s >= 2, n, q <= 8, nq <= 16 and at
    most 7! placements of the parts into classes (bf_alpha_k tries them
    all).  Fixed: the seed never chooses which specs run."""
    return [
        (n, q, sigma)
        for r in range(2, 7)
        for sigma in _partitions(r)
        if len(sigma) >= 2
        for n in range(1, 9)
        for q in range(1, 9)
        if n * q <= 16 and n >= len(sigma) and q >= sigma[0]
        and math.perm(n, len(sigma)) <= math.factorial(7)
    ]


class CertifyDesk(Workload):
    name = "certify-desk"

    def make_inputs(self) -> list:
        g = self.rng()
        inputs = []
        for n, q, sigma in desk_specs():
            r = sum(sigma)
            cells = tuple(
                (c, row) for c in range(1, n + 1) for row in range(1, q + 1) if g.random() < 0.5
            )
            a_param = g.randint(1, r)
            inputs.append((n, q, sigma, cells, a_param, g.randint(a_param, r)))
        g.shuffle(inputs)
        return inputs

    def warm_up(self) -> None:
        for n, q, sigma in ((9, 1, (1, 1)), (2, 9, (2, 1)), (3, 6, (3, 2, 1))):
            cells = ((1, 1), (2, 1))
            self.run_op((n, q, sigma, cells, 1, 2), {}, NULL)

    def run_op(self, inp, state, tr):
        n, q, sigma, cells, a_param, b_param = inp
        spec = sh.make_spec(n, q, sigma)
        try:
            with tr.span("matching.best_matching"):
                rep = matching.best_matching(spec)
            with tr.span("oracle.bf_max_matching"):
                bf_nu = oracle.bf_max_matching(spec)
            alphas = []
            for k in range(1, spec.r):
                with tr.span("independence.alpha_k.first"):
                    fast = sh.alpha_k(spec, k)
                with tr.span("oracle.bf_alpha_k"):
                    alphas.append((fast, oracle.bf_alpha_k(spec, k)))
            b_set = core.VertexSet.of(cells)
            with tr.span("independence.max_intersection_edge"):
                edge, ov = sh.max_intersection_edge(spec, b_set)
            with tr.span("oracle.bf_max_intersection"):
                bf_ov = oracle.bf_max_intersection(spec, b_set)
            colouring = None
            if n * q <= COLOURING_MAX_VERTICES:
                with tr.span("oracle.bf_colouring_spectrum"):
                    if tr is not NULL:
                        tracemalloc.start()
                    spectrum = oracle.bf_colouring_spectrum(spec, a_param, b_param)
                    if tr is not NULL:
                        tr.peak("oracle.colouring_peak_mb", tracemalloc.get_traced_memory()[1] / 1e6)
                        tracemalloc.stop()
                with tr.span("independence.colouring_bounds"):
                    bounds = sh.colouring_bounds(spec, a_param, b_param)
                colouring = (spectrum, bounds.feasible, bounds.chi_lower)
        except oracle.BudgetExceeded:
            tr.count("oracle.budget_exceeded")
            return None
        if rep.nu < bf_nu:
            tr.count("matching.nu_short_specs")
        return (
            rep.strategy, rep.nu, rep.unmatched_count, matching_to_json(rep.matching),
            bf_nu, alphas, core.edge_to_json(edge), ov, bf_ov, colouring,
        )

    def failed(self, inp, result) -> bool:
        # best_matching falls back to greedy, whose nu can be below the
        # exact maximum; those specs are the known failures.
        return result is None or result[1] < result[4]

    def check(self, inp, result, state) -> list[str]:
        if result is None:
            return []
        n, q, sigma, cells, a_param, b_param = inp
        _, nu, unmatched, m_obj, bf_nu, alphas, edge, ov, bf_ov, colouring = result
        errors = checks.check_match_result(n, q, sigma, nu, unmatched, m_obj)
        if nu > bf_nu:
            errors.append(f"nu={nu} exceeds the exact maximum {bf_nu}")
        for k, (fast, slow) in enumerate(alphas, start=1):
            if fast != slow:
                errors.append(f"alpha_{k}={fast}, oracle {slow}")
        errors += checks.check_edge_json(n, q, sigma, edge)
        members = set(cells)
        hit = sum(1 for part in edge for row in part["rows"] if (part["class"], row) in members)
        if not ov == bf_ov == hit:
            errors.append(f"max intersection {ov}, oracle {bf_ov}, edge meets {hit}")
        if colouring is not None:
            (chi, _), feasible, chi_lower = colouring
            if chi is not None and not (feasible and chi_lower <= chi):
                errors.append(
                    f"a colouring with {chi} colours exists for ({a_param},{b_param}) "
                    f"but bounds say feasible={feasible}, chi_lower={chi_lower}"
                )
        return [f"H({n},{q}|{sigma}): {e}" for e in errors]


# ---------------------------------------------------------------------------
# cli-roundtrip
# ---------------------------------------------------------------------------

SMALL_SIGMAS = ((4, 3, 2), (3, 3, 1), (5, 2, 1, 1), (2, 2, 2), (6, 4), (3, 2, 2, 1))
DESK_ORACLE = ((4, 5, (3, 2)), (3, 4, (2, 1, 1)), (4, 4, (2, 2)), (5, 3, (2, 1)), (6, 2, (1, 1, 1)))


def _spec_args(n: int, q: int, sigma) -> list[str]:
    return ["--n", str(n), "--q", str(q), "--sigma", ",".join(map(str, sigma)), "--format", "json"]


# Runs in a small interpreter of its own.  A child's ru_maxrss starts at its
# parent's resident size (Linux records the old image's peak at exec), so
# children started straight from the benchmark would all read at least the
# benchmark's own size.  This launcher stays small; it times each child from
# spawn to exit and reports that child's own rusage.
LAUNCHER = r"""
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, data = json.loads(line)
    start = time.perf_counter()
    child = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        stdin=subprocess.DEVNULL if data is None else subprocess.PIPE)
    if data is not None:
        try:
            child.stdin.write(data.encode())
            child.stdin.close()
        except BrokenPipeError:
            pass
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    print(json.dumps([child.returncode, seconds, usage.ru_maxrss, out.decode()]), flush=True)
"""


class Launcher:
    """Starts ``python -m sigmahg`` children one at a time, from ``LAUNCHER``."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", LAUNCHER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )

    def run(self, argv: list[str], stdin: bytes | None = None):
        """Returns (exit code, seconds from spawn to exit, child's peak RSS in
        kB, stdout)."""
        request = [[sys.executable, "-m", "sigmahg", *argv], None if stdin is None else stdin.decode()]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        code, seconds, rss_kb, out = json.loads(self.proc.stdout.readline())
        return code, seconds, rss_kb, out.encode()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def run_in_process(argv: list[str], stdin: bytes | None):
    """``cli.run`` on the same argv in this process, stdout captured."""
    saved = sys.stdout, sys.stdin, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO((stdin or b"").decode())
    try:
        return cli.run(argv)
    finally:
        sys.stdout, sys.stdin, sys.stderr = saved


class CliRoundtrip(Workload):
    name = "cli-roundtrip"
    tail_pct = 75
    min_ops = 40

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.launcher: Launcher | None = None
        self.peak_child_kb = 0

    def _run(self, argv, stdin=None):
        if self.launcher is None:
            self.launcher = Launcher()
        return self.launcher.run(argv, stdin)

    def make_inputs(self) -> list:
        """24 calls: four emit/verify pairs (the first verify also repeated
        on a tampered matching) and fifteen small calls, three of each kind.
        The nine large calls sit above the fifteen small ones, so the median
        falls among the small calls and p75 among the verifies, each a few
        places away from the edge of its group."""
        g = self.rng()

        def small_spec():
            sigma = g.choice(SMALL_SIGMAS)
            return g.randint(len(sigma) + 2, 12), g.randint(sigma[0], sigma[0] + 6), sigma

        def small_calls():
            calls = []
            n, q, sigma = small_spec()
            calls.append(("alpha", (n, q, sigma), ["alpha", *_spec_args(n, q, sigma), "--k", str(g.randint(1, sum(sigma) - 1))]))
            n, q, sigma = small_spec()
            calls.append(("alpha-closed", (n, q, sigma), ["alpha-closed", *_spec_args(n, q, sigma)]))
            n, q, sigma = small_spec()
            a = g.randint(1, sum(sigma))
            calls.append(("bounds", (n, q, sigma), ["bounds", *_spec_args(n, q, sigma), "--alpha", str(a), "--beta", str(g.randint(a, sum(sigma)))]))
            n, q, sigma = g.randint(20, 40), g.randint(20, 40), g.choice(SMALL_SIGMAS)
            calls.append(("match", (n, q, sigma), ["match", *_spec_args(n, q, sigma)]))
            n, q, sigma = g.choice(DESK_ORACLE)
            calls.append(("oracle", (n, q, sigma), ["oracle", "match", *_spec_args(n, q, sigma)]))
            g.shuffle(calls)
            return calls

        pair_specs = [
            (_pick(g, 105, 115), 5 * _pick(g, 21, 23), (3, 2)),
            (136, _pick(g, 150, 170, lambda q: q % 9), (4, 3, 2)),
        ] * 2
        calls = []
        for i, spec in enumerate(pair_specs):
            calls.append(("emit", spec, ["match", *_spec_args(*spec), "--emit"]))
            calls.append(("verify", spec, ["verify", *_spec_args(*spec), "--matching", "-"]))
            if i == 0:
                calls.append(("tampered", spec, ["verify", *_spec_args(*spec), "--matching", "-"]))
            if i < 3:
                calls += small_calls()
        return calls

    def warm_up(self) -> None:
        self._run(["alpha-closed", *_spec_args(7, 7, (3, 2))])

    def _stdin(self, kind, state):
        if kind == "verify":
            return state["emitted"]
        if kind == "tampered":
            return state["tampered"]
        return None

    def run_op(self, inp, state, tr):
        kind, _, argv = inp
        code, seconds, rss_kb, out = self._run(argv, self._stdin(kind, state))
        self.peak_child_kb = max(self.peak_child_kb, rss_kb)
        if kind == "emit":
            state["emitted"] = out
        return kind, code, out, seconds, rss_kb

    def op_seconds(self, result, measured: float) -> float:
        return result[3]  # spawn to exit, timed by the launcher

    def peak_rss_mb(self) -> float:
        return self.peak_child_kb * 1024 / 1e6

    def close(self) -> None:
        if self.launcher is not None:
            self.launcher.close()

    def after_op(self, inp, result, state, tr) -> None:
        """Decode each emitted matching, re-encode it, and build the
        tampered copy (one edge removed) for the next verify."""
        kind, code, out, _, rss_kb = result
        tr.count("cli.stdout_mb", len(out) / 1e6)
        tr.peak("cli.child_rss_mb", rss_kb * 1024 / 1e6)
        if kind != "emit" or code != 0:
            return
        with tr.span("json.loads"):
            payload = json.loads(out)
        with tr.span("core.matching_from_json"):
            m = matching_from_json(payload["matching"])
        with tr.span("core.matching_to_json"):
            obj = matching_to_json(m)
        state["roundtrip_ok"] = obj == payload["matching"]
        with tr.span("json.dumps"):
            state["tampered"] = json.dumps(dict(obj, edges=obj["edges"][1:])).encode()
        tr.count("core.json_mb", (len(out) + len(state["tampered"])) / 1e6)

    def probe(self, inp, result, state, tr) -> None:
        kind, _, argv = inp
        clear_caches()
        with tr.span("cli.run"):
            run_in_process(argv, self._stdin(kind, state))

    def check(self, inp, result, state) -> list[str]:
        kind, (n, q, sigma), argv = inp
        _, code, out, _, _ = result
        want_code = 4 if kind == "tampered" else 0
        if code != want_code:
            return [f"{' '.join(argv)}: exit {code}, want {want_code}"]
        payload = json.loads(out)
        if kind in ("verify", "tampered"):
            return [] if payload["ok"] is (kind == "verify") else [f"{kind}: ok={payload['ok']}"]
        if kind == "emit":
            errors = checks.check_match_result(
                n, q, sigma, payload["nu"], payload["unmatched_count"], payload["matching"]
            )
            if not state.get("roundtrip_ok", False):
                errors.append("matching_to_json(matching_from_json(x)) differs from x")
            return errors
        if kind == "match":
            return checks.check_match_result(n, q, sigma, payload["nu"], payload["unmatched_count"])
        if kind == "oracle":
            best = matching.best_matching(sh.make_spec(n, q, sigma)).nu
            if not best <= payload["nu"] <= n * q // sum(sigma):
                return [f"oracle nu={payload['nu']} outside [{best}, {n * q // sum(sigma)}]"]
            return []
        closed = checks.alpha_closed(n, q, sigma)
        if kind == "alpha-closed":
            return [] if payload["alpha"] == closed else [f"alpha-closed {payload['alpha']} != {closed}"]
        if kind == "alpha":
            k = payload["k"]
            errors = checks.check_alpha_witness(n, q, sigma, k, payload["alpha_k"], payload["profile"])
            if k == sum(sigma) - 1 and payload["alpha_k"] != closed:
                errors.append(f"alpha_(r-1)={payload['alpha_k']} != closed form {closed}")
            return errors
        # bounds
        ab = payload["alpha_beta_independence"]
        got = (payload["independence"], payload["chi_lower"], payload["feasible"])
        want = (closed, *checks.implied_colouring_bounds(n, q, payload["alpha"], ab, closed))
        return [] if got == want else [f"bounds {got} != {want}"]

    def fingerprint(self, result) -> str:
        return _digest(*result[:3])


# ---------------------------------------------------------------------------
# library
# ---------------------------------------------------------------------------

class Library(Workload):
    """The three in-process workloads back to back: one round runs a round
    of match-ladder, then of alpha-sweep, then of certify-desk, on the inputs
    each makes from the seed.  Their rounds are short (1-7 s) next to the
    host's speed drift, which has a large part with a period of tens of
    seconds; as one workload they share one time budget, so each run is
    long enough to average over that drift.  No part finds a cache entry
    that another part made, so each meets the caches as its own round
    would.  An operation's result is (part, the part's result)."""

    name = "library"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.parts = [cls(seed) for cls in (MatchLadder, AlphaSweep, CertifyDesk)]

    def make_inputs(self) -> list:
        return [(part, inp) for part in self.parts for inp in part.make_inputs()]

    def warm_up(self) -> None:
        for part in self.parts:
            part.warm_up()

    def run_op(self, inp, state, tr):
        part, x = inp
        return part, part.run_op(x, state, tr)

    def probe(self, inp, result, state, tr) -> None:
        inp[0].probe(inp[1], result[1], state, tr)

    def check(self, inp, result, state) -> list[str]:
        part, x = inp
        return [f"{part.name}: {e}" for e in part.check(x, result[1], state)]

    def failed(self, inp, result) -> bool:
        return inp[0].failed(inp[1], result[1])

    def fingerprint(self, result) -> str:
        part, r = result
        return part.name + ":" + part.fingerprint(r)


# The benchmark's workloads are library and cli-roundtrip; the three parts of
# library can also be run alone, to see one of them without the others.
WORKLOADS = {w.name: w for w in (Library, CliRoundtrip, MatchLadder, AlphaSweep, CertifyDesk)}


def clear_caches() -> None:
    """Empty every functools cache in the program, so each round finds
    them as a user's first call would."""
    for name, module in list(sys.modules.items()):
        if name == "sigmahg" or name.startswith("sigmahg."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

