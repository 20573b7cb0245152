from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
import time
from functools import lru_cache
from typing import TYPE_CHECKING

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmahg import core, oracle
from sigmahg.core import (
    HypergraphSpec,
    Sigma,
    VertexSet,
    ValidationError,
    count_edges,
    edge_shapes,
    enumerate_edges,
    make_spec,
)
from sigmahg.independence import alpha_k, colouring_bounds, max_intersection_edge
from sigmahg.oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    OracleBudget,
    _PROFILE_BLOCK,
    _Deadline,
    _monotone_profiles,
    _profile_overlap_table,
    bf_alpha_k,
    bf_colouring_spectrum,
    bf_max_intersection,
    bf_max_matching,
)

from conftest import all_vertices, partitions

if TYPE_CHECKING:
    import numpy as np

BUDGET = OracleBudget(max_vertices=32, max_edges=500_000, time_limit=60.0)


def subset_alpha_k(spec, k):
    """Third, even dumber reference: scan all vertex subsets."""
    verts = list(all_vertices(spec))
    edges = [frozenset(e.vertices()) for e in enumerate_edges(spec)]
    best = 0
    for size in range(len(verts), -1, -1):
        if size <= best:
            break
        for sub in itertools.combinations(verts, size):
            s = frozenset(sub)
            if all(len(e & s) <= k for e in edges):
                best = size
                break
    return best


def desk_specs(max_vertices=24):
    """Every spec with an edge, r 2..6, s >= 2, n, q <= 8, n*q <= max_vertices
    and at most the default budget of n!/(n-s)! part placements (430 specs
    for n*q <= 24)."""
    return [
        make_spec(n, q, parts)
        for r in range(2, 7)
        for parts in partitions(r)
        if len(parts) >= 2
        for n in range(len(parts), 9)
        for q in range(parts[0], 9)
        if n * q <= max_vertices and math.perm(n, len(parts)) <= DEFAULT_BUDGET.max_edges
    ]


def _bb_max_matching_edges(spec: HypergraphSpec, max_edges: int = 2000) -> int:
    """Literal branch-and-bound over the explicit edge stream.

    Only usable on tiny instances; kept as an independent cross-check for
    bf_max_matching.
    """
    if not spec.has_edges:
        return 0
    if count_edges(spec) > max_edges:
        raise BudgetExceeded("edge stream too large for the literal search")
    nq = spec.num_vertices
    q = spec.q
    masks = []
    for edge in enumerate_edges(spec):
        mask = 0
        for v in edge.vertices():
            mask |= 1 << ((v.class_index - 1) * q + (v.row_index - 1))
        masks.append(mask)
    r = spec.r
    best = 0

    def rec(i: int, used: int, count: int, covered: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + (nq - covered) // r <= best:
            return
        for j in range(i, len(masks)):
            m = masks[j]
            if m & used:
                continue
            rec(j + 1, used | m, count + 1, covered + r)

    rec(0, 0, 0, 0)
    return best


def reference_max_matching(spec: HypergraphSpec) -> int:
    """Maximum matching size by the memoised search over sorted class
    capacities, placing each distinct size's parts in turn on unused
    classes with room for them."""
    if not spec.has_edges:
        return 0
    parts = spec.sigma.parts
    distinct = sorted(set(parts), reverse=True)
    multiplicity = {v: parts.count(v) for v in distinct}
    n = spec.n

    def placements(state: tuple[int, ...]):
        """Distinct next states after removing one edge's worth of rows."""
        results: set[tuple[int, ...]] = set()

        def assign(size_idx: int, loads: list[int], used: frozenset[int]) -> None:
            if size_idx == len(distinct):
                results.add(tuple(sorted(loads, reverse=True)))
                return
            size = distinct[size_idx]
            free = [i for i in range(n) if i not in used and loads[i] >= size]
            for combo in itertools.combinations(free, multiplicity[size]):
                for i in combo:
                    loads[i] -= size
                assign(size_idx + 1, loads, used | frozenset(combo))
                for i in combo:
                    loads[i] += size

        assign(0, list(state), frozenset())
        return results

    memo: dict[tuple[int, ...], int] = {}

    def best(state: tuple[int, ...]) -> int:
        if state not in memo:
            memo[state] = max((1 + best(nxt) for nxt in placements(state)), default=0)
        return memo[state]

    return best((spec.q,) * n)


@lru_cache(maxsize=8)
def _set_partitions(m: int) -> np.ndarray:
    """All set partitions of {0..m-1} as restricted-growth strings."""
    import numpy as np

    rows: list[list[int]] = []

    def rec(i: int, top: int, rgs: list[int]) -> None:
        if i == m:
            rows.append(list(rgs))
            return
        for c in range(top + 2):
            rgs.append(c)
            rec(i + 1, max(top, c), rgs)
            rgs.pop()

    rec(0, -1, [])
    return np.array(rows, dtype=np.int8)


@lru_cache(maxsize=64)
def _colouring_summary(
    n: int, q: int, parts: tuple[int, ...], time_limit: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per set partition of the vertices: (#blocks, min and max number of
    distinct colours seen on any edge)."""
    import numpy as np

    deadline = _Deadline(time_limit)
    rgs = _set_partitions(n * q)
    blocks = rgs.max(axis=1).astype(np.int16) + 1
    lo = np.full(len(rgs), np.iinfo(np.int16).max, dtype=np.int16)
    hi = np.zeros(len(rgs), dtype=np.int16)
    for classes, sizes in edge_shapes(HypergraphSpec(n, q, Sigma(parts))):
        ids = [itertools.combinations(range((c - 1) * q, c * q), a) for c, a in zip(classes, sizes)]
        for cells in itertools.product(*ids):
            deadline.check("bf_colouring_spectrum")
            cols = np.sort(rgs[:, list(itertools.chain(*cells))], axis=1)
            distinct = 1 + (np.diff(cols, axis=1) != 0).sum(axis=1).astype(np.int16)
            np.minimum(lo, distinct, out=lo)
            np.maximum(hi, distinct, out=hi)
    return blocks, lo, hi


def reference_profile_overlap_table(n, q, parts):
    """The overlap table by trying all n!/(n-s)! placements, equal parts
    in every order: with numpy, a chunk of profiles against every
    placement at once, else one profile at a time."""
    placements = list(itertools.permutations(range(n), len(parts)))
    profiles = list(_monotone_profiles(n, q))
    try:
        import numpy as np
    except ImportError:
        # sum(min(a, profile[c]) for a, c in zip(parts, placement)), in C
        worst = [
            max(sum(map(min, parts, map(profile.__getitem__, pl))) for pl in placements)
            for profile in profiles
        ]
    else:
        columns = np.array(placements).T  # row j: the class of part j in each placement
        grid = np.array(profiles)
        step = max(1, 2**18 // len(placements))
        worst = []
        for lo in range(0, len(grid), step):
            chunk = grid[lo : lo + step]
            overlaps = sum(np.minimum(chunk, a)[:, cols] for a, cols in zip(parts, columns))
            worst += overlaps.max(axis=1).tolist()
    return tuple(zip(map(sum, profiles), worst))


def reference_max_intersection(spec, b_sets):
    """Maximum overlap of any edge with each of ``b_sets``.  With numpy,
    every row subset of every part in all n!/(n-s)! placements, equal
    parts in every order, is scored against all the sets at once, a chunk
    of placements at a time; else the stream of ``Edge`` objects is
    drained once."""
    try:
        import numpy as np
    except ImportError:
        best = [0] * len(b_sets)
        for edge in enumerate_edges(spec):
            vertices = frozenset(edge.vertices())
            for i, b_set in enumerate(b_sets):
                overlap = len(vertices & b_set.members)
                if overlap > best[i]:
                    best[i] = overlap
        return best
    n, q, parts = spec.n, spec.q, spec.sigma.parts
    member = np.array(  # member[c - 1, row - 1, i]: is (c, row) in b_sets[i]
        [[[(c, row) in b.members for b in b_sets] for row in range(1, q + 1)] for c in range(1, n + 1)],
        dtype=np.int64,
    )
    hits = {}  # size a -> [class, row subset, set]: |rows & B_c|
    for a in set(parts):
        subsets = np.array(list(itertools.combinations(range(q), a)))
        hits[a] = member[:, subsets].sum(axis=2)
    placements = np.array(list(itertools.permutations(range(n), len(parts))))
    edges_per_placement = math.prod(math.comb(q, a) for a in parts)
    step = max(1, 2**18 // (edges_per_placement * len(b_sets)))
    best = np.zeros(len(b_sets), dtype=np.int64)
    for lo in range(0, len(placements), step):
        chunk = placements[lo : lo + step]
        overlaps = 0  # [placement, row subset of part 1, ..., of part s, set]
        for j, a in enumerate(parts):
            shape = [len(chunk)] + [1] * len(parts) + [len(b_sets)]
            shape[1 + j] = math.comb(q, a)
            overlaps = overlaps + hits[a][chunk[:, j]].reshape(shape)
        best = np.maximum(best, overlaps.reshape(-1, len(b_sets)).max(axis=0))
    return best.tolist()


def seeded_vertex_sets(spec, count=4):
    """Random vertex sets of several densities, some cells off the grid."""
    rng = random.Random(str(spec))
    cells = [(c, row) for c in range(1, spec.n + 2) for row in range(1, spec.q + 2)]
    sets = [VertexSet(), VertexSet.of(all_vertices(spec))]
    for i in range(count):
        density = (i + 1) / (count + 1)
        sets.append(VertexSet.of(cell for cell in cells if rng.random() < density))
    return sets


@pytest.mark.parametrize("r", range(2, 7))
def test_profile_overlap_table_matches_reference(r):
    for spec in desk_specs():
        if spec.r != r:
            continue
        n, q, parts = spec.n, spec.q, spec.sigma.parts
        reference = reference_profile_overlap_table(n, q, parts)
        assert _profile_overlap_table(n, q, parts, 60.0) == reference, spec
        for k in range(1, r):
            expected = max(total for total, worst in reference if worst <= k)
            assert bf_alpha_k(spec, k) == expected, (spec, k)


@pytest.mark.parametrize("n, q, parts", [(8, 8, (2, 1)), (4, 3, (2,))])
def test_profile_overlap_table_off_the_desk(n, q, parts):
    # (8, 8, (2, 1)) has C(16, 8) = 12,870 profiles, more than three blocks;
    # (2,) has one part, so each placement is a single column
    assert _profile_overlap_table(n, q, parts, 60.0) == reference_profile_overlap_table(n, q, parts)


overlap_specs = st.sampled_from([p for r in range(1, 6) for p in partitions(r)]).flatmap(
    lambda parts: st.tuples(st.integers(len(parts), 6), st.integers(parts[0], 6), st.just(parts))
)


@settings(derandomize=True, database=None, deadline=None)
@given(overlap_specs)
def test_profile_overlap_table_property(spec):
    n, q, parts = spec
    assert _profile_overlap_table(n, q, parts, 60.0) == reference_profile_overlap_table(n, q, parts)


def test_profile_overlap_table_draws_a_block_at_a_time(monkeypatch):
    # Profiles are drawn one block at a time, never all C(n + q, n) at once,
    # and the clock is read before each block's first placement and after
    # every placement: 56 placements of (2, 1) on 8 classes, so 57 reads a block.
    drawn, reads = [0], []
    monotone_profiles = oracle._monotone_profiles

    def counted(n, q):
        for profile in monotone_profiles(n, q):
            drawn[0] += 1
            yield profile

    class Clock:
        def __init__(self, seconds):
            pass

        def check(self, what):
            reads.append(drawn[0])

    monkeypatch.setattr(oracle, "_monotone_profiles", counted)
    monkeypatch.setattr(oracle, "_Deadline", Clock)
    table = _profile_overlap_table.__wrapped__(8, 8, (2, 1), 60.0)
    assert len(table) == drawn[0] == 12_870
    blocks = [_PROFILE_BLOCK, 2 * _PROFILE_BLOCK, 3 * _PROFILE_BLOCK, 12_870]
    assert reads == [seen for seen in blocks for _ in range(57)]


@pytest.mark.parametrize("r", range(2, 7))
def test_max_intersection_matches_reference(r):
    for spec in desk_specs():
        if spec.r != r:
            continue
        b_sets = seeded_vertex_sets(spec)
        assert [bf_max_intersection(spec, b) for b in b_sets] == reference_max_intersection(
            spec, b_sets
        ), spec


class TestBfAlphaK:
    def test_worked_value(self):
        assert bf_alpha_k(make_spec(5, 5, [4, 3, 2]), 8, BUDGET) == 15

    def test_small_exhaustive(self):
        spec = make_spec(3, 3, [2, 1])
        assert bf_alpha_k(spec, 1, BUDGET) == alpha_k(spec, 1) == 1

    def test_degenerate(self):
        assert bf_alpha_k(make_spec(1, 5, [1, 1]), 1, BUDGET) == 5

    def test_profile_reduction_matches_subsets(self):
        # The profile reduction is sound: cross-check against raw subsets
        # on every spec with at most 12 vertices.
        for r in range(2, 5):
            for parts in partitions(r):
                for n in range(len(parts), 5):
                    for q in range(parts[0], 5):
                        spec = make_spec(n, q, parts)
                        if spec.num_vertices > 12:
                            continue
                        for k in range(1, r):
                            assert bf_alpha_k(spec, k, BUDGET) == subset_alpha_k(
                                spec, k
                            ), (spec, k)

    def test_budget_abort(self):
        tight = OracleBudget(max_vertices=5, max_edges=10, time_limit=60)
        with pytest.raises(BudgetExceeded):
            bf_alpha_k(make_spec(3, 3, [2, 1]), 1, tight)

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            bf_alpha_k(make_spec(3, 3, [2, 1]), 3, BUDGET)

    def test_placements_and_deadline_checked(self):
        spec = make_spec(6, 1, [1, 1, 1])  # 6!/3!/3! = 20 distinct placements
        with pytest.raises(BudgetExceeded):
            bf_alpha_k(spec, 1, OracleBudget(max_vertices=32, max_edges=19, time_limit=60))
        admitted = OracleBudget(max_vertices=32, max_edges=20, time_limit=60)
        assert bf_alpha_k(spec, 1, admitted) == alpha_k(spec, 1)
        with pytest.raises(BudgetExceeded):
            bf_alpha_k(make_spec(5, 2, [2, 1]), 1, OracleBudget(time_limit=1e-9))


class TestBfMaxMatching:
    def test_perfect_instance(self):
        assert bf_max_matching(make_spec(3, 3, [2, 1]), BUDGET) == 3

    def test_bounded_instance(self):
        # gcd 2 with odd q strands a row per class.
        assert bf_max_matching(make_spec(4, 3, [2, 2]), BUDGET) == 2

    def test_degenerate(self):
        assert bf_max_matching(make_spec(1, 5, [1, 1]), BUDGET) == 0

    def test_matches_literal_edge_search(self):
        for r in range(1, 5):
            for parts in partitions(r):
                for n in range(1, 4):
                    for q in range(1, 4):
                        spec = make_spec(n, q, parts)
                        if core.count_edges(spec) > 400:
                            continue
                        assert bf_max_matching(spec, BUDGET) == _bb_max_matching_edges(
                            spec
                        ), spec

    def test_budget_abort(self):
        tight = OracleBudget(max_vertices=5, max_edges=10, time_limit=60)
        with pytest.raises(BudgetExceeded):
            bf_max_matching(make_spec(3, 3, [2, 1]), tight)

    def test_matches_reference_search_on_desk(self):
        for spec in desk_specs():
            assert bf_max_matching(spec) == reference_max_matching(spec), spec

    def test_placements_refused_before_the_search(self):
        # the first state alone has C(32, 16) = 601,080,390 placements; the
        # default limits, but a clock short enough that a search fails fast
        start = time.monotonic()
        with pytest.raises(BudgetExceeded, match="601080390 distinct part placements"):
            bf_max_matching(make_spec(32, 1, [1] * 16), OracleBudget(time_limit=5.0))
        assert time.monotonic() - start < 1

    def test_deadline_holds_inside_a_state(self):
        # the first state alone has C(28, 14) = 40,116,600 placements, within
        # the edge budget, so only the clock can stop it
        code = (
            "import time\n"
            "from sigmahg.core import make_spec\n"
            "from sigmahg.oracle import BudgetExceeded, OracleBudget, bf_max_matching\n"
            "start = time.monotonic()\n"
            "try:\n"
            "    bf_max_matching(make_spec(28, 1, [1] * 14), OracleBudget(32, 10**8, 0.5))\n"
            "except BudgetExceeded:\n"
            "    print(time.monotonic() - start)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout, "no BudgetExceeded"
        assert float(proc.stdout) < 5


class TestBfColouringSpectrum:
    def test_no_edges_unconstrained(self):
        assert bf_colouring_spectrum(make_spec(1, 4, [1, 1]), 1, 2, BUDGET) == (1, 4)
        # answered before the vertex count is checked, as the other oracles do
        assert bf_colouring_spectrum(make_spec(1, 40, [2, 1]), 1, 2) == (1, 40)

    def test_wide_band_everything_works(self):
        spec = make_spec(3, 2, [2, 1])
        chi, chi_bar = bf_colouring_spectrum(spec, 1, 3, BUDGET)
        assert chi == 1
        assert chi_bar == 6

    def test_narrow_band(self):
        spec = make_spec(3, 2, [2, 1])
        chi, chi_bar = bf_colouring_spectrum(spec, 2, 2, BUDGET)
        assert chi is not None and chi <= chi_bar
        # every edge must show exactly two colours; one colour is too few
        assert chi >= 2

    def test_infeasible_instance(self):
        assert bf_colouring_spectrum(make_spec(1, 9, [3]), 2, 2, BUDGET) == (None, None)

    def test_a_cycle_over_the_desk_keeps_its_triples(self):
        # a cache smaller than the desk's colouring specs evicts each entry
        # just before the next pass asks for it, so that pass never hits
        specs = desk_specs(max_vertices=9)
        assert len(specs) >= 69
        oracle._colouring_triples.cache_clear()
        for _ in range(2):
            for spec in specs:
                bf_colouring_spectrum(spec, 1, spec.r, BUDGET)
        info = oracle._colouring_triples.cache_info()
        assert (info.misses, info.hits) == (len(specs), len(specs))

    def test_deterministic(self):
        spec = make_spec(2, 3, [2, 1])
        a = bf_colouring_spectrum(spec, 2, 3, BUDGET)
        b = bf_colouring_spectrum(spec, 2, 3, BUDGET)
        assert a == b

    def test_budget_abort(self):
        tight = OracleBudget(max_vertices=4, max_edges=10, time_limit=60)
        with pytest.raises(BudgetExceeded):
            bf_colouring_spectrum(make_spec(3, 2, [2, 1]), 2, 2, tight)

    def test_partition_count_checked_before_allocation(self):
        # Bell(16) = 10,480,142,147 partitions; refused at once under the
        # default budget, which admits the vertex count
        with pytest.raises(BudgetExceeded):
            bf_colouring_spectrum(make_spec(4, 4, [2, 1]), 1, 2)
        with pytest.raises(BudgetExceeded):
            bf_colouring_spectrum(make_spec(11, 1, [1, 1]), 1, 2)
        assert bf_colouring_spectrum(make_spec(5, 2, [1, 1]), 1, 2) is not None

    def test_deadline_checked(self):
        spec = make_spec(3, 3, [2, 1])
        with pytest.raises(BudgetExceeded, match="time budget"):
            bf_colouring_spectrum(spec, 1, 2, OracleBudget(time_limit=1e-9))

    def test_deadline_checked_with_warm_matrix_cache(self):
        bf_colouring_spectrum(make_spec(3, 3, [2, 1]), 1, 2)  # count matrices of 3 x 3 cached
        with pytest.raises(BudgetExceeded, match="time budget"):
            bf_colouring_spectrum(make_spec(3, 3, [3, 2]), 1, 2, OracleBudget(time_limit=1e-9))

    def test_complete_graph_closed_forms(self):
        # H(n, 1 | (1,1)) is K_n, and q = 1 leaves no row symmetry to exploit
        for n in range(2, 11):
            spec = make_spec(n, 1, [1, 1])
            assert bf_colouring_spectrum(spec, 2, 2) == (n, n)  # proper colourings
            assert bf_colouring_spectrum(spec, 1, 1) == (1, 1)
            assert bf_colouring_spectrum(spec, 1, 2) == (1, n)

    def test_summary_matches_edge_stream_reference(self):
        # The Bell table (every set partition, scored edge by edge) is the
        # reference; on at most 8 vertices it is itself checked against the
        # literal edge stream.
        np = pytest.importorskip("numpy")
        ten_vertices = [make_spec(2, 5, [3, 2]), make_spec(5, 2, [2, 1])]
        for spec in desk_specs(max_vertices=9) + ten_vertices:
            n, q, parts = spec.n, spec.q, spec.sigma.parts
            blocks, got_lo, got_hi = _colouring_summary(n, q, parts, 600.0)
            if n * q <= 8:
                rgs = _set_partitions(n * q)
                lo = np.full(len(rgs), np.iinfo(np.int16).max, dtype=np.int16)
                hi = np.zeros(len(rgs), dtype=np.int16)
                for edge in enumerate_edges(spec):
                    idx = [(v.class_index - 1) * q + (v.row_index - 1) for v in edge.vertices()]
                    distinct = np.array([len(set(row)) for row in rgs[:, idx].tolist()])
                    np.minimum(lo, distinct, out=lo)
                    np.maximum(hi, distinct, out=hi)
                assert (got_lo == lo).all() and (got_hi == hi).all(), spec
            for a in range(1, spec.r + 1):
                for b in range(a, spec.r + 1):
                    valid = (got_lo >= a) & (got_hi <= b)
                    want = (None, None)
                    if valid.any():
                        want = (int(blocks[valid].min()), int(blocks[valid].max()))
                    assert bf_colouring_spectrum(spec, a, b, BUDGET) == want, (spec, a, b)


class TestBfMaxIntersection:
    def test_empty_set(self):
        assert bf_max_intersection(make_spec(3, 2, [2, 1]), VertexSet(), BUDGET) == 0

    def test_everything(self):
        spec = make_spec(3, 2, [2, 1])
        b = VertexSet.of(all_vertices(spec))
        assert bf_max_intersection(spec, b, BUDGET) == 3

    def test_agrees_with_fast_path(self):
        import random

        rng = random.Random(5)
        spec = make_spec(3, 2, [2, 1])
        verts = list(all_vertices(spec))
        for _ in range(20):
            b = VertexSet.of(rng.sample(verts, k=rng.randint(0, len(verts))))
            slow = bf_max_intersection(spec, b, BUDGET)
            if spec.has_edges:
                _, fast = max_intersection_edge(spec, b)
                assert slow == fast

    def test_budget_abort(self):
        tight = OracleBudget(max_vertices=32, max_edges=3, time_limit=60)
        with pytest.raises(BudgetExceeded):
            bf_max_intersection(make_spec(3, 2, [2, 1]), VertexSet(), tight)

    def test_deadline_checked(self):
        spec = make_spec(4, 3, [2, 1])
        with pytest.raises(BudgetExceeded, match="time budget"):
            bf_max_intersection(spec, VertexSet(), OracleBudget(time_limit=1e-9))

    def test_no_edges_on_a_huge_grid(self):
        spec = make_spec(10**9, 1, [2, 1])
        assert bf_max_intersection(spec, VertexSet.of([(1, 1)])) == 0


class TestRangeRules:
    """A fast path and its oracle refuse an argument out of range with one message."""

    @staticmethod
    def messages(calls):
        seen = set()
        for call in calls:
            with pytest.raises(ValidationError) as exc:
                call()
            seen.add(str(exc.value))
        return seen

    @pytest.mark.parametrize("n", [3, 1], ids=["edges", "edgeless"])
    @pytest.mark.parametrize("k", [-1, 0, 3, 10])
    def test_k(self, n, k):
        spec = make_spec(n, 3, [2, 1])
        calls = (lambda: alpha_k(spec, k), lambda: bf_alpha_k(spec, k, BUDGET))
        assert self.messages(calls) == {f"k must satisfy 1 <= k <= r-1 = 2, got {k}"}

    @pytest.mark.parametrize("n", [3, 1], ids=["edges", "edgeless"])
    @pytest.mark.parametrize("a, b", [(0, 1), (2, 1), (1, 4), (4, 4), (-1, -2)])
    def test_colour_range(self, n, a, b):
        spec = make_spec(n, 3, [2, 1])
        calls = (
            lambda: colouring_bounds(spec, a, b),
            lambda: bf_colouring_spectrum(spec, a, b, BUDGET),
        )
        assert self.messages(calls) == {f"need 1 <= alpha <= beta <= r=3, got ({a}, {b})"}


class TestDeterminism:
    def test_same_budget_same_answer(self):
        spec = make_spec(4, 4, [2, 1])
        assert bf_alpha_k(spec, 2, BUDGET) == bf_alpha_k(spec, 2, BUDGET)
        assert bf_max_matching(spec, BUDGET) == bf_max_matching(spec, BUDGET)
