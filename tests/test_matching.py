import itertools
import math
import subprocess
import sys

import pytest

from sigmahg import core, matching
from sigmahg.core import (
    Edge,
    Matching,
    ValidationError,
    VertexSet,
    make_spec,
    verify_matching,
)
from sigmahg.matching import (
    MatchingReport,
    NoSuchDesign,
    STRATEGIES,
    RegimeError,
    RGoodSplit,
    _greedy_choices,
    _rgood_residue,
    all_ones_maximum_matching,
    best_matching,
    canonicalize,
    contract,
    diagonal_perfect_matching,
    dls_matching,
    expand,
    find_r_good_split,
    gcd_unmatched_lower_bound,
    generate_dls,
    greedy_matching,
    packing_matching,
    r_good_maximum_matching,
    rectangular_maximum_matching,
    report_to_json,
)
from sigmahg.oracle import OracleBudget, bf_max_matching

from conftest import partitions, row_set_copy

BUDGET = OracleBudget(max_vertices=32, max_edges=500_000, time_limit=60.0)


def permute_rows(spec, m, perms):
    """Apply one permutation per class; validity is preserved."""

    def move(v):
        return core.Vertex(v.class_index, perms[v.class_index][v.row_index])

    edges = tuple(
        Edge(
            tuple(
                (c, frozenset(perms[c][row] for row in rows)) for c, rows in e.parts
            )
        )
        for e in m.edges
    )
    return Matching(edges, VertexSet(frozenset(move(v) for v in m.unmatched.members)))


def reference_greedy(spec):
    """Greedy as one sort per edge: the largest parts go to the classes with
    the most free rows (ties toward lower class indices), each taking the
    lowest free rows of its class."""
    parts, s = spec.sigma.parts, spec.sigma.s
    free = {c: list(range(1, spec.q + 1)) for c in range(1, spec.n + 1)}
    edges = []
    if spec.has_edges:
        while True:
            order = sorted(free, key=lambda c: (-len(free[c]), c))[:s]
            if any(len(free[order[i]]) < parts[i] for i in range(s)):
                break
            eparts = []
            for i, c in enumerate(order):
                eparts.append((c, frozenset(free[c][: parts[i]])))
                del free[c][: parts[i]]
            edges.append(Edge(tuple(eparts)))
    unmatched = frozenset(core.Vertex(c, row) for c, rows in free.items() for row in rows)
    return Matching(tuple(edges), VertexSet(unmatched))


def reference_r_good_split(parts):
    """The r-good split by trying every proper subset of part indices:
    (L, A) least over subsets whose sum is coprime to r, or None."""
    r, s = sum(parts), len(parts)
    best = None
    for size in range(1, s):
        for combo in itertools.combinations(range(1, s + 1), size):
            a = sum(parts[i - 1] for i in combo)
            if math.gcd(a, r) == 1 and (best is None or (math.lcm(a, r - a), combo) < best):
                best = (math.lcm(a, r - a), combo)
    if best is None:
        return None
    L, combo = best
    a = sum(parts[i - 1] for i in combo)
    other = tuple(i for i in range(1, s + 1) if i not in combo)
    return RGoodSplit(combo, other, a, r - a, L)


def exhaustive_best(spec):
    """best_matching without shortcuts: build every applicable candidate in
    the dispatcher's order and keep the first largest."""
    n, q, r, d = spec.n, spec.q, spec.r, spec.sigma.d
    builds = [lambda: STRATEGIES["diagonal"](spec)]
    if spec.sigma.r == spec.sigma.s:
        builds.append(lambda: all_ones_maximum_matching(spec))
    if spec.sigma.s >= 2:
        builds.append(lambda: r_good_maximum_matching(spec))
    if d >= 2:

        def contracted():
            inner = exhaustive_best(contract(spec)[0])
            m = expand(spec, inner.matching)
            return MatchingReport.of(spec, m, f"contract+{inner.strategy}", proven=inner.proven)

        builds.append(contracted)
    builds.append(lambda: MatchingReport.of(spec, reference_greedy(spec), "greedy"))
    candidates = []
    for build in builds:
        try:
            candidates.append(build())
        except RegimeError:
            pass
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.nu > best.nu:
            best = cand
    certs = [("nu_upper", n * q // r)]
    if d >= 2:
        certs += [("gcd_unmatched_lower", q % d * n), ("gcd_nu_upper", n * (q - q % d) // r)]
    certs += [(k, v) for k, v in best.certificates if k not in {name for name, _ in certs}]
    return best._replace(certificates=tuple(certs))


def equivalence_specs():
    """Small specs of every partition of r <= 5, plus one spec per route."""
    for r in range(1, 6):
        for parts in partitions(r):
            for n in range(1, 8):
                for q in range(1, 13):
                    yield make_spec(n, q, parts)
    for n, q, parts in [
        (7, 146, (3, 2)), (13, 149, (2, 2, 1)), (26, 9, (2, 2)), (26, 6, (1, 1, 1, 1)),
        (12, 13, (4, 2)), (16, 20, (5, 4, 3, 2)), (9, 36, (3, 2, 1)), (64, 118, (4, 3, 2)),
    ]:
        yield make_spec(n, q, parts)


def assert_dls_valid(square):
    order = square.order
    symbols = set(range(order))
    for row in square.cells:
        assert set(row) == symbols
    for j in range(order):
        assert {square.cells[i][j] for i in range(order)} == symbols
    assert {square.cells[i][i] for i in range(order)} == symbols


def realise_block(parts, classes, height, width):
    """A block's class list laid on its own height x width grid, where it
    must be a perfect matching."""
    own = make_spec(width, height, parts)
    m = Matching.from_classes(own, classes)
    assert not m.unmatched and verify_matching(own, m).ok
    return m


class TestCanonicalize:
    def test_scattered_rows_become_intervals(self):
        spec = make_spec(3, 6, [2, 1])
        base = diagonal_perfect_matching(spec)
        perms = {c: dict(zip(range(1, 7), [4, 1, 6, 2, 5, 3])) for c in range(1, 4)}
        scrambled = permute_rows(spec, base, perms)
        assert verify_matching(spec, scrambled).ok
        canon = canonicalize(spec, scrambled)
        assert verify_matching(spec, canon).ok
        assert len(canon.edges) == len(scrambled.edges)
        for e in canon.edges:
            for _, rows in e.parts:
                rs = sorted(rows)
                assert rs == list(range(rs[0], rs[0] + len(rs)))

    def test_unmatched_move_to_bottom(self):
        # (3, 5, (2,1)) leaves three vertices unmatched; scrambling the rows
        # scatters them, and canonicalize gathers each class's at its bottom
        spec = make_spec(3, 5, [2, 1])
        m = greedy_matching(spec)
        assert len(m.unmatched) == 3
        perms = {c: dict(zip(range(1, 6), [5, 1, 4, 2, 3])) for c in range(1, 4)}
        canon = canonicalize(spec, permute_rows(spec, m, perms))
        assert verify_matching(spec, canon).ok
        assert canon.size == m.size
        for c in range(1, 4):
            rows = sorted(
                v.row_index for v in canon.unmatched.members if v.class_index == c
            )
            assert rows == list(range(spec.q - len(rows) + 1, spec.q + 1))
        assert len(canon.unmatched) == 3

    def test_empty_matching_unchanged(self):
        spec = make_spec(3, 3, [2, 1])
        empty = Matching((), VertexSet.of(core.all_vertices(spec)))
        canon = canonicalize(spec, empty)
        assert canon.edges == ()
        assert len(canon.unmatched) == 9

    def test_perfect_matching_stays_perfect(self):
        spec = make_spec(3, 3, [2, 1])
        canon = canonicalize(spec, diagonal_perfect_matching(spec))
        assert len(canon.edges) == 3 and len(canon.unmatched) == 0

    def test_invalid_input_rejected(self):
        spec = make_spec(3, 3, [2, 1])
        bad = Matching((Edge([(1, {1, 2, 3})]),), VertexSet())
        with pytest.raises(ValidationError):
            canonicalize(spec, bad)

    def test_wide_grid_counts_unmatched_in_one_pass(self):
        # 5000 classes of 40 rows, all unmatched: a scan of the unmatched
        # set per class would take minutes
        code = (
            "from sigmahg import core, matching\n"
            "spec = core.make_spec(5000, 40, [2, 1])\n"
            "empty = core.Matching((), core.VertexSet.of(core.all_vertices(spec)))\n"
            "canon = matching.canonicalize(spec, empty)\n"
            "print(canon.size, len(canon.unmatched))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "200000"]


class TestDiagonalPerfect:
    def test_three_classes(self):
        spec = make_spec(3, 3, [2, 1])
        m = diagonal_perfect_matching(spec)
        assert len(m.edges) == 3 and len(m.unmatched) == 0
        assert verify_matching(spec, m).ok

    def test_tall_grid(self):
        spec = make_spec(3, 9, [4, 3, 2])
        m = diagonal_perfect_matching(spec)
        assert len(m.edges) == 3
        assert verify_matching(spec, m).ok

    def test_divisibility_enforced(self):
        with pytest.raises(RegimeError):
            diagonal_perfect_matching(make_spec(3, 4, [2, 1]))

    def test_width_enforced(self):
        with pytest.raises(RegimeError):
            diagonal_perfect_matching(make_spec(2, 9, [4, 3, 2]))


class TestGcdBound:
    def test_even_parts_odd_height(self):
        assert gcd_unmatched_lower_bound(make_spec(4, 5, [2, 2])) == 4

    def test_coprime_parts(self):
        assert gcd_unmatched_lower_bound(make_spec(4, 5, [2, 1])) == 0

    def test_respected_by_exact_optimum(self):
        spec = make_spec(3, 5, [4, 2])
        assert gcd_unmatched_lower_bound(spec) == 3
        nu = bf_max_matching(spec, BUDGET)
        assert nu <= 3 * (5 - 1) // 6 == 2
        assert nu == 2


class TestContractExpand:
    def test_basic_arithmetic(self):
        contracted, dropped = contract(make_spec(3, 13, [4, 2]))
        assert contracted.sigma.parts == (2, 1)
        assert contracted.q == 6 and dropped == 1

        contracted, dropped = contract(make_spec(4, 8, [2, 2]))
        assert contracted.sigma.parts == (1, 1)
        assert contracted.q == 4 and dropped == 0

        contracted, dropped = contract(make_spec(2, 7, [3, 3]))
        assert contracted.sigma.parts == (1, 1)
        assert contracted.q == 2 and dropped == 1

    def test_requires_common_factor(self):
        with pytest.raises(RegimeError):
            contract(make_spec(3, 5, [2, 1]))

    def test_expand_perfect(self):
        spec = make_spec(4, 8, [2, 2])
        inner_spec, _ = contract(spec)
        inner = diagonal_perfect_matching(inner_spec)
        lifted = expand(spec, inner)
        assert verify_matching(spec, lifted).ok
        assert len(lifted.edges) == len(inner.edges)
        assert len(lifted.unmatched) == 0

    def test_expand_with_dropped_rows(self):
        spec = make_spec(3, 13, [4, 2])
        inner_spec, dropped = contract(spec)
        inner = greedy_matching(inner_spec)
        lifted = expand(spec, inner)
        assert verify_matching(spec, lifted).ok
        assert len(lifted.edges) == len(inner.edges)
        assert len(lifted.unmatched) == dropped * spec.n + 2 * len(inner.unmatched)

    def test_expand_empty(self):
        spec = make_spec(3, 13, [4, 2])
        inner_spec, _ = contract(spec)
        empty = Matching((), VertexSet.of(core.all_vertices(inner_spec)))
        lifted = expand(spec, empty)
        assert verify_matching(spec, lifted).ok
        assert lifted.edges == ()

    def test_expand_rejects_an_invalid_matching(self):
        spec = make_spec(4, 8, [2, 2])
        inner_spec, _ = contract(spec)
        inner = diagonal_perfect_matching(inner_spec)
        doubled = Matching(inner.edges + inner.edges[:1], VertexSet())
        with pytest.raises(ValidationError, match="matching invalid"):
            expand(spec, doubled)

    def test_expand_verifies_a_row_set_input_once(self, monkeypatch):
        calls = []
        real = matching.verify_matching
        monkeypatch.setattr(matching, "verify_matching", lambda *a: calls.append(a) or real(*a))
        spec = make_spec(6, 8, [2, 2])
        inner = diagonal_perfect_matching(contract(spec)[0])
        lifted = expand(spec, Matching(inner.edges, inner.unmatched))
        assert len(calls) == 1
        assert lifted.size == inner.size and real(spec, lifted).ok

    def test_contract_route_does_not_verify_its_own_construction(self, monkeypatch):
        # expand checks matchings passed in; the route lifts what the inner
        # construction has just built without checking it again
        calls = []
        real = matching.verify_matching
        monkeypatch.setattr(matching, "verify_matching", lambda *a: calls.append(a) or real(*a))
        spec = make_spec(400, 401, [2, 2])
        rep = best_matching(spec)
        assert rep.strategy.startswith("contract+")
        assert calls == []
        assert real(spec, rep.matching).ok

    def test_round_trip_preserves_size(self):
        for parts, q in [((2, 2), 9), ((4, 2), 13), ((3, 3), 8)]:
            spec = make_spec(4, q, parts)
            inner_spec, _ = contract(spec)
            inner = greedy_matching(inner_spec)
            lifted = expand(spec, inner)
            assert len(lifted.edges) == len(inner.edges)
            again = canonicalize(spec, lifted)
            assert len(again.edges) == len(lifted.edges)


class TestAllOnes:
    def test_exact_divisible(self):
        spec = make_spec(16, 3, [1, 1, 1])
        rep = all_ones_maximum_matching(spec)
        assert rep.nu == 16 and rep.unmatched_count == 0
        assert verify_matching(spec, rep.matching).ok

    def test_remainder_two(self):
        spec = make_spec(17, 4, [1, 1, 1])
        rep = all_ones_maximum_matching(spec)
        assert rep.nu == 22 and rep.unmatched_count == 2
        assert verify_matching(spec, rep.matching).ok

    def test_exchange_path(self):
        # q=5, n=17: a 2x2 corner forces one exchange round.
        spec = make_spec(17, 5, [1, 1, 1])
        rep = all_ones_maximum_matching(spec)
        assert rep.unmatched_count == (17 * 5) % 3 == 1
        assert verify_matching(spec, rep.matching).ok

    def test_sweep_exact_remainder(self):
        for r in range(2, 7):
            for n in range((r + 1) ** 2, (r + 1) ** 2 + 5):
                for q in range(r, r + 6):
                    spec = make_spec(n, q, [1] * r)
                    rep = all_ones_maximum_matching(spec)
                    assert rep.unmatched_count == (n * q) % r, spec
                    assert rep.nu == (n * q) // r, spec
                    assert verify_matching(spec, rep.matching).ok, spec

    def test_preconditions(self):
        with pytest.raises(RegimeError):
            all_ones_maximum_matching(make_spec(15, 3, [1, 1, 1]))
        with pytest.raises(RegimeError):
            all_ones_maximum_matching(make_spec(16, 2, [1, 1, 1]))
        with pytest.raises(RegimeError):
            all_ones_maximum_matching(make_spec(16, 3, [2, 1]))


class TestRectangular:
    def test_width_one_delegates(self):
        spec = make_spec(16, 3, [1, 1, 1])
        rep = rectangular_maximum_matching(spec)
        assert rep.strategy == "all-ones"
        assert rep.nu == 16

    def test_worked_instance(self):
        spec = make_spec(25, 9, [2, 2])
        rep = rectangular_maximum_matching(spec)
        assert rep.nu == 50 and rep.unmatched_count == 25
        assert verify_matching(spec, rep.matching).ok

    def test_perfect_instance(self):
        spec = make_spec(25, 8, [2, 2])
        rep = rectangular_maximum_matching(spec)
        assert rep.nu == 50 and rep.unmatched_count == 0
        assert verify_matching(spec, rep.matching).ok

    def test_formula_across_scales(self):
        for delta in (2, 3):
            for s in (2, 3):
                r = delta * s
                n = (r + 1) ** 2
                for q in range(r * delta, r * delta + 4):
                    spec = make_spec(n, q, [delta] * s)
                    rep = rectangular_maximum_matching(spec)
                    assert rep.nu == best_matching(spec).nu == n * (q - q % delta) // r, spec
                    assert rep.unmatched_count == n * (q % delta) + delta * (
                        (n * (q // delta)) % s
                    ), spec
                    assert verify_matching(spec, rep.matching).ok, spec

    def test_preconditions(self):
        with pytest.raises(RegimeError):
            rectangular_maximum_matching(make_spec(25, 9, [2, 1]))
        with pytest.raises(RegimeError):
            rectangular_maximum_matching(make_spec(24, 9, [2, 2]))
        with pytest.raises(RegimeError):
            rectangular_maximum_matching(make_spec(25, 7, [2, 2]))


class TestRGoodSplit:
    def test_three_part_example(self):
        split = find_r_good_split(core.Sigma((4, 3, 2)))
        assert split.set_a == (1, 2) and split.a == 7
        assert split.b == 2 and split.L == 14
        assert math.gcd(split.a, split.b) == 1
        assert math.gcd(split.a, 9) == 1 and math.gcd(split.b, 9) == 1

    def test_known_counterexample(self):
        assert find_r_good_split(core.Sigma((33, 45, 55, 77))) is None

    def test_common_factor_blocks(self):
        assert find_r_good_split(core.Sigma((2, 2))) is None

    def test_single_part_rejected(self):
        with pytest.raises(RegimeError):
            find_r_good_split(core.Sigma((5,)))

    def test_matches_enumeration_reference(self):
        for r in range(2, 15):
            for parts in partitions(r):
                if len(parts) >= 2:
                    assert find_r_good_split(core.Sigma(parts)) == reference_r_good_split(parts)

    def test_invariants_exhaustive(self):
        for r in range(2, 13):
            for parts in partitions(r):
                if len(parts) < 2:
                    continue
                split = find_r_good_split(core.Sigma(parts))
                if split is None:
                    # no subset sum may be coprime to r
                    import itertools as it

                    for size in range(1, len(parts)):
                        for combo in it.combinations(range(len(parts)), size):
                            assert math.gcd(sum(parts[i] for i in combo), r) != 1
                    continue
                assert set(split.set_a) | set(split.set_b) == set(
                    range(1, len(parts) + 1)
                )
                assert not set(split.set_a) & set(split.set_b)
                assert split.a + split.b == r
                assert math.gcd(split.a, split.b) == 1
                assert math.gcd(split.a, r) == 1
                assert math.gcd(split.b, r) == 1
                assert split.L == math.lcm(split.a, split.b)
                assert math.gcd(split.L, r) == 1
                assert 4 * split.L <= r * r - 1 or split.L == 1


class TestGenerateDls:
    def test_valid_orders(self):
        for order in [1] + list(range(3, 65)):
            assert_dls_valid(generate_dls(order))

    def test_order_two_refused(self):
        with pytest.raises(NoSuchDesign):
            generate_dls(2)
        # exhaustive confirmation: both 2x2 squares repeat on the diagonal
        for square in (((0, 1), (1, 0)), ((1, 0), (0, 1))):
            assert square[0][0] == square[1][1]

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            generate_dls(0)
        with pytest.raises(ValidationError):
            generate_dls(-3)

    def test_deterministic(self):
        assert generate_dls(7).cells == generate_dls(7).cells


class TestDlsMatching:
    def test_three_part_block(self):
        spec = make_spec(3, 9, [4, 3, 2])
        frag = dls_matching(spec)
        assert realise_block(spec.sigma.parts, frag.classes, 9, 3).size == 3
        # one diagonal part per edge, all sizes represented
        assert sorted(dp.edge_pos for dp in frag.diagonal) == [0, 1, 2]
        sizes = sorted(spec.sigma.parts[dp.symbol] for dp in frag.diagonal)
        assert sizes == [2, 3, 4]
        # edge i frees its part in column i: the square's main diagonal
        for dp in frag.diagonal:
            assert frag.classes[dp.edge_pos * 3 + dp.symbol] == dp.edge_pos + 1

    def test_singleton_parts(self):
        spec = make_spec(3, 3, [1, 1, 1])
        frag = dls_matching(spec)
        assert realise_block(spec.sigma.parts, frag.classes, 3, 3).size == 3

    def test_two_parts_refused(self):
        with pytest.raises(NoSuchDesign):
            dls_matching(make_spec(4, 3, [2, 1]))

    def test_bounds(self):
        with pytest.raises(ValidationError, match="subgrid exceeds the 8x7 grid"):
            dls_matching(make_spec(7, 8, [4, 3, 2]))
        with pytest.raises(ValidationError, match="subgrid exceeds the 20x2 grid"):
            dls_matching(make_spec(2, 20, [4, 3, 2]))


class TestPackingMatching:
    def test_tiny_split(self):
        spec = make_spec(3, 2, [2, 1])
        split = find_r_good_split(spec.sigma)
        packed = realise_block(spec.sigma.parts, packing_matching(spec, split), 2, 3)
        assert packed.size == 2

    def test_worked_split(self):
        spec = make_spec(9, 14, [4, 3, 2])
        split = find_r_good_split(spec.sigma)
        assert split.L == 14
        packed = realise_block(spec.sigma.parts, packing_matching(spec, split), 14, 9)
        assert packed.size == 14

    def test_two_part_split(self):
        spec = make_spec(5, 6, [3, 2])
        split = find_r_good_split(spec.sigma)
        assert split.L == 6
        packed = realise_block(spec.sigma.parts, packing_matching(spec, split), 6, 5)
        assert packed.size == 6

    def test_bounds_checked(self):
        split = find_r_good_split(core.Sigma((2, 1)))
        with pytest.raises(ValidationError, match="subgrid exceeds the 1x3 grid"):
            packing_matching(make_spec(3, 1, [2, 1]), split)
        with pytest.raises(ValidationError, match="subgrid exceeds the 2x2 grid"):
            packing_matching(make_spec(2, 2, [2, 1]), split)


class TestBlocksBuiltOnce:
    """Each repeated block is built once at the origin and placed by
    shifting, however many copies the grid takes."""

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        real = getattr(matching, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(matching, name, counted)
        return calls

    def test_one_packed_block_per_width_bands_call(self, monkeypatch):
        # (65, 68, (3,2)): rgood-1b lays 13 copies of the packed block in
        # each of 8 packed strips
        packed = self.spy(monkeypatch, "packing_matching")
        per_call = []
        real = matching._perfect_width_bands

        def counted(*args):
            before = len(packed)
            cls = real(*args)
            per_call.append(len(packed) - before)
            return cls

        monkeypatch.setattr(matching, "_perfect_width_bands", counted)
        spec = make_spec(65, 68, [3, 2])
        rep = r_good_maximum_matching(spec)
        assert rep.strategy == "rgood-1b" and rep.unmatched_count == 0
        assert verify_matching(spec, rep.matching).ok
        assert per_call == [1]

    def test_one_band_for_stacked_strips(self, monkeypatch):
        bands = self.spy(monkeypatch, "_band")
        m = diagonal_perfect_matching(make_spec(1000, 1000, [3, 2]))
        assert m.size == 200_000
        assert len(bands) == 1

    def test_one_band_and_block_per_residue(self, monkeypatch):
        # (64, 116, (4,3,2)): regime 3 stacks 11 strips of 6 exchange blocks
        # beside a band, then a packed residue
        bands = self.spy(monkeypatch, "_band")
        blocks = self.spy(monkeypatch, "dls_matching")
        packed = self.spy(monkeypatch, "packing_matching")
        spec = make_spec(64, 116, [4, 3, 2])
        rep = r_good_maximum_matching(spec)
        assert rep.strategy == "rgood-3"
        assert verify_matching(spec, rep.matching).ok
        assert len(blocks) == 1 and len(packed) == 1
        # the strip band, the residue's shifted band, and packing's two halves
        assert len(bands) <= 4


class TestRGoodRegimes:
    def test_width_divisible(self):
        spec = make_spec(6, 4, [2, 1])
        rep = r_good_maximum_matching(spec)
        assert rep.strategy == "rgood-1b"
        assert rep.nu == 8 and rep.unmatched_count == 0
        assert verify_matching(spec, rep.matching).ok

    def test_height_divisible(self):
        spec = make_spec(4, 9, [2, 1])
        rep = r_good_maximum_matching(spec)
        assert rep.strategy == "diagonal"
        assert rep.nu == 12 and rep.unmatched_count == 0
        assert verify_matching(spec, rep.matching).ok

    def test_residue_regime_bound(self):
        spec = make_spec(4, 26, [2, 2, 1])
        rep = r_good_maximum_matching(spec)
        assert rep.strategy == "rgood-2"
        split = find_r_good_split(spec.sigma)
        assert rep.unmatched_count <= split.L * 16
        assert verify_matching(spec, rep.matching).ok

    def test_exchange_regime_bound(self):
        for n, q, parts in [(13, 149, (2, 2, 1)), (27, 2541, (2,) + (1,) * 12)]:
            spec = make_spec(n, q, parts)
            rep = r_good_maximum_matching(spec)
            assert rep.strategy == "rgood-3", spec
            assert rep.unmatched_count <= (spec.r - 1) ** 2, spec
            assert verify_matching(spec, rep.matching).ok, spec

    def test_two_part_exchange_regime(self):
        spec = make_spec(7, 146, [3, 2])
        rep = r_good_maximum_matching(spec)
        assert rep.strategy == "rgood-3-two-part"
        assert rep.unmatched_count <= 16
        assert verify_matching(spec, rep.matching).ok

    def test_forced_regimes(self):
        spec = make_spec(13, 150, [2, 2, 1])
        auto = r_good_maximum_matching(spec)
        assert auto.strategy == "diagonal" and auto.unmatched_count == 0
        forced = _rgood_residue(spec, find_r_good_split(spec.sigma), exchange=True)
        assert forced.strategy == "rgood-3"
        assert forced.unmatched_count <= 16
        assert verify_matching(spec, forced.matching).ok

    def test_exchange_capacity_checked_before_any_edge(self, monkeypatch):
        # (5, 7, (2, 1)): p*b = 1*2 corner groups, f*full = 1*1 blocks
        def refuse(*args):
            raise AssertionError("an edge was laid before the capacity check")

        spec = make_spec(5, 7, [2, 1])
        monkeypatch.setattr(matching, "_band", refuse)
        with pytest.raises(RegimeError) as err:
            _rgood_residue(spec, find_r_good_split(spec.sigma), exchange=True)
        assert str(err.value) == "corner absorption needs 2 exchange blocks, only 1 available"

    def test_permissive_falls_back_to_regime_2_when_exchange_runs_short(self):
        # the gate admits regime 3 below its proven height, where its
        # exchange blocks can run short
        spec = make_spec(5, 7, [2, 1])
        rep = r_good_maximum_matching(spec)
        assert rep.strategy == "rgood-2" and rep.proven
        assert verify_matching(spec, rep.matching).ok

    def test_builds_wherever_the_gate_holds(self):
        # r-good, n >= s, q >= (L-1)(r-1), and n >= r or a full strip
        # (q >= (L-1)(r-1) + r): rgood lays at least one edge within its
        # bound, and best_matching does at least as well
        for r in range(2, 7):
            for parts in partitions(r):
                split = find_r_good_split(core.Sigma(parts)) if len(parts) >= 2 else None
                if split is None:
                    continue
                low = (split.L - 1) * (r - 1)
                for n, q in itertools.product(range(len(parts), 13), range(1, 25)):
                    if q < low or (n < r and q < low + r):
                        continue
                    spec = make_spec(n, q, parts)
                    rep = r_good_maximum_matching(spec)
                    assert rep.nu >= 1, spec
                    assert verify_matching(spec, rep.matching).ok, spec
                    certs = dict(rep.certificates)
                    assert rep.unmatched_count <= certs.get("unmatched_bound", 0), spec
                    assert best_matching(spec).nu >= rep.nu, spec

    def test_not_r_good_rejected(self):
        with pytest.raises(RegimeError):
            r_good_maximum_matching(make_spec(4, 5, [2, 2]))

    def test_too_small_names_thresholds(self):
        with pytest.raises(RegimeError) as err:
            r_good_maximum_matching(make_spec(4, 6, [2, 2, 1]))
        assert "n >= 3 and q >= 12" in str(err.value)

    def test_permissive_marks_unproven(self):
        # q below the paper's regime-2 height L(r-1) = 16, above the gate's 12
        spec = make_spec(6, 13, [2, 2, 1])
        rep = r_good_maximum_matching(spec)
        assert rep.strategy == "rgood-2" and not rep.proven and rep.nu == 13
        assert verify_matching(spec, rep.matching).ok

    def test_unproven_regime_3_reaches_the_ceiling(self):
        spec = make_spec(64, 116, [4, 3, 2])
        rep = r_good_maximum_matching(spec)
        assert rep.strategy == "rgood-3" and not rep.proven
        assert rep.nu == 824 == 64 * 116 // 9
        assert verify_matching(spec, rep.matching).ok

    def test_regime_bounds_across_grid(self):
        # both sigmas have r = 5; (3, 2) sweeps the two-part exchange
        grids = [
            ((2, 2, 1), range(3, 11, 2), range(24, 41, 4)),
            ((3, 2), range(7, 12), range(144, 161)),
        ]
        for parts, ns, qs in grids:
            split_l = find_r_good_split(core.Sigma(parts)).L
            for q in qs:
                for n in ns:
                    spec = make_spec(n, q, parts)
                    rep = r_good_maximum_matching(spec)
                    assert verify_matching(spec, rep.matching).ok, spec
                    if rep.strategy == "rgood-2":
                        assert rep.unmatched_count <= split_l * 16
                    elif rep.strategy.startswith("rgood-3"):
                        assert rep.unmatched_count <= 16
                    else:
                        assert rep.unmatched_count == 0


class TestGreedyAndBest:
    def test_greedy_valid_and_deterministic(self):
        for spec in [make_spec(3, 3, [2, 1]), make_spec(4, 5, [2, 2]), make_spec(2, 3, [3, 2])]:
            a = greedy_matching(spec)
            b = greedy_matching(spec)
            assert a == b
            assert verify_matching(spec, a).ok

    def test_greedy_matches_sort_based_reference(self):
        for spec in equivalence_specs():
            assert greedy_matching(spec) == reference_greedy(spec), spec

    def test_best_equals_exhaustive_choice(self):
        for spec in equivalence_specs():
            got, want = best_matching(spec), exhaustive_best(spec)
            assert got == want, spec
            assert report_to_json(got) == report_to_json(want), spec
            assert core.matching_to_json(got.matching) == core.matching_to_json(want.matching)

    def test_every_strategy_lays_rows_by_the_realiser(self):
        # constructions choose classes only: each emits its class list on
        # its spec, and the rows read back are the lowest free ones
        builds = [*STRATEGIES.values(), all_ones_maximum_matching]
        for spec in equivalence_specs():
            for build in builds:
                try:
                    m = build(spec).matching
                except RegimeError:
                    continue
                assert m.spec == spec and m == row_set_copy(m), spec

    def test_greedy_choices_survive_contraction(self):
        # with every part a multiple of d, each class's free rows stay
        # = q (mod d); best_matching skips greedy on d >= 2 because of this
        for r in range(2, 9):
            for parts in partitions(r):
                d = math.gcd(*parts)
                if d < 2:
                    continue
                for n in range(1, 9):
                    for q in range(d, 26):
                        spec = make_spec(n, q, parts)
                        assert _greedy_choices(spec) == _greedy_choices(contract(spec)[0]), spec

    def test_gcd_route_tries_neither_rgood_nor_greedy(self, monkeypatch):
        calls = []
        for name in ("find_r_good_split", "_greedy_choices"):

            def spy(arg, name=name, real=getattr(matching, name)):
                calls.append((name, (arg if name == "find_r_good_split" else arg.sigma).d))
                return real(arg)

            monkeypatch.setattr(matching, name, spy)
        for r in range(2, 7):
            for parts in partitions(r):
                d = math.gcd(*parts)
                if d < 2:
                    continue
                for n in range(1, 8):
                    for q in range(1, 13):
                        calls.clear()
                        best_matching(make_spec(n, q, parts))
                        outer = [name for name, gcd in calls if gcd >= 2]
                        if q >= d:
                            assert outer == [], (n, q, parts, outer)
                        else:  # no candidate: greedy reports the empty matching
                            assert outer == ["_greedy_choices"], (n, q, parts, outer)

    def test_divisible_height_is_perfect(self):
        rep = best_matching(make_spec(3, 3, [2, 1]))
        assert rep.strategy == "diagonal" and rep.nu == 3

    def test_rectangular_route(self):
        rep = best_matching(make_spec(25, 9, [2, 2]))
        assert rep.nu == 50

    def test_contract_route_with_certificates(self):
        spec = make_spec(3, 5, [4, 2])
        rep = best_matching(spec)
        certs = dict(rep.certificates)
        assert certs["gcd_nu_upper"] == 2
        assert certs["gcd_unmatched_lower"] == 3
        assert rep.nu == 2 == bf_max_matching(spec, BUDGET)
        assert verify_matching(spec, rep.matching).ok

    def test_unproven_regime_3_wins_at_scale(self):
        # ceilings 10,033 and 7,111; regime 2 gave 9,996 and 7,099
        for n, q, nu in [(300, 301, 10_032), (64, 1000, 7_111)]:
            spec = make_spec(n, q, [4, 3, 2])
            rep = best_matching(spec)
            assert (rep.strategy, rep.nu, rep.proven) == ("rgood-3", nu, False), spec
            assert verify_matching(spec, rep.matching).ok, spec

    def test_never_beats_oracle_and_respects_gcd(self):
        for r in range(1, 5):
            for parts in partitions(r):
                for n in range(1, 6):
                    for q in range(1, 5):
                        spec = make_spec(n, q, parts)
                        rep = best_matching(spec)
                        assert verify_matching(spec, rep.matching).ok, spec
                        exact = bf_max_matching(spec, BUDGET)
                        assert rep.nu <= exact, (spec, rep.strategy)
                        d = spec.sigma.d
                        if d >= 2:
                            assert rep.nu * r <= n * (q - q % d), spec
                        if spec.has_edges and q % r == 0 and n >= spec.sigma.s:
                            assert rep.nu == exact == n * q // r, spec

    def test_report_counts_consistent(self):
        for spec in [make_spec(3, 4, [2, 1]), make_spec(4, 5, [2, 2]), make_spec(5, 5, [3, 1])]:
            rep = best_matching(spec)
            assert rep.nu == len(rep.matching.edges)
            assert rep.unmatched_count == spec.num_vertices - spec.r * rep.nu
            assert rep.unmatched_count == len(rep.matching.unmatched)

    def test_interval_path_builds_no_edge_objects(self, monkeypatch):
        # one spec per route best_matching can take; only reading
        # matching.edges or matching.unmatched may build Edge or VertexSet
        def refuse(*args):
            raise AssertionError("built on the class-list path")

        monkeypatch.setattr(core.Edge, "__new__", refuse)
        monkeypatch.setattr(core.VertexSet, "of", refuse)
        for n, q, parts in [
            (7, 146, (3, 2)), (13, 149, (2, 2, 1)), (26, 9, (2, 2)), (26, 6, (1, 1, 1, 1)),
            (12, 13, (4, 2)), (16, 20, (5, 4, 3, 2)), (9, 36, (3, 2, 1)), (64, 118, (4, 3, 2)),
            (6, 4, (2, 1)), (27, 2541, (2,) + (1,) * 12), (32, 58, (2, 2)), (57, 53, (4, 2)),
            (25, 239, (3, 2, 1)),
        ]:
            spec = make_spec(n, q, parts)
            rep = best_matching(spec)
            assert verify_matching(spec, rep.matching).ok, spec
            core.matching_to_json(rep.matching)
            assert canonicalize(spec, rep.matching).size == rep.nu

    def test_only_reading_rows_lays_them(self, monkeypatch):
        # building and verifying a class-list matching lays no rows; the
        # encoder lays them once and reads them for edges and unmatched
        calls = []

        def spy(spec, classes, real=core._lay):
            calls.append(spec)
            return real(spec, classes)

        monkeypatch.setattr(core, "_lay", spy)
        spec = make_spec(1000, 1000, [3, 2])
        rep = best_matching(spec)
        assert verify_matching(spec, rep.matching).ok
        assert calls == []
        obj = core.matching_to_json(rep.matching)
        assert len(obj["edges"]) == rep.nu == 200_000 and obj["unmatched"] == []
        assert calls == [spec]

    def test_parts_on_one_run_share_one_rows_list(self):
        # a diagonal band lays many parts on the same rows of different
        # classes; the encoder builds one rows list per (first row, size) run
        spec = make_spec(10, 10, [3, 2])
        obj = core.matching_to_json(diagonal_perfect_matching(spec))
        parts = [part for edge in obj["edges"] for part in edge]
        runs = {(part["rows"][0], len(part["rows"])) for part in parts}
        assert len(parts) == 40 and len(runs) == 8
        assert len({id(part["rows"]) for part in parts}) == len(runs)


class TestClassListConstructor:
    def test_refuses_a_partial_edge_and_a_class_off_the_grid(self):
        spec = make_spec(3, 4, [2, 1])
        assert Matching.from_classes(spec, [1, 2, 3, 1]).size == 2
        for classes in ([1, 2, 3], [1, 4], [0, 1], [1, 2, -1, 3]):
            with pytest.raises(ValidationError):
                Matching.from_classes(spec, classes)
