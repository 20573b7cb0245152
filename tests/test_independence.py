import itertools
import random

import pytest

from sigmahg import core, independence
from sigmahg.core import (
    NoEdges,
    Sigma,
    ValidationError,
    VertexSet,
    count_edges,
    enumerate_edges,
    make_spec,
)
from sigmahg.independence import (
    alpha,
    alpha_k,
    alpha_k_witness,
    colouring_bounds,
    enumerate_maximal_feasible,
    is_k_independent,
    max_intersection_edge,
)

from conftest import partitions, small_specs


def stream_max_overlap(spec, b_set):
    """Reference overlap by draining the edge stream."""
    members = b_set.members
    return max(
        (sum(1 for v in e.vertices() if v in members) for e in enumerate_edges(spec)),
        default=0,
    )


def brute_feasible_profiles(q, k, sigma):
    """Every monotone profile of length s in [0..q] with capped overlap k."""
    out = set()
    for b in itertools.product(range(q, -1, -1), repeat=sigma.s):
        if any(b[i] < b[i + 1] for i in range(sigma.s - 1)):
            continue
        if sum(min(a, x) for a, x in zip(sigma.parts, b)) == k:
            out.add(b)
    return out


class TestMaxIntersectionEdge:
    def test_heavy_profile(self):
        spec = make_spec(3, 3, [2, 1])
        b = VertexSet.from_profile(spec, [3, 1, 0])
        edge, overlap = max_intersection_edge(spec, b)
        assert overlap == 3
        assert core.is_edge(spec, edge)

    def test_everything_gives_r(self):
        spec = make_spec(3, 9, [4, 3, 2])
        b = VertexSet.of(core.all_vertices(spec))
        _, overlap = max_intersection_edge(spec, b)
        assert overlap == 9

    def test_flat_profile_matches_stream(self):
        spec = make_spec(3, 2, [2, 1])
        b = VertexSet.from_profile(spec, [1, 1, 1])
        edge, overlap = max_intersection_edge(spec, b)
        assert overlap == 2
        assert overlap == stream_max_overlap(spec, b)
        assert sum(1 for v in edge.vertices() if v in b.members) == overlap

    def test_no_edges_raises(self):
        with pytest.raises(NoEdges):
            max_intersection_edge(make_spec(1, 2, [1, 1]), VertexSet())

    def test_optimal_on_random_sets(self):
        rng = random.Random(20)
        for spec in small_specs(max_r=4, max_n=4, max_q=3, with_edges_only=True):
            if count_edges(spec) > 2000:
                continue
            verts = list(core.all_vertices(spec))
            for _ in range(3):
                b = VertexSet.of(rng.sample(verts, k=rng.randint(0, len(verts))))
                edge, overlap = max_intersection_edge(spec, b)
                assert overlap == stream_max_overlap(spec, b), (spec, sorted(b.members))
                assert sum(1 for v in edge.vertices() if v in b.members) == overlap


class TestIsKIndependent:
    def test_flat_profile_two_independent(self):
        spec = make_spec(3, 2, [2, 1])
        assert is_k_independent(spec, VertexSet.from_profile(spec, [1, 1, 1]), 2)

    def test_empty_set(self):
        spec = make_spec(3, 2, [2, 1])
        assert is_k_independent(spec, VertexSet(), 1)

    def test_heavier_profile_fails(self):
        spec = make_spec(3, 2, [2, 1])
        assert not is_k_independent(spec, VertexSet.from_profile(spec, [2, 1, 1]), 2)

    def test_k_out_of_range(self):
        spec = make_spec(3, 2, [2, 1])
        with pytest.raises(ValidationError):
            is_k_independent(spec, VertexSet(), 3)
        with pytest.raises(ValidationError):
            is_k_independent(spec, VertexSet(), 0)


class TestMaximalFeasible:
    SIGMA = Sigma((4, 3, 2))

    def test_k8_exact(self):
        for q in (4, 5, 9):
            got = {seq.b for seq in enumerate_maximal_feasible(q, 8, self.SIGMA)}
            assert got == {(3, 3, 3), (q, 2, 2), (q, q, 1)}

    def test_k7_contains_reference_triple(self):
        # (3,3,1) is also maximal: it is feasible and nothing dominates it.
        for q in (5, 9):
            got = {seq.b for seq in enumerate_maximal_feasible(q, 7, self.SIGMA)}
            assert {(3, 2, 2), (q, 2, 1), (q, q, 0)} <= got
            assert got == {(3, 2, 2), (3, 3, 1), (q, 2, 1), (q, q, 0)}

    def test_k6_exact_and_no_third_prefix(self):
        for q in (5, 7):
            got = {seq.b for seq in enumerate_maximal_feasible(q, 6, self.SIGMA)}
            assert got == {(3, 3, 0), (3, 2, 1), (2, 2, 2), (q, 2, 0), (q, 1, 1)}
            assert not any(seq.t == 3 for seq in enumerate_maximal_feasible(q, 6, self.SIGMA))

    def test_sequences_are_exactly_the_undominated_ones(self):
        # Independent reconstruction: enumerate every feasible profile, keep
        # the undominated ones, compare.
        # Repeated parts and tails that stay at or above sigma after the
        # first drop exercise every branch of the dominance rule.
        for parts in [
            (4, 3, 2), (2, 1), (2, 2), (3, 1, 1), (1, 1, 1),
            (3, 2, 2, 1, 1), (5, 1, 1, 1), (2, 2, 1, 1, 1), (6, 3, 1),
        ]:
            sigma = Sigma(parts)
            for q in range(parts[0], parts[0] + 3):
                for k in range(1, sigma.r):
                    feasible = brute_feasible_profiles(q, k, sigma)
                    undominated = {
                        b
                        for b in feasible
                        if not any(
                            o != b and all(x >= y for x, y in zip(o, b))
                            for o in feasible
                        )
                    }
                    seqs = enumerate_maximal_feasible(q, k, sigma)
                    got = [seq.b for seq in seqs]
                    assert got == sorted(undominated, reverse=True), (parts, q, k)
                    for seq in seqs:
                        first_drop = next(i for i, (x, a) in enumerate(zip(seq.b, parts)) if x < a)
                        assert seq.t == first_drop + 1, (parts, q, k, seq)

    def test_invariants_and_non_emptiness(self):
        for parts in [(4, 3, 2), (2, 2), (5,), (2, 1, 1)]:
            sigma = Sigma(parts)
            q = parts[0] + 1
            for k in range(1, sigma.r):
                seqs = enumerate_maximal_feasible(q, k, sigma)
                assert seqs, (parts, k)
                for seq in seqs:
                    b = seq.b
                    assert all(b[i] >= b[i + 1] for i in range(len(b) - 1))
                    assert all(0 <= x <= q for x in b)
                    assert sum(min(a, x) for a, x in zip(parts, b)) == k
                    assert 1 <= seq.t <= sigma.s
                    assert b[seq.t - 1] < parts[seq.t - 1]
                    assert all(b[i] >= parts[i] for i in range(seq.t - 1))

    def test_validation(self):
        with pytest.raises(ValidationError):
            enumerate_maximal_feasible(5, 9, self.SIGMA)
        with pytest.raises(ValidationError):
            enumerate_maximal_feasible(3, 5, self.SIGMA)  # q < largest part


class TestAlphaK:
    def test_worked_values(self):
        assert alpha_k(make_spec(10, 5, [4, 3, 2]), 7) == 21
        assert alpha_k(make_spec(4, 10, [4, 3, 2]), 6) == 13
        assert alpha_k(make_spec(10, 5, [4, 3, 2]), 8) == 30

    def test_degenerate_returns_everything(self):
        assert alpha_k(make_spec(2, 5, [4, 3, 2]), 5) == 10

    def test_witness_is_k_independent_and_tight(self):
        for spec in small_specs(max_r=4, max_n=4, max_q=4, with_edges_only=True):
            if spec.r < 2:
                continue
            for k in range(1, spec.r):
                value, profile = alpha_k_witness(spec, k)
                assert sum(profile) == value
                witness = VertexSet.from_profile(spec, profile)
                assert len(witness) == value
                assert is_k_independent(spec, witness, k), (spec, k, profile)

    def test_large_r_all_k(self):
        spec = make_spec(15, 11, [8, 5, 3, 3] + [1] * 9)
        values = []
        for k in range(1, spec.r):
            value, profile = alpha_k_witness(spec, k)
            assert is_k_independent(spec, VertexSet.from_profile(spec, profile), k), (k, profile)
            values.append(value)
        assert values == sorted(values)
        assert values[-1] == alpha(spec)[0]

    def test_huge_n_builds_no_length_n_profile(self):
        # the value reads the s-entry profile; a length-10**9 tuple would
        # take gigabytes
        spec = make_spec(10**9, 5, [4, 3, 2])
        values = [alpha_k(spec, k) for k in range(1, spec.r)]
        assert values == sorted(values)
        assert values[-1] == alpha(spec)[0] == 3 * 10**9
        assert colouring_bounds(spec, 2, 8).alpha_beta_ind == 3 * 10**9

    def test_never_enumerates_profiles(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("alpha_k enumerated the maximal profiles")

        monkeypatch.setattr(independence, "enumerate_maximal_feasible", refuse)
        spec = make_spec(6, 7, [4, 3, 2])
        for k in range(1, spec.r):
            assert alpha_k_witness(spec, k)[0] == alpha_k(spec, k)

    def test_cost_does_not_grow_with_q_or_a1(self):
        # the only maximal profile is (1, 0); a walk over every entry
        # below a_1 = 10**8 takes tens of seconds
        assert alpha_k_witness(make_spec(3, 10**8, [10**8, 1]), 1) == (1, (1, 0, 0))

    def test_matches_the_best_enumerated_profile(self):
        # the witness is the largest (size, full profile) over every
        # maximal profile; the size of a full profile is its sum
        for r in range(2, 8):
            for parts in partitions(r):
                sigma, s = Sigma(parts), len(parts)
                for q in range(parts[0], parts[0] + 5):
                    for k in range(1, r):
                        seqs = enumerate_maximal_feasible(q, k, sigma)
                        for n in range(s, s + 4):
                            want = max((sum(seq.full(n)), seq.full(n)) for seq in seqs)
                            got = alpha_k_witness(make_spec(n, q, parts), k)
                            assert got == want, (n, q, parts, k)

    def test_monotone_in_k_q_n(self):
        for parts in [(2, 1), (2, 2), (3, 1)]:
            for n in range(len(parts), 5):
                for q in range(parts[0], 5):
                    spec = make_spec(n, q, parts)
                    r = spec.r
                    values = [alpha_k(spec, k) for k in range(1, r)]
                    assert values == sorted(values)
                    for k in range(1, r):
                        assert alpha_k(make_spec(n + 1, q, parts), k) >= alpha_k(spec, k)
                        assert alpha_k(make_spec(n, q + 1, parts), k) >= alpha_k(spec, k)


class TestAlphaClosedForm:
    def test_worked_values(self):
        value, j = alpha(make_spec(10, 5, [4, 3, 2]))
        assert (value, j) == (30, 1)
        value, j = alpha(make_spec(4, 20, [4, 3, 2]))
        assert value == 42 and j == 3

    def test_tiny_brute_force(self):
        # sigma=(2), n=2, q=2: check against all 2^4 subsets.
        spec = make_spec(2, 2, [2])
        verts = list(core.all_vertices(spec))
        edges = [frozenset(e.vertices()) for e in enumerate_edges(spec)]
        best = 0
        for size in range(len(verts) + 1):
            for sub in itertools.combinations(verts, size):
                s = frozenset(sub)
                if not any(e <= s for e in edges):
                    best = max(best, size)
        assert best == 2
        assert alpha(spec)[0] == 2

    def test_agrees_with_alpha_k_at_top(self):
        for spec in small_specs(max_r=5, max_n=5, max_q=5, with_edges_only=True):
            if spec.r < 2:
                continue
            assert alpha(spec)[0] == alpha_k(spec, spec.r - 1), spec

    def test_degenerate(self):
        assert alpha(make_spec(1, 3, [2, 2]))[0] == 3


class TestColouringBounds:
    def test_no_edges_is_trivially_feasible(self):
        b = colouring_bounds(make_spec(2, 3, [4, 3, 2]), 3, 5)
        assert b.feasible and b.chi_lower == 1

    def test_worked_combination(self):
        b = colouring_bounds(make_spec(10, 5, [4, 3, 2]), 2, 8)
        assert b.alpha_ind == 30
        assert b.alpha_beta_ind == 30
        assert b.feasible
        assert b.chi_lower == 2  # ceil(50/30)

    def test_infeasible_instance(self):
        # One class of nine vertices, edges are its 3-subsets: with exactly 2
        # colours per edge both few and many colours fail.
        b = colouring_bounds(make_spec(1, 9, [3]), 2, 2)
        assert not b.feasible

    def test_beta_r_unconstrained_above(self):
        spec = make_spec(3, 2, [2, 1])
        b = colouring_bounds(spec, 1, 3)
        assert b.alpha_beta_ind == spec.num_vertices
        assert b.chi_lower == 1

    def test_validation(self):
        spec = make_spec(3, 2, [2, 1])
        with pytest.raises(ValidationError):
            colouring_bounds(spec, 2, 1)
        with pytest.raises(ValidationError):
            colouring_bounds(spec, 0, 2)
        with pytest.raises(ValidationError):
            colouring_bounds(spec, 2, 4)


class TestPrefixSumProperty:
    def test_random_monotone_sequences(self):
        # For monotone positive x_1 <= ... <= x_k summing to at most q, every
        # prefix satisfies sum(x[:t]) <= t*q/k.
        rng = random.Random(42)
        for _ in range(500):
            k = rng.randint(1, 8)
            q = rng.randint(k, 40)
            xs = sorted(rng.randint(1, max(1, q // k)) for _ in range(k))
            if sum(xs) > q:
                continue
            for t in range(1, k + 1):
                assert sum(xs[:t]) * k <= t * q
