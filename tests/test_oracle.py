import itertools

import pytest

from sigmahg import core
from sigmahg.core import VertexSet, ValidationError, enumerate_edges, make_spec
from sigmahg.independence import alpha_k, max_intersection_edge
from sigmahg.oracle import (
    BudgetExceeded,
    OracleBudget,
    _bb_max_matching_edges,
    bf_alpha_k,
    bf_colouring_spectrum,
    bf_max_intersection,
    bf_max_matching,
)

from conftest import partitions

BUDGET = OracleBudget(max_vertices=32, max_edges=500_000, time_limit=60.0)


def subset_alpha_k(spec, k):
    """Third, even dumber reference: scan all vertex subsets."""
    verts = list(core.all_vertices(spec))
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
        spec = make_spec(6, 1, [1, 1, 1])  # 6!/3! = 120 placements
        with pytest.raises(BudgetExceeded):
            bf_alpha_k(spec, 1, OracleBudget(max_vertices=32, max_edges=119, time_limit=60))
        admitted = OracleBudget(max_vertices=32, max_edges=120, time_limit=60)
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


class TestBfColouringSpectrum:
    def test_no_edges_unconstrained(self):
        assert bf_colouring_spectrum(make_spec(1, 4, [1, 1]), 1, 2, BUDGET) == (1, 4)

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


class TestBfMaxIntersection:
    def test_empty_set(self):
        assert bf_max_intersection(make_spec(3, 2, [2, 1]), VertexSet(), BUDGET) == 0

    def test_everything(self):
        spec = make_spec(3, 2, [2, 1])
        b = VertexSet.of(core.all_vertices(spec))
        assert bf_max_intersection(spec, b, BUDGET) == 3

    def test_agrees_with_fast_path(self):
        import random

        rng = random.Random(5)
        spec = make_spec(3, 2, [2, 1])
        verts = list(core.all_vertices(spec))
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


class TestDeterminism:
    def test_same_budget_same_answer(self):
        spec = make_spec(4, 4, [2, 1])
        assert bf_alpha_k(spec, 2, BUDGET) == bf_alpha_k(spec, 2, BUDGET)
        assert bf_max_matching(spec, BUDGET) == bf_max_matching(spec, BUDGET)
