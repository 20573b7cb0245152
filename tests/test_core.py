import itertools
import json
import math
import random

import pytest

from sigmahg import core
from sigmahg.core import (
    Edge,
    Matching,
    NoRepresentation,
    ValidationError,
    Vertex,
    VertexSet,
    count_edges,
    edge_shapes,
    enumerate_edges,
    frobenius_decompose,
    is_edge,
    make_edge,
    make_spec,
    verify_matching,
)

from conftest import partitions, recheck_matching, small_specs


def specs_up_to(max_vertices, max_r=6):
    """Every spec with r <= max_r and n*q <= max_vertices."""
    for r in range(1, max_r + 1):
        for parts in partitions(r):
            for n in range(1, max_vertices + 1):
                for q in range(1, max_vertices // n + 1):
                    yield make_spec(n, q, parts)


def reference_edges(spec):
    """The edge stream as literal nested loops: class combinations
    ascending, distinct size assignments descending, row subsets ascending."""
    if not spec.has_edges:
        return
    rows = range(1, spec.q + 1)
    for classes in itertools.combinations(range(1, spec.n + 1), spec.sigma.s):
        for sizes in sorted(set(itertools.permutations(spec.sigma.parts)), reverse=True):
            for row_sets in itertools.product(*(itertools.combinations(rows, a) for a in sizes)):
                yield Edge(tuple((c, frozenset(rs)) for c, rs in zip(classes, row_sets)))


class TestMakeSpec:
    def test_normalises_parts_and_derives(self):
        spec = make_spec(10, 5, [2, 3, 4])
        assert spec.sigma.parts == (4, 3, 2)
        assert spec.r == 9
        assert spec.sigma.s == 3
        assert spec.sigma.d == 1
        assert spec.has_edges

    def test_too_few_classes_means_no_edges(self):
        assert not make_spec(2, 5, [4, 3, 2]).has_edges

    def test_too_short_classes_means_no_edges(self):
        assert not make_spec(10, 3, [4, 3, 2]).has_edges

    def test_rejects_bad_parts(self):
        with pytest.raises(ValidationError):
            make_spec(3, 3, [])
        with pytest.raises(ValidationError):
            make_spec(3, 3, [2, 0])
        with pytest.raises(ValidationError):
            make_spec(0, 3, [1])


class TestIsEdge:
    def test_matching_partition(self):
        spec = make_spec(3, 3, [2, 1])
        assert is_edge(spec, make_edge([(1, {1, 2}), (2, {1})]))

    def test_single_oversized_part(self):
        spec = make_spec(3, 3, [2, 1])
        assert not is_edge(spec, make_edge([(1, {1, 2, 3})]))

    def test_all_singletons_is_wrong_shape(self):
        spec = make_spec(3, 3, [2, 1])
        assert not is_edge(spec, make_edge([(1, {1}), (2, {2}), (3, {3})]))

    def test_out_of_range_vertex_raises(self):
        spec = make_spec(3, 3, [2, 1])
        with pytest.raises(ValidationError):
            is_edge(spec, make_edge([(1, {1, 4}), (2, {1})]))
        with pytest.raises(ValidationError):
            is_edge(spec, make_edge([(4, {1, 2}), (2, {1})]))

    def test_part_order_is_irrelevant(self):
        spec = make_spec(3, 3, [2, 1])
        a = make_edge([(2, {1}), (1, {1, 2})])
        b = make_edge([(1, {2, 1}), (2, {1})])
        assert a == b
        assert is_edge(spec, a) and is_edge(spec, b)

    def test_duplicate_class_is_not_an_edge(self):
        spec = make_spec(3, 3, [2, 1])
        assert not is_edge(spec, make_edge([(1, {1, 2}), (1, {3})]))


class TestEnumerateEdges:
    def test_one_one_is_complete_bipartite(self):
        spec = make_spec(2, 2, [1, 1])
        assert len(list(enumerate_edges(spec))) == 4
        assert count_edges(spec) == 4

    def test_single_part_one_per_class(self):
        spec = make_spec(2, 2, [2])
        edges = list(enumerate_edges(spec))
        assert len(edges) == 2
        assert count_edges(spec) == 2

    def test_two_one_count(self):
        spec = make_spec(3, 2, [2, 1])
        edges = list(enumerate_edges(spec))
        assert len(edges) == 12
        assert count_edges(spec) == 12

    def test_degenerate_is_empty(self):
        assert list(enumerate_edges(make_spec(1, 2, [1, 1]))) == []
        assert count_edges(make_spec(1, 2, [1, 1])) == 0

    def test_stream_matches_count_and_is_valid(self):
        for spec in small_specs(max_r=4, max_n=4, max_q=4, with_edges_only=True):
            edges = list(enumerate_edges(spec))
            assert len(edges) == count_edges(spec), spec
            assert len(set(edges)) == len(edges), spec
            for e in edges:
                assert is_edge(spec, e), (spec, e)

    def test_deterministic_order(self):
        spec = make_spec(3, 3, [2, 1])
        assert list(enumerate_edges(spec)) == list(enumerate_edges(spec))

    def test_matches_nested_loop_reference(self):
        for spec in specs_up_to(12):
            assert list(enumerate_edges(spec)) == list(reference_edges(spec)), spec


class TestEdgeShapes:
    def test_counts(self):
        for spec in specs_up_to(24):
            shapes = list(edge_shapes(spec))
            if not spec.has_edges:
                assert shapes == [] and count_edges(spec) == 0, spec
                continue
            parts = spec.sigma.parts
            mults = math.prod(math.factorial(parts.count(v)) for v in set(parts))
            assert len(shapes) == math.perm(spec.n, spec.sigma.s) // mults, spec
            assert len(set(shapes)) == len(shapes), spec
            per_shape = math.prod(math.comb(spec.q, a) for a in parts)
            assert len(shapes) * per_shape == count_edges(spec), spec

    def test_order_is_the_edge_stream_order(self):
        spec = make_spec(3, 2, [2, 1])
        assert list(edge_shapes(spec)) == [
            ((1, 2), (2, 1)), ((1, 2), (1, 2)),
            ((1, 3), (2, 1)), ((1, 3), (1, 2)),
            ((2, 3), (2, 1)), ((2, 3), (1, 2)),
        ]
        stream = [(e.classes(), tuple(len(rs) for _, rs in e.parts)) for e in enumerate_edges(spec)]
        assert list(dict.fromkeys(stream)) == list(edge_shapes(spec))


class TestFrobenius:
    def test_direct_multiple(self):
        assert frobenius_decompose(6, 3, 4) == (2, 0)

    def test_mixed(self):
        assert frobenius_decompose(11, 3, 4) == (1, 2)

    def test_gap_value_fails(self):
        with pytest.raises(NoRepresentation):
            frobenius_decompose(5, 3, 4)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValidationError):
            frobenius_decompose(10, 2, 4)

    def test_never_fails_above_threshold(self):
        for u in range(1, 11):
            for v in range(1, 11):
                if math.gcd(u, v) != 1:
                    continue
                threshold = (u - 1) * (v - 1)
                for target in range(threshold, threshold + 3 * u * v + 1):
                    x, y = frobenius_decompose(target, u, v)
                    assert x >= 0 and y >= 0 and x * u + y * v == target

    def test_maximises_x(self):
        rng = random.Random(7)
        for _ in range(200):
            u, v = rng.randint(1, 9), rng.randint(1, 9)
            if math.gcd(u, v) != 1:
                continue
            target = rng.randint(0, 100)
            try:
                x, y = frobenius_decompose(target, u, v)
            except NoRepresentation:
                continue
            for better in range(x + 1, target // u + 1):
                assert (target - better * u) % v != 0


class TestVerifyMatching:
    def _perfect(self, spec):
        from sigmahg.matching import diagonal_perfect_matching

        return diagonal_perfect_matching(spec)

    def test_valid_perfect_matching(self):
        spec = make_spec(3, 3, [2, 1])
        assert verify_matching(spec, self._perfect(spec)).ok

    def test_overlap_detected(self):
        spec = make_spec(3, 3, [2, 1])
        e1 = make_edge([(1, {1, 2}), (2, {1})])
        e2 = make_edge([(1, {1, 3}), (3, {1})])
        m = Matching((e1, e2), VertexSet.of([]))
        report = verify_matching(spec, m)
        assert any(v.kind == "overlap" for v in report.violations)

    def test_non_edge_detected(self):
        spec = make_spec(3, 3, [2, 1])
        bad = make_edge([(1, {1, 2, 3})])
        m = Matching((bad,), VertexSet.of([]))
        report = verify_matching(spec, m)
        assert any(v.kind == "non-edge" for v in report.violations)

    def test_unmatched_inconsistency_detected(self):
        spec = make_spec(3, 3, [2, 1])
        good = self._perfect(spec)
        tampered = Matching(good.edges, VertexSet.of([(1, 1)]))
        report = verify_matching(spec, tampered)
        assert any(v.kind == "unmatched" for v in report.violations)

    def test_missing_vertices_detected(self):
        spec = make_spec(3, 3, [2, 1])
        good = self._perfect(spec)
        tampered = Matching(good.edges[:-1], good.unmatched)
        report = verify_matching(spec, tampered)
        assert not report.ok

    def test_exact_violation_list(self):
        # kinds, messages and order are output (the CLI prints them)
        spec = make_spec(4, 3, [2, 1])
        edges = (
            make_edge([(1, {1, 2}), (2, {1})]),
            make_edge([(1, {2, 3}), (3, {1})]),  # overlaps edge 0
            make_edge([(5, {1}), (2, {2, 4})]),  # off the grid
            make_edge([(5, {1}), (4, {5, 1})]),  # off the grid, overlapping edge 2 there
            make_edge([(3, {2, 3}), (3, {1})]),  # repeated class
            make_edge([(4, {2}), (2, {3})]),  # wrong part sizes
            make_edge([(4, {3}), (1, {3}), (2, {3})]),  # wrong part sizes, two overlaps
        )
        unmatched = VertexSet.of([(1, 1), (4, 4), (0, 2), (4, 2), (4, 1)])
        report = verify_matching(spec, Matching(edges, unmatched))
        assert [(v.kind, v.message) for v in report.violations] == [
            ("overlap", "vertex (1, 2) appears in edges 0 and 1"),
            ("non-edge", "edge 2 has out-of-range vertex (2, 4)"),
            ("non-edge", "edge 3 has out-of-range vertex (4, 5)"),
            ("overlap", "vertex (5, 1) appears in edges 2 and 3"),
            ("non-edge", "edge 4 repeats class (3, 3)"),
            ("overlap", "vertex (3, 1) appears in edges 1 and 4"),
            ("non-edge", "edge 5 part sizes (1, 1) do not realise (2,1)"),
            ("non-edge", "edge 6 part sizes (1, 1, 1) do not realise (2,1)"),
            ("overlap", "vertex (1, 3) appears in edges 1 and 6"),
            ("overlap", "vertex (2, 3) appears in edges 5 and 6"),
            ("unmatched", "unmatched vertex (0, 2) is out of range"),
            ("unmatched", "vertex (1, 1) is both matched (edge 0) and listed unmatched"),
            ("unmatched", "vertex (4, 1) is both matched (edge 3) and listed unmatched"),
            ("unmatched", "vertex (4, 2) is both matched (edge 5) and listed unmatched"),
            ("unmatched", "unmatched vertex (4, 4) is out of range"),
        ]
        self_overlap = make_edge([(2, {2, 3}), (2, {2})])
        report = verify_matching(spec, Matching((edges[0], self_overlap), VertexSet.of([(4, 3)])))
        assert [(v.kind, v.message) for v in report.violations] == [
            ("non-edge", "edge 1 repeats class (2, 2)"),
            ("overlap", "vertex (2, 2) appears in edges 1 and 1"),
            ("unmatched", "6 vertices unaccounted for, first (1, 3)"),
        ]

    def test_agrees_with_independent_recheck(self):
        rng = random.Random(11)
        from sigmahg.matching import greedy_matching

        for spec in [make_spec(3, 3, [2, 1]), make_spec(4, 2, [1, 1]), make_spec(2, 4, [2, 2])]:
            base = greedy_matching(spec)
            variants = [base]
            # drop an edge without fixing unmatched
            if base.edges:
                variants.append(Matching(base.edges[1:], base.unmatched))
                variants.append(Matching(base.edges + (base.edges[0],), base.unmatched))
            # random garbage unmatched
            verts = list(core.all_vertices(spec))
            variants.append(
                Matching(base.edges, VertexSet.of(rng.sample(verts, k=min(2, len(verts)))))
            )
            for m in variants:
                assert verify_matching(spec, m).ok == recheck_matching(spec, m), m


class TestJsonCodecs:
    def test_spec_round_trip(self):
        spec = make_spec(10, 5, [2, 3, 4])
        assert core.spec_from_json(core.spec_to_json(spec)) == spec

    def test_edge_round_trip(self):
        e = make_edge([(2, {1}), (1, {1, 2})])
        assert core.edge_from_json(core.edge_to_json(e)) == e

    def test_matching_round_trip(self):
        from sigmahg.matching import greedy_matching

        spec = make_spec(3, 4, [2, 1])
        m = greedy_matching(spec)
        blob = json.dumps(core.matching_to_json(m))
        assert core.matching_from_json(json.loads(blob)) == m

    def test_malformed_inputs_raise(self):
        with pytest.raises(ValidationError):
            core.spec_from_json({"n": 3})
        with pytest.raises(ValidationError):
            core.matching_from_json({"edges": [[{"class": 1}]], "unmatched": []})

    def test_malformed_object_shown_up_to_a_cap(self):
        short = {"n": "abc", "q": 3, "sigma": [2, 1]}
        with pytest.raises(ValidationError) as exc:
            core.spec_from_json(short)
        assert str(exc.value) == f"malformed spec object: {short!r}"
        long_edge = [{"class": 1}] * 1000
        with pytest.raises(ValidationError) as exc:
            core.edge_from_json(long_edge)
        assert str(exc.value) == f"malformed edge object: {repr(long_edge)[:300]}..."
        with pytest.raises(ValidationError) as exc:
            core.matching_from_json(list(range(10_000)))
        assert str(exc.value) == f"malformed matching object: {repr(list(range(10_000)))[:300]}..."


class TestVertexSet:
    def test_profile(self):
        spec = make_spec(3, 3, [2, 1])
        b = VertexSet.from_profile(spec, [3, 1, 0])
        assert b.profile(3) == (3, 1, 0)
        assert len(b) == 4

    def test_profile_validation(self):
        spec = make_spec(3, 3, [2, 1])
        with pytest.raises(ValidationError):
            VertexSet.from_profile(spec, [4, 0, 0])
        with pytest.raises(ValidationError):
            VertexSet.from_profile(spec, [1, 1, 1, 1])


class TestEdgeContainer:
    def test_rejects_empty_part(self):
        with pytest.raises(ValidationError):
            make_edge([(1, set())])

    def test_rejects_nonpositive_indices(self):
        with pytest.raises(ValidationError):
            make_edge([(0, {1})])
        with pytest.raises(ValidationError):
            make_edge([(1, {0})])

    def test_sizes_sorted_descending(self):
        e = make_edge([(3, {1}), (1, {1, 2, 3}), (2, {4, 5})])
        assert e.sizes() == (3, 2, 1)
        assert e.size() == 6
