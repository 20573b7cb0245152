import ast
import functools
import itertools
import json
import math
import pathlib
import pickle
import random
import sys

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
    count_placements,
    edge_shapes,
    enumerate_edges,
    frobenius_decompose,
    is_edge,
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
        assert is_edge(spec, Edge([(1, {1, 2}), (2, {1})]))

    def test_single_oversized_part(self):
        spec = make_spec(3, 3, [2, 1])
        assert not is_edge(spec, Edge([(1, {1, 2, 3})]))

    def test_all_singletons_is_wrong_shape(self):
        spec = make_spec(3, 3, [2, 1])
        assert not is_edge(spec, Edge([(1, {1}), (2, {2}), (3, {3})]))

    def test_out_of_range_vertex_raises(self):
        spec = make_spec(3, 3, [2, 1])
        with pytest.raises(ValidationError):
            is_edge(spec, Edge([(1, {1, 4}), (2, {1})]))
        with pytest.raises(ValidationError):
            is_edge(spec, Edge([(4, {1, 2}), (2, {1})]))

    def test_part_order_is_irrelevant(self):
        spec = make_spec(3, 3, [2, 1])
        a = Edge([(2, {1}), (1, {1, 2})])
        b = Edge([(1, {2, 1}), (2, {1})])
        assert a == b
        assert is_edge(spec, a) and is_edge(spec, b)

    def test_duplicate_class_is_not_an_edge(self):
        spec = make_spec(3, 3, [2, 1])
        assert not is_edge(spec, Edge([(1, {1, 2}), (1, {3})]))


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
            assert len(shapes) == count_placements(spec), spec
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


def reference_frobenius_decompose(target, u, v):
    """The descent on x that frobenius_decompose replaced by its closed
    form: try x = target // u, target // u - 1, ... down to 0."""
    x = target // u
    while x >= 0:
        rem = target - x * u
        if rem % v == 0:
            return x, rem // v
        x -= 1
    raise NoRepresentation(f"{target} is not a nonnegative combination of {u} and {v}")


class TestFrobenius:
    def test_matches_descent_reference(self):
        for u in range(1, 31):
            for v in range(1, 31):
                if math.gcd(u, v) != 1:
                    continue
                for target in range(-3, 500):
                    try:
                        expected = reference_frobenius_decompose(target, u, v)
                    except NoRepresentation as exc:
                        with pytest.raises(NoRepresentation) as err:
                            frobenius_decompose(target, u, v)
                        assert str(err.value) == str(exc)
                        continue
                    assert frobenius_decompose(target, u, v) == expected, (target, u, v)

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
        e1 = Edge([(1, {1, 2}), (2, {1})])
        e2 = Edge([(1, {1, 3}), (3, {1})])
        m = Matching((e1, e2), VertexSet.of([]))
        report = verify_matching(spec, m)
        assert any(v.kind == "overlap" for v in report.violations)

    def test_non_edge_detected(self):
        spec = make_spec(3, 3, [2, 1])
        bad = Edge([(1, {1, 2, 3})])
        m = Matching((bad,), VertexSet.of([]))
        report = verify_matching(spec, m)
        assert any(v.kind == "non-edge" for v in report.violations)

    @pytest.mark.parametrize("s", range(1, 14))
    def test_both_repeated_class_checks_agree(self, s):
        # _loads_fit picks pairwise columns for few parts, sets for many
        rng = random.Random(s)
        checks = (core._repeats_pairwise, core._repeats_by_sets)
        for _ in range(20):
            edges = rng.randint(0, 30)
            classes = [c for _ in range(edges) for c in rng.sample(range(1, 2 * s + 3), s)]
            assert not any(check([classes[i::s] for i in range(s)]) for check in checks)
            if s > 1 and edges:
                e, (x, y) = rng.randrange(edges), rng.sample(range(s), 2)
                classes[e * s + x] = classes[e * s + y]
                assert all(check([classes[i::s] for i in range(s)]) for check in checks)

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
            Edge([(1, {1, 2}), (2, {1})]),
            Edge([(1, {2, 3}), (3, {1})]),  # overlaps edge 0
            Edge([(5, {1}), (2, {2, 4})]),  # off the grid
            Edge([(5, {1}), (4, {5, 1})]),  # off the grid, overlapping edge 2 there
            Edge([(3, {2, 3}), (3, {1})]),  # repeated class
            Edge([(4, {2}), (2, {3})]),  # wrong part sizes
            Edge([(4, {3}), (1, {3}), (2, {3})]),  # wrong part sizes, two overlaps
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
        self_overlap = Edge([(2, {2, 3}), (2, {2})])
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
        e = Edge([(2, {1}), (1, {1, 2})])
        assert core.edge_from_json(core.edge_to_json(e)) == e

    def test_matching_round_trip(self):
        from sigmahg.matching import greedy_matching

        spec = make_spec(3, 4, [2, 1])
        m = greedy_matching(spec)
        blob = json.dumps(core.matching_to_json(m))
        assert core.matching_from_json(json.loads(blob)) == m

    def test_dumps_with_matching_is_json_dumps(self):
        # both forms, with and without edges and unmatched vertices
        from sigmahg.matching import greedy_matching

        for spec in small_specs(max_r=4, max_n=5, max_q=5):
            built = greedy_matching(spec)
            for m in (built, Matching(built.edges, built.unmatched)):
                payload = {"spec": core.spec_to_json(spec), "nu": m.size, "zz": [1, {"a": 2}]}
                expected = dict(payload, matching=core.matching_to_json(m))
                assert core.dumps_with_matching(payload, m) == json.dumps(
                    expected, sort_keys=True, indent=2
                ), spec

    def test_malformed_inputs_raise(self):
        with pytest.raises(ValidationError):
            core.spec_from_json({"n": 3})
        with pytest.raises(ValidationError):
            core.matching_from_json({"edges": [[{"class": 1}]], "unmatched": []})

    def test_spec_decoder_takes_only_json_integers(self):
        # make_spec coerces what it is given; JSON from outside may not lean on that
        bad = {"n": 2.9, "q": True, "sigma": [1.5, "1"]}
        assert make_spec(bad["n"], bad["q"], bad["sigma"]) == make_spec(2, 1, [1, 1])
        with pytest.raises(ValidationError) as exc:
            core.spec_from_json(bad)
        assert str(exc.value) == f"malformed spec object: {bad!r}"

    @pytest.mark.parametrize("part", [
        {"class": 1, "rows": [1.9, 2]},
        {"class": 1, "rows": [True]},
        {"class": 1, "rows": ["1", 2]},
        {"class": "1", "rows": [1, 2]},
        {"class": 1, "rows": [1, 1, 2]},
    ], ids=["float-row", "bool-row", "string-row", "string-class", "repeated-row"])
    def test_edge_decoders_refuse_what_edge_would_coerce(self, part):
        Edge([(part["class"], part["rows"])])  # the constructor coerces it
        other = {"class": 2, "rows": [1]}
        with pytest.raises(ValidationError, match="^malformed edge object: "):
            core.edge_from_json([part, other])
        with pytest.raises(ValidationError, match="^malformed matching object: "):
            core.matching_from_json({"edges": [[part, other]], "unmatched": []})

    def test_matching_decoder_refuses_a_repeated_unmatched_cell(self):
        cell = {"class": 2, "row": 2}
        edge = [{"class": 1, "rows": [1, 2]}, {"class": 2, "rows": [1]}]
        assert core.matching_from_json({"edges": [edge], "unmatched": [cell]}).size == 1
        with pytest.raises(ValidationError, match="^malformed matching object: "):
            core.matching_from_json({"edges": [edge], "unmatched": [cell, cell]})
        with pytest.raises(ValidationError, match="^malformed matching object: "):
            core.matching_from_json({"edges": [edge], "unmatched": [dict(cell, row=2.0)]})

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
            Edge([(1, set())])

    def test_rejects_nonpositive_indices(self):
        with pytest.raises(ValidationError):
            Edge([(0, {1})])
        with pytest.raises(ValidationError):
            Edge([(1, {0})])

    def test_sizes_sorted_descending(self):
        e = Edge([(3, {1}), (1, {1, 2, 3}), (2, {4, 5})])
        assert e.sizes() == (3, 2, 1)
        assert e.size() == 6


PUBLIC_NAMES = """
    BudgetExceeded ColouringBounds DiagonalLatinSquare Edge FeasibleSequence HypergraphSpec
    Matching MatchingReport NoEdges NoRepresentation NoSuchDesign OracleBudget RGoodSplit
    RegimeError Sigma SigmaHypergraphError ValidationError VerificationReport Vertex VertexSet
    all_ones_maximum_matching alpha alpha_k alpha_k_witness best_matching
    bf_alpha_k bf_colouring_spectrum bf_max_intersection bf_max_matching canonicalize
    colouring_bounds contract count_edges diagonal_perfect_matching dls_matching
    enumerate_edges enumerate_maximal_feasible expand find_r_good_split frobenius_decompose
    gcd_unmatched_lower_bound generate_dls greedy_matching is_edge is_k_independent
    make_spec max_intersection_edge packing_matching r_good_maximum_matching
    rectangular_maximum_matching verify_matching
""".split()


class TestPackage:
    def test_readme_library_example_runs(self):
        # every check the example shows (a line ending in .ok) holds
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(block, namespace)
        checks = [
            stmt for stmt in ast.parse(block).body
            if isinstance(stmt, ast.Expr) and ast.unparse(stmt).endswith(".ok")
        ]
        assert checks
        for stmt in checks:
            assert eval(ast.unparse(stmt), namespace) is True, ast.unparse(stmt)

    def test_public_names_resolve_to_their_submodule_objects(self):
        import sigmahg

        assert sorted(sigmahg.__all__) == sorted(PUBLIC_NAMES)
        listed = dir(sigmahg)
        for name in sigmahg.__all__:
            value = getattr(sigmahg, name)
            assert value.__module__.startswith("sigmahg."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
            assert name in listed, name

    def test_star_import(self):
        namespace = {}
        exec("from sigmahg import *", namespace)
        import sigmahg

        for name in sigmahg.__all__:
            assert namespace[name] is getattr(sigmahg, name), name

    def test_unknown_names_and_submodules(self):
        import sigmahg

        with pytest.raises(AttributeError):
            sigmahg.no_such_name
        from sigmahg import independence, matching, oracle

        assert sigmahg.matching is matching and sigmahg.independence is independence
        assert matching.RegimeError is core.RegimeError
        assert matching.NoSuchDesign is core.NoSuchDesign
        # one family of refusals: catching RegimeError catches them all
        assert issubclass(core.NoSuchDesign, core.RegimeError)
        assert issubclass(core.NoRepresentation, core.RegimeError)
        assert oracle.BudgetExceeded is core.BudgetExceeded


def one_of_each_record():
    """An instance of every record type."""
    from sigmahg import independence, matching, oracle

    spec = make_spec(6, 6, [3, 2, 1])
    report = verify_matching(spec, Matching((), VertexSet.of([(1, 1)])))
    return [
        spec.sigma,
        spec,
        Edge([(2, {1, 2}), (1, {3})]),
        VertexSet.of([(1, 1), (2, 3)]),
        report.violations[0],
        report,
        matching.generate_dls(4),
        matching.find_r_good_split(spec.sigma),
        matching.best_matching(spec),
        matching.DlsFragment((1, 2), (matching.DiagonalPart(0, 1),)),
        oracle.OracleBudget(),
        independence.enumerate_maximal_feasible(6, 2, spec.sigma)[0],
        independence.colouring_bounds(spec, 1, 2),
    ]


class TestRecords:
    def test_immutable_and_hashable(self):
        records = one_of_each_record()
        assert len({type(r) for r in records}) == 13
        for record in records:
            assert isinstance(record, tuple), type(record)
            for field in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, getattr(record, field))
            with pytest.raises(AttributeError):
                record.extra = 1
            hash(record)

    def test_copies_are_equal_cache_keys(self):
        calls = []

        @functools.lru_cache(maxsize=None)
        def seen(record):
            calls.append(record)
            return len(calls)

        for record in one_of_each_record():
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and copy is not record and type(copy) is type(record)
            assert seen(record) == seen(copy) == len(calls)
        assert seen.cache_info().hits == 13

    def test_validation_messages(self):
        from sigmahg.oracle import OracleBudget

        cases = [
            (lambda: core.Sigma(()), "sigma needs at least one part"),
            (lambda: core.Sigma(("x",)), "sigma parts must be integers: ('x',)"),
            (lambda: core.Sigma((2, 0)), "sigma parts must be positive: (2, 0)"),
            (lambda: make_spec(0, 3, [1]), "need n >= 1 and q >= 1, got n=0, q=3"),
            (lambda: make_spec(2, 3, [1])._replace(q=0), "need n >= 1 and q >= 1, got n=2, q=0"),
            (lambda: Edge(()), "edge needs at least one part"),
            (lambda: Edge([(1, ())]), "edge part with empty row set"),
            (lambda: Edge([(0, {1})]), "class and row indices are 1-based positive integers"),
            (lambda: OracleBudget(max_edges=0), "budget limits must be positive"),
            (lambda: OracleBudget()._replace(time_limit=0.0), "budget limits must be positive"),
        ]
        for build, message in cases:
            with pytest.raises(ValidationError) as exc:
                build()
            assert str(exc.value) == message

    def test_records_normalise_and_equal_plain_tuples(self):
        assert core.Sigma([1, 3, 2]).parts == (3, 2, 1)
        assert make_spec(4, 5, [1, 2]) == (4, 5, ((2, 1),))
        edge = Edge([(3, [2]), (1, [1, 2])])
        assert edge.parts == ((1, frozenset({1, 2})), (3, frozenset({2})))
        assert edge._replace(parts=[(2, [1])]).parts == ((2, frozenset({1})),)
        assert VertexSet() == VertexSet(set()) == (frozenset(),)
        assert VertexSet([(1, 2)]).members == frozenset({(1, 2)})
