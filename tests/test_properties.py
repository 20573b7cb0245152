"""Property tests over random small specs: every strategy's matching
verifies and meets its certificates, output is deterministic, nu never
exceeds the exact optimum, and the interval form every construction emits
reads, verifies and encodes exactly as the row-set form of the same edges.
A fuzz of the CLI's JSON inputs checks that malformed files end in an exit
code, never a traceback."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from sigmahg.cli import run
from sigmahg.core import (
    Matching,
    NoRepresentation,
    VertexSet,
    make_edge,
    make_spec,
    matching_to_json,
    verify_matching,
)
from sigmahg.matching import (
    MatchingReport,
    NoSuchDesign,
    RegimeError,
    best_matching,
    canonicalize,
    diagonal_perfect_matching,
    greedy_matching,
    r_good_maximum_matching,
    rectangular_maximum_matching,
    report_to_json,
)
from sigmahg.oracle import BudgetExceeded, OracleBudget, bf_max_matching

from conftest import partitions

SIGMAS = [p for r in range(1, 7) for p in partitions(r)]
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)
ORACLE_BUDGET = OracleBudget(max_vertices=24, max_edges=200_000, time_limit=10.0)

specs = st.builds(
    make_spec, st.integers(1, 9), st.integers(1, 14), st.sampled_from(SIGMAS)
)


def strategy_reports(spec):
    """Every strategy's report on spec, skipping those whose regime fails."""
    builds = {
        "auto": lambda: best_matching(spec),
        "diagonal": lambda: MatchingReport.of(spec, diagonal_perfect_matching(spec), "diagonal"),
        "rectangular": lambda: rectangular_maximum_matching(spec),
        "rgood": lambda: r_good_maximum_matching(spec),
        "rgood-permissive": lambda: r_good_maximum_matching(spec, permissive=True),
        "greedy": lambda: MatchingReport.of(spec, greedy_matching(spec), "greedy"),
    }
    for name, build in builds.items():
        try:
            yield name, build()
        except (RegimeError, NoSuchDesign, NoRepresentation):
            pass


def as_json(report):
    return json.dumps([report_to_json(report), matching_to_json(report.matching)])


@DETERMINISTIC
@given(specs)
def test_every_strategy_verifies_within_its_certificates(spec):
    for name, rep in strategy_reports(spec):
        assert verify_matching(spec, rep.matching).ok, (spec, name)
        certs = dict(rep.certificates)
        assert rep.nu == len(rep.matching.edges)
        assert rep.nu <= spec.num_vertices // spec.r
        assert rep.nu <= certs.get("nu_upper", rep.nu), (spec, name)
        assert rep.nu <= certs.get("gcd_nu_upper", rep.nu), (spec, name)
        assert rep.unmatched_count <= certs.get("unmatched_bound", rep.unmatched_count)


@DETERMINISTIC
@given(specs)
def test_repeated_calls_give_identical_json(spec):
    first = {name: as_json(rep) for name, rep in strategy_reports(spec)}
    again = {name: as_json(rep) for name, rep in strategy_reports(spec)}
    assert first == again


def row_set_copy(m):
    """The row-set matching of interval-form m, built from its intervals
    without reading ``m.edges`` or ``m.unmatched``."""
    s = len(m.parts)
    edges = [
        make_edge(
            (m.classes[k + i], range(m.rows[k + i], m.rows[k + i] + m.parts[i]))
            for i in range(s)
        )
        for k in range(0, len(m.classes), s)
    ]
    unmatched = VertexSet.of((c, row) for c, lo, count in m.runs for row in range(lo, lo + count))
    return Matching(edges, unmatched)


def tampered(spec, m):
    """Interval-form copies of m with one fault each."""
    s, classes, rows, runs = len(m.parts), list(m.classes), list(m.rows), list(m.runs)
    variants = [(classes, rows, runs + [(1, 1, 1)])]  # an extra unmatched vertex
    if classes:
        variants += [
            (classes, [rows[0] + 1] + rows[1:], runs),  # a shifted first row
            ([spec.n + 1] + classes[1:], rows, runs),  # a part off the grid
            (classes, [spec.q] + rows[1:], runs),  # off the grid unless its size is 1
            (classes[s:], rows[s:], runs),  # a dropped edge
        ]
        if s > 1:
            variants.append(([classes[1]] + classes[1:], rows, runs))  # a repeated class
        # two parts of one size swapped between edge 0 and a later edge, so
        # that edge 0 holds a class twice while the parts still tile the grid
        swap = next(
            (
                (i, k)
                for i in range(s)
                for k in range(s, len(classes))
                if m.parts[k % s] == m.parts[i]
                and classes[k] != classes[i]
                and classes[k] in classes[:s]
            ),
            None,
        )
        if swap:
            i, k = swap
            swapped = [classes[:], rows[:]]
            for flat in swapped:
                flat[i], flat[k] = flat[k], flat[i]
            variants.append((*swapped, runs))
    return [Matching.from_intervals(m.parts, *v) for v in variants]


@DETERMINISTIC
@given(specs)
def test_interval_form_agrees_with_row_sets(spec):
    for name, rep in strategy_reports(spec):
        assert rep.matching.classes is not None, (spec, name)
        m = rep.matching
        for variant in [m, canonicalize(spec, m), *tampered(spec, m)]:
            copy = row_set_copy(variant)
            assert variant.edges == copy.edges, (spec, name)
            assert variant.unmatched == copy.unmatched, (spec, name)
            assert verify_matching(spec, variant) == verify_matching(spec, copy), (spec, name)
            assert matching_to_json(variant) == matching_to_json(copy), (spec, name)


@DETERMINISTIC
@given(st.integers(1, 6), st.integers(1, 4), st.sampled_from(SIGMAS))
def test_nu_never_exceeds_the_exact_maximum(n, q, parts):
    spec = make_spec(n, q, parts)
    try:
        exact = bf_max_matching(spec, ORACLE_BUDGET)
    except BudgetExceeded:
        return
    for name, rep in strategy_reports(spec):
        assert rep.nu <= exact, (spec, name)


# Numbers are small or at least 2**63: a well-formed spec then either keeps
# the grid small or has more cells than a list can index, which verify
# refuses before allocating anything.  Sizes in between would allocate.
json_numbers = st.one_of(
    st.integers(-3, 12),
    st.floats(-20, 20),
    st.integers(2**63, 2**70),
    st.floats(2.0**63, 1e300),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
json_leaves = st.one_of(st.none(), st.booleans(), json_numbers, st.text(max_size=3))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
# A field is a scalar or a flat list more often than a nested value, so the
# conversion of each field is reached as well as the shape checks around it.
json_fields = json_leaves | st.lists(json_leaves, max_size=4) | json_values
edge_objects = st.lists(
    st.fixed_dictionaries({"class": json_fields, "rows": json_fields}), max_size=3
)
vertex_objects = st.fixed_dictionaries({"class": json_fields, "row": json_fields})
matching_objects = st.one_of(
    st.fixed_dictionaries(
        {
            "edges": st.lists(edge_objects, max_size=3),
            "unmatched": st.lists(vertex_objects, max_size=3),
        }
    ),
    json_values,
)
spec_objects = st.one_of(
    st.fixed_dictionaries(
        {"n": json_numbers, "q": json_numbers, "sigma": st.lists(json_numbers, max_size=3)}
    ),
    st.fixed_dictionaries({"n": json_fields, "q": json_fields, "sigma": json_fields}),
    json_values,
)


def run_verify(spec_obj, matching_obj):
    """Exit code, stdout and stderr of ``verify`` on the two objects as files."""
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        matching_path = os.path.join(tmp, "matching.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec_obj, fh)
        with open(matching_path, "w", encoding="utf-8") as fh:
            json.dump(matching_obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["verify", "--spec", spec_path, "--matching", matching_path])
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 4), (code, err)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


@DETERMINISTIC
@given(matching_objects)
def test_verify_survives_any_matching_object(matching_obj):
    assert_clean_exit(*run_verify({"n": 3, "q": 3, "sigma": [2, 1]}, matching_obj))


@DETERMINISTIC
@given(spec_objects)
def test_verify_survives_any_spec_object(spec_obj):
    assert_clean_exit(*run_verify(spec_obj, {"edges": [], "unmatched": []}))
