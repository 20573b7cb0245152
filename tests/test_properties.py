"""Property tests over random small specs: every strategy's matching
verifies and meets its certificates, output is deterministic, nu never
exceeds the exact optimum, and the class-list form every construction
emits reads, verifies and encodes exactly as the row-set form of the same
edges, faults included.  The CLI's emitted matching is byte for byte
json.dumps of the library's report.  A fuzz of the CLI's JSON inputs
checks that malformed files end in an exit code, never a traceback."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmahg.cli import run
from sigmahg.core import (
    Matching,
    edge_to_json,
    make_spec,
    matching_to_json,
    spec_to_json,
    verify_matching,
)
from sigmahg.matching import STRATEGIES, RegimeError, canonicalize, report_to_json
from sigmahg.oracle import BudgetExceeded, OracleBudget, bf_max_matching

from conftest import partitions, row_set_copy

SIGMAS = [p for r in range(1, 7) for p in partitions(r)]
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)
ORACLE_BUDGET = OracleBudget(max_vertices=24, max_edges=200_000, time_limit=10.0)

specs = st.builds(
    make_spec, st.integers(1, 9), st.integers(1, 14), st.sampled_from(SIGMAS)
)


def strategy_reports(spec):
    """Every strategy's report on spec, skipping those whose regime fails."""
    for name, build in STRATEGIES.items():
        try:
            yield name, build(spec)
        except RegimeError:
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


def tampered(spec, m):
    """(spec to verify against, class-list matching) pairs, each with one
    fault a class list can hold."""
    n, q, sigma = spec.n, spec.q, spec.sigma
    s, classes = sigma.s, list(m.classes)
    variants = []
    if s > 1 and classes:
        # edge 0 repeats a class
        variants.append((spec, Matching.from_classes(spec, [classes[1]] + classes[1:])))
        # two parts of one size swapped between edge 0 and a later edge, so
        # that edge 0 holds a class twice while every class load stays
        swap = next(
            (
                (i, k)
                for i in range(s)
                for k in range(s, len(classes))
                if sigma.parts[k % s] == sigma.parts[i]
                and classes[k] != classes[i]
                and classes[k] in classes[:s]
            ),
            None,
        )
        if swap:
            i, k = swap
            swapped = classes[:]
            swapped[i], swapped[k] = classes[k], classes[i]
            variants.append((spec, Matching.from_classes(spec, swapped)))
    if n >= s:
        # class 1 hosts more than q rows
        piled = classes + list(range(1, s + 1)) * (q // sigma.parts[0] + 1)
        variants.append((spec, Matching.from_classes(spec, piled)))
    # a valid list checked against a spec with another q or another n
    others = {(n, q + 1), (n, max(q - 1, 1)), (n + 1, q), (max(n - 1, 1), q)} - {(n, q)}
    for other in sorted(others):
        variants.append((make_spec(*other, sigma.parts), m))
    return variants


@DETERMINISTIC
@given(specs)
def test_class_list_form_agrees_with_row_sets(spec):
    for name, rep in strategy_reports(spec):
        m = rep.matching
        assert m.spec == spec and m.classes is not None, (spec, name)
        for against, variant in [(spec, m), (spec, canonicalize(spec, m)), *tampered(spec, m)]:
            copy = row_set_copy(variant)
            assert variant.edges == copy.edges, (spec, name)
            assert variant.unmatched == copy.unmatched, (spec, name)
            assert verify_matching(against, variant) == verify_matching(against, copy), (
                spec, name, against
            )
            assert matching_to_json(variant) == matching_to_json(copy), (spec, name)


def reference_json(m):
    """matching_to_json's object, built plainly from the edges and the
    unmatched cells."""
    return {
        "edges": [edge_to_json(e) for e in m.edges],
        "unmatched": [{"class": c, "row": row} for c, row in sorted(m.unmatched.members)],
    }


@DETERMINISTIC
@given(specs)
def test_encoder_matches_the_reference_encoder(spec):
    for name, rep in strategy_reports(spec):
        for m in (rep.matching, row_set_copy(rep.matching)):
            obj, want = matching_to_json(m), reference_json(m)
            assert obj == want, (spec, name)
            assert json.dumps(obj) == json.dumps(want), (spec, name)


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


def run_cli(argv):
    """Exit code, stdout and stderr of ``cli.run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@DETERMINISTIC
@example(make_spec(2, 5, [2, 1, 1]))  # fewer classes than parts: no edge
@example(make_spec(6, 6, [3, 2, 1]))  # r | q: a perfect matching
@given(specs)
def test_emitted_matching_is_json_dumps_of_the_report(spec):
    # the emitted text is written from per-class and per-run texts, not by json.dumps
    spec_args = ["--n", str(spec.n), "--q", str(spec.q)]
    spec_args += ["--sigma", ",".join(map(str, spec.sigma.parts))]
    reports = dict(strategy_reports(spec))
    for name in STRATEGIES:
        code, out, err = run_cli(
            ["match", *spec_args, "--strategy", name, "--emit", "--format", "json"]
        )
        if name not in reports:
            assert code == 2 and out == "", (spec, name, err)
            continue
        rep = reports[name]
        payload = {"spec": spec_to_json(spec), **report_to_json(rep)}
        payload["matching"] = matching_to_json(rep.matching)
        assert code == 0, (spec, name, err)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n", (spec, name)


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
