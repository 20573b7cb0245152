"""Property tests over random small specs: every strategy's matching
verifies and meets its certificates, output is deterministic, and nu never
exceeds the exact optimum."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from sigmahg.core import NoRepresentation, make_spec, matching_to_json, verify_matching
from sigmahg.matching import (
    MatchingReport,
    NoSuchDesign,
    RegimeError,
    best_matching,
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
