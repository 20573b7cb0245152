"""Tests of the benchmark's own checkers: each broken output must be rejected.

    python3 -m pytest bench/test_checks.py
"""

import copy

import checks

# H(n=3, q=2 | (2,1)): classes 1..3, rows 1..2, six vertices, two edges.
N, Q, SIGMA = 3, 2, (2, 1)
GOOD = {
    "edges": [
        [{"class": 1, "rows": [1, 2]}, {"class": 2, "rows": [1]}],
        [{"class": 2, "rows": [2]}, {"class": 3, "rows": [1, 2]}],
    ],
    "unmatched": [],
}


def broken(edit):
    m = copy.deepcopy(GOOD)
    edit(m)
    return m


def test_good_matching_passes():
    assert checks.check_matching_json(N, Q, SIGMA, GOOD) == []
    assert checks.check_match_result(N, Q, SIGMA, 2, 0, GOOD) == []


def test_overlap_is_rejected():
    def overlap(m):
        m["edges"][1][0]["rows"] = [1]  # vertex (2, 1) now in both edges
        m["unmatched"] = [{"class": 2, "row": 2}]

    errors = checks.check_matching_json(N, Q, SIGMA, broken(overlap))
    assert any("two edges" in e for e in errors)


def test_wrong_part_size_is_rejected():
    def wrong_size(m):
        m["edges"][0][0]["rows"] = [1]
        m["unmatched"] = [{"class": 1, "row": 2}]

    errors = checks.check_matching_json(N, Q, SIGMA, broken(wrong_size))
    assert any("part sizes" in e for e in errors)


def test_missing_vertex_is_rejected():
    def drop_edge(m):
        del m["edges"][1]  # its three vertices are neither matched nor listed

    errors = checks.check_matching_json(N, Q, SIGMA, broken(drop_edge))
    assert any("not the complement" in e for e in errors)


def test_repeated_class_and_out_of_range_row_are_rejected():
    def repeat_class(m):
        m["edges"][0][1]["class"] = 1

    assert any("repeats a class" in e for e in checks.check_matching_json(N, Q, SIGMA, broken(repeat_class)))

    def tall_row(m):
        m["edges"][0][1]["rows"] = [3]

    assert any("outside 1..2" in e for e in checks.check_matching_json(N, Q, SIGMA, broken(tall_row)))


def test_counts_must_match_the_matching():
    assert checks.check_match_result(N, Q, SIGMA, 1, 3, GOOD) != []


def test_alpha_witness():
    # sigma (2,1), n=3, q=2: profile (2,0,0) meets the best edge in 2 vertices.
    assert checks.check_alpha_witness(3, 2, (2, 1), 2, 2, (2, 0, 0)) == []
    assert checks.check_alpha_witness(3, 2, (2, 1), 1, 2, (2, 0, 0)) != []  # overlap 2 > k
    assert checks.check_alpha_witness(3, 2, (2, 1), 2, 3, (2, 0, 0)) != []  # wrong sum
    assert checks.check_alpha_witness(3, 2, (2, 1), 2, 2, (2, 0)) != []  # wrong length
    assert checks.check_alpha_witness(3, 2, (2, 1), 2, 3, (3, 0, 0)) != []  # entry above q


def test_overlap_sorts_both_sides():
    assert checks.overlap((1, 3), (0, 1, 5)) == 3 + 1


def test_closed_form_alpha():
    # The paper's worked example: sigma (4,3,2), n=10, q=5 has alpha = 30.
    assert checks.alpha_closed(10, 5, (4, 3, 2)) == 30
    assert checks.alpha_closed(1, 5, (4, 3, 2)) == 5  # no edges


def test_regimes():
    assert checks.r_good_l((3, 2)) == 6
    assert checks.r_good_l((4, 2)) is None
    assert checks.regime_bound(60, 60, (3, 2)) == ("diagonal", 0)
    assert checks.regime_bound(60, 63, (3, 2)) == ("rgood-1b", 0)
    assert checks.regime_bound(64, 116, (4, 3, 2)) == ("rgood-2", 14 * 64)
    assert checks.regime_bound(27, 2535, (2,) + (1,) * 12) == ("rgood-3", 13 * 13)
    assert checks.regime_bound(50, 51, (1, 1, 1, 1)) == ("all-ones", 2)
    assert checks.regime_bound(45, 190, (5, 4, 3, 2)) is None


def test_regime_bound_is_enforced():
    # r | q and n >= s: anything short of a perfect matching is wrong.
    assert checks.check_match_result(4, 5, (3, 2), 3, 5) != []
    assert checks.check_match_result(4, 5, (3, 2), 4, 0) == []
