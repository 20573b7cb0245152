"""Acceptance gate: one test per criterion, each printing a pass line with
its measured runtime and asserting the stated tolerance (always exact) and
runtime ceiling."""

import math
import time

from sigmahg.core import make_spec, verify_matching
from sigmahg.independence import alpha_k, alpha_value, colouring_bounds
from sigmahg.matching import (
    all_ones_maximum_matching,
    find_r_good_split,
    generate_dls,
    r_good_maximum_matching,
    rectangular_maximum_matching,
)
from sigmahg.core import NoRepresentation, frobenius_decompose
from sigmahg.matching import NoSuchDesign, _rgood_residue
from sigmahg.oracle import OracleBudget, bf_alpha_k, bf_colouring_spectrum, bf_max_matching

from conftest import partitions

import pytest

BUDGET = OracleBudget(max_vertices=32, max_edges=500_000, time_limit=300.0)


def report(number, elapsed, limit, detail):
    print(f"ACCEPTANCE {number}: PASS in {elapsed:.2f}s (limit {limit}s) - {detail}")
    assert elapsed < limit


def test_criterion_1_worked_example_formulas():
    start = time.monotonic()
    checked = 0
    for n in range(3, 31):
        for q in range(4, 31):
            spec = make_spec(n, q, [4, 3, 2])
            a8 = alpha_k(spec, 8)
            assert a8 == max(3 * n, q + 2 * n - 2, 2 * q + n - 2), (n, q, a8)
            assert alpha_value(spec) == a8
            a7 = alpha_k(spec, 7)
            assert a7 == (2 * n + 1 if n >= q else 2 * q), (n, q, a7)
            a6 = alpha_k(spec, 6)
            assert a6 == (2 * n if n >= q - 1 else q + n - 1), (n, q, a6)
            checked += 1
    report(1, time.monotonic() - start, 5, f"3 formula branches on {checked} (n,q) pairs")


def test_criterion_2_formula_vs_oracle():
    start = time.monotonic()
    checked = 0
    for r in range(2, 6):
        for parts in partitions(r):
            s = len(parts)
            for n in range(s, 6):
                for q in range(parts[0], 6):
                    spec = make_spec(n, q, parts)
                    for k in range(1, r):
                        assert alpha_k(spec, k) == bf_alpha_k(spec, k, BUDGET), (
                            spec,
                            k,
                        )
                        checked += 1
    report(2, time.monotonic() - start, 60, f"{checked} exact (spec, k) agreements")


def test_criterion_3_all_ones_exactness():
    start = time.monotonic()
    checked = 0
    for n in range(16, 21):
        for q in range(3, 9):
            spec = make_spec(n, q, [1, 1, 1])
            rep = all_ones_maximum_matching(spec)
            assert verify_matching(spec, rep.matching).ok, spec
            assert rep.unmatched_count == (n * q) % 3, (spec, rep.unmatched_count)
            checked += 1
    report(3, time.monotonic() - start, 30, f"{checked} instances leave exactly nq mod 3")


def test_criterion_4_rectangular_exactness():
    start = time.monotonic()
    for q in range(8, 12):
        spec = make_spec(25, q, [2, 2])
        rep = rectangular_maximum_matching(spec)
        assert rep.nu == (25 * (q - q % 2)) // 4, (spec, rep.nu)
        assert verify_matching(spec, rep.matching).ok, spec
    report(4, time.monotonic() - start, 30, "nu formula exact for q in 8..11")


def test_criterion_5_perfect_regimes():
    start = time.monotonic()
    checked = 0
    for q in range(3, 31, 3):  # r | q
        for n in range(2, 31):
            spec = make_spec(n, q, [2, 1])
            rep = r_good_maximum_matching(spec)
            assert rep.unmatched_count == 0, spec
            assert verify_matching(spec, rep.matching).ok, spec
            checked += 1
    for n in range(3, 31, 3):  # r | n
        for q in range(2, 31):
            spec = make_spec(n, q, [2, 1])
            rep = r_good_maximum_matching(spec)
            assert rep.unmatched_count == 0, spec
            assert verify_matching(spec, rep.matching).ok, spec
            checked += 1
    assert find_r_good_split(make_spec(5, 6, [3, 2]).sigma).L == 6
    for n in (5, 10, 15, 20, 25, 30):  # r | n, L | q
        for q in (6, 12, 18, 24, 30, 36):
            spec = make_spec(n, q, [3, 2])
            rep = r_good_maximum_matching(spec)
            assert rep.unmatched_count == 0, (spec, rep.strategy)
            assert verify_matching(spec, rep.matching).ok, spec
            checked += 1
    report(5, time.monotonic() - start, 30, f"{checked} perfect constructions")


def test_criterion_6_slack_bounds():
    start = time.monotonic()
    checked = 0
    for q in range(24, 41):
        for n in range(3, 11):
            spec = make_spec(n, q, [2, 2, 1])
            rep = r_good_maximum_matching(spec)
            assert rep.unmatched_count <= 96, (spec, rep.strategy, rep.unmatched_count)
            assert verify_matching(spec, rep.matching).ok, spec
            checked += 1
    spec = make_spec(13, 150, [2, 2, 1])
    rep = r_good_maximum_matching(spec)
    assert rep.unmatched_count <= 16, (rep.strategy, rep.unmatched_count)
    assert verify_matching(spec, rep.matching).ok
    # the same bound through the exchange construction itself
    forced = _rgood_residue(spec, find_r_good_split(spec.sigma), exchange=True)
    assert forced.unmatched_count <= 16, forced.unmatched_count
    assert verify_matching(spec, forced.matching).ok
    report(6, time.monotonic() - start, 60, f"{checked}+1 instances within slack bounds")


def test_criterion_7_gcd_certificates():
    start = time.monotonic()
    checked = 0
    for r in range(2, 7):
        for parts in partitions(r):
            d = math.gcd(*parts)
            if d < 2:
                continue
            for n in range(len(parts), 6):
                for q in range(parts[0], 7):
                    t = q % d
                    if t == 0:
                        continue
                    spec = make_spec(n, q, parts)
                    nu = bf_max_matching(spec, BUDGET)
                    assert nu * r <= n * (q - t), (spec, nu)
                    checked += 1
    report(7, time.monotonic() - start, 120, f"{checked} exact optima within the bound")


def test_criterion_8_frobenius_and_dls_suites():
    start = time.monotonic()
    pairs = 0
    for u in range(1, 11):
        for v in range(1, 11):
            if math.gcd(u, v) != 1:
                continue
            pairs += 1
            threshold = (u - 1) * (v - 1)
            for target in range(threshold, threshold + 3 * u * v + 1):
                x, y = frobenius_decompose(target, u, v)
                assert x * u + y * v == target and x >= 0 and y >= 0
            gap = u * v - u - v
            with pytest.raises(NoRepresentation):
                frobenius_decompose(gap, u, v)
    for order in range(3, 13):
        square = generate_dls(order)
        symbols = set(range(order))
        for row in square.cells:
            assert set(row) == symbols
        for j in range(order):
            assert {square.cells[i][j] for i in range(order)} == symbols
        assert {square.cells[i][i] for i in range(order)} == symbols
    with pytest.raises(NoSuchDesign):
        generate_dls(2)
    report(8, time.monotonic() - start, 10, f"{pairs} coprime pairs, orders 3..12")


def test_criterion_9_colouring_chain():
    start = time.monotonic()
    budget = OracleBudget(max_vertices=9, max_edges=500_000, time_limit=300.0)
    checked = 0
    infeasible_confirmed = 0
    for n in range(1, 10):
        for q in range(1, 10):
            if n * q > 9:
                continue
            for r in range(2, n * q + 1):
                for parts in partitions(r):
                    spec = make_spec(n, q, parts)
                    for a in range(2, r + 1):
                        for b in range(a, r + 1):
                            chi, chi_bar = bf_colouring_spectrum(spec, a, b, budget)
                            bounds = colouring_bounds(spec, a, b)
                            if chi is not None:
                                assert (
                                    bounds.chi_lower <= chi <= chi_bar <= bounds.alpha_beta_ind
                                ), (spec, a, b, chi, chi_bar, bounds)
                            if not bounds.feasible:
                                assert chi is None, (spec, a, b)
                                infeasible_confirmed += 1
                            checked += 1
    assert infeasible_confirmed > 0
    report(
        9,
        time.monotonic() - start,
        120,
        f"{checked} (spec, alpha, beta) chains, {infeasible_confirmed} infeasibilities confirmed",
    )
