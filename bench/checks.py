"""Checks on the program's outputs that do not use the program.

Everything here works on plain integers, tuples and the documented JSON
forms, and imports nothing from ``sigmahg``: a fault in a fast path cannot
hide itself by also breaking the check.  Each checker returns a list of
error strings; an empty list means the output passed.

The paper quantities (the r-good constant L, the regime gates and their
unmatched bounds, the closed-form independence number) are recomputed here
from their definitions.
"""

from __future__ import annotations

import itertools
import math


def _sizes_ok(n: int, q: int, sigma: tuple[int, ...]) -> bool:
    """True iff the hypergraph has an edge: s classes, each tall enough."""
    return n >= len(sigma) and q >= max(sigma)


def check_matching_json(n: int, q: int, sigma, obj) -> list[str]:
    """Validate a matching in its JSON form against H(n, q | sigma).

    Every edge has distinct classes in 1..n, rows in 1..q, part sizes that
    sort to sigma; no vertex is used twice; the unmatched list is exactly
    the complement of the matched vertices.
    """
    want = tuple(sorted(sigma, reverse=True))
    errors: list[str] = []
    used: set[tuple[int, int]] = set()
    try:
        edges = obj["edges"]
        unmatched = obj["unmatched"]
    except (KeyError, TypeError):
        return ["matching object lacks 'edges' or 'unmatched'"]
    for idx, edge in enumerate(edges):
        classes = [part["class"] for part in edge]
        if len(set(classes)) != len(classes):
            errors.append(f"edge {idx} repeats a class: {classes}")
        sizes = tuple(sorted((len(part["rows"]) for part in edge), reverse=True))
        if sizes != want:
            errors.append(f"edge {idx} part sizes {sizes} are not sigma {want}")
        for part in edge:
            c = part["class"]
            if not 1 <= c <= n:
                errors.append(f"edge {idx} class {c} outside 1..{n}")
            rows = part["rows"]
            if len(set(rows)) != len(rows):
                errors.append(f"edge {idx} repeats a row in class {c}")
            for row in rows:
                if not 1 <= row <= q:
                    errors.append(f"edge {idx} row {row} outside 1..{q}")
                if (c, row) in used:
                    errors.append(f"vertex ({c}, {row}) is in two edges")
                used.add((c, row))
    listed = [(v["class"], v["row"]) for v in unmatched]
    listed_set = set(listed)
    if len(listed_set) != len(listed):
        errors.append("unmatched list repeats a vertex")
    complement = {(c, row) for c in range(1, n + 1) for row in range(1, q + 1)} - used
    if listed_set != complement:
        extra = sorted(listed_set - complement)
        missing = sorted(complement - listed_set)
        errors.append(
            f"unmatched list is not the complement: {len(extra)} extra "
            f"(first {extra[:1]}), {len(missing)} missing (first {missing[:1]})"
        )
    return errors


def overlap(sigma, profile) -> int:
    """Largest overlap of an edge with the top-rows set of ``profile``:
    sum of min(a_i, b_(i)) with sigma and the profile both sorted
    decreasingly (the i-th largest part goes to the i-th fullest class)."""
    parts = sorted(sigma, reverse=True)
    counts = sorted(profile, reverse=True)
    return sum(min(a, b) for a, b in zip(parts, counts))


def check_alpha_witness(n: int, q: int, sigma, k: int, value: int, profile) -> list[str]:
    """A witness for alpha_k: length n, entries in 0..q, summing to the
    value, meeting every edge in at most k vertices."""
    errors = []
    if len(profile) != n:
        errors.append(f"witness has length {len(profile)}, want n={n}")
    if any(not 0 <= b <= q for b in profile):
        errors.append(f"witness entry outside 0..{q}: {list(profile)}")
    if sum(profile) != value:
        errors.append(f"witness sums to {sum(profile)}, alpha_{k} = {value}")
    if _sizes_ok(n, q, sigma) and overlap(sigma, profile) > k:
        errors.append(f"witness meets an edge in {overlap(sigma, profile)} > k={k} vertices")
    return errors


def alpha_closed(n: int, q: int, sigma) -> int:
    """Independence number (alpha_{r-1}) by the paper's closed form:
    max over j of (j-1)q + (a_j - 1)(n - j + 1); n*q without edges."""
    parts = sorted(sigma, reverse=True)
    if not _sizes_ok(n, q, parts):
        return n * q
    return max((j - 1) * q + (a - 1) * (n - j + 1) for j, a in enumerate(parts, start=1))


def implied_colouring_bounds(n: int, q: int, a_param: int, alpha_beta: int, alpha_ind: int):
    """(chi_lower, feasible) for colourings in which every edge shows at
    least a_param colours: chi_lower = ceil((a_param - 1) nq / alpha_ind)
    and feasible iff (a_param - 1) nq <= alpha_ind * alpha_beta, both 1 and
    True when a_param = 1.  For specs with edges."""
    nq = n * q
    if a_param == 1:
        return 1, True
    return math.ceil((a_param - 1) * nq / alpha_ind), (a_param - 1) * nq <= alpha_ind * alpha_beta


def r_good_l(sigma) -> int | None:
    """L = min lcm(a, r - a) over proper part subsets whose sum a is
    coprime to r; None when sigma is not r-good."""
    parts = sorted(sigma, reverse=True)
    r = sum(parts)
    best = None
    for size in range(1, len(parts)):
        for combo in itertools.combinations(parts, size):
            a = sum(combo)
            if math.gcd(a, r) == 1:
                value = math.lcm(a, r - a)
                best = value if best is None else min(best, value)
    return best


def _representable(target: int, u: int, v: int) -> bool:
    return any((target - x * u) % v == 0 for x in range(target // u + 1))


def regime_bound(n: int, q: int, sigma) -> tuple[str, int] | None:
    """The smallest unmatched count the paper guarantees for this spec,
    with the regime that gives it, or None when no regime covers it.

    Perfect when r | q (diagonal bands) or, for r-good sigma, r | n and
    q = xL + yr; nq mod r for all-ones sigma with n >= (r+1)^2 and q >= r;
    (r-1)^2 in the strongest r-good regime; L(r-1)^2 in the weaker one.
    """
    parts = tuple(sorted(sigma, reverse=True))
    r, s = sum(parts), len(parts)
    if not _sizes_ok(n, q, parts):
        return None
    found: list[tuple[int, str]] = []
    if q % r == 0:
        found.append((0, "diagonal"))
    if parts[0] == 1 and n >= (r + 1) ** 2 and q >= r:
        found.append(((n * q) % r, "all-ones"))
    L = r_good_l(parts) if s >= 2 else None
    if L is not None:
        if n % r == 0 and _representable(q, L, r):
            found.append((0, "rgood-1b"))
        wide = n >= s + r if s >= 3 else n >= r + 2
        if wide and q >= L * (r * r - 1):
            found.append(((r - 1) ** 2, "rgood-3"))
        if q >= L * (r - 1):
            found.append((L * (r - 1) ** 2, "rgood-2"))
    if not found:
        return None
    bound, name = min(found)
    return name, bound


def check_match_result(
    n: int, q: int, sigma, nu: int, unmatched_count: int, matching_obj=None
) -> list[str]:
    """Invariants every reported matching must meet; ``matching_obj`` (the
    JSON form) is validated too when given."""
    parts = tuple(sorted(sigma, reverse=True))
    r, s = sum(parts), len(parts)
    d = math.gcd(*parts)
    nq = n * q
    errors = []
    if matching_obj is not None:
        errors += check_matching_json(n, q, parts, matching_obj)
        if len(matching_obj["edges"]) != nu:
            errors.append(f"nu={nu} but the matching has {len(matching_obj['edges'])} edges")
        if len(matching_obj["unmatched"]) != unmatched_count:
            errors.append(
                f"unmatched_count={unmatched_count} but {len(matching_obj['unmatched'])} listed"
            )
    if nu * r + unmatched_count != nq:
        errors.append(f"nu*r + unmatched = {nu * r + unmatched_count} != nq = {nq}")
    if nu > nq // r:
        errors.append(f"nu={nu} exceeds floor(nq/r) = {nq // r}")
    if q % r == 0 and n >= s and nu != nq // r:
        errors.append(f"r | q and n >= s but nu={nu} is not nq/r = {nq // r}")
    if unmatched_count < n * (q % d):
        errors.append(f"unmatched={unmatched_count} below the gcd bound {n * (q % d)}")
    regime = regime_bound(n, q, parts)
    if regime is not None and unmatched_count > regime[1]:
        errors.append(
            f"unmatched={unmatched_count} exceeds the {regime[0]} bound {regime[1]}"
        )
    return errors


def check_edge_json(n: int, q: int, sigma, edge) -> list[str]:
    """One edge in JSON form: distinct classes in range, rows in range,
    part sizes sorting to sigma."""
    return check_matching_json(
        n, q, sigma, {"edges": [edge], "unmatched": _complement(n, q, edge)}
    )


def _complement(n: int, q: int, edge) -> list[dict]:
    used = {(part["class"], row) for part in edge for row in part["rows"]}
    return [
        {"class": c, "row": row}
        for c in range(1, n + 1)
        for row in range(1, q + 1)
        if (c, row) not in used
    ]
