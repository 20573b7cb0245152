"""Brute-force reference implementations, used only for verification.

Nothing here calls into the fast paths of the independence or matching
modules; these functions exist to be obviously correct, and they abort
loudly (BudgetExceeded) rather than ever truncating a search.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .core import (
    HypergraphSpec,
    Sigma,
    SigmaHypergraphError,
    ValidationError,
    VertexSet,
    count_edges,
    edge_shapes,
    enumerate_edges,
)

if TYPE_CHECKING:
    import numpy as np  # imported where the colouring oracle runs


class BudgetExceeded(SigmaHypergraphError):
    """The search would exceed the caller's budget; no partial answer."""


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 32
    max_edges: int = 200_000
    time_limit: float = 60.0  # seconds

    def __post_init__(self) -> None:
        if self.max_vertices < 1 or self.max_edges < 1 or self.time_limit <= 0:
            raise ValidationError("budget limits must be positive")


DEFAULT_BUDGET = OracleBudget()


class _Deadline:
    def __init__(self, seconds: float) -> None:
        self.expires = time.monotonic() + seconds

    def check(self, what: str) -> None:
        if time.monotonic() > self.expires:
            raise BudgetExceeded(f"{what} exceeded the time budget")


def _check_vertices(spec: HypergraphSpec, budget: OracleBudget, what: str) -> None:
    if spec.num_vertices > budget.max_vertices:
        raise BudgetExceeded(
            f"{what}: {spec.num_vertices} vertices exceeds budget {budget.max_vertices}"
        )


def _monotone_profiles(n: int, q: int):
    """All weakly decreasing tuples in [0..q]^n."""

    def rec(i: int, upper: int, prefix: list[int]):
        if i == n:
            yield tuple(prefix)
            return
        for v in range(upper, -1, -1):
            prefix.append(v)
            yield from rec(i + 1, v, prefix)
            prefix.pop()

    yield from rec(0, q, [])


@lru_cache(maxsize=256)
def _profile_overlap_table(
    n: int, q: int, parts: tuple[int, ...], time_limit: float
) -> tuple[tuple[int, int], ...]:
    """For every monotone profile: (sum, max overlap over all part placements).

    A placement assigns each part to a distinct class; the overlap of the
    corresponding edge with the top-rows realisation of the profile is the
    sum of min(part, profile entry).  Equal parts are interchangeable, so
    each distinct placement (each edge shape) is tried once - no
    rearrangement shortcut - so this stays independent of the fast path.
    """
    deadline = _Deadline(time_limit)
    shapes = [tuple(zip(cs, sizes)) for cs, sizes in edge_shapes(HypergraphSpec(n, q, Sigma(parts)))]
    table = []
    for profile in _monotone_profiles(n, q):
        deadline.check("bf_alpha_k")
        worst = max(sum(min(a, profile[c - 1]) for c, a in shape) for shape in shapes)
        table.append((sum(profile), worst))
    return tuple(table)


def bf_alpha_k(
    spec: HypergraphSpec, k: int, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Exact alpha_k by exhausting monotone class profiles.

    Classes are interchangeable, so the best k-independent set may be
    assumed to take the top b_i rows of class i with b monotone; every
    distinct placement of the parts is checked against every profile.  The
    number of distinct placements, n!/(n-s)!/prod(mult(v)!), is checked
    against ``budget.max_edges`` before any is built.
    """
    if not 1 <= k <= spec.r - 1:
        raise ValidationError(f"k must satisfy 1 <= k <= r-1 = {spec.r - 1}, got {k}")
    if not spec.has_edges:
        return spec.num_vertices
    _check_vertices(spec, budget, "bf_alpha_k")
    placements = math.perm(spec.n, spec.sigma.s)
    for mult in Counter(spec.sigma.parts).values():
        placements //= math.factorial(mult)
    if placements > budget.max_edges:
        raise BudgetExceeded(
            f"bf_alpha_k: {placements} distinct part placements exceeds budget {budget.max_edges}"
        )
    table = _profile_overlap_table(spec.n, spec.q, spec.sigma.parts, budget.time_limit)
    return max(total for total, worst in table if worst <= k)


def bf_max_matching(
    spec: HypergraphSpec, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Exact maximum matching size by exhaustive search over class loads.

    Rows within a class are interchangeable, so a family of edges can be
    packed iff the per-class totals of their part placements fit within q;
    the search therefore recurses over the sorted vector of remaining
    class capacities, trying every distinct placement of sigma, and
    memoises states.  Exhaustive, just without re-deriving row identities.
    """
    if not spec.has_edges:
        return 0
    _check_vertices(spec, budget, "bf_max_matching")
    deadline = _Deadline(budget.time_limit)
    parts = spec.sigma.parts
    distinct = sorted(set(parts), reverse=True)
    multiplicity = {v: parts.count(v) for v in distinct}
    n = spec.n

    def placements(state: tuple[int, ...]):
        """Distinct next states after removing one edge's worth of rows."""
        results: set[tuple[int, ...]] = set()

        def assign(size_idx: int, loads: list[int], used: frozenset[int]) -> None:
            if size_idx == len(distinct):
                results.add(tuple(sorted(loads, reverse=True)))
                return
            size = distinct[size_idx]
            free = [i for i in range(n) if i not in used and loads[i] >= size]
            for combo in itertools.combinations(free, multiplicity[size]):
                for i in combo:
                    loads[i] -= size
                assign(size_idx + 1, loads, used | frozenset(combo))
                for i in combo:
                    loads[i] += size

        assign(0, list(state), frozenset())
        return results

    memo: dict[tuple[int, ...], int] = {}

    def best(state: tuple[int, ...]) -> int:
        cached = memo.get(state)
        if cached is not None:
            return cached
        deadline.check("bf_max_matching")
        value = 0
        for nxt in sorted(placements(state), reverse=True):
            value = max(value, 1 + best(nxt))
        memo[state] = value
        return value

    return best((spec.q,) * n)


def _bb_max_matching_edges(spec: HypergraphSpec, max_edges: int = 2000) -> int:
    """Literal branch-and-bound over the explicit edge stream.

    Only usable on tiny instances; kept as an independent cross-check for
    bf_max_matching.
    """
    if not spec.has_edges:
        return 0
    if count_edges(spec) > max_edges:
        raise BudgetExceeded("edge stream too large for the literal search")
    nq = spec.num_vertices
    q = spec.q
    masks = []
    for edge in enumerate_edges(spec):
        mask = 0
        for v in edge.vertices():
            mask |= 1 << ((v.class_index - 1) * q + (v.row_index - 1))
        masks.append(mask)
    r = spec.r
    best = 0

    def rec(i: int, used: int, count: int, covered: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + (nq - covered) // r <= best:
            return
        for j in range(i, len(masks)):
            m = masks[j]
            if m & used:
                continue
            rec(j + 1, used | m, count + 1, covered + r)

    rec(0, 0, 0, 0)
    return best


def _bell(m: int) -> int:
    """Number of set partitions of an m-set, by the Bell triangle."""
    row = [1]
    for _ in range(m - 1):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[-1]


@lru_cache(maxsize=8)
def _set_partitions(m: int) -> np.ndarray:
    """All set partitions of {0..m-1} as restricted-growth strings."""
    import numpy as np

    rows: list[list[int]] = []

    def rec(i: int, top: int, rgs: list[int]) -> None:
        if i == m:
            rows.append(list(rgs))
            return
        for c in range(top + 2):
            rgs.append(c)
            rec(i + 1, max(top, c), rgs)
            rgs.pop()

    rec(0, -1, [])
    return np.array(rows, dtype=np.int8)


@lru_cache(maxsize=64)
def _colouring_summary(
    n: int, q: int, parts: tuple[int, ...], time_limit: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per set partition of the vertices: (#blocks, min and max number of
    distinct colours seen on any edge)."""
    import numpy as np

    deadline = _Deadline(time_limit)
    rgs = _set_partitions(n * q)
    blocks = rgs.max(axis=1).astype(np.int16) + 1
    lo = np.full(len(rgs), np.iinfo(np.int16).max, dtype=np.int16)
    hi = np.zeros(len(rgs), dtype=np.int16)
    for classes, sizes in edge_shapes(HypergraphSpec(n, q, Sigma(parts))):
        ids = [itertools.combinations(range((c - 1) * q, c * q), a) for c, a in zip(classes, sizes)]
        for cells in itertools.product(*ids):
            deadline.check("bf_colouring_spectrum")
            cols = np.sort(rgs[:, list(itertools.chain(*cells))], axis=1)
            distinct = 1 + (np.diff(cols, axis=1) != 0).sum(axis=1).astype(np.int16)
            np.minimum(lo, distinct, out=lo)
            np.maximum(hi, distinct, out=hi)
    return blocks, lo, hi


def bf_colouring_spectrum(
    spec: HypergraphSpec,
    alpha_param: int,
    beta_param: int,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[int | None, int | None]:
    """Least and greatest usable colour counts by exhausting colourings.

    Colourings that use exactly t colours correspond to set partitions
    into t blocks, so the scan runs over all set partitions of the vertex
    set and checks that every edge shows between alpha_param and
    beta_param distinct colours.  Returns (None, None) when no colouring
    exists.  Intended for at most ~9 vertices; the number of set
    partitions, Bell(nq), is checked against ``budget.max_edges`` before
    any is built.
    """
    r = spec.r
    if not 1 <= alpha_param <= beta_param <= r:
        raise ValidationError(
            f"need 1 <= alpha <= beta <= r={r}, got ({alpha_param}, {beta_param})"
        )
    _check_vertices(spec, budget, "bf_colouring_spectrum")
    if not spec.has_edges:
        return 1, spec.num_vertices
    partitions = _bell(spec.num_vertices)
    if partitions > budget.max_edges:
        raise BudgetExceeded(
            f"bf_colouring_spectrum: {partitions} set partitions of {spec.num_vertices} "
            f"vertices exceeds budget {budget.max_edges}"
        )
    blocks, lo, hi = _colouring_summary(
        spec.n, spec.q, spec.sigma.parts, budget.time_limit
    )
    valid = (lo >= alpha_param) & (hi <= beta_param)
    if not valid.any():
        return None, None
    return int(blocks[valid].min()), int(blocks[valid].max())


def bf_max_intersection(
    spec: HypergraphSpec, b_set: VertexSet, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Exact maximum overlap of any edge with ``b_set``, by scoring every
    edge in the stream as the sum of its parts' overlaps |rows & B_c|,
    counted once per (class, size) over that class's row subsets."""
    total = count_edges(spec)
    if total > budget.max_edges:
        raise BudgetExceeded(f"{total} edges exceeds budget {budget.max_edges}")
    if not total:
        return 0
    deadline = _Deadline(budget.time_limit)
    members, rows = b_set.members, range(1, spec.q + 1)
    hits = {  # (class, size) -> |rows & B_c| per row subset, in edge-stream order
        (c, a): [sum((c, row) in members for row in rs) for rs in itertools.combinations(rows, a)]
        for c in range(1, spec.n + 1)
        for a in set(spec.sigma.parts)
    }
    scores = itertools.chain.from_iterable(
        itertools.product(*(hits[c, a] for c, a in zip(classes, sizes)))
        for classes, sizes in edge_shapes(spec)
    )
    best = 0
    for i, overlap in enumerate(map(sum, scores)):
        if i % 4096 == 0:
            deadline.check("bf_max_intersection")
        if overlap > best:
            best = overlap
    return best
