"""Brute-force reference implementations, used only for verification.

Nothing here calls into the fast paths of the independence or matching
modules; these functions exist to be obviously correct, and they abort
loudly (BudgetExceeded) rather than ever truncating a search.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache, reduce
from operator import add, itemgetter, or_
from typing import NamedTuple

from .core import (
    BudgetExceeded,
    HypergraphSpec,
    Sigma,
    ValidationError,
    VertexSet,
    _Checked,
    _check_colour_range,
    _check_k,
    count_edges,
    count_placements,
    edge_shapes,
)


class _OracleBudgetFields(NamedTuple):
    max_vertices: int = 32
    max_edges: int = 200_000
    time_limit: float = 60.0  # seconds


class OracleBudget(_Checked, _OracleBudgetFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "OracleBudget":
        self = super().__new__(cls, *args, **kwargs)
        if self.max_vertices < 1 or self.max_edges < 1 or self.time_limit <= 0:
            raise ValidationError("budget limits must be positive")
        return self


DEFAULT_BUDGET = OracleBudget()


class _Deadline:
    def __init__(self, seconds: float) -> None:
        self.expires = time.monotonic() + seconds

    def check(self, what: str) -> None:
        if time.monotonic() > self.expires:
            raise BudgetExceeded(f"{what} exceeded the time budget")


def _check(what: str, count: int, noun: str, limit: int) -> None:
    if count > limit:
        raise BudgetExceeded(f"{what}: {count} {noun} exceeds budget {limit}")


def _check_vertices(spec: HypergraphSpec, budget: OracleBudget, what: str) -> None:
    _check(what, spec.num_vertices, "vertices", budget.max_vertices)


def _check_search(spec: HypergraphSpec, budget: OracleBudget, what: str) -> None:
    """The budget of a search over part placements: the vertices, then the
    distinct placements, n!/(n-s)!/prod(mult(v)!), before any is built."""
    _check_vertices(spec, budget, what)
    _check(what, count_placements(spec), "distinct part placements", budget.max_edges)


def check_edges(spec: HypergraphSpec, budget: OracleBudget, what: str) -> None:
    """The budget of an edge stream, checked before the stream or anything
    it is scored against is built."""
    _check(what, count_edges(spec), "edges", budget.max_edges)


def _monotone_profiles(n: int, q: int):
    """All weakly decreasing tuples in [0..q]^n, lexicographically from the top."""
    return itertools.combinations_with_replacement(range(q, -1, -1), n)


_PROFILE_BLOCK = 4096  # profiles scored together; one block and its columns are held at a time


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

    Profiles are taken in order, ``_PROFILE_BLOCK`` at a time.  A block
    gets one column per (class c, part size a), min(a, b_c) for each of
    its profiles b; each placement adds its parts' columns element by
    element and folds the sums into the block's running worst.  The time
    limit is checked before a block's first placement and after each one.
    """
    deadline = _Deadline(time_limit)
    shapes = [tuple(zip(cs, sizes)) for cs, sizes in edge_shapes(HypergraphSpec(n, q, Sigma(parts)))]
    profiles = _monotone_profiles(n, q)
    table: list[tuple[int, int]] = []
    while block := list(itertools.islice(profiles, _PROFILE_BLOCK)):
        entries = list(zip(*block))  # entries[c - 1]: b_c of every profile in the block
        columns = {
            (c, a): [b if b < a else a for b in entries[c - 1]]
            for c in range(1, n + 1)
            for a in set(parts)
        }
        worst = [0] * len(block)
        deadline.check("bf_alpha_k")
        for shape in shapes:
            overlap = columns[shape[0]]
            for cell in shape[1:]:
                overlap = map(add, overlap, columns[cell])
            worst = list(map(max, worst, overlap))
            deadline.check("bf_alpha_k")
        table += zip(map(sum, block), worst)
    return tuple(table)


def bf_alpha_k(
    spec: HypergraphSpec, k: int, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Exact alpha_k by exhausting monotone class profiles.

    Classes are interchangeable, so the best k-independent set may be
    assumed to take the top b_i rows of class i with b monotone; every
    distinct placement of the parts is checked against every profile, once
    :func:`_check_search` admits them.
    """
    _check_k(k, spec.r)
    if not spec.has_edges:
        return spec.num_vertices
    _check_search(spec, budget, "bf_alpha_k")
    table = _profile_overlap_table(spec.n, spec.q, spec.sigma.parts, budget.time_limit)
    return max(total for total, worst in table if worst <= k)


def bf_max_matching(
    spec: HypergraphSpec, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Exact maximum matching size by exhaustive search over class loads.

    Rows within a class are interchangeable, so a family of edges can be
    packed iff the per-class totals of their part placements fit within q;
    the search therefore recurses over the sorted vector of remaining
    class capacities, streams the ``edge_shapes`` of its prefix that can
    still host a part, checking the time limit every 4096, and memoises
    states.  Exhaustive, just without re-deriving row identities.  The first
    state's placements, the most of any, are checked by :func:`_check_search`.
    """
    if not spec.has_edges:
        return 0
    _check_search(spec, budget, "bf_max_matching")
    deadline = _Deadline(budget.time_limit)
    q, sigma, smallest = spec.q, spec.sigma, spec.sigma.parts[-1]
    memo: dict[tuple[int, ...], int] = {}

    def best(state: tuple[int, ...]) -> int:
        if state in memo:
            return memo[state]
        usable = sum(load >= smallest for load in state)
        nexts = set()
        shapes = edge_shapes(HypergraphSpec(usable, q, sigma)) if usable else ()
        for i, (classes, sizes) in enumerate(shapes):
            if i % 4096 == 0:
                deadline.check("bf_max_matching")
            loads = list(state)
            for c, a in zip(classes, sizes):
                loads[c - 1] -= a
            if min(loads) >= 0:
                nexts.add(tuple(sorted(loads, reverse=True)))
        memo[state] = max(map(best, nexts), default=-1) + 1
        return memo[state]

    return best((q,) * spec.n)


def _bell(m: int) -> int:
    """Number of set partitions of an m-set, by the Bell triangle."""
    row = [1]
    for _ in range(m - 1):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[-1]


@lru_cache(maxsize=16)
def _count_matrices(n: int, q: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Colour x class count matrices (tuples of columns) with column sums q
    and rows and columns both lexicographically non-increasing: one or more
    per colouring up to permuting rows in a class, classes and colours, as
    every matrix has such an order (Lubiw 1987).  Each new row (colour) is at
    most the last, non-increasing where columns tie, positive in the first
    unfilled column."""
    found = []

    def rows(rem, prev, ties, first, row):
        j = len(row)
        if j == n:
            yield row
            return
        top = min(rem[j], prev[j] if prev else q, row[-1] if j and ties[j - 1] else q)
        for v in range(top, (j == first) - 1, -1):  # prev is () once the row is below it
            yield from rows(rem, prev if prev and v == prev[j] else (), ties, first, row + (v,))

    def extend(matrix, rem, ties):
        if not any(rem):
            found.append(tuple(zip(*matrix)))
            return
        first = next(j for j, left in enumerate(rem) if left)
        for row in rows(rem, matrix[-1] if matrix else (), ties, first, ()):
            ties_after = tuple(t and a == b for t, a, b in zip(ties, row, row[1:]))
            extend(matrix + [row], tuple(a - b for a, b in zip(rem, row)), ties_after)

    extend([], (q,) * n, (True,) * (n - 1))
    return tuple(found)


def _shown_colour_sets(column: tuple[int, ...], a: int) -> tuple[int, ...]:
    """Bitmasks of the colour sets S an a-subset of this class shows: |S| <= a <= count(S)."""
    present = [i for i, count in enumerate(column) if count]
    return tuple(
        sum(1 << i for i in colours)
        for m in range(1, a + 1)
        for colours in itertools.combinations(present, m)
        if sum(column[i] for i in colours) >= a
    )


def _spread(lists: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """Least and most colours in a union of one colour set from each list."""
    shown = {reduce(or_, sets).bit_count() for sets in itertools.product(*lists)}
    return min(shown), max(shown)


@lru_cache(maxsize=128)
def _colouring_triples(n: int, q: int, parts: tuple[int, ...], time_limit: float) -> frozenset:
    """(colours used, least and most colours on an edge) per count matrix: an edge shows
    the union of its parts' colour sets, scored once per distinct tuple of set lists."""
    deadline = _Deadline(time_limit)
    sizes = sorted(set(parts))
    picks = [  # a placement's set lists, from a matrix's flat list of them
        itemgetter(*[(c - 1) * len(sizes) + sizes.index(a) for c, a in zip(cs, szs)], -1)
        for cs, szs in edge_shapes(HypergraphSpec(n, q, Sigma(parts)))
    ]
    shows: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # column -> set lists by size
    spread: dict[tuple, tuple[int, int]] = {}  # a placement's set lists -> (least, most)
    triples = set()
    for matrix in _count_matrices(n, q):
        deadline.check("bf_colouring_spectrum")
        flat = []
        for column in matrix:
            if column not in shows:
                shows[column] = [_shown_colour_sets(column, a) for a in sizes]
            flat += shows[column]
        flat.append((0,))  # the empty set, so a one-part placement is picked as a tuple
        lo, hi = len(matrix[0]), 0
        for pick in picks:
            key = pick(flat)
            got = spread.get(key)
            if got is None:
                got = spread[key] = _spread(key)
            if got[0] < lo:  # not min()/max(), which build an argument tuple
                lo = got[0]
            if got[1] > hi:
                hi = got[1]
        triples.add((len(matrix[0]), lo, hi))
    return frozenset(triples)


def bf_colouring_spectrum(
    spec: HypergraphSpec,
    alpha_param: int,
    beta_param: int,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[int | None, int | None]:
    """Least and greatest usable colour counts by exhausting colourings.

    Whether every edge shows alpha_param..beta_param distinct colours, and
    how many colours are used, survive relabelling rows within a class,
    classes and colours, so count matrices, one or more per class of
    colourings, are scored (``_count_matrices``).  Returns (None, None)
    when no colouring exists.  Past an edgeless spec, the vertices and
    Bell(nq), the number of set partitions of them, are checked before any
    matrix is built; the time limit is checked once per matrix.
    """
    _check_colour_range(alpha_param, beta_param, spec.r)
    if not spec.has_edges:
        return 1, spec.num_vertices
    nq, what = spec.num_vertices, "bf_colouring_spectrum"
    _check_vertices(spec, budget, what)
    _check(what, _bell(nq), f"set partitions of {nq} vertices", budget.max_edges)
    triples = _colouring_triples(spec.n, spec.q, spec.sigma.parts, budget.time_limit)
    valid = [used for used, lo, hi in triples if lo >= alpha_param and hi <= beta_param]
    return (min(valid), max(valid)) if valid else (None, None)


def bf_max_intersection(
    spec: HypergraphSpec, b_set: VertexSet, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Exact maximum overlap of any edge with ``b_set``, by scoring every
    edge in the stream as the sum of its parts' overlaps |rows & B_c|,
    counted once per (class, size) over that class's row subsets."""
    check_edges(spec, budget, "bf_max_intersection")
    if not spec.has_edges:
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
