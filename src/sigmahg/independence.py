"""k-independence numbers and constrained-colouring bounds.

The size of a largest set meeting every edge in at most k vertices is
computed exactly from the class profile alone, by a dynamic program over
the maximal monotone profiles whose capped overlap with sigma equals k.
The closed-form independence number and the colouring feasibility bounds
derive from the same machinery.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .core import (
    Edge,
    HypergraphSpec,
    NoEdges,
    Sigma,
    ValidationError,
    VertexSet,
)


class FeasibleSequence(NamedTuple):
    """A monotone class profile (b_1 >= ... >= b_s) with capped overlap k.

    Stored truncated to s entries; entries beyond position s implicitly
    repeat b_s.  ``t`` is the 1-based first position where the profile
    drops below the corresponding part of sigma; it always exists in
    [1..s] because the full overlap would otherwise be r > k.
    """

    b: tuple[int, ...]
    k: int
    t: int

    def full(self, n: int) -> tuple[int, ...]:
        """The length-n profile with the constant tail made explicit."""
        return self.b + (self.b[-1],) * (n - len(self.b))


def _check_k(k: int, r: int) -> None:
    if not 1 <= k <= r - 1:
        raise ValidationError(f"k must satisfy 1 <= k <= r-1 = {r - 1}, got {k}")


def _entries(a: int, prev: int, left: int) -> list[int]:
    """The values, largest first, that the entry facing part ``a`` of a
    maximal profile can take after ``prev`` (q for the first entry), with
    ``left`` overlap to spend: it repeats ``prev`` or drops below ``a``.
    Any other value lies at or above ``a`` and below ``prev``, so raising
    it keeps the overlap: the profile would be dominated.
    """
    top = [prev] if min(a, prev) <= left else []
    return top + list(range(min(a - 1, prev - 1, left), -1, -1))


def enumerate_maximal_feasible(q: int, k: int, sigma: Sigma) -> list[FeasibleSequence]:
    """All dominance-maximal feasible profiles for (q, k, sigma).

    Never empty for valid inputs.  Output is sorted lexicographically
    descending, so equal inputs give identical lists.
    """
    _check_k(k, sigma.r)
    parts = sigma.parts
    if q < parts[0]:
        raise ValidationError(f"need q >= largest part {parts[0]}, got q={q}")
    found = []
    stack = [((), q, k)]  # (entries so far, the last one, overlap left)
    while stack:
        head, prev, left = stack.pop()
        if len(head) == len(parts):
            if left == 0:
                t = next(i for i, (b, a) in enumerate(zip(head, parts), 1) if b < a)
                found.append(FeasibleSequence(head, k, t))
            continue
        a = parts[len(head)]
        stack += [(head + (b,), b, left - min(a, b)) for b in _entries(a, prev, left)]
    return sorted(found, reverse=True)


@lru_cache(maxsize=4096)
def _best_heads(q: int, k: int, parts: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """For each last entry, the maximal profile of overlap k with the
    largest (sum, profile), as (sum, s-entry head) pairs.

    A forward pass over the parts whose states are (last entry, overlap
    spent); the future of a state depends on nothing else, so keeping its
    best (sum, head) is exact.  Entries after the drop are at most k, so
    a layer has O(k^2) states whatever n, q and a_1 are.
    """
    layer = {(q, 0): (0, ())}
    for a in parts:
        nxt: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        for (prev, spent), (total, head) in layer.items():
            for b in _entries(a, prev, k - spent):
                key, cand = (b, spent + (b if b < a else a)), (total + b, head + (b,))
                if cand > nxt.get(key, (-1,)):
                    nxt[key] = cand
        layer = nxt
    return tuple(best for (_, spent), best in layer.items() if spent == k)


def _best(spec: HypergraphSpec, k: int) -> tuple[int, tuple[int, ...]]:
    """alpha_k and the head of a witness profile whose last entry repeats to
    position n.  A profile's witness size is the sum of its n entries; ties
    go to the lexicographically largest profile."""
    _check_k(k, spec.r)
    if not spec.has_edges:
        return spec.num_vertices, (spec.q,)
    tail = spec.n - spec.sigma.s
    heads = _best_heads(spec.q, k, spec.sigma.parts)
    return max((total + tail * head[-1], head) for total, head in heads)


def alpha_k(spec: HypergraphSpec, k: int) -> int:
    """Largest size of a set meeting every edge in at most k vertices."""
    return _best(spec, k)[0]


def alpha_k_witness(spec: HypergraphSpec, k: int) -> tuple[int, tuple[int, ...]]:
    """alpha_k together with a witness profile of length n."""
    value, head = _best(spec, k)
    return value, head + (head[-1],) * (spec.n - len(head))


def alpha(spec: HypergraphSpec) -> tuple[int, int]:
    """Closed-form independence number and the maximising index j.

    For each j in 1..s the candidate fills j-1 classes completely and puts
    a_j - 1 vertices in every remaining class; the best j wins.  Degenerate
    specs without edges return (n*q, 0).
    """
    if not spec.has_edges:
        return spec.num_vertices, 0
    n, q = spec.n, spec.q
    best_value, best_j = -1, 0
    for j, a_j in enumerate(spec.sigma.parts, start=1):
        value = (j - 1) * q + (a_j - 1) * (n - j + 1)
        if value > best_value:
            best_value, best_j = value, j
    return best_value, best_j


class ColouringBounds(NamedTuple):
    """Feasibility data for colourings where every edge must show between
    alpha_param and beta_param distinct colours."""

    alpha_param: int
    beta_param: int
    alpha_beta_ind: int  # largest beta-independent set
    alpha_ind: int  # largest independent set
    chi_lower: int  # lower bound on the least usable colour count
    feasible: bool  # necessary condition for any such colouring


def colouring_bounds(
    spec: HypergraphSpec, alpha_param: int, beta_param: int
) -> ColouringBounds:
    """Bounds linking constrained colourings to independence numbers.

    A colouring with more than alpha_beta_ind colours would force some edge
    to show more than beta_param colours; a counting argument over colour
    classes gives the chi lower bound and the feasibility inequality.
    """
    r = spec.r
    if not 1 <= alpha_param <= beta_param <= r:
        raise ValidationError(
            f"need 1 <= alpha <= beta <= r={r}, got ({alpha_param}, {beta_param})"
        )
    nq = spec.num_vertices
    ab = alpha_k(spec, beta_param) if beta_param <= r - 1 else nq
    a_ind = alpha(spec)[0]
    if alpha_param == 1 or not spec.has_edges:
        # With no edge to constrain it, a single colour always works; the
        # counting argument below needs a non-vacuous edge constraint.
        chi_lower = 1
        feasible = True
    else:
        chi_lower = math.ceil((alpha_param - 1) * nq / a_ind)
        feasible = (alpha_param - 1) * nq <= a_ind * ab
    return ColouringBounds(alpha_param, beta_param, ab, a_ind, chi_lower, feasible)


def max_intersection_edge(spec: HypergraphSpec, b_set: VertexSet) -> tuple[Edge, int]:
    """An edge with the largest possible overlap with ``b_set``.

    Sort classes by descending membership count and place the i-th largest
    part in the i-th heaviest class, taking members first and padding with
    non-members; no edge can do better, because swapping any two parts (or
    moving one to a lighter class) never increases the overlap.
    """
    if not spec.has_edges:
        raise NoEdges(f"{spec} has no edges")
    profile = b_set.profile(spec.n)
    for v in b_set.members:
        if not 1 <= v.row_index <= spec.q:
            raise ValidationError(f"vertex {tuple(v)} outside the grid")
    order = sorted(range(1, spec.n + 1), key=lambda c: (-profile[c - 1], c))
    parts = []
    overlap = 0
    for a_i, class_index in zip(spec.sigma.parts, order):
        in_b = sorted(r for c, r in b_set.members if c == class_index)
        out_b = sorted(set(range(1, spec.q + 1)) - set(in_b))
        take = min(a_i, len(in_b))
        rows = in_b[:take] + out_b[: a_i - take]
        overlap += take
        parts.append((class_index, frozenset(rows)))
    return Edge(tuple(parts)), overlap


def is_k_independent(spec: HypergraphSpec, b_set: VertexSet, k: int) -> bool:
    """True iff every edge meets ``b_set`` in at most k vertices."""
    _check_k(k, spec.r)
    if not spec.has_edges:
        return True
    _, overlap = max_intersection_edge(spec, b_set)
    return overlap <= k
