"""k-independence numbers and constrained-colouring bounds.

The size of a largest set meeting every edge in at most k vertices is
computed exactly from the class profile alone: enumerate the maximal
monotone profiles whose capped overlap with sigma equals k, then take the
best witness size.  The closed-form independence number and the colouring
feasibility bounds derive from the same machinery.
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

    def value(self, n: int, q: int) -> int:
        """Witness size: q vertices in the first t-1 classes, b_i after."""
        s = len(self.b)
        return q * (self.t - 1) + sum(self.b[self.t - 1 :]) + (n - s) * self.b[-1]


def _check_k(k: int, r: int) -> None:
    if not 1 <= k <= r - 1:
        raise ValidationError(f"k must satisfy 1 <= k <= r-1 = {r - 1}, got {k}")


@lru_cache(maxsize=4096)
def _maximal_profiles(q: int, k: int, parts: tuple[int, ...]) -> tuple[FeasibleSequence, ...]:
    s = len(parts)
    found: list[FeasibleSequence] = []

    for t in range(1, s + 1):
        prefix_overlap = sum(parts[: t - 1])
        if prefix_overlap > k:
            break
        # Position t is the first drop below sigma, so b_t <= a_t - 1; the
        # prefix is pinned to q (anything less is dominated by raising it).
        # Depth-first over positions t..s with an explicit stack; a node is
        # (0-based index i, the cap on entry i, what entries i.. must still
        # contribute to the capped overlap, the entries chosen after the
        # prefix as a linked list, newest first).
        stack = [(t - 1, min(parts[t - 1] - 1, q), k - prefix_overlap, None)]
        while stack:
            i, upper, remaining, chain = stack.pop()
            a_i = parts[i]
            for value in range(upper, -1, -1):
                # After the drop, an entry at or above its part and below its
                # predecessor can be raised without changing the overlap; the
                # first entry any dominating profile raises is such an entry.
                if i >= t and a_i <= value < upper:
                    continue
                contrib = min(a_i, value)
                if contrib > remaining:
                    continue
                if i + 1 < s:
                    stack.append((i + 1, value, remaining - contrib, (value, chain)))
                elif contrib == remaining:
                    b, link = [value], chain
                    while link is not None:
                        entry, link = link
                        b.append(entry)
                    found.append(FeasibleSequence((q,) * (t - 1) + tuple(reversed(b)), k, t))

    return tuple(sorted(found, key=lambda seq: seq.b, reverse=True))


def enumerate_maximal_feasible(q: int, k: int, sigma: Sigma) -> list[FeasibleSequence]:
    """All dominance-maximal feasible profiles for (q, k, sigma).

    Never empty for valid inputs.  Output is sorted lexicographically
    descending, so equal inputs give identical lists.
    """
    _check_k(k, sigma.r)
    if q < sigma.parts[0]:
        raise ValidationError(f"need q >= largest part {sigma.parts[0]}, got q={q}")
    return list(_maximal_profiles(q, k, sigma.parts))


def best_feasible_sequence(spec: HypergraphSpec, k: int) -> tuple[int, FeasibleSequence]:
    """The maximising sequence and its witness size (ties resolved toward the
    lexicographically largest profile)."""
    best_value = -1
    best_seq = None
    for seq in enumerate_maximal_feasible(spec.q, k, spec.sigma):
        value = seq.value(spec.n, spec.q)
        if value > best_value:
            best_value, best_seq = value, seq
    assert best_seq is not None
    return best_value, best_seq


def alpha_k(spec: HypergraphSpec, k: int) -> int:
    """Largest size of a set meeting every edge in at most k vertices."""
    _check_k(k, spec.r)
    if not spec.has_edges:
        return spec.num_vertices
    return best_feasible_sequence(spec, k)[0]


def alpha_k_witness(spec: HypergraphSpec, k: int) -> tuple[int, tuple[int, ...]]:
    """alpha_k together with a witness profile of length n."""
    _check_k(k, spec.r)
    if not spec.has_edges:
        return spec.num_vertices, (spec.q,) * spec.n
    value, seq = best_feasible_sequence(spec, k)
    return value, seq.full(spec.n)


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
