"""Matching constructions on the q x n vertex grid.

Rows within a class are interchangeable, so every construction here only
chooses classes: a flat class list, each edge's parts in sigma's order,
blocks placed left to right, which :meth:`Matching.from_classes` keeps as
the matching.  Its rows are laid only when read: each part takes the lowest
free rows of its class in list order, and the rows left over sit unmatched
at the bottom of their class.  Each strategy returns a MatchingReport whose
certificates record the bounds it is entitled to claim; callers can always
re-check the output with :func:`sigmahg.core.verify_matching`.
"""

from __future__ import annotations

import contextlib
import heapq
import math
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .core import (
    HypergraphSpec,
    Matching,
    NoRepresentation,
    NoSuchDesign,
    RegimeError,
    Sigma,
    SigmaHypergraphError,
    ValidationError,
    frobenius_decompose,
    make_spec,
    verify_matching,
)


class DiagonalLatinSquare(NamedTuple):
    """Square array with every symbol once per row, column and main diagonal."""

    order: int
    cells: tuple[tuple[int, ...], ...]


class RGoodSplit(NamedTuple):
    """A split of sigma's part indices into A and B with part sums a and b
    such that gcd(a, b) = gcd(a, r) = gcd(b, r) = 1; L = lcm(a, b)."""

    set_a: tuple[int, ...]
    set_b: tuple[int, ...]
    a: int
    b: int
    L: int


class MatchingReport(NamedTuple):
    matching: Matching
    nu: int
    unmatched_count: int
    strategy: str
    certificates: tuple[tuple[str, int], ...] = ()
    proven: bool = True

    @classmethod
    def of(
        cls,
        spec: HypergraphSpec,
        m: Matching,
        strategy: str,
        certificates: tuple[tuple[str, int], ...] = (),
        proven: bool = True,
    ) -> MatchingReport:
        """Report on matching m of spec; every vertex no edge covers counts
        as unmatched."""
        nu = m.size
        return cls(m, nu, spec.num_vertices - spec.r * nu, strategy, certificates, proven)


class DiagonalPart(NamedTuple):
    """One part that an exchange frees from a square-block fragment."""

    edge_pos: int  # index into the fragment's edges
    symbol: int  # 0-based part index; the part size is sigma.parts[symbol]


class DlsFragment(NamedTuple):
    """Edges perfectly covering an r x s subgrid, as a flat class list
    (each edge's parts in sigma's order), plus the parts an exchange may
    free from them, at most one per symbol.

    A diagonal-Latin-square block (s >= 3) frees its s main-diagonal parts,
    one of every symbol; a two-part pair block frees one part of symbol 1.
    """

    classes: tuple[int, ...]
    diagonal: tuple[DiagonalPart, ...]


def report_to_json(report: MatchingReport) -> dict:
    return {
        "nu": report.nu,
        "unmatched_count": report.unmatched_count,
        "strategy": report.strategy,
        "certificates": [{"name": k, "value": v} for k, v in report.certificates],
        "unproven_regime": not report.proven,
    }


# ---------------------------------------------------------------------------
# The canonical form and the contract/expand reduction
# ---------------------------------------------------------------------------


def _classes(spec: HypergraphSpec, m: Matching, invalid: str) -> Sequence[int]:
    """The flat class list of m, each edge's parts in sigma's order, once
    ``verify_matching`` accepts m; ``invalid`` prefixes its first violation."""
    check = verify_matching(spec, m)
    if not check.ok:
        raise ValidationError(f"{invalid}: {check.violations[0].message}")
    if m.classes is not None:
        return m.classes
    # a valid edge's part sizes are sigma's, so size order is sigma order
    return [c for e in m.edges for c, _ in sorted(e.parts, key=lambda p: -len(p[1]))]


def canonicalize(spec: HypergraphSpec, m: Matching) -> Matching:
    """Rearrange rows per class so every part occupies a consecutive row
    interval and unmatched vertices sit at the bottom of their class.

    Only per-class row permutations are applied, so validity and the edge
    count are preserved exactly.
    """
    return Matching.from_classes(spec, _classes(spec, m, "input matching invalid"))


def gcd_unmatched_lower_bound(spec: HypergraphSpec) -> int:
    """At least this many vertices stay unmatched in any matching.

    When every part of sigma is divisible by d >= 2, matched vertices per
    class come in multiples of d, stranding q mod d rows in each of the n
    classes.  Zero when d = 1 or d | q.
    """
    d = spec.sigma.d
    if d < 2:
        return 0
    return (spec.q % d) * spec.n


def contract(spec: HypergraphSpec) -> tuple[HypergraphSpec, int]:
    """Divide every part and the class height by d = gcd(sigma).

    Returns the contracted spec H(n, r/d, q//d | sigma/d) plus t = q mod d,
    the number of rows in each class that no matching of the original can
    cover.
    """
    d = spec.sigma.d
    if d < 2:
        raise RegimeError(f"gcd({spec.sigma}) = 1; nothing to contract")
    m, t = divmod(spec.q, d)
    if m < 1:
        raise RegimeError(f"q={spec.q} is smaller than gcd d={d}; contraction is empty")
    contracted = make_spec(spec.n, m, [a // d for a in spec.sigma.parts])
    return contracted, t


def expand(spec: HypergraphSpec, contracted_matching: Matching) -> Matching:
    """Lift a matching of the contracted hypergraph back to the original.

    Each edge keeps its classes, its parts d times as large; every class
    then hosts at most d * (q // d) <= q rows, so the class list stays valid.
    """
    contracted, _ = contract(spec)
    return Matching.from_classes(
        spec, _classes(contracted, contracted_matching, f"matching invalid for {contracted}")
    )


# ---------------------------------------------------------------------------
# Diagonal-shift bands (the workhorse of every perfect regime)
# ---------------------------------------------------------------------------


def _band(s: int, width: int) -> list[int]:
    """The band over classes 1..width: ``width`` edges of s parts, edge j
    putting part i in class (j+i) mod width, so each class hosts every
    part once and the band is sum(parts) rows high."""
    if width < s:
        raise ValidationError(f"band of width {width} cannot host {s} parts")
    wrapped = [*range(1, width + 1), *range(1, s)]
    return [c for j in range(width) for c in wrapped[j : j + s]]


def diagonal_perfect_matching(spec: HypergraphSpec) -> Matching:
    """Perfect matching when r | q and n >= s: stack q/r bands of height r,
    each covered by n cyclically shifted edges."""
    r, s = spec.r, spec.sigma.s
    if spec.q % r != 0:
        raise RegimeError(f"need r | q, got r={r}, q={spec.q}")
    if spec.n < s:
        raise RegimeError(f"need n >= s, got n={spec.n}, s={s}")
    return Matching.from_classes(spec, _band(s, spec.n) * (spec.q // r))


# ---------------------------------------------------------------------------
# All-ones and rectangular partitions
# ---------------------------------------------------------------------------


def all_ones_maximum_matching(spec: HypergraphSpec) -> MatchingReport:
    """Maximum matching for sigma = (1,...,1), leaving exactly nq mod r
    vertices unmatched.

    Layout: q // r shifted bands of :func:`_band`, then t = q mod r rows
    of width-r blocks, each block one edge per row, leaving g = n mod r
    corner classes with t free rows each, at most (r-1)^2 cells.  Corner
    cells are then absorbed r at a time by an exchange: the k-th corner
    cell takes the place of the first part of first-band edge k, and every
    r freed parts form one new edge.  Edge k < (r-1)^2 spans classes
    k+1..k+r <= r^2 - r, left of every corner class, and the freed parts
    lie in distinct classes.
    """
    sigma, n, q = spec.sigma, spec.n, spec.q
    r = sigma.r
    if sigma.r != sigma.s:
        raise RegimeError(f"sigma must be all ones, got {sigma}")
    if n < (r + 1) ** 2:
        raise RegimeError(f"need n >= (r+1)^2 = {(r + 1) ** 2}, got n={n}")
    if q < r:
        raise RegimeError(f"need q >= r = {r}, got q={q}")

    t, full_width = q % r, n // r
    cls = _band(r, n) * (q // r)
    for blk in range(full_width):
        cls.extend(list(range(blk * r + 1, blk * r + r + 1)) * t)

    corner = list(range(full_width * r + 1, n + 1)) * t
    used = len(corner) // r * r
    # first-band edge k (no wrap-around, k < (r-1)^2) frees its first part
    # to the new edges and corner cell k takes its place
    cls.extend(cls[: used * r : r])
    cls[: used * r : r] = corner[:used]

    return MatchingReport.of(
        spec,
        Matching.from_classes(spec, cls),
        "all-ones",
        certificates=(
            ("nu_upper", (n * q) // r),
            ("unmatched_expected", (n * q) % r),
        ),
    )


def _contract_route(
    spec: HypergraphSpec, inner_build: Callable[[HypergraphSpec], MatchingReport]
) -> MatchingReport:
    """Contract by d = gcd(sigma), build the inner report and keep its
    class list on the original, without ``expand``'s check (constructions
    emit valid matchings); labelled ``contract+`` the inner strategy."""
    inner = inner_build(contract(spec)[0])
    lifted = Matching.from_classes(spec, inner.matching.classes)
    return MatchingReport.of(spec, lifted, f"contract+{inner.strategy}", proven=inner.proven)


def rectangular_maximum_matching(spec: HypergraphSpec) -> MatchingReport:
    """Maximum matching when all parts equal some delta: contract by delta,
    run the all-ones construction, expand back."""
    sigma, n, q = spec.sigma, spec.n, spec.q
    if not sigma.is_rectangular():
        raise RegimeError(f"sigma must be rectangular, got {sigma}")
    delta = sigma.parts[0]
    r = sigma.r
    if n < (r + 1) ** 2:
        raise RegimeError(f"need n >= (r+1)^2 = {(r + 1) ** 2}, got n={n}")
    if q < r * delta:
        raise RegimeError(f"need q >= r*delta = {r * delta}, got q={q}")
    if delta == 1:
        return all_ones_maximum_matching(spec)
    report = _contract_route(spec, all_ones_maximum_matching)
    expected = (n * q - gcd_unmatched_lower_bound(spec)) // r
    if report.nu != expected:
        raise SigmaHypergraphError(
            f"internal: constructed {report.nu} edges, expected {expected}"
        )
    return report._replace(
        strategy="rectangular",
        certificates=(
            ("nu_upper", (n * q) // r),
            ("nu_expected", expected),
            ("gcd_nu_upper", expected),
        ),
    )


# ---------------------------------------------------------------------------
# r-good splits, diagonal Latin squares, packings
# ---------------------------------------------------------------------------


def find_r_good_split(sigma: Sigma) -> RGoodSplit | None:
    """The split minimising L = lcm(a, b), or None when no subset of the
    parts has a sum coprime to r (ties broken toward the lexicographically
    smallest index set A).

    reach[i] holds the sums below r of the subsets of parts i+1..s, at most
    min(2^(s-i), r) of them, so the best sums are known at once and A is
    built index by index, each time taking the smallest index that can
    still complete a best sum.
    """
    if sigma.s < 2:
        raise RegimeError(f"need at least two parts to split, got {sigma}")
    parts, r, s = sigma.parts, sigma.r, sigma.s
    reach = [{0}] * (s + 1)
    for i in range(s - 1, -1, -1):
        reach[i] = reach[i + 1] | {x + parts[i] for x in reach[i + 1] if x + parts[i] < r}
    # a proper nonempty subset sums to some a in 1..r-1, and every such sum
    # comes from one
    sums = [a for a in reach[0] if a and math.gcd(a, r) == 1]
    if not sums:
        return None
    L = min(math.lcm(a, r - a) for a in sums)
    targets = [a for a in sums if math.lcm(a, r - a) == L]
    combo: list[int] = []
    a = 0
    while a not in targets:
        i = next(
            i
            for i in range(combo[-1] if combo else 0, s)
            if any(t - a - parts[i] in reach[i + 1] for t in targets)
        )
        combo.append(i + 1)
        a += parts[i]
    other = tuple(i for i in range(1, s + 1) if i not in combo)
    return RGoodSplit(tuple(combo), other, a, r - a, L)


def _dls_cells(order: int) -> tuple[tuple[int, ...], ...]:
    """Cells of a diagonal Latin square of order 1 or any order >= 3.

    Odd order: the cyclic square (i + j) mod order, whose diagonal 2i mod
    order is a permutation.  Even order: the cyclic square of odd order
    m = order - 1 prolonged along its transversal (i, i+1 mod m); each
    transversal cell hands its symbol to (i, m) and (m, i+1 mod m) and takes
    the new symbol m, and (m, m) = m.  The transversal avoids the main
    diagonal, so the diagonal stays a transversal.
    """
    if order % 2:
        return tuple(tuple((i + j) % order for j in range(order)) for i in range(order))
    m = order - 1
    cells = [[(i + j) % m for j in range(m)] + [m] for i in range(m)] + [[m] * order]
    for i in range(m):
        j = (i + 1) % m
        cells[i][m] = cells[m][j] = cells[i][j]
        cells[i][j] = m
    return tuple(tuple(row) for row in cells)


def generate_dls(order: int) -> DiagonalLatinSquare:
    """Diagonal Latin square of the given order, by the closed form of
    :func:`_dls_cells`.

    Exists for order 1 and every order >= 3; order 2 has no such square
    (both 2x2 Latin squares have a constant diagonal).
    """
    if order <= 0:
        raise ValidationError(f"order must be positive, got {order}")
    if order == 2:
        raise NoSuchDesign("no diagonal Latin square of order 2 exists")
    return DiagonalLatinSquare(order, _dls_cells(order))


def dls_matching(spec: HypergraphSpec) -> DlsFragment:
    """Perfect cover of the r x s subgrid at the origin: rows 1..r of
    classes 1..s.

    Edge j puts its part of symbol D[j][i] in class i+1, for the diagonal
    Latin square D of order s; each column holds every symbol once, so each
    class hosts r rows.  Each edge then realises sigma, and the s parts on
    the square's main diagonal land in s different edges with every part
    size represented once - exactly what the exchange augmentation needs.
    """
    sigma = spec.sigma
    s, r = sigma.s, sigma.r
    if s == 2:
        raise NoSuchDesign(
            "no order-2 diagonal square; two-part edges use the paired-column scheme"
        )
    if r > spec.q or s > spec.n:
        raise ValidationError(f"r x s subgrid exceeds the {spec.q}x{spec.n} grid")
    cells = generate_dls(s).cells
    classes = [0] * (s * s)
    for i in range(s):
        for j in range(s):
            classes[j * s + cells[j][i]] = i + 1
    diagonal = tuple(DiagonalPart(i, cells[i][i]) for i in range(s))
    return DlsFragment(tuple(classes), diagonal)


# two edges perfectly covering the r x 2 subgrid at the origin, for sigma =
# (a1, a2): a1 rows of the first column with a2 of the second, and the
# reverse; an exchange frees the first edge's part of symbol 1
_PAIR_FRAGMENT = DlsFragment((1, 2, 2, 1), (DiagonalPart(0, 1),))


def packing_matching(spec: HypergraphSpec, split: RGoodSplit) -> list[int]:
    """L edges perfectly covering the L x r subgrid at the origin (rows
    1..L of classes 1..r), as a flat class list, each edge's parts in
    sigma's order.

    The left L x a half is tiled with L/a square bands packed with the A
    parts, the right L x b half with L/b bands of the B parts; the i-th
    half from each side share no classes, so their union is an edge.
    """
    a, b, L = split.a, split.b, split.L
    if L > spec.q or spec.r > spec.n:
        raise ValidationError(f"L x r subgrid exceeds the {spec.q}x{spec.n} grid")
    sa, sb = len(split.set_a), len(split.set_b)
    halves_a = _band(sa, a) * (L // a)
    halves_b = [c + a for c in _band(sb, b)] * (L // b)
    # an edge's A half then B half hold part indices set_a + set_b; put
    # them in sigma's order
    joined = split.set_a + split.set_b
    order = sorted(range(len(joined)), key=joined.__getitem__)
    out: list[int] = []
    for k in range(L):
        edge = halves_a[k * sa : (k + 1) * sa] + halves_b[k * sb : (k + 1) * sb]
        out.extend([edge[j] for j in order])
    return out


# ---------------------------------------------------------------------------
# The r-good dispatcher
# ---------------------------------------------------------------------------


def _perfect_width_bands(
    spec: HypergraphSpec, split: RGoodSplit, height: int, num_classes: int
) -> list[int]:
    """Cover ``height`` rows of classes 1..num_classes (r | width) by
    height = x*L + y*r: x strips of packed L x r blocks side by side, then
    y shifted r-bands."""
    r, L = spec.r, split.L
    x, y = frobenius_decompose(height, L, r)
    cls: list[int] = []
    if x:
        packed = packing_matching(spec, split)
        cls += [c + grid * r for grid in range(num_classes // r) for c in packed] * x
    if y:
        cls += _band(spec.sigma.s, num_classes) * y
    return cls


def _rgood_residue(spec: HypergraphSpec, split: RGoodSplit, exchange: bool) -> MatchingReport:
    """Regime 3 (``exchange``) or regime 2 of :func:`r_good_maximum_matching`
    at any height from (L-1)(r-1) up; proven when q meets its threshold.

    Regime 3 starts each full strip with f = (n-r)//s exchange blocks and
    uses one per r rows of each of the n mod r corner columns.
    """
    sigma = spec.sigma
    r, s, n, q, L = sigma.r, sigma.s, spec.n, spec.q, split.L
    full = max(0, (q - (L - 1) * (r - 1)) // r)
    q1 = q - full * r
    t_cl, b = divmod(n, r)
    f = (n - r) // s if exchange else 0
    p, z = divmod(q1, r)
    if exchange and p * b > f * full:
        raise RegimeError(
            f"corner absorption needs {p * b} exchange blocks, only {f * full} available"
        )
    # a full strip is n edges: f exchange blocks of s edges each, built
    # once at the origin and shifted, then a band over the other classes
    cls: list[int] = []
    block = None
    if full:
        if f:
            block = dls_matching(spec) if s >= 3 else _PAIR_FRAGMENT
            cls = [c + blk * s for blk in range(f) for c in block.classes]
        cls = (cls + [c + f * s for c in _band(s, n - f * s)]) * full

    if t_cl >= 1 and q1 > 0:
        cls += _perfect_width_bands(spec, split, q1, t_cl * r)

    bookkeeping: list[tuple[str, int]] = [
        ("q1", q1),
        ("t", t_cl),
        ("b", b),
    ]
    if exchange:
        # the first edge of each exchange block, in order
        exchanges = (strip * n + blk * s for strip in range(full) for blk in range(f))
        for c in range(t_cl * r + 1, n + 1):
            for _ in range(p):
                # each freed part's edge takes corner class c in its place,
                # and the freed parts with c's other parts form one new edge
                new_cls = [c] * s
                first = next(exchanges)
                for dp in block.diagonal:
                    k = (first + dp.edge_pos) * s + dp.symbol
                    new_cls[dp.symbol], cls[k] = cls[k], c
                cls.extend(new_cls)
        bookkeeping += [("p", p), ("z", z), ("f", f), ("h", n - f * s)]
        strategy = "rgood-3" if s >= 3 else "rgood-3-two-part"
        bound, q_min = (r - 1) ** 2, L * (r * r - 1)
        bookkeeping += [
            ("regime3_q_min", q_min),
            ("regime3_q_min_alt", L * (r - 1) ** 2),
        ]
    else:
        strategy = "rgood-2"
        bound, q_min = L * (r - 1) ** 2, L * (r - 1)

    report = MatchingReport.of(
        spec,
        Matching.from_classes(spec, cls),
        strategy,
        tuple([("nu_upper", n * q // r), ("unmatched_bound", bound)] + bookkeeping),
        proven=q >= q_min,
    )
    if report.unmatched_count > bound:
        raise SigmaHypergraphError(
            f"internal: {report.unmatched_count} unmatched exceeds bound {bound}"
        )
    return report


def r_good_maximum_matching(spec: HypergraphSpec) -> MatchingReport:
    """Build the strongest r-good construction whose gate holds.

    Regimes, strongest first:

    * ``1a``  r | q and n >= s: the stacked shifted bands of
              :func:`diagonal_perfect_matching`, reported as ``diagonal``;
              perfect.
    * ``1b``  r | n and q = x*L + y*r: packed plus shifted bands; perfect.
    * ``3``   n >= s+r: stacked strips built from exchangeable square
              blocks (diagonal-Latin-square blocks, or pair blocks when
              s = 2), packed residue, then corner columns absorbed r
              vertices at a time; at most (r-1)^2 unmatched.  Skipped
              when its exchange blocks run short, never at q >= L(r^2-1).
    * ``2``   n >= s: stacked strips plus packed residue over the widest
              r-divisible prefix; at most L(r-1)^2 unmatched.  Needs
              n >= r or a full strip, q >= (L-1)(r-1) + r, to lay an edge.

    Both build from q >= (L-1)(r-1), the least height the packed residue
    needs.  Below L(r^2-1) and L(r-1), where the paper proves them, the
    report is marked unproven; its unmatched bound is checked all the same.
    """
    sigma = spec.sigma
    r, s, n, q = sigma.r, sigma.s, spec.n, spec.q
    split = find_r_good_split(sigma)
    if split is None:
        raise RegimeError(f"{sigma} is not r-good: no part subset sum is coprime to r={r}")
    if not spec.has_edges:
        raise RegimeError(f"{spec} has no edges")
    L = split.L
    if q % r == 0 and n >= s:
        return STRATEGIES["diagonal"](spec)._replace(certificates=(("nu_upper", n * q // r),))
    if n % r == 0:
        with contextlib.suppress(NoRepresentation):  # q is no x*L + y*r
            m = Matching.from_classes(spec, _perfect_width_bands(spec, split, q, n))
            return MatchingReport.of(spec, m, "rgood-1b", (("nu_upper", n * q // r),))
    low, short = (L - 1) * (r - 1), ""
    if n >= s and q >= low:
        if n >= s + r:
            with contextlib.suppress(RegimeError):  # too few exchange blocks: regime 2 builds
                return _rgood_residue(spec, split, exchange=True)
        # regime 2 lays a full strip, or a packed residue over r classes
        if n >= r or q >= low + r:
            return _rgood_residue(spec, split, exchange=False)
        short = f", with n >= {r} or q >= {low + r}"
    raise RegimeError(
        f"no r-good regime applies to {spec} (L={L}): need r|q, or r|n with q = x*{L} + "
        f"y*{r}, or n >= {s} and q >= {low}{short}; got q={q}, n={n}"
    )


# ---------------------------------------------------------------------------
# Greedy fallback and the strategy dispatcher
# ---------------------------------------------------------------------------


def _greedy_choices(spec: HypergraphSpec) -> list[int]:
    """The flat class list greedy gives its edges, decided on free-row
    counts alone: the largest parts go to the classes with the most free
    rows (ties toward lower class indices).  Stops when no assignment fits;
    sorted-to-sorted assignment fits whenever any assignment does."""
    parts = spec.sigma.parts
    s = spec.sigma.s
    choices: list[int] = []
    if not spec.has_edges:
        return choices
    heap = [(-spec.q, c) for c in range(1, spec.n + 1)]  # (-free rows, class)
    while True:
        top = [heapq.heappop(heap) for _ in range(s)]
        if any(-free < a for (free, _), a in zip(top, parts)):
            return choices
        choices.extend(c for _, c in top)
        for (free, c), a in zip(top, parts):
            heapq.heappush(heap, (free + a, c))


def greedy_matching(spec: HypergraphSpec) -> Matching:
    """The class-list matching of :func:`_greedy_choices`."""
    return Matching.from_classes(spec, _greedy_choices(spec))


def best_matching(spec: HypergraphSpec) -> MatchingReport:
    """Return the report with the largest matching among the applicable
    strategies (ties go to the earlier strategy).

    Builders tried, by d = gcd(sigma), each passed over when it raises a
    RegimeError: full-height bands (r | q), then for d = 1 the all-ones
    construction, the r-good dispatcher and greedy, and for d >= 2
    contract-recurse-expand (the route rectangular sigma with parts >= 2
    takes).  With d >= 2 no part sum is coprime to r, and greedy's choices
    equal its choices on the contraction, already weighed there, so greedy
    answers only when q < d leaves no candidate.  No matching can exceed
    floor(n(q - q mod d)/r) edges, so the first candidate reaching that
    ceiling wins.
    """
    n, q, r, d = spec.n, spec.q, spec.r, spec.sigma.d
    ceiling = (n * q - gcd_unmatched_lower_bound(spec)) // r
    best: MatchingReport | None = None

    diagonal, greedy = STRATEGIES["diagonal"], STRATEGIES["greedy"]
    if d >= 2:
        builders = (diagonal, lambda spec: _contract_route(spec, best_matching))
    else:
        builders = (diagonal, all_ones_maximum_matching, r_good_maximum_matching, greedy)
    for build in builders:
        try:
            cand = build(spec)
        except RegimeError:
            continue
        if best is None or cand.nu > best.nu:
            best = cand
        if best.nu >= ceiling:
            break
    best = best or greedy(spec)

    certs = [("nu_upper", (n * q) // r)]
    if d >= 2:
        certs.append(("gcd_unmatched_lower", gcd_unmatched_lower_bound(spec)))
        certs.append(("gcd_nu_upper", ceiling))
    seen = {name for name, _ in certs}
    certs.extend((k, v) for k, v in best.certificates if k not in seen)
    return best._replace(certificates=tuple(certs))


# ``match --strategy`` name -> builder; a builder whose regime fails raises RegimeError
STRATEGIES: dict[str, Callable[[HypergraphSpec], MatchingReport]] = {
    "auto": best_matching,
    "diagonal": lambda spec: MatchingReport.of(spec, diagonal_perfect_matching(spec), "diagonal"),
    "rectangular": rectangular_maximum_matching,
    "rgood": r_good_maximum_matching,
    "greedy": lambda spec: MatchingReport.of(spec, greedy_matching(spec), "greedy"),
}
