"""Matching constructions on the q x n vertex grid.

Every construction here is deterministic: full-height bands are laid from
the top of the grid, the residual band sits at the bottom, and blocks are
placed left to right.  Each strategy returns a MatchingReport whose
certificates record the bounds it is entitled to claim; callers can always
re-check the output with :func:`sigmahg.core.verify_matching`.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
from collections.abc import Callable
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


# flat interval lists (classes, first rows) of whole edges, each edge's
# parts in one fixed order; see :class:`sigmahg.core.Matching`
Intervals = tuple[list[int], list[int]]


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
    """Edges perfectly covering an r x s subgrid, as flat interval lists
    (see :class:`sigmahg.core.Matching`), plus the parts an exchange may
    free from them, at most one per symbol.

    A diagonal-Latin-square block (s >= 3) frees its s main-diagonal parts,
    one of every symbol; a two-part pair block frees one part of symbol 1.
    """

    classes: tuple[int, ...]
    rows: tuple[int, ...]
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
# Canonical form and the contract/expand reduction
# ---------------------------------------------------------------------------


def canonicalize(spec: HypergraphSpec, m: Matching) -> Matching:
    """Rearrange rows per class so every part occupies a consecutive row
    interval and unmatched vertices sit at the top of their class.

    Only per-class row permutations are applied, so validity and the edge
    count are preserved exactly.
    """
    check = verify_matching(spec, m)
    if not check.ok:
        raise ValidationError(f"input matching invalid: {check.violations[0].message}")
    parts = spec.sigma.parts
    if m.classes is None:
        # a valid edge's part sizes are sigma's, so size order is sigma order
        classes = [c for e in m.edges for c, _ in sorted(e.parts, key=lambda p: -len(p[1]))]
    else:
        classes = m.classes
    sizes = parts * (len(classes) // len(parts))
    free = [spec.q] * (spec.n + 1)  # per class; every row no part covers is unmatched
    for c, a in zip(classes, sizes):
        free[c] -= a
    next_row = [u + 1 for u in free]
    rows = []
    for c, a in zip(classes, sizes):
        rows.append(next_row[c])
        next_row[c] += a
    runs = [(c, 1, free[c]) for c in range(1, spec.n + 1) if free[c]]
    return Matching.from_intervals(parts, classes, rows, runs)


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

    Returns the contracted spec H(n, r/d, q//d | sigma/d) plus the number
    of top rows (q mod d) that are dropped; those rows are unmatched in any
    canonical-form matching of the original.
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

    Contracted vertex (class i, row j) becomes the d consecutive original
    rows [t + (j-1)d + 1 .. t + jd] of class i, where t = q mod d, so an
    interval maps to an interval; the top t rows of every class join the
    unmatched set.  A row-set input is canonicalised first.
    """
    contracted, t = contract(spec)
    m = contracted_matching
    check = verify_matching(contracted, m)
    if not check.ok:
        raise ValidationError(
            f"matching invalid for {contracted}: {check.violations[0].message}"
        )
    if m.classes is None:
        m = canonicalize(contracted, m)
    return _lift(spec, t, m)


def _lift(spec: HypergraphSpec, t: int, m: Matching) -> Matching:
    """``expand`` for an interval-form matching already known valid."""
    d = spec.sigma.d
    runs = [(c, 1, t) for c in range(1, spec.n + 1) if t]
    runs += [(c, t + (j - 1) * d + 1, count * d) for c, j, count in m.runs]
    rows = [t + (j - 1) * d + 1 for j in m.rows]
    return Matching.from_intervals(spec.sigma.parts, m.classes, rows, runs)


# ---------------------------------------------------------------------------
# Diagonal-shift bands (the workhorse of every perfect regime)
# ---------------------------------------------------------------------------


def _band(sizes: tuple[int, ...], width: int) -> Intervals:
    """The band over classes 1..width and rows 1..sum(sizes): one shifted
    copy of ``sizes`` per class, each edge's parts in sizes' order.

    Column j contributes part i at class (j+i) mod width, each part using
    its fixed row block, so the band is covered exactly.
    """
    s = len(sizes)
    if width < s:
        raise ValidationError(f"band of width {width} cannot host {s} parts")
    wrapped = [*range(1, width + 1), *range(1, s)]
    return (
        [c for j in range(width) for c in wrapped[j : j + s]],
        list(itertools.accumulate(sizes[:-1], initial=1)) * width,
    )


def _place(out: Intervals, block: Intervals | DlsFragment, classes: int = 0, rows: int = 0) -> None:
    """Append a copy of ``block`` (a band, packed block or fragment built at
    the origin) shifted right by ``classes`` and down by ``rows``."""
    out[0].extend([c + classes for c in block[0]] if classes else block[0])
    out[1].extend([row + rows for row in block[1]] if rows else block[1])


def diagonal_perfect_matching(spec: HypergraphSpec) -> Matching:
    """Perfect matching when r | q and n >= s: stack q/r bands of height r,
    each covered by n cyclically shifted edges."""
    r, s = spec.r, spec.sigma.s
    if spec.q % r != 0:
        raise RegimeError(f"need r | q, got r={r}, q={spec.q}")
    if spec.n < s:
        raise RegimeError(f"need n >= s, got n={spec.n}, s={s}")
    band = _band(spec.sigma.parts, spec.n)
    out: Intervals = ([], [])
    for strip in range(spec.q // r):
        _place(out, band, rows=strip * r)
    return Matching.from_intervals(spec.sigma.parts, *out)


# ---------------------------------------------------------------------------
# All-ones and rectangular partitions
# ---------------------------------------------------------------------------


def all_ones_maximum_matching(spec: HypergraphSpec) -> MatchingReport:
    """Maximum matching for sigma = (1,...,1), leaving exactly nq mod r
    vertices unmatched.

    Layout: full bands of height r are the shifted bands of
    :func:`_band`; the bottom residual strip is matched row by row
    over width-r blocks, leaving a corner of g x t cells (g = n mod r,
    t = q mod r), at most (r-1)^2.  Corner cells are then absorbed r at a
    time by an exchange: the k-th corner cell replaces the row-1 part of
    first-band edge k, and every r freed parts form one new edge.  Edge
    k < (r-1)^2 spans classes k+1..k+r <= r^2 - r, left of every corner
    class, and the freed parts lie in distinct classes.
    """
    sigma, n, q = spec.sigma, spec.n, spec.q
    r = sigma.r
    if sigma.r != sigma.s:
        raise RegimeError(f"sigma must be all ones, got {sigma}")
    if n < (r + 1) ** 2:
        raise RegimeError(f"need n >= (r+1)^2 = {(r + 1) ** 2}, got n={n}")
    if q < r:
        raise RegimeError(f"need q >= r = {r}, got q={q}")

    bands = q // r
    band = _band(sigma.parts, n)
    cls, rows = out = ([], [])
    for strip in range(bands):
        _place(out, band, rows=strip * r)

    full_width = n // r
    strip = range(bands * r + 1, q + 1)
    for blk in range(full_width):
        for row in strip:
            cls.extend(range(blk * r + 1, blk * r + r + 1))
            rows.extend([row] * r)

    corner = [(c, row) for row in strip for c in range(full_width * r + 1, n + 1)]
    used = len(corner) // r * r
    # first-band edge k (no wrap-around, k < (r-1)^2) has its row-1 part
    # first: it joins the new edges and corner cell k takes its place
    cls.extend(cls[: used * r : r])
    rows.extend(rows[: used * r : r])
    for k, (c, row) in enumerate(corner[:used]):
        cls[k * r], rows[k * r] = c, row

    return MatchingReport.of(
        spec,
        Matching.from_intervals(sigma.parts, *out, [(c, row, 1) for c, row in corner[used:]]),
        "all-ones",
        certificates=(
            ("nu_upper", (n * q) // r),
            ("unmatched_expected", (n * q) % r),
        ),
    )


def _contract_route(
    spec: HypergraphSpec, inner_build: Callable[[HypergraphSpec], MatchingReport]
) -> MatchingReport:
    """Contract by d = gcd(sigma), build the inner report, expand it back
    without ``expand``'s check (constructions emit valid matchings);
    labelled ``contract+`` the inner strategy."""
    inner_spec, t = contract(spec)
    inner = inner_build(inner_spec)
    lifted = _lift(spec, t, inner.matching)
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
    expected = n * (q - q % delta) // r
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

    Column i of the subgrid is cut into consecutive blocks sized by the
    symbols running down column i of a diagonal Latin square of order s;
    edge j collects, from each column, the block carrying symbol D[j][i].
    Each edge then realises sigma, and the s blocks on the square's main
    diagonal land in s different edges with every part size represented
    once - exactly what the exchange augmentation needs.
    """
    sigma = spec.sigma
    s, r = sigma.s, sigma.r
    if s == 2:
        raise NoSuchDesign(
            "no order-2 diagonal square; two-part edges use the paired-column scheme"
        )
    if r > spec.q or s > spec.n:
        raise ValidationError(f"r x s subgrid exceeds the {spec.q}x{spec.n} grid")
    square = generate_dls(s)
    classes, rows = [0] * (s * s), [0] * (s * s)
    for i in range(s):
        row = 1
        for j in range(s):  # block j of column i carries symbol D[j][i]
            sym = square.cells[j][i]
            classes[j * s + sym], rows[j * s + sym] = i + 1, row
            row += sigma.parts[sym]
    diagonal = tuple(DiagonalPart(i, square.cells[i][i]) for i in range(s))
    return DlsFragment(tuple(classes), tuple(rows), diagonal)


def _pair_fragment(spec: HypergraphSpec) -> DlsFragment:
    """Two edges perfectly covering the r x 2 subgrid at the origin, for
    sigma = (a1, a2): the top a1 rows of the first column with the top a2
    rows of the second, and the two bottom blocks.  The second column's
    top block (symbol 1) is the part an exchange frees."""
    a1, r = spec.sigma.parts[0], spec.r
    return DlsFragment((1, 2, 2, 1), (1, 1, r - a1 + 1, a1 + 1), (DiagonalPart(0, 1),))


def packing_matching(spec: HypergraphSpec, split: RGoodSplit) -> Intervals:
    """L edges perfectly covering the L x r subgrid at the origin (rows
    1..L of classes 1..r), each edge's parts in sigma's order.

    The left L x a half is tiled with L/a square bands packed with the A
    parts, the right L x b half with L/b bands of the B parts; the i-th
    half from each side share no classes, so their union is an edge.
    """
    a, b, L = split.a, split.b, split.L
    if L > spec.q or spec.r > spec.n:
        raise ValidationError(f"L x r subgrid exceeds the {spec.q}x{spec.n} grid")
    sigma_a = tuple(spec.sigma.parts[i - 1] for i in split.set_a)
    sigma_b = tuple(spec.sigma.parts[i - 1] for i in split.set_b)
    band_a, band_b = _band(sigma_a, a), _band(sigma_b, b)
    halves_a: Intervals = ([], [])
    halves_b: Intervals = ([], [])
    for blk in range(L // a):
        _place(halves_a, band_a, rows=blk * a)
    for blk in range(L // b):
        _place(halves_b, band_b, a, blk * b)
    # an edge's A half then B half hold part indices set_a + set_b; put
    # them in sigma's order
    joined = split.set_a + split.set_b
    order = sorted(range(len(joined)), key=joined.__getitem__)
    sa, sb = len(sigma_a), len(sigma_b)
    out: Intervals = ([], [])
    for flat, half_a, half_b in zip(out, halves_a, halves_b):
        for k in range(L):
            edge = half_a[k * sa : (k + 1) * sa] + half_b[k * sb : (k + 1) * sb]
            flat.extend([edge[j] for j in order])
    return out


# ---------------------------------------------------------------------------
# The r-good dispatcher
# ---------------------------------------------------------------------------


def _perfect_width_bands(
    out: Intervals,
    spec: HypergraphSpec,
    split: RGoodSplit,
    height: int,
    row0: int,
    num_classes: int,
) -> None:
    """Cover rows row0+1..row0+height over classes 1..num_classes (r | width)
    by height = x*L + y*r: x packed L-bands then y shifted r-bands, appended
    to ``out``."""
    r, L = spec.r, split.L
    x, y = frobenius_decompose(height, L, r)
    if x:
        packed = packing_matching(spec, split)
        for strip in range(x):
            for grid in range(num_classes // r):
                _place(out, packed, grid * r, row0 + strip * L)
    if y:
        band = _band(spec.sigma.parts, num_classes)
        for strip in range(y):
            _place(out, band, rows=row0 + x * L + strip * r)


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
    cls, rows = out = ([], [])
    # the first edge of each consumable exchange block, in order
    fragments: list[int] = []
    band = block = None  # each built once at the origin, shifted to every place
    if full:
        band = _band(sigma.parts, n - f * s)
        if f:
            block = (dls_matching if s >= 3 else _pair_fragment)(spec)

    for strip in range(full):
        row0 = strip * r
        for blk in range(f):
            fragments.append(len(cls) // s)
            _place(out, block, blk * s, row0)
        _place(out, band, f * s, row0)

    if t_cl >= 1 and q1 > 0:
        _perfect_width_bands(out, spec, split, q1, full * r, t_cl * r)

    corner_classes = range(t_cl * r + 1, n + 1)
    top = full * r  # corner classes are matched down to this row
    bookkeeping: list[tuple[str, int]] = [
        ("q1", q1),
        ("t", t_cl),
        ("b", b),
    ]
    if exchange:
        firsts = list(itertools.accumulate(sigma.parts[:-1], initial=1))
        exchanges = iter(fragments)
        for c in corner_classes:
            for grp in range(p):
                # cut c's r rows into one block per symbol; each freed
                # part's edge takes c's block of the same symbol, and the
                # freed parts with c's other blocks form one new edge
                new_cls = [c] * s
                new_rows = [top + grp * r + row for row in firsts]
                first = next(exchanges)
                for dp in block.diagonal:
                    k = (first + dp.edge_pos) * s + dp.symbol
                    new_cls[dp.symbol], cls[k] = cls[k], c
                    new_rows[dp.symbol], rows[k] = rows[k], new_rows[dp.symbol]
                cls.extend(new_cls)
                rows.extend(new_rows)
        top += p * r
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

    runs = [(c, top + 1, q - top) for c in corner_classes if q > top]
    m = Matching.from_intervals(sigma.parts, cls, rows, runs)
    report = MatchingReport.of(
        spec,
        m,
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
        return MatchingReport.of(
            spec, diagonal_perfect_matching(spec), "diagonal", (("nu_upper", n * q // r),)
        )
    # gcd(L, r) = 1, and q = x*L + y*r with x, y >= 0 exactly when the least
    # x = q * L^-1 (mod r) has x*L <= q
    if n % r == 0 and q * pow(L, -1, r) % r * L <= q:
        out: Intervals = ([], [])
        _perfect_width_bands(out, spec, split, q, 0, n)
        m = Matching.from_intervals(sigma.parts, *out)
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


def _greedy_choices(spec: HypergraphSpec) -> list[tuple[int, ...]]:
    """The classes greedy gives each edge's parts, decided on free-row
    counts alone: the largest parts go to the classes with the most free
    rows (ties toward lower class indices).  Stops when no assignment fits;
    sorted-to-sorted assignment fits whenever any assignment does."""
    parts = spec.sigma.parts
    s = spec.sigma.s
    choices: list[tuple[int, ...]] = []
    if not spec.has_edges:
        return choices
    heap = [(-spec.q, c) for c in range(1, spec.n + 1)]  # (-free rows, class)
    while True:
        top = [heapq.heappop(heap) for _ in range(s)]
        if any(-free < a for (free, _), a in zip(top, parts)):
            return choices
        choices.append(tuple(c for _, c in top))
        for (free, c), a in zip(top, parts):
            heapq.heappush(heap, (free + a, c))


def greedy_matching(spec: HypergraphSpec) -> Matching:
    """Place the edges of :func:`_greedy_choices` in turn, each part taking
    the lowest free rows of its class."""
    return _place_greedy(spec, _greedy_choices(spec))


def _place_greedy(spec: HypergraphSpec, choices: list[tuple[int, ...]]) -> Matching:
    parts = spec.sigma.parts
    next_row = [1] * (spec.n + 1)  # per class, the lowest free row
    rows = []
    for classes in choices:
        for c, a in zip(classes, parts):
            rows.append(next_row[c])
            next_row[c] += a
    runs = [
        (c, next_row[c], spec.q + 1 - next_row[c])
        for c in range(1, spec.n + 1)
        if next_row[c] <= spec.q
    ]
    return Matching.from_intervals(parts, itertools.chain.from_iterable(choices), rows, runs)


def best_matching(spec: HypergraphSpec) -> MatchingReport:
    """Return the report with the largest matching among the applicable
    strategies (ties go to the earlier strategy).

    Order tried, by d = gcd(sigma): full-height bands (r | q), then for
    d = 1 the all-ones construction, the r-good dispatcher and the greedy
    fallback, and for d >= 2 contract-recurse-expand (the route rectangular
    sigma with parts >= 2 takes), with greedy only when q < d leaves no
    candidate.  With d >= 2 no part sum is coprime to r, and greedy's
    choices equal its choices on the contraction, already weighed there.
    No matching can exceed floor(n(q - q mod d)/r) edges, so the first
    candidate reaching that ceiling wins.  Greedy is decided on class loads
    and its matching built only when it beats every earlier candidate.
    """
    n, q, r, d = spec.n, spec.q, spec.r, spec.sigma.d
    ceiling = n * (q - q % d) // r
    best: MatchingReport | None = None

    strategies = [lambda: MatchingReport.of(spec, diagonal_perfect_matching(spec), "diagonal")]
    if d >= 2:
        strategies.append(lambda: _contract_route(spec, best_matching))
    else:
        if spec.sigma.r == spec.sigma.s:
            strategies.append(lambda: all_ones_maximum_matching(spec))
        if spec.sigma.s >= 2:
            strategies.append(lambda: r_good_maximum_matching(spec))
    for build in strategies:
        try:
            cand = build()
        except (RegimeError, NoSuchDesign, NoRepresentation):
            continue
        if best is None or cand.nu > best.nu:
            best = cand
        if best.nu >= ceiling:
            break
    else:  # no candidate reached the ceiling
        if best is None or d == 1:
            choices = _greedy_choices(spec)
            if best is None or len(choices) > best.nu:
                best = MatchingReport.of(spec, _place_greedy(spec, choices), "greedy")

    certs = [("nu_upper", (n * q) // r)]
    if d >= 2:
        certs.append(("gcd_unmatched_lower", gcd_unmatched_lower_bound(spec)))
        certs.append(("gcd_nu_upper", ceiling))
    seen = {name for name, _ in certs}
    certs.extend((k, v) for k, v in best.certificates if k not in seen)
    return best._replace(certificates=tuple(certs))
