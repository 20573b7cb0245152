"""Domain types for sigma-hypergraphs plus the shared number theory.

A sigma-hypergraph H(n, r, q | sigma) has n*q vertices arranged as a
q x n grid: n classes (columns) of q rows each.  An r-subset of vertices
is an edge exactly when the sizes of its nonzero per-class intersections,
sorted decreasingly, equal the partition sigma of r.

Everything here is a pure function of its inputs; values are immutable
and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from collections import Counter
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class SigmaHypergraphError(Exception):
    """Base class for all library errors."""


class ValidationError(SigmaHypergraphError, ValueError):
    """An input violates a documented precondition."""


class NoEdges(SigmaHypergraphError):
    """The operation needs at least one edge but the edge set is empty."""


class RegimeError(SigmaHypergraphError):
    """The requested construction's parameter regime does not apply; the
    base of every refusal a construction may give."""


class NoRepresentation(RegimeError):
    """No nonnegative integer combination reaches the target."""


class NoSuchDesign(RegimeError):
    """The requested combinatorial design does not exist."""


class BudgetExceeded(SigmaHypergraphError):
    """The search would exceed the caller's budget; no partial answer."""


class _Checked:
    """Base for records that check their fields in ``__new__``: ``_make``,
    and so ``_replace``, construct through the class and its checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _SigmaFields(NamedTuple):
    parts: tuple[int, ...]


class Sigma(_Checked, _SigmaFields):
    """A partition of r in weakly decreasing order.

    ``parts`` is normalised to a descending tuple on construction.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> "Sigma":
        if not parts:
            raise ValidationError("sigma needs at least one part")
        try:
            norm = tuple(sorted((int(a) for a in parts), reverse=True))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"sigma parts must be integers: {_brief(parts)}") from exc
        if norm[-1] < 1:
            raise ValidationError(f"sigma parts must be positive: {_brief(parts)}")
        return super().__new__(cls, norm)

    @property
    def r(self) -> int:
        """Sum of the parts (the uniform edge size)."""
        return sum(self.parts)

    @property
    def s(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @property
    def d(self) -> int:
        """Greatest common divisor of the parts."""
        return math.gcd(*self.parts)

    def is_rectangular(self) -> bool:
        return self.parts[0] == self.parts[-1]

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.parts) + ")"


class _HypergraphSpecFields(NamedTuple):
    n: int
    q: int
    sigma: Sigma


class HypergraphSpec(_Checked, _HypergraphSpecFields):
    """The tuple (n, q, sigma) describing H(n, r, q | sigma)."""

    __slots__ = ()

    def __new__(cls, n: int, q: int, sigma: Sigma) -> "HypergraphSpec":
        if n < 1 or q < 1:
            raise ValidationError(f"need n >= 1 and q >= 1, got n={n}, q={q}")
        return super().__new__(cls, n, q, sigma)

    @property
    def r(self) -> int:
        return self.sigma.r

    @property
    def num_vertices(self) -> int:
        return self.n * self.q

    @property
    def has_edges(self) -> bool:
        """True iff the edge set is non-empty.

        Edges need s distinct classes and a class tall enough for the
        largest part; degenerate specs are legal inputs everywhere and
        simply have no edges.
        """
        return self.n >= self.sigma.s and self.q >= self.sigma.parts[0]

    def __str__(self) -> str:
        return f"H(n={self.n}, r={self.r}, q={self.q} | {self.sigma})"


class Vertex(NamedTuple):
    """A grid cell, 1-indexed: class 1..n, row 1..q."""

    class_index: int
    row_index: int


class _EdgeFields(NamedTuple):
    parts: tuple[tuple[int, frozenset[int]], ...]


class Edge(_Checked, _EdgeFields):
    """An edge candidate: parts (class, row-set), stored sorted by class.

    The constructor enforces structural sanity (non-empty parts, positive
    indices) but not membership in any particular hypergraph; use
    :func:`is_edge` for that.  Duplicate class indices are representable so
    that malformed candidates can be checked and reported rather than
    crashing, but no library construction ever emits one.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[tuple[int, Iterable[int]]]) -> "Edge":
        norm = []
        for class_index, rows in parts:
            rows = frozenset(map(int, rows))
            if not rows:
                raise ValidationError("edge part with empty row set")
            if min(rows) < 1 or int(class_index) < 1:
                raise ValidationError("class and row indices are 1-based positive integers")
            norm.append((int(class_index), rows))
        if not norm:
            raise ValidationError("edge needs at least one part")
        norm.sort(key=itemgetter(0))
        if len({c for c, _ in norm}) < len(norm):
            # a repeated class: order its parts by their sorted rows
            norm.sort(key=lambda p: (p[0], sorted(p[1])))
        return super().__new__(cls, tuple(norm))

    def vertices(self) -> Iterator[Vertex]:
        for class_index, rows in self.parts:
            for row in sorted(rows):
                yield Vertex(class_index, row)

    def classes(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.parts)

    def sizes(self) -> tuple[int, ...]:
        """Part sizes, sorted decreasingly."""
        return tuple(sorted((len(rows) for _, rows in self.parts), reverse=True))

    def size(self) -> int:
        return sum(len(rows) for _, rows in self.parts)


class _VertexSetFields(NamedTuple):
    members: frozenset[Vertex] = frozenset()


class VertexSet(_Checked, _VertexSetFields):
    """An immutable set of grid vertices.

    ``len``, ``in`` and iteration (in sorted order) act on the members, so
    the tuple helpers that iterate a record (``_replace``, ``_asdict``) do
    not apply; build a new VertexSet instead.
    """

    __slots__ = ()

    def __new__(cls, members: Iterable[Vertex] = frozenset()) -> "VertexSet":
        return super().__new__(cls, frozenset(members))

    def __getnewargs__(self) -> tuple[frozenset[Vertex]]:
        return (self.members,)

    @classmethod
    def of(cls, vertices: Iterable[Vertex | tuple[int, int]]) -> "VertexSet":
        return cls(frozenset(Vertex(int(c), int(r)) for c, r in vertices))

    @classmethod
    def from_profile(cls, spec: HypergraphSpec, profile: Iterable[int]) -> "VertexSet":
        """Take the top ``profile[i]`` rows of class i+1."""
        counts = list(profile)
        if len(counts) > spec.n:
            raise ValidationError(f"profile longer than class count {spec.n}")
        members = set()
        for i, b in enumerate(counts):
            if b < 0 or b > spec.q:
                raise ValidationError(f"profile entry {b} outside [0, q={spec.q}]")
            for row in range(1, b + 1):
                members.add(Vertex(i + 1, row))
        return cls(frozenset(members))

    def profile(self, n: int) -> tuple[int, ...]:
        """Per-class member counts (b_1, ..., b_n)."""
        counts = [0] * n
        for v in self.members:
            if not 1 <= v.class_index <= n:
                raise ValidationError(f"vertex {v} outside class range 1..{n}")
            counts[v.class_index - 1] += 1
        return tuple(counts)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.members

    def __iter__(self) -> Iterator[Vertex]:
        return iter(sorted(self.members))


class Matching:
    """A set of edges plus the residual unmatched vertices, in one of two forms.

    Row-set form, ``Matching(edges, unmatched)``: any Edge objects and any
    vertex set, kept as given (decoded or tampered input).

    Class-list form, :meth:`from_classes`, the form every construction
    emits: a spec and a flat class list, edge e putting its part of size
    ``sigma.parts[i]`` in class ``classes[e*s + i]``.  The rows follow from
    these by :func:`_lay`'s rule and are laid on first read, once; ``edges``
    and ``unmatched`` are built from them.

    The container does not enforce validity; :func:`verify_matching`
    reports violations so that tampered inputs can be diagnosed.
    """

    __slots__ = ("spec", "classes", "_laid", "_edges", "_unmatched")

    def __init__(self, edges: Iterable[Edge], unmatched: VertexSet) -> None:
        self.spec = self.classes = self._laid = None
        self._edges = tuple(edges)
        self._unmatched = unmatched

    @classmethod
    def from_classes(cls, spec: HypergraphSpec, classes: Iterable[int]) -> "Matching":
        """A class-list matching of spec; the list is copied into a tuple.
        Refuses a partial edge and a class outside 1..n."""
        m = cls.__new__(cls)
        m.spec, m.classes = spec, tuple(classes)
        if len(m.classes) % spec.sigma.s:
            raise ValidationError("class list does not hold whole edges")
        if m.classes and (min(m.classes) < 1 or max(m.classes) > spec.n):
            raise ValidationError(f"class list leaves the classes 1..{spec.n}")
        m._laid = m._edges = m._unmatched = None
        return m

    def _rows(self) -> tuple[list[int], list[int]]:
        """:func:`_lay` of a class-list matching, computed on first read."""
        if self._laid is None:
            self._laid = _lay(self.spec, self.classes)
        return self._laid

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            self._edges = tuple(map(Edge, zip(*_part_columns(self, tuple))))
        return self._edges

    @property
    def unmatched(self) -> VertexSet:
        if self._unmatched is None:
            self._unmatched = VertexSet.of(_run_cells(self))
        return self._unmatched

    @property
    def size(self) -> int:
        if self.classes is None:
            return len(self._edges)
        return len(self.classes) // self.spec.sigma.s

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.edges == other.edges and self.unmatched == other.unmatched

    def __hash__(self) -> int:
        return hash((self.edges, self.unmatched))

    def __repr__(self) -> str:
        return f"Matching(edges={self.edges!r}, unmatched={self.unmatched!r})"


def _lay(spec: HypergraphSpec, classes: Sequence[int]) -> tuple[list[int], list[int]]:
    """The rows of a class list by the lowest-free-rows rule: each part, in
    list order, takes the lowest free rows of its class.  Returns each
    part's first row and, per class (index 0 unused), its lowest row left
    free; the rows from there to q are the class's unmatched run."""
    free = [1] * (spec.n + 1)
    rows = []
    for c, a in zip(classes, itertools.cycle(spec.sigma.parts)):
        rows.append(free[c])
        free[c] += a
    return rows, free


def all_vertices(spec: HypergraphSpec) -> Iterator[Vertex]:
    for class_index in range(1, spec.n + 1):
        for row in range(1, spec.q + 1):
            yield Vertex(class_index, row)


def make_spec(n: int, q: int, parts: Iterable[int]) -> HypergraphSpec:
    """Build and validate a hypergraph spec; parts may be given in any order."""
    return HypergraphSpec(int(n), int(q), Sigma(tuple(parts)))


def _in_range(spec: HypergraphSpec, v: Vertex) -> bool:
    return 1 <= v.class_index <= spec.n and 1 <= v.row_index <= spec.q


def is_edge(spec: HypergraphSpec, candidate: Edge) -> bool:
    """True iff the candidate's classes are distinct and its sorted part
    sizes realise sigma.  Out-of-range vertices raise ValidationError."""
    for v in candidate.vertices():
        if not _in_range(spec, v):
            raise ValidationError(f"vertex {tuple(v)} outside the {spec.q}x{spec.n} grid")
    classes = candidate.classes()
    if len(set(classes)) != len(classes):
        return False
    return candidate.sizes() == spec.sigma.parts


def _distinct_permutations(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of a multiset, in descending lexicographic order.

    Each step lowers the rightmost entry that exceeds its successor to the
    largest smaller value in the (ascending) tail behind it, then turns that
    tail descending: the next permutation down.
    """
    perm = sorted(values, reverse=True)
    while True:
        yield tuple(perm)
        i = len(perm) - 2
        while i >= 0 and perm[i] <= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] >= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1 :] = perm[:i:-1]


def edge_shapes(spec: HypergraphSpec) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (classes, sizes) once per distinct placement of sigma's parts,
    n!/(n-s)!/prod(mult(v)!) in all, each carrying prod C(q, a) edges:
    ascending over the class combination, then descending over sizes."""
    if not spec.has_edges:
        return
    for classes in itertools.combinations(range(1, spec.n + 1), spec.sigma.s):
        for sizes in _distinct_permutations(spec.sigma.parts):
            yield classes, sizes


def enumerate_edges(spec: HypergraphSpec) -> Iterator[Edge]:
    """Yield every edge exactly once, lazily.

    Order (an artifact convention, nothing more): the order of
    :func:`edge_shapes`, then ascending over row subsets.  Edge counts
    explode combinatorially, so only drain this on small instances.
    """
    rows_universe = range(1, spec.q + 1)
    for classes, sizes in edge_shapes(spec):
        row_choices = [itertools.combinations(rows_universe, size) for size in sizes]
        for row_sets in itertools.product(*row_choices):
            yield Edge(tuple((c, frozenset(rs)) for c, rs in zip(classes, row_sets)))


def count_placements(spec: HypergraphSpec) -> int:
    """Number of distinct ways to put sigma's parts in distinct classes,
    equal parts interchangeable: n!/(n-s)! / prod mult(v)!."""
    total = math.perm(spec.n, spec.sigma.s)
    for mult in Counter(spec.sigma.parts).values():
        total //= math.factorial(mult)
    return total


def count_edges(spec: HypergraphSpec) -> int:
    """Number of edges: each placement times its row choices, by the
    product of binomials (no enumeration)."""
    if not spec.has_edges:
        return 0
    total = count_placements(spec)
    for a in spec.sigma.parts:
        total *= math.comb(spec.q, a)
    return total


def frobenius_decompose(target: int, u: int, v: int) -> tuple[int, int]:
    """Nonnegative (x, y) with x*u + y*v = target, maximising x.

    Requires coprime u, v >= 1.  Succeeds for every target at or above
    (u-1)(v-1); below that a representation may not exist, in which case
    NoRepresentation is raised.  v divides target - x*u exactly when
    x = target * u^-1 (mod v), so x is the largest such value at most
    target // u.
    """
    if u < 1 or v < 1:
        raise ValidationError(f"need u, v >= 1, got u={u}, v={v}")
    if math.gcd(u, v) != 1:
        raise ValidationError(f"u={u} and v={v} are not coprime")
    x = target // u
    x -= (x - target * pow(u, -1, v)) % v
    if x < 0:
        raise NoRepresentation(f"{target} is not a nonnegative combination of {u} and {v}")
    return x, (target - x * u) // v


class Violation(NamedTuple):
    kind: str  # "overlap" | "non-edge" | "unmatched"
    message: str


class VerificationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _repeats_pairwise(columns: Sequence[Sequence[int]]) -> bool:
    """True iff some edge repeats a class; columns[i][e] is the class of
    part i of edge e.  One pass per pair of columns: cheapest for few parts."""
    return any(any(map(eq, x, y)) for x, y in itertools.combinations(columns, 2))


def _repeats_by_sets(columns: Sequence[Sequence[int]]) -> bool:
    """As :func:`_repeats_pairwise`, by one set per edge: cheapest for many parts."""
    return not set(map(len, map(set, zip(*columns)))) <= {len(columns)}


def _loads_fit(spec: HypergraphSpec, classes: Sequence[int]) -> bool:
    """True iff no edge of the class list repeats a class and no class
    hosts more than q rows.  A class list laid on its own spec is then
    valid: :func:`_lay` tiles each class from row 1 with its parts, and the
    unmatched run fills the rest."""
    parts, s = spec.sigma.parts, spec.sigma.s
    columns = [classes[i::s] for i in range(s)]
    # the pairwise test makes (s-1)/2 passes over the list; it is the faster up to s = 4
    if (_repeats_pairwise if s <= 4 else _repeats_by_sets)(columns):
        return False
    loads: Counter[int] = Counter()
    for a, column in zip(parts, columns):
        for c, count in Counter(column).items():
            loads[c] += a * count
    return max(loads.values(), default=0) <= spec.q


def verify_matching(spec: HypergraphSpec, m: Matching) -> VerificationReport:
    """Check a matching against the spec; violations are report content,
    never exceptions.

    A class-list matching of this very spec that passes :func:`_loads_fit`
    is valid without further work.  Any other matching is checked cell by
    cell: grid cell (c, row) has id (c-1)*q + (row-1); ``owner`` holds, per
    id, the first edge covering it (-1 if none), and edge cells off the grid
    keep their first edge in a side table, so overlaps there are reported
    too.  That check refuses a grid too large to index in memory with a
    ValidationError.
    """
    if m.spec == spec and _loads_fit(spec, m.classes):
        return VerificationReport(())
    n, q, parts = spec.n, spec.q, spec.sigma.parts
    violations: list[Violation] = []
    try:
        owner = [-1] * (n * q)
    except (OverflowError, MemoryError) as exc:
        raise ValidationError(f"{spec} has {n * q} vertices, too many to verify") from exc
    outside: dict[tuple[int, int], int] = {}
    for idx, edge in enumerate(m.edges):
        first_out = None
        overlaps = []
        for c, rows in edge.parts:
            base = (c - 1) * q - 1
            for row in sorted(rows):
                if c <= n and row <= q:  # Edge keeps indices >= 1
                    prev = owner[base + row]
                    if prev < 0:
                        owner[base + row] = idx
                        continue
                else:
                    if first_out is None:
                        first_out = (c, row)
                    prev = outside.get((c, row))
                    if prev is None:
                        outside[c, row] = idx
                        continue
                overlaps.append(
                    Violation("overlap", f"vertex {(c, row)} appears in edges {prev} and {idx}")
                )
        if first_out is not None:
            violations.append(
                Violation("non-edge", f"edge {idx} has out-of-range vertex {first_out}")
            )
        else:
            classes = edge.classes()
            if len(set(classes)) != len(classes):
                violations.append(
                    Violation("non-edge", f"edge {idx} repeats class {classes}")
                )
            elif edge.sizes() != parts:
                violations.append(
                    Violation(
                        "non-edge",
                        f"edge {idx} part sizes {edge.sizes()} do not realise {spec.sigma}",
                    )
                )
        violations.extend(overlaps)
    for v in sorted(m.unmatched.members):
        c, row = v
        i = (c - 1) * q + row - 1
        if not (1 <= c <= n and 1 <= row <= q):
            violations.append(
                Violation("unmatched", f"unmatched vertex {tuple(v)} is out of range")
            )
        elif owner[i] >= 0:
            violations.append(
                Violation(
                    "unmatched",
                    f"vertex {tuple(v)} is both matched (edge {owner[i]}) and listed unmatched",
                )
            )
        else:
            owner[i] = -2  # accounted for as unmatched
    missing = owner.count(-1)
    if missing:
        c, row = divmod(owner.index(-1), q)
        violations.append(
            Violation(
                "unmatched",
                f"{missing} vertices unaccounted for, first {(c + 1, row + 1)}",
            )
        )
    return VerificationReport(tuple(violations))


# ---------------------------------------------------------------------------
# Canonical JSON encoding (shared by the CLI and test fixtures).
#
#   spec:     {"n": int, "q": int, "sigma": [int, ...]}
#   edge:     [{"class": int, "rows": [int, ...]}, ...]
#   matching: {"edges": [edge, ...], "unmatched": [{"class": int, "row": int}, ...]}
#
# The objects the encoders return are read-only: in an encoded class-list
# matching, every part laid on the same rows shares one "rows" list, so a
# caller that edits one must copy it first (json.loads gives a fresh copy).
# ---------------------------------------------------------------------------


def _brief(obj: object) -> str:
    """repr(obj) for an error message, cut after its first 300 characters."""
    text = repr(obj)
    return text if len(text) <= 300 else text[:300] + "..."


def spec_to_json(spec: HypergraphSpec) -> dict:
    return {"n": spec.n, "q": spec.q, "sigma": list(spec.sigma.parts)}


@contextlib.contextmanager
def _decoding(kind: str, obj: object) -> Iterator[None]:
    """Report a failure to decode obj as ``malformed <kind> object``; a
    ValidationError from a constructor passes as it is."""
    try:
        yield
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {kind} object: {_brief(obj)}") from exc


def _json_ints(*values: Iterable[object]) -> None:
    """Refuse any value but a JSON integer (an int, not a bool or a float),
    where the constructors would coerce it."""
    if not set(map(type, itertools.chain(*values))) <= {int}:
        raise TypeError("numbers must be integers")


def _edges_from_json(objs: list) -> tuple[Edge, ...]:
    """The edges of decoded edge objects, then one pass over all their
    parts: every class and row a JSON integer, no row repeated in a part."""
    edges = tuple(Edge([(part["class"], part["rows"]) for part in obj]) for obj in objs)
    rows = [part["rows"] for obj in objs for part in obj]
    _json_ints([part["class"] for obj in objs for part in obj], *rows)
    if sum(map(len, rows)) != sum(e.size() for e in edges):
        raise ValueError("repeated row")
    return edges


def spec_from_json(obj: dict) -> HypergraphSpec:
    with _decoding("spec", obj):
        spec = make_spec(obj["n"], obj["q"], obj["sigma"])
        _json_ints((obj["n"], obj["q"]), obj["sigma"])
        return spec


def edge_to_json(edge: Edge) -> list:
    return [{"class": c, "rows": sorted(rows)} for c, rows in edge.parts]


def edge_from_json(obj: list) -> Edge:
    with _decoding("edge", obj):
        return _edges_from_json([obj])[0]


def matching_to_json(m: Matching) -> dict:
    """The canonical object, each edge's parts in the order Edge keeps
    them.  Read-only: a class-list matching is encoded from its laid rows,
    and every part laid on the same rows shares one "rows" list, so copy
    the object (or a part) before editing it."""
    if m.classes is None:
        edges = [edge_to_json(e) for e in m.edges]
        unmatched = sorted(m.unmatched.members)
    else:
        columns = [
            [{"class": c, "rows": rows} for c, rows in column]
            for column in _part_columns(m, list)
        ]
        # stable: parts of an edge in one class keep list order, which is row order
        by_class = itemgetter("class")
        edges = [sorted(parts, key=by_class) for parts in zip(*columns)]
        unmatched = _run_cells(m)
    return {"edges": edges, "unmatched": [{"class": c, "row": row} for c, row in unmatched]}


def _part_columns(m: Matching, run: Callable[[range], object]) -> list[Iterator[tuple]]:
    """Column i holds part i of each edge of class-list m, in list order,
    as (class, run(its rows)).  run is called once per distinct run of rows,
    and every part laid on that run gets the same value.  Columns are read
    through islice: slices would copy the class list and its rows, and on a
    large matching the freed copies still raise the process's peak RSS."""
    parts, s = m.spec.sigma.parts, m.spec.sigma.s
    firsts = m._rows()[0]

    def column(seq: Sequence[int], i: int) -> Iterator[int]:
        return itertools.islice(seq, i, None, s)

    runs = {}
    for a in set(parts):
        rows = set().union(*(column(firsts, i) for i, b in enumerate(parts) if b == a))
        runs[a] = {row: run(range(row, row + a)) for row in rows}
    return [
        zip(column(m.classes, i), map(runs[a].__getitem__, column(firsts, i)))
        for i, a in enumerate(parts)
    ]


def _run_cells(m: Matching) -> list[tuple[int, int]]:
    """The unmatched cells of class-list m, sorted."""
    free, q = m._rows()[1], m.spec.q
    return [(c, row) for c in range(1, m.spec.n + 1) for row in range(free[c], q + 1)]


def dumps_with_matching(payload: dict, m: Matching) -> str:
    """``json.dumps(dict(payload, matching=matching_to_json(m)),
    sort_keys=True, indent=2)``, with the matching's text written apart and
    spliced in where json.dumps puts its key."""
    head, tail = json.dumps(dict(payload, matching=None), sort_keys=True, indent=2).split(
        '\n  "matching": null'
    )
    return head + '\n  "matching": ' + _matching_text(m, "\n  ") + tail


def _matching_text(m: Matching, nl: str) -> str:
    """The indent=2 JSON text of ``matching_to_json(m)`` with ``nl`` as its
    line break plus the indent of the line holding its opening brace.  A
    class-list matching is written from one text per class and one per run
    of rows, joined part by part."""
    if m.classes is None:
        return json.dumps(matching_to_json(m), sort_keys=True, indent=2).replace("\n", nl)
    nl1, nl2, nl3, nl4, nl5 = (nl + "  " * k for k in range(1, 6))

    def rows_text(rows: range) -> str:
        numbers = ("," + nl5).join(map(str, rows))
        return ",%s\"rows\": [%s%s%s]%s}" % (nl4, nl5, numbers, nl4, nl3)

    heads = ["{%s\"class\": %d" % (nl4, c) for c in range(m.spec.n + 1)]
    by_class = itemgetter(0)
    edges = [
        _json_list([heads[c] + rows for c, rows in sorted(parts, key=by_class)], nl2)
        for parts in zip(*_part_columns(m, rows_text))
    ]
    vertex = "{%s\"class\": %%d,%s\"row\": %%d%s}" % (nl3, nl3, nl2)
    unmatched = [vertex % cell for cell in _run_cells(m)]
    return "{%s\"edges\": %s,%s\"unmatched\": %s%s}" % (
        nl1, _json_list(edges, nl1), nl1, _json_list(unmatched, nl1), nl
    )


def _json_list(items: list[str], nl: str) -> str:
    """An indent=2 JSON list of item texts, ``nl`` as for the key line."""
    if not items:
        return "[]"
    return "[" + nl + "  " + ("," + nl + "  ").join(items) + nl + "]"


def matching_from_json(obj: dict) -> Matching:
    with _decoding("matching", obj):
        edges = _edges_from_json(obj["edges"])
        cells = [(v["class"], v["row"]) for v in obj["unmatched"]]
        unmatched = VertexSet.of(cells)
        _json_ints(*cells)
        if len(unmatched) != len(cells):
            raise ValueError("repeated unmatched cell")
    return Matching(edges, unmatched)
