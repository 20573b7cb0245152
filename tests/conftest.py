import itertools
import math

from sigmahg import core


def partitions(r, largest=None):
    """All partitions of r as weakly decreasing tuples."""
    largest = largest or r
    if r == 0:
        yield ()
        return
    for first in range(min(r, largest), 0, -1):
        for rest in partitions(r - first, first):
            yield (first,) + rest


def all_vertices(spec):
    """Every grid cell of spec, class by class, each class's rows in order."""
    for class_index in range(1, spec.n + 1):
        for row in range(1, spec.q + 1):
            yield core.Vertex(class_index, row)


def recheck_matching(spec, m):
    """From-scratch validity check, independent of verify_matching."""
    seen = set()
    for edge in m.edges:
        try:
            if not core.is_edge(spec, edge):
                return False
        except core.ValidationError:
            return False
        for v in edge.vertices():
            if v in seen:
                return False
            seen.add(v)
    universe = set(all_vertices(spec))
    if not m.unmatched.members <= universe:
        return False
    if seen & m.unmatched.members:
        return False
    return seen | m.unmatched.members == universe


def row_set_copy(m):
    """The row-set matching of class-list m, its rows laid here without
    reading ``m.edges`` or ``m.unmatched``: each part, in list order, takes
    the lowest free rows of its class, and the rows left over in each
    class are unmatched."""
    spec, s = m.spec, m.spec.sigma.s
    free = [1] * (spec.n + 1)
    cells = []
    for c, a in zip(m.classes, itertools.cycle(spec.sigma.parts)):
        cells.append((c, range(free[c], free[c] + a)))
        free[c] += a
    edges = [core.Edge(cells[k : k + s]) for k in range(0, len(cells), s)]
    unmatched = core.VertexSet.of(
        (c, row) for c in range(1, spec.n + 1) for row in range(free[c], spec.q + 1)
    )
    return core.Matching(edges, unmatched)


def small_specs(max_r=4, max_n=4, max_q=4, with_edges_only=False):
    for r in range(1, max_r + 1):
        for parts in partitions(r):
            for n in range(1, max_n + 1):
                for q in range(1, max_q + 1):
                    spec = core.make_spec(n, q, parts)
                    if with_edges_only and not spec.has_edges:
                        continue
                    yield spec


def gcd_of(parts):
    return math.gcd(*parts)
