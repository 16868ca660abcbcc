"""Rainbow triangle enumeration and structured searches.

Searches return :class:`Certificate` witnesses so that every positive
answer can be re-checked against the graph without trusting the search.
Scans run in ascending vertex/edge order and return the first witness,
which keeps outputs deterministic.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .core import ColoredGraph, _color_rows
from .matching import _node_budget, max_matching


@dataclass(frozen=True)
class RainbowTriangleIndex:
    """All rainbow triangles of a graph plus per-vertex/per-edge counts."""

    triangles: tuple[tuple[int, int, int], ...]
    rt_vertex: dict[int, int]
    rt_edge: dict[tuple[int, int], int]

    def count(self) -> int:
        return len(self.triangles)

    def rt(self, v: int) -> int:
        return self.rt_vertex.get(v, 0)

    def rt_pair(self, u: int, v: int) -> int:
        return self.rt_edge.get((u, v) if u < v else (v, u), 0)

    def rt_set(self, v: int, others) -> int:
        """Sum of rt(v, x) over x in ``others``."""
        return sum(self.rt_pair(v, x) for x in others)


def _rainbow_links(graph: ColoredGraph, v: int, lo: int):
    """Pairs (x, y) with lo <= x < y such that v, x, y is a rainbow
    triangle, in lexicographic order: x walks N(v) upward from lo (the row
    of v past its neighbors below lo), and y the bits of N(v) & N(x) above
    x."""
    rows = graph.derived(_color_rows)
    row = rows[v]
    nv = graph.adjacency_bits(v)
    below = (nv & ((1 << lo) - 1)).bit_count()
    for x, cvx in itertools.islice(row.items(), below, None):
        row_x = rows[x]
        common = (nv & graph.adjacency_bits(x)) >> (x + 1)
        while common:
            low = common & -common
            common ^= low
            y = x + low.bit_length()
            cvy, cxy = row[y], row_x[y]
            if cvx != cvy and cvx != cxy and cvy != cxy:
                yield x, y


def _proper_links(graph: ColoredGraph, v: int):
    """Pairs (x, y) with x < y in N(v) such that v, x, y is a properly
    colored triangle: c(xy) differs from c(vx) and c(vy), while
    c(vx) == c(vy) is allowed.  Lexicographic order, walked as in
    :func:`_rainbow_links`."""
    rows = graph.derived(_color_rows)
    row = rows[v]
    nv = graph.adjacency_bits(v)
    for x, cvx in row.items():
        row_x = rows[x]
        common = (nv & graph.adjacency_bits(x)) >> (x + 1)
        while common:
            low = common & -common
            common ^= low
            y = x + low.bit_length()
            cxy = row_x[y]
            if cxy != cvx and cxy != row[y]:
                yield x, y


def _rainbow_triangles(graph: ColoredGraph):
    """Rainbow triangles (u, v, w) with u < v < w in lexicographic order,
    which is edge uv in lexicographic order and then ascending apex w.
    Only vertices with two neighbors above them are scanned as u."""
    for u in range(graph.n):
        above = graph.adjacency_bits(u) >> (u + 1)
        if above & (above - 1):
            for v, w in _rainbow_links(graph, u, u + 1):
                yield u, v, w


def _index(graph: ColoredGraph) -> RainbowTriangleIndex:
    tris = tuple(_rainbow_triangles(graph))
    rt_v = Counter(itertools.chain.from_iterable(tris))
    rt_e = Counter(itertools.chain.from_iterable(
        ((u, v), (u, w), (v, w)) for u, v, w in tris))
    return RainbowTriangleIndex(tris, rt_v, rt_e)


def build_index(graph: ColoredGraph) -> RainbowTriangleIndex:
    """Every rainbow triangle, in lexicographic order, with its vertex and
    edge counts.  Built once per graph (see :meth:`ColoredGraph.derived`)."""
    return graph.derived(_index)


def has_rainbow_triangle(graph: ColoredGraph) -> bool:
    """Early-exit existence test over the same scan as build_index."""
    return any(_rainbow_triangles(graph))


@dataclass(frozen=True)
class RainbowEdgeGraph:
    """Edges xy such that v, x, y is a rainbow triangle, for a fixed v."""

    center: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def rainbow_edge_graph(graph: ColoredGraph, v: int) -> RainbowEdgeGraph:
    """A public view over the link scan :func:`_rainbow_links` from 0: the
    pairs x < y closing a rainbow triangle with v, and the vertices they
    touch.  The package reads the scan directly; this view is for callers
    outside it."""
    graph._check_vertex(v)
    es = tuple(_rainbow_links(graph, v, 0))
    verts = tuple(sorted({w for e in es for w in e}))
    return RainbowEdgeGraph(center=v, vertices=verts, edges=es)


@dataclass(frozen=True)
class Certificate:
    """Witness for a successful search; ``self_check`` revalidates it.

    kind: one of book, fan, disjoint_family, spanning_fan.
    base: the shared edge for a book, the center vertex for fans, None for
    a disjoint family.  ``triangles`` always lists the full triples.
    """

    kind: str
    base: tuple[int, int] | int | None
    triangles: tuple[tuple[int, int, int], ...]

    @property
    def apexes(self) -> tuple[int, ...]:
        if self.kind != "book":
            raise ValueError("apexes are defined for book certificates")
        u, v = self.base
        return tuple(sorted(set(t) - {u, v})[0] for t in self.triangles)

    def cited_edges(self) -> list[tuple[int, int]]:
        es = set()
        for t in self.triangles:
            a, b, c = sorted(t)
            es.update({(a, b), (a, c), (b, c)})
        return sorted(es)

    def self_check(self, graph: ColoredGraph) -> bool:
        """True iff the certificate is valid for the given graph."""
        tris = [tuple(sorted(t)) for t in self.triangles]
        if not tris or len(set(tris)) != len(tris):
            return False
        for a, b, c in tris:
            if not (graph.has_edge(a, b) and graph.has_edge(a, c)
                    and graph.has_edge(b, c)):
                return False
        if self.kind != "spanning_fan":
            for a, b, c in tris:
                cs = {graph.color(a, b), graph.color(a, c), graph.color(b, c)}
                if len(cs) != 3:
                    return False
        if self.kind == "book":
            u, v = self.base
            return all(u in t and v in t for t in tris)
        if self.kind == "fan":
            v = self.base
            if any(v not in t for t in tris):
                return False
            rims = [tuple(sorted(set(t) - {v})) for t in tris]
            hit = [w for rim in rims for w in rim]
            return len(set(hit)) == len(hit)
        if self.kind == "disjoint_family":
            hit = [w for t in tris for w in t]
            return len(set(hit)) == len(hit)
        if self.kind == "spanning_fan":
            v = self.base
            if any(v not in t for t in tris):
                return False
            rims = [tuple(sorted(set(t) - {v})) for t in tris]
            hit = [w for rim in rims for w in rim]
            if sorted(hit) != sorted(set(range(graph.n)) - {v}):
                return False
            for x, y in rims:
                cxy = graph.color(x, y)
                if cxy == graph.color(v, x) or cxy == graph.color(v, y):
                    return False
            return True
        return False

    def to_json(self, graph: ColoredGraph) -> dict:
        """JSON document citing the colors of every referenced edge."""
        base = list(self.base) if isinstance(self.base, tuple) else self.base
        return {
            "kind": self.kind,
            "base": base,
            "triangles": [list(t) for t in self.triangles],
            "edge_colors": [
                [u, v, graph.color(u, v)] for u, v in self.cited_edges()
            ],
        }


def max_book(graph: ColoredGraph) -> int:
    """Largest k such that k rainbow triangles share one edge."""
    return max(build_index(graph).rt_edge.values(), default=0)


def find_book(graph: ColoredGraph, k: int) -> Certificate | None:
    """First edge (lexicographically) carrying k rainbow triangles."""
    if k < 1:
        raise ValueError("k must be >= 1")
    index = build_index(graph)
    for u, v in graph.edges:
        if index.rt_pair(u, v) >= k:
            apexes = sorted(
                (set(t) - {u, v}).pop()
                for t in index.triangles if u in t and v in t
            )[:k]
            tris = tuple(tuple(sorted((u, v, a))) for a in apexes)
            return Certificate(kind="book", base=(u, v), triangles=tris)
    return None


def _fan_matching(graph: ColoredGraph, v: int) -> list[tuple[int, int]]:
    return max_matching(graph.n, _rainbow_links(graph, v, 0))


def max_fan(graph: ColoredGraph) -> int:
    """Largest k such that k rainbow triangles share only one vertex.

    A fan at v has disjoint rims among the neighbors of v, so at most
    floor(deg(v) / 2) triangles: centers are tried in decreasing degree
    until that bound cannot beat the best found."""
    best = 0
    for v in sorted(range(graph.n), key=graph.degree, reverse=True):
        if graph.degree(v) // 2 <= best:
            break
        best = max(best, len(_fan_matching(graph, v)))
    return best


def find_fan(graph: ColoredGraph, k: int) -> Certificate | None:
    """Fan of k rainbow triangles at the first center that admits one.

    A fan at v exists iff the rainbow-triangle edges of v contain a
    matching of size k, so the search reduces to maximum matching.  Its k
    rims are disjoint pairs of neighbors of v, so centers of degree below
    2k are skipped without one.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    for v in range(graph.n):
        if graph.degree(v) < 2 * k:
            continue
        matched = _fan_matching(graph, v)
        if len(matched) >= k:
            tris = tuple(tuple(sorted((v, x, y))) for x, y in matched[:k])
            return Certificate(kind="fan", base=v, triangles=tris)
    return None


def find_disjoint_rainbow_triangles(graph: ColoredGraph,
                                    k: int) -> Certificate | None:
    """k pairwise vertex-disjoint rainbow triangles, by exact backtracking.

    Intended for small instances (n up to ~20): branches over the sorted
    triangle list and prunes on the remaining vertex count.  Raises
    ValueError past SEARCH_NODE_LIMIT nodes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tris = build_index(graph).triangles
    chosen: list[tuple[int, int, int]] = []
    visit = _node_budget("find_disjoint_rainbow_triangles")

    def extend(start: int, used: set[int]) -> bool:
        visit()
        if len(chosen) == k:
            return True
        if len(chosen) + (graph.n - len(used)) // 3 < k:
            return False
        for i in range(start, len(tris)):
            t = tris[i]
            if used.isdisjoint(t):
                chosen.append(t)
                if extend(i + 1, used | set(t)):
                    return True
                chosen.pop()
        return False

    if extend(0, set()):
        return Certificate(kind="disjoint_family", base=None,
                           triangles=tuple(chosen))
    return None


def max_disjoint_rainbow_triangles(graph: ColoredGraph) -> int:
    """Largest k for which a disjoint family exists (exact, small n)."""
    k = 0
    while find_disjoint_rainbow_triangles(graph, k + 1) is not None:
        k += 1
    return k


def find_pc_spanning_fan(graph: ColoredGraph) -> Certificate | None:
    """Properly colored fan covering all vertices, for odd n >= 3.

    The center v must see every other vertex, and the rims must form a
    perfect matching of v's proper links (:func:`_proper_links`): each
    triangle v, x, y has c(vx) != c(xy) and c(xy) != c(yv), while
    c(vx) == c(vy) is allowed.  So each center of degree n-1 costs one
    maximum matching, and the first center whose matching is perfect wins.
    """
    n = graph.n
    if n < 3 or n % 2 == 0:
        raise ValueError("spanning fan needs an odd vertex count of at least 3")
    for v in range(n):
        if graph.degree(v) < n - 1:
            continue
        matched = max_matching(n, _proper_links(graph, v))
        if 2 * len(matched) == n - 1:
            tris = tuple(tuple(sorted((v, x, y))) for x, y in matched)
            return Certificate(kind="spanning_fan", base=v, triangles=tris)
    return None
