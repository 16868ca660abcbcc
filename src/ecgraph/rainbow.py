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

from .core import ColoredGraph, _color_rows, _jsonable
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


def _links(graph: ColoredGraph, v: int, lo: int = 0, proper: bool = False):
    """Pairs (x, y) with lo <= x < y such that v, x, y is a rainbow
    triangle, or with ``proper`` a properly colored one (c(xy) differs from
    c(vx) and c(vy), while c(vx) == c(vy) is allowed), in lexicographic
    order: x walks N(v) upward from lo (the row of v past its neighbors
    below lo), and y the bits of N(v) & N(x) above x."""
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
            if (proper or cvx != cvy) and cxy != cvx and cxy != cvy:
                yield x, y


def _rainbow_triangles(graph: ColoredGraph):
    """Rainbow triangles (u, v, w) with u < v < w in lexicographic order,
    which is edge uv in lexicographic order and then ascending apex w.
    Only vertices with two neighbors above them are scanned as u."""
    for u in range(graph.n):
        above = graph.adjacency_bits(u) >> (u + 1)
        if above & (above - 1):
            for v, w in _links(graph, u, u + 1):
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


# kind -> how many base vertices every triangle of the certificate contains
_BASE_SIZE = {"book": 2, "fan": 1, "spanning_fan": 1, "disjoint_family": 0}


@dataclass(frozen=True)
class Certificate:
    """Witness for a successful search; ``self_check`` revalidates it.

    Every kind is triangles that share a base and are disjoint elsewhere.
    kind: one of book, fan, disjoint_family, spanning_fan.
    base: the shared edge for a book, the center vertex for fans, None for
    a disjoint family.  ``triangles`` always lists the full triples.
    """

    kind: str
    base: tuple[int, int] | int | None
    triangles: tuple[tuple[int, int, int], ...]

    def cited_edges(self) -> list[tuple[int, int]]:
        es = set()
        for t in self.triangles:
            a, b, c = sorted(t)
            es.update({(a, b), (a, c), (b, c)})
        return sorted(es)

    def self_check(self, graph: ColoredGraph) -> bool:
        """True iff the certificate is valid for the given graph.

        One rule for every kind: there is at least one triangle; each is a
        triangle of the graph, rainbow (for a spanning fan, properly
        colored: the rim edge's color differs from both spokes) and
        contains the base, as many distinct vertices as the kind fixes
        (``_BASE_SIZE``); the rims are pairwise disjoint, and a spanning
        fan's rims cover the other n-1 vertices.
        """
        base = self.base
        base = () if base is None else (base,) if isinstance(base, int) else tuple(base)
        shared = set(base)
        if (not self.triangles or len(base) != _BASE_SIZE.get(self.kind)
                or len(shared) != len(base)):
            return False
        for t in self.triangles:
            a, b, c = t
            if not (graph.has_edge(a, b) and graph.has_edge(a, c)
                    and graph.has_edge(b, c) and shared <= set(t)):
                return False
            # colors[i] is the color of the edge opposite t[i]
            colors = [graph.color(b, c), graph.color(a, c), graph.color(a, b)]
            if self.kind == "spanning_fan":
                if colors.count(colors[t.index(base[0])]) != 1:
                    return False
            elif len(set(colors)) != 3:
                return False
        # the rims: each triangle's vertices outside the base
        hit = [w for t in self.triangles for w in t if w not in shared]
        return len(set(hit)) == len(hit) and (
            self.kind != "spanning_fan" or len(hit) == graph.n - 1)

    def to_json(self, graph: ColoredGraph) -> dict:
        """JSON document citing the colors of every referenced edge."""
        return {**_jsonable(self), "edge_colors": [
            [u, v, graph.color(u, v)] for u, v in self.cited_edges()]}


def max_book(graph: ColoredGraph) -> int:
    """Largest k such that k rainbow triangles share one edge."""
    return max(build_index(graph).rt_edge.values(), default=0)


def find_book(graph: ColoredGraph, k: int) -> Certificate | None:
    """First edge (lexicographically) carrying k rainbow triangles, with
    its k smallest apexes.

    An early-exit scan that builds no index: an edge uv with fewer than k
    common neighbors is skipped by a popcount, and otherwise its common
    neighbors w are walked upward, keeping those where c(uv), c(uw) and
    c(vw) are pairwise distinct, until k are found."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = graph.derived(_color_rows)
    for u, v in graph.edges:
        common = graph.adjacency_bits(u) & graph.adjacency_bits(v)
        if common.bit_count() < k:
            continue
        row_u, row_v = rows[u], rows[v]
        cuv = row_u[v]
        apexes = []
        while common:
            low = common & -common
            common ^= low
            w = low.bit_length() - 1
            cuw, cvw = row_u[w], row_v[w]
            if cuw != cuv and cvw != cuv and cuw != cvw:
                apexes.append(w)
                if len(apexes) == k:
                    tris = tuple(tuple(sorted((u, v, a))) for a in apexes)
                    return Certificate(kind="book", base=(u, v), triangles=tris)
    return None


def max_fan(graph: ColoredGraph) -> int:
    """Largest k such that k rainbow triangles share only one vertex.

    A fan at v has disjoint rims among the neighbors of v, so at most
    floor(deg(v) / 2) triangles: centers are tried in decreasing degree
    until that bound cannot beat the best found."""
    best = 0
    for v in sorted(range(graph.n), key=graph.degree, reverse=True):
        if graph.degree(v) // 2 <= best:
            break
        best = max(best, len(max_matching(graph.n, _links(graph, v))))
    return best


def _first_fan(graph: ColoredGraph, kind: str, k: int) -> Certificate | None:
    """Fan of k triangles v, x, y at the first center v that admits one,
    with rims (x, y) among v's links: proper ones for a spanning fan (the
    rule ``Certificate.self_check`` applies), rainbow ones otherwise.

    The k rims are a matching of size k among those pairs, so each center
    costs one maximum matching, and centers of degree below 2k, which
    cannot hold k disjoint pairs of neighbors, are skipped without one.
    """
    proper = kind == "spanning_fan"
    for v in range(graph.n):
        if graph.degree(v) >= 2 * k:
            matched = max_matching(graph.n, _links(graph, v, proper=proper))
            if len(matched) >= k:
                tris = tuple(tuple(sorted((v, x, y))) for x, y in matched[:k])
                return Certificate(kind=kind, base=v, triangles=tris)
    return None


def find_fan(graph: ColoredGraph, k: int) -> Certificate | None:
    """Fan of k rainbow triangles at the first center that admits one: a
    matching of size k among the center's rainbow links."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _first_fan(graph, "fan", k)


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


def find_pc_spanning_fan(graph: ColoredGraph) -> Certificate | None:
    """Properly colored fan covering all vertices, for odd n >= 3.

    The center v must see every other vertex, and the rims must form a
    perfect matching of v's proper links (:func:`_links`): each
    triangle v, x, y has c(vx) != c(xy) and c(xy) != c(yv), while
    c(vx) == c(vy) is allowed.  So it is the fan search with k = (n-1)/2.
    """
    n = graph.n
    if n < 3 or n % 2 == 0:
        raise ValueError("spanning fan needs an odd vertex count of at least 3")
    return _first_fan(graph, "spanning_fan", (n - 1) // 2)
