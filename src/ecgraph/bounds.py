"""Restricted-color counting and rainbow-triangle lower bounds.

All arithmetic is exact (ints and Fractions): the statements being checked
are exact inequalities, so floating point has no place here.

Color classes at a vertex are indexed in canonical order: decreasing size,
ties broken by ascending color id.  The per-class lower bound on rainbow
triangle counts is guaranteed only on edge-minimal graphs; reports carry an
``edge_minimal`` flag so callers know whether the guarantee applies.

Every per-class quantity comes from one integer kernel, ``_vertex_bounds``,
over the class bitsets and per-graph color-degree and rt rows; only
:func:`triangle_bound_report` turns its rows into report objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (ColoredGraph, _color_degrees, _members, _mono_degrees,
                   max_mono_degree, min_color_degree)
from .rainbow import build_index, rainbow_edge_graph
from .reduction import is_edge_minimal


def _sigma(table: list[dict[int, int]], v: int, x_bits: int, y: int) -> int:
    """The restriction count of y by (v, X), with X given as a bitset."""
    at_v = table[v]
    count = 0
    for a, c_y in table[y].items():
        if not c_y & ~x_bits and c_y & ~at_v.get(a, 0):
            count += 1
    return count


def restriction_count(graph: ColoredGraph, v: int, x_set, y: int) -> int:
    """Number of colors restricted for y by (v, X).

    A color a = c(xy) with x in X and xy an edge is restricted when the
    two-edge path v, x, y is rainbow (c(vx) != c(xy)) and a does not appear
    on any edge from y to N(y) outside X.  Note that when vy is an edge,
    v itself lies in N(y) minus X, so c(vy) is excluded automatically.

    With C_u(a) the class of color a at u (the neighbors of u joined by a),

        sigma(v, X, y) = #{colors a at y : C_y(a) is a subset of X
                                           and not a subset of C_v(a)}:

    a is outside exactly when its class at y leaves X, and restricted
    exactly when some x in that class has c(vx) != a.  The classes are the
    bitsets of :meth:`ColoredGraph.color_table`.
    """
    graph._check_vertex(v)
    graph._check_vertex(y)
    xs = frozenset(x_set)
    nbrs = graph.neighbors(v)
    if not xs.issubset(nbrs):
        raise ValueError("X must be a subset of N(v)")
    if y == v:
        raise ValueError("y must differ from v")
    x_bits = sum(1 << x for x in nbrs if x in xs)
    return _sigma(graph.color_table(), v, x_bits, y)


def edge_restriction_counts(graph: ColoredGraph):
    """(a, b, sigma(a, X, b)) for each ordered edge, with X = N(a) minus the
    class of c(ab) at a: edges in lexicographic order, (u, v) then (v, u)."""
    table = graph.color_table()
    for u, v in graph.edges:
        c = graph.color(u, v)
        for a, b in ((u, v), (v, u)):
            x_bits = graph.adjacency_bits(a) & ~table[a][c]
            yield a, b, _sigma(table, a, x_bits, b)


@dataclass(frozen=True)
class ClassBound:
    """Bound data for one color class at a vertex (canonical order)."""

    color: int
    size: int
    rt_observed: int
    lower_bound: int
    lower_bound_strict: int
    balance: int

    @property
    def slack(self) -> int:
        return self.rt_observed - self.lower_bound

    def to_json(self) -> dict:
        return {
            "color": self.color,
            "size": self.size,
            "rt_observed": self.rt_observed,
            "lower_bound": self.lower_bound,
            "lower_bound_strict": self.lower_bound_strict,
            "balance": self.balance,
            "slack": self.slack,
        }


@dataclass(frozen=True)
class TriangleBoundReport:
    """Per-class and whole-vertex rainbow triangle lower bounds.

    ``vertex_lower`` is half the sum of the per-class bounds, an exact
    rational lower bound on rt(v) for edge-minimal graphs.  On graphs that
    are not edge-minimal the numbers are still computed but carry no
    guarantee (``edge_minimal`` is False).
    """

    vertex: int
    edge_minimal: bool
    per_class: tuple[ClassBound, ...]
    balance_total: int
    rt_vertex: int
    vertex_lower: Fraction

    def to_json(self) -> dict:
        return {
            "vertex": self.vertex,
            "edge_minimal": self.edge_minimal,
            "per_class": [cb.to_json() for cb in self.per_class],
            "balance_total": self.balance_total,
            "rt_vertex": self.rt_vertex,
            "vertex_lower": [self.vertex_lower.numerator,
                             self.vertex_lower.denominator],
        }


def _rt_rows(graph: ColoredGraph) -> list[dict[int, int]]:
    """Per vertex v, each color c at v mapped to rt(v, N_c(v)), the sum of
    rt(v, x) over the class of c at v; a per-graph fact read from the
    rainbow triangle index."""
    rows: list[dict[int, int]] = [{} for _ in range(graph.n)]
    for (u, w), count in build_index(graph).rt_edge.items():
        c = graph.color(u, w)
        row_u, row_w = rows[u], rows[w]
        row_u[c] = row_u.get(c, 0) + count
        row_w[c] = row_w.get(c, 0) + count
    return rows


def _balance_forms(rows: list[tuple[int, int, int, int, int]],
                   hits_all: int) -> tuple[int, int, int]:
    """The three algebraic forms of the balance term; they must agree.

    ``rows`` are the class rows of :func:`_vertex_bounds`, and ``hits_all``
    counts the singleton-class hits into all of N(v).
    """
    sizes = [row[1] for row in rows]
    d = sum(sizes)
    excess = sum(s - 1 for s in sizes)
    form1 = sum(row[4] for row in rows)
    form2 = d * excess - sum(s * (s - 1) for s in sizes) - hits_all
    if sizes:
        d1 = sizes[0]
        form3 = (d - d1) * (d1 - 1) - hits_all \
            + sum((d - s) * (s - 1) for s in sizes[1:])
    else:
        form3 = 0
    return form1, form2, form3


def _vertex_bounds(graph: ColoredGraph, v: int
                   ) -> tuple[list[tuple[int, int, int, int, int]], int, int, int]:
    """The bound data of :func:`triangle_bound_report` at v, as plain ints.

    Returns ``(rows, balance_total, rt_vertex, lower_sum)``: one row
    ``(color, size, rt_observed, lower_bound, balance)`` per class in
    canonical order, the balance term, rt(v) and the sum of the per-class
    lower bounds (twice the vertex bound).
    """
    graph._check_vertex(v)
    table = graph.color_table()
    at_v = table[v]
    nv = graph.adjacency_bits(v)
    dc = graph.derived(_color_degrees)
    rt_row = graph.derived(_rt_rows)[v]
    # per singleton class {y} of color c at v: y's edges of color c into N(v)
    hit_sets = [table[bits.bit_length() - 1][c] & nv
                for c, bits in at_v.items() if not bits & (bits - 1)]
    excess = nv.bit_count() - len(at_v)
    shift = len(at_v) - graph.n

    rows = []
    for c, bits in sorted(at_v.items(), key=lambda item: (-item[1].bit_count(), item[0])):
        size = bits.bit_count()
        neighbor_sum = size * shift
        members = bits
        while members:
            low = members & -members
            neighbor_sum += dc[low.bit_length() - 1]
            members ^= low
        hits = sum((t & bits).bit_count() for t in hit_sets)
        balance = size * excess - size * (size - 1) - hits
        rows.append((c, size, rt_row.get(c, 0), neighbor_sum + balance, balance))

    forms = _balance_forms(rows, sum(map(int.bit_count, hit_sets)))
    if len(set(forms)) != 1:
        raise RuntimeError(f"balance forms disagree at vertex {v}: {forms}")
    return rows, forms[0], build_index(graph).rt(v), sum(row[3] for row in rows)


def triangle_bound_report(graph: ColoredGraph, v: int) -> TriangleBoundReport:
    """Evaluate the per-class lower bounds on rt(v, N_i(v)).

    For class i the bound is
        sum over x in N_i of (d^c(x) + d^c(v) - n)
        + d_i * sum over j of (d_j - 1) - d_i (d_i - 1)
        - sum over singleton-class neighbors y of the edges from y into N_i
          carrying y's color at v.
    ``lower_bound_strict`` restricts that last sum to y outside N_i, which
    is what the underlying argument produces.  It always equals the plain
    bound: a singleton-class neighbor y inside N_i makes N_i = {y}, and y
    has no edge into {y}.
    """
    rows, balance_total, rt_vertex, lower_sum = _vertex_bounds(graph, v)
    return TriangleBoundReport(
        vertex=v,
        edge_minimal=is_edge_minimal(graph)[0],
        per_class=tuple(ClassBound(color=c, size=size, rt_observed=rt,
                                   lower_bound=lower, lower_bound_strict=lower,
                                   balance=balance)
                        for c, size, rt, lower, balance in rows),
        balance_total=balance_total,
        rt_vertex=rt_vertex,
        vertex_lower=Fraction(lower_sum, 2),
    )


@dataclass(frozen=True)
class MonoBalanceDiagnostics:
    """Balance behavior at a vertex of maximum monochromatic degree.

    The balance term is nonnegative there.  When the maximum monochromatic
    degree is at least 2 and the balance vanishes, the equality structure
    must hold: (a) the singleton-class neighbors are exactly the neighbors
    outside the largest class, (b) every singleton-class neighbor itself
    attains the maximum monochromatic degree, and (c), on edge-minimal
    graphs with vanishing largest-class balance, every edge between the
    largest class and the singleton-class neighbors closes a rainbow
    triangle with the vertex.
    """

    vertex: int
    balance_total: int
    nonnegative: bool
    equality_applicable: bool
    cond_a: bool | None
    cond_b: bool | None
    cond_c_applicable: bool
    cond_c: bool | None
    edge_minimal: bool

    def passed(self) -> bool:
        if not self.nonnegative:
            return False
        for value in (self.cond_a, self.cond_b, self.cond_c):
            if value is False:
                return False
        return True


def mono_balance_diagnostics(graph: ColoredGraph, v: int) -> MonoBalanceDiagnostics:
    """Check the balance sign and its equality conditions at v.

    Precondition: v attains the maximum monochromatic degree of the graph.
    """
    graph._check_vertex(v)
    monos = graph.derived(_mono_degrees)
    delta_mon = max_mono_degree(graph)
    if monos[v] != delta_mon:
        raise ValueError(
            f"vertex {v} does not attain the maximum monochromatic degree")

    rows, b_total, _, _ = _vertex_bounds(graph, v)
    applicable = delta_mon >= 2 and b_total == 0

    cond_a = cond_b = cond_c = None
    cond_c_applicable = False
    minimal = is_edge_minimal(graph)[0]
    if applicable:
        at_v = graph.color_table()[v]
        largest = at_v[rows[0][0]]
        # singleton classes are disjoint, so their sum is their union
        unique = sum(bits for bits in at_v.values() if not bits & (bits - 1))
        cond_a = unique == graph.adjacency_bits(v) & ~largest
        unique_nbrs = _members(unique)
        cond_b = all(monos[u] == delta_mon for u in unique_nbrs)
        b_first = rows[0][4]
        cond_c_applicable = b_first == 0 and minimal
        if cond_c_applicable:
            rt_edges = set(rainbow_edge_graph(graph, v).edges)
            cond_c = all(
                (min(x, y), max(x, y)) in rt_edges
                for x in _members(largest) for y in unique_nbrs
                if graph.has_edge(x, y)
            )
    return MonoBalanceDiagnostics(
        vertex=v,
        balance_total=b_total,
        nonnegative=b_total >= 0,
        equality_applicable=applicable,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c_applicable=cond_c_applicable,
        cond_c=cond_c,
        edge_minimal=minimal,
    )


def counting_lower_bound(graph: ColoredGraph) -> Fraction:
    """Global lower bound on the number of rainbow triangles:
    delta^c (2 delta^c - n) n / 6, as an exact rational.

    May be nonpositive, in which case the bound is vacuous.  Tight for the
    rainbow triangle itself (bound 1, count 1).
    """
    dc = min_color_degree(graph)
    return Fraction(dc * (2 * dc - graph.n) * graph.n, 6)
