"""Restricted-color counting and rainbow-triangle lower bounds.

All arithmetic is exact (ints and Fractions): the statements being checked
are exact inequalities, so floating point has no place here.

Color classes at a vertex are indexed in canonical order: decreasing size,
ties broken by ascending color id.  The per-class lower bound on rainbow
triangle counts is guaranteed only on edge-minimal graphs; reports carry an
``edge_minimal`` flag so callers know whether the guarantee applies.

Everything here is counted from the class bitsets of
:meth:`ColoredGraph.color_table`.  Every per-edge quantity comes from one
pass over the edges, ``_edge_counts``: both restriction counts of an edge
and rt(u, v), from popcounts alone.  The rt counts of the vertices and
their classes, ``_rt_classes``, are sums of those rt(u, v).  Every
per-class bound comes from one integer kernel, ``_vertex_bounds``, over the
class bitsets alone, which give each color degree as a class count; only
:func:`triangle_bound_report` turns its rows into report objects.

The number of rainbow triangles, which the counting bound is checked
against, is T - P + 2M (:func:`_rainbow_count`), again without listing a
triangle.  T counts the triangles and M the monochromatic ones; P counts
the pairs (triangle, vertex) at which the triangle's two edges share a
color.  Two such vertices would make all three colors equal, so P counts a
triangle with exactly two equal colors once, a monochromatic one three
times and a rainbow one never: rainbow = T - (P - 3M) - M.  Each term is
an integer sum that counts every triangle a fixed number of times (3T,
2P, 6M), so the divisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (ColoredGraph, _jsonable, _members, _mono_degrees, max_mono_degree,
                   min_color_degree)
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


def _edge_counts(graph: ColoredGraph) -> list[tuple[int, int, int, int, int]]:
    """(u, v, sigma(u, X_u, v), sigma(v, X_v, u), rt(u, v)) for each edge uv
    in lexicographic order, with X_a = N(a) minus the class of c(uv) at a.

    Everything comes from the class bitsets of :meth:`ColoredGraph.color_table`
    and the graph's own color store, edge list and bitsets, read without a
    copy.  Each sigma is the test of :func:`_sigma`, in one loop over the
    colors at v and one over the colors at u.  A class at v lies in N(v),
    so it lies in X_u exactly when it lies in (N(u) & N(v)) minus C_u(c),
    with c = c(uv).  With W the common neighbors outside C_u(c) and C_v(c),
    rt(u, v) is |W| less the w in W with c(uw) = c(vw), which are the
    members of C_u(a) & C_v(a) over the colors a != c; the loop over u's
    colors sums these intersections over every a (a color absent at v adds
    0, so its popcount is skipped), and the term of c is added back.
    Without a common neighbor both sigmas and rt are 0, since a class at v
    inside X_u lies in N(u) & N(v); the loops would find that too, but the
    early exit stays, since many edges of the sparse samples have no
    common neighbor.
    """
    table = graph.color_table()
    color, adj = graph._color, graph._bits
    out = []
    for u, v in graph._edges:
        common = adj[u] & adj[v]
        if not common:
            out.append((u, v, 0, 0, 0))
            continue
        c = color[u, v]
        at_u, at_v = table[u], table[v]
        cu, cv = at_u[c], at_v[c]
        # X_u cut down to the common neighbors, and the complements of the
        # two cut sets
        in_u = common & ~cu
        out_u, out_v = ~in_u, ~(common & ~cv)
        s_uv = 0
        for a, y in at_v.items():
            if not y & out_u and y & ~at_u.get(a, 0):
                s_uv += 1
        s_vu = same = 0
        for a, y in at_u.items():
            z = at_v.get(a)
            if z is None:
                if not y & out_v:
                    s_vu += 1
            else:
                same += (y & z).bit_count()
                if not y & out_v and y & ~z:
                    s_vu += 1
        rt = (in_u & ~cv).bit_count() - same + (cu & cv).bit_count()
        out.append((u, v, s_uv, s_vu, rt))
    return out


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
        return {**_jsonable(self), "slack": self.slack}


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
        return {**_jsonable(self), "per_class": [cb.to_json() for cb in self.per_class]}


def _rt_classes(graph: ColoredGraph) -> list[tuple[int, dict[int, int]]]:
    """Per vertex v, rt(v) and each color c at v mapped to rt(v, N_c(v)),
    the sum of rt(v, x) over the class of c at v; a per-graph fact (see
    :meth:`ColoredGraph.derived`).

    Each edge's rt(u, v) from :func:`_edge_counts` is added to the class of
    c(uv) at u and at v.  A triangle at v is counted at both of its edges at
    v, so rt(v) is half the sum over v's classes.
    """
    color = graph._color
    by_class = [dict.fromkeys(at_v, 0) for at_v in graph.color_table()]
    for u, v, _, _, rt in _edge_counts(graph):
        if rt:
            c = color[u, v]
            by_class[u][c] += rt
            by_class[v][c] += rt
    return [(sum(row.values()) // 2, row) for row in by_class]


def _balance_forms(rows: list[tuple[int, int, int, int]],
                   hits_all: int) -> tuple[int, int, int]:
    """The three algebraic forms of the balance term; they must agree.

    ``rows`` are the class rows of :func:`_vertex_bounds`, and ``hits_all``
    counts the singleton-class hits into all of N(v).  Form 1 sums the rows'
    balances, whose hits are counted per class.  Form 2 is
    d * sum(s - 1) - sum(s (s - 1)) - hits_all over the class sizes s, with
    d their sum.  Form 3 splits off the largest class size d1 (rows come
    largest first), which is 0 at a vertex with no classes; every form is
    0 there.  All three come from one pass over the rows.

    Forms 2 and 3 are one polynomial regrouped: term by term
    d (s - 1) - s (s - 1) = (d - s)(s - 1), and form 3 is that sum with the
    first class written apart.  Their comparison cannot fail on any input;
    the comparison that can catch a fault is form 1 (the per-class hits)
    against form 2 (the hits into all of N(v)).  All three stay compared.
    """
    d = excess = squares = form1 = 0
    for _, s, _, balance in rows:
        d += s
        excess += s - 1
        squares += s * (s - 1)
        form1 += balance
    form2 = d * excess - squares - hits_all
    d1 = rows[0][1] if rows else 0
    # the sum of (d - s)(s - 1) over the classes after the first
    rest = d * (excess - (d1 - 1)) - (squares - d1 * (d1 - 1))
    form3 = (d - d1) * (d1 - 1) - hits_all + rest
    return form1, form2, form3


def _vertex_bounds(graph: ColoredGraph, v: int
                   ) -> tuple[list[tuple[int, int, int, int]], int, int]:
    """The bounds of :func:`triangle_bound_report` at v, as plain ints.

    Returns ``(rows, balance_total, lower_sum)``: one row
    ``(color, size, lower_bound, balance)`` per class in canonical order,
    the balance term and the sum of the per-class lower bounds (twice the
    vertex bound).  The rt counts they bound are :func:`_rt_classes`.
    Every color degree, of v and of each class member x, is the number of
    classes at that vertex in the class table.  The hits of each class are
    summed over the hit sets of the singleton classes, one set at a time.
    """
    graph._check_vertex(v)
    table = graph.color_table()
    at_v = table[v]
    nv = graph._bits[v]
    # per singleton class {y} of color c at v: y's edges of color c into N(v)
    hit_sets = [table[bits.bit_length() - 1][c] & nv
                for c, bits in at_v.items() if not bits & (bits - 1)]
    excess = nv.bit_count() - len(at_v)
    shift = len(at_v) - graph.n

    rows = []
    lower_sum = 0
    # canonical order: size down, color up; colors are distinct, so the
    # bitsets never take part in the comparison
    for neg_size, c, bits in sorted([(-bits.bit_count(), c, bits)
                                     for c, bits in at_v.items()]):
        size = -neg_size
        neighbor_sum = size * shift
        members = bits
        while members:
            low = members & -members
            neighbor_sum += len(table[low.bit_length() - 1])
            members ^= low
        hits = 0
        for t in hit_sets:
            hits += (t & bits).bit_count()
        balance = size * excess - size * (size - 1) - hits
        lower = neighbor_sum + balance
        lower_sum += lower
        rows.append((c, size, lower, balance))

    forms = _balance_forms(rows, sum(map(int.bit_count, hit_sets)))
    if len(set(forms)) != 1:
        raise RuntimeError(f"balance forms disagree at vertex {v}: {forms}")
    return rows, forms[0], lower_sum


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
    rows, balance_total, lower_sum = _vertex_bounds(graph, v)
    rt_vertex, rt_row = graph.derived(_rt_classes)[v]
    return TriangleBoundReport(
        vertex=v,
        edge_minimal=is_edge_minimal(graph)[0],
        per_class=tuple(ClassBound(color=c, size=size, rt_observed=rt_row[c],
                                   lower_bound=lower, lower_bound_strict=lower,
                                   balance=balance)
                        for c, size, lower, balance in rows),
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

    rows, b_total, _ = _vertex_bounds(graph, v)
    applicable = delta_mon >= 2 and b_total == 0

    cond_a = cond_b = cond_c = None
    cond_c_applicable = False
    minimal = is_edge_minimal(graph)[0]
    if applicable:
        table = graph.color_table()
        at_v = table[v]
        big = rows[0][0]
        largest = at_v[big]
        # (c, y) per singleton class {y} of color c at v
        singles = [(c, bits.bit_length() - 1)
                   for c, bits in at_v.items() if not bits & (bits - 1)]
        cond_a = sum(1 << y for _, y in singles) == graph.adjacency_bits(v) & ~largest
        cond_b = all(monos[y] == delta_mon for _, y in singles)
        cond_c_applicable = rows[0][3] == 0 and minimal
        if cond_c_applicable:
            # for x in the largest class, c(vx) = big != c = c(vy), so
            # {v, x, y} is rainbow iff c(xy) is neither: x lies in no class
            # of big or of c at y
            cond_c = not any(largest & (table[y].get(big, 0) | table[y][c])
                             for c, y in singles)
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


def _rainbow_count(graph: ColoredGraph) -> int:
    """The number of rainbow triangles, T - P + 2M (see the module
    docstring), from three integer sums: 3T over the edges uv of
    |N(u) & N(v)|; 2P over each class C of two or more members at a vertex,
    of |N(x) & C| over its members x; 6M the same double sum of
    |C_x(a) & C|, with a the color of C.  A division that is not exact
    raises RuntimeError."""
    table = graph.color_table()
    adj = [graph.adjacency_bits(v) for v in range(graph.n)]
    t3 = sum((adj[u] & adj[v]).bit_count() for u, v in graph.edges)
    p2 = m6 = 0
    for at_w in table:
        for a, cls in at_w.items():
            if cls & (cls - 1):  # a singleton {x} adds 0: x is not in N(x)
                for x in _members(cls):
                    p2 += (adj[x] & cls).bit_count()
                    m6 += (table[x][a] & cls).bit_count()
    if t3 % 3 or p2 % 2 or m6 % 6:
        raise RuntimeError(f"triangle counts are not whole: 3T = {t3}, "
                           f"2P = {p2}, 6M = {m6}")
    return t3 // 3 - p2 // 2 + m6 // 3


def counting_lower_bound(graph: ColoredGraph) -> Fraction:
    """Global lower bound on the number of rainbow triangles:
    delta^c (2 delta^c - n) n / 6, as an exact rational.

    May be nonpositive, in which case the bound is vacuous.  Tight for the
    rainbow triangle itself (bound 1, count 1).
    """
    dc = min_color_degree(graph)
    return Fraction(dc * (2 * dc - graph.n) * graph.n, 6)
