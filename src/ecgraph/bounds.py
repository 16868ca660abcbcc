"""Restricted-color counting and rainbow-triangle lower bounds.

All arithmetic is exact (ints and Fractions): the statements being checked
are exact inequalities, so floating point has no place here.

Color classes at a vertex are indexed in canonical order: decreasing size,
ties broken by ascending color id.  The per-class lower bound on rainbow
triangle counts is guaranteed only on edge-minimal graphs; reports carry an
``edge_minimal`` flag so callers know whether the guarantee applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (ColoredGraph, ColorDegreeProfile, color_degree, color_profile,
                   max_mono_degree, min_color_degree, mono_degree)
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


def _unique_color_hits(graph: ColoredGraph, profile: ColorDegreeProfile,
                       target_bits: int) -> int:
    """Sum over singleton-class neighbors y of the number of edges from y
    into the bitset ``target_bits`` carrying y's unique color at v."""
    v = profile.vertex
    table = graph.color_table()
    return sum((table[y][graph.color(v, y)] & target_bits).bit_count()
               for y in profile.unique_nbrs)


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


def _balance_forms(graph: ColoredGraph, profile: ColorDegreeProfile,
                   per_class_balance: list[int]) -> tuple[int, int, int]:
    """The three algebraic forms of the balance term; they must agree."""
    v = profile.vertex
    d = profile.degree
    sizes = profile.sorted_sizes
    excess = sum(s - 1 for s in sizes)
    hits_all = _unique_color_hits(graph, profile, graph.adjacency_bits(v))
    form1 = sum(per_class_balance)
    form2 = d * excess - sum(s * (s - 1) for s in sizes) - hits_all
    if sizes:
        d1 = sizes[0]
        form3 = (d - d1) * (d1 - 1) - hits_all \
            + sum((d - s) * (s - 1) for s in sizes[1:])
    else:
        form3 = 0
    return form1, form2, form3


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
    profile = color_profile(graph, v)
    classes = graph.color_table()[v]
    index = build_index(graph)
    n = graph.n
    dcv = profile.dc
    excess = sum(s - 1 for s in profile.sorted_sizes)

    per_class: list[ClassBound] = []
    for color, members in profile.sorted_classes:
        di = len(members)
        neighbor_sum = sum(color_degree(graph, x) + dcv - n for x in members)
        hits = _unique_color_hits(graph, profile, classes[color])
        balance = di * excess - di * (di - 1) - hits
        lower = neighbor_sum + balance
        per_class.append(ClassBound(
            color=color,
            size=di,
            rt_observed=index.rt_set(v, members),
            lower_bound=lower,
            lower_bound_strict=lower,
            balance=balance,
        ))

    forms = _balance_forms(graph, profile, [cb.balance for cb in per_class])
    if len(set(forms)) != 1:
        raise RuntimeError(f"balance forms disagree at vertex {v}: {forms}")

    return TriangleBoundReport(
        vertex=v,
        edge_minimal=is_edge_minimal(graph)[0],
        per_class=tuple(per_class),
        balance_total=forms[0],
        rt_vertex=index.rt(v),
        vertex_lower=Fraction(sum(cb.lower_bound for cb in per_class), 2),
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
    profile = color_profile(graph, v)
    delta_mon = max_mono_degree(graph)
    if profile.dmon != delta_mon:
        raise ValueError(
            f"vertex {v} does not attain the maximum monochromatic degree")

    report = triangle_bound_report(graph, v)
    b_total = report.balance_total
    applicable = delta_mon >= 2 and b_total == 0

    cond_a = cond_b = cond_c = None
    cond_c_applicable = False
    minimal = report.edge_minimal
    if applicable:
        largest = set(profile.sorted_classes[0][1])
        cond_a = profile.unique_nbrs == frozenset(graph.neighbors(v)) - largest
        cond_b = all(
            mono_degree(graph, u) == delta_mon for u in profile.unique_nbrs)
        b_first = report.per_class[0].balance
        cond_c_applicable = b_first == 0 and minimal
        if cond_c_applicable:
            rt_edges = set(rainbow_edge_graph(graph, v).edges)
            cond_c = all(
                (min(x, y), max(x, y)) in rt_edges
                for x in largest for y in profile.unique_nbrs
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
