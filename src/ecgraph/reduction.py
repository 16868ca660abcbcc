"""Edge-minimal reduction preserving every vertex's color degree.

A graph is edge-minimal when deleting any edge lowers the color degree of
at least one endpoint, i.e. every edge is the only one of its color at one
of its ends.  An edge-minimal graph contains no monochromatic triangle and
no monochromatic path with three edges.
"""

from __future__ import annotations

from .core import ColoredGraph, _assembled


def _removals(graph: ColoredGraph) -> list[tuple[int, int]]:
    """Edges :func:`edge_minimal_reduce` deletes, in lexicographic order.

    An edge goes while both of its ends still hold at least 2 edges of its
    color, counted by live copies of the class bitsets of
    :meth:`ColoredGraph.color_table`, which lose the bit of each deleted
    edge's other end."""
    color = graph.edge_colors()
    live = [dict(at_v) for at_v in graph.color_table()]
    removed = []
    for u, v in graph.edges:
        c = color[u, v]
        at_u, at_v = live[u], live[v]
        cu, cv = at_u[c], at_v[c]
        if cu & (cu - 1) and cv & (cv - 1):
            at_u[c] = cu ^ 1 << v
            at_v[c] = cv ^ 1 << u
            removed.append((u, v))
    return removed


def is_edge_minimal(graph: ColoredGraph) -> tuple[bool, tuple[int, int] | None]:
    """Whether every edge removal drops an endpoint's color degree.

    On False the witness is a removable edge (deterministically the
    lexicographically smallest one).  Computed once per graph (see
    :meth:`ColoredGraph.derived`).
    """
    removed = graph.derived(_removals)
    return not removed, removed[0] if removed else None


def edge_minimal_reduce(graph: ColoredGraph) -> ColoredGraph:
    """Delete removable edges until none remain.

    The rule deletes the lexicographically smallest removable edge, then
    rescans.  Deletions only lower color counts, so an edge that is not
    removable when reached never becomes so later: one forward pass in
    lexicographic order with live class bitsets deletes exactly the same
    edges.
    The result keeps d^c of every vertex, is edge-minimal and keeps the
    surviving edges in their original order (the input itself if none go).
    It is assembled from the input's color store, bitsets and edge list
    less the removed edges (see :func:`core._assembled`), without a
    validating walk; the input is left as it was.
    """
    removed = graph.derived(_removals)
    if not removed:
        return graph
    gone = set(removed)
    bits = graph._bits.copy()
    for u, v in removed:
        bits[u] ^= 1 << v
        bits[v] ^= 1 << u
    return _assembled(graph.n, {e: c for e, c in graph._color.items() if e not in gone},
                      bits, [e for e in graph._edges if e not in gone])
