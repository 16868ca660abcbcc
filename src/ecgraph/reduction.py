"""Edge-minimal reduction preserving every vertex's color degree.

A graph is edge-minimal when deleting any edge lowers the color degree of
at least one endpoint, i.e. every edge is the only one of its color at one
of its ends.  An edge-minimal graph contains no monochromatic triangle and
no monochromatic path with three edges.
"""

from __future__ import annotations

from .core import ColoredGraph


def _removals(graph: ColoredGraph) -> list[tuple[int, int]]:
    """Edges :func:`edge_minimal_reduce` deletes, in lexicographic order."""
    color = graph.edge_colors()
    counts: list[dict[int, int]] = [{} for _ in range(graph.n)]
    for (u, v), c in color.items():
        counts[u][c] = counts[u].get(c, 0) + 1
        counts[v][c] = counts[v].get(c, 0) + 1
    removed = []
    for u, v in graph.edges:
        c = color[u, v]
        if counts[u][c] >= 2 and counts[v][c] >= 2:
            counts[u][c] -= 1
            counts[v][c] -= 1
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
    lexicographic order with live counts deletes exactly the same edges.
    The result keeps d^c of every vertex, is edge-minimal and keeps the
    surviving edges in their original order (the input itself if none go).
    """
    removed = set(graph.derived(_removals))
    if not removed:
        return graph
    return ColoredGraph(graph.n, [(*e, c) for e, c in graph.edge_colors().items()
                                  if e not in removed], validate=False)
