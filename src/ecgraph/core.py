"""Edge-colored graph data model, ECG text format, and color-degree queries.

Vertices are dense integers 0..n-1.  Colors are sparse positive integers;
:func:`normalize_colors` relabels them 1..k without changing any query.
A :class:`ColoredGraph` is immutable after construction, so it is safe to
share between threads and to use as the input of pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass


class EcgError(ValueError):
    """Malformed ECG document.  ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class ColoredGraph:
    """Simple undirected graph with one positive color id per edge.

    The per-vertex bitsets (``adjacency_bits``) are the graph's only
    adjacency: ``neighbors`` walks the bits of one upward and ``degree``
    counts them, and triangle enumeration uses bitset intersection.  The
    per-vertex rows derived from it (``color_table`` and ``_color_rows``)
    are built in one pass over the sorted edges, which meets every
    vertex's neighbors in ascending order, so each row is keyed in the
    order of its lowest neighbor.  Isolated vertices are legal and have
    color degree 0.
    """

    __slots__ = ("n", "_color", "_bits", "_edges", "_derived")

    def __init__(self, n: int, edges: object = (), validate: bool = True):
        """Build a graph on vertices 0..n-1 from (u, v, color) triples."""
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        color: dict[tuple[int, int], int] = {}
        bits = [0] * n
        for u, v, c in edges:
            if validate:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"vertex out of range in edge ({u}, {v})")
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if c < 1:
                    raise ValueError(f"color must be >= 1, got {c}")
            k = _key(u, v)
            if validate and k in color:
                raise ValueError(f"duplicate edge {k}")
            color[k] = c
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self._color = color
        self._bits = bits
        self._edges = sorted(color)
        self._derived: dict = {}

    # -- queries ---------------------------------------------------------

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        return list(self._edges)

    @property
    def edge_count(self) -> int:
        return len(self._color)

    def has_edge(self, u: int, v: int) -> bool:
        return _key(u, v) in self._color

    def color(self, u: int, v: int) -> int:
        # the key is built inline: this is the graph's most frequent query
        return self._color[(u, v) if u < v else (v, u)]

    def edge_colors(self) -> dict[tuple[int, int], int]:
        return dict(self._color)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return tuple(_members(self._bits[v]))

    def degree(self, v: int) -> int:
        return self._bits[v].bit_count()

    def adjacency_bits(self, v: int) -> int:
        """Neighbors of v as a bitset (bit u set iff uv is an edge)."""
        return self._bits[v]

    def colors(self) -> set[int]:
        return set(self._color.values())

    def derived(self, build):
        """``build(self)``, computed on the first call for this graph and
        cached under ``build`` for every later one.

        The graph never changes, so any fact derived from it alone stays
        valid for its lifetime; callers must not mutate the result.
        """
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def color_table(self) -> list[dict[int, int]]:
        """Per vertex, each color mapped to the bitset of the neighbors
        joined by it (the color class of that color at the vertex).

        Colors are keyed in the order of their lowest neighbor.  Built once
        per graph (see :meth:`derived`).
        """
        return self.derived(_color_table)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    # -- functional updates ----------------------------------------------

    def without_edge(self, u: int, v: int) -> "ColoredGraph":
        k = _key(u, v)
        triples = [(a, b, c) for (a, b), c in self._color.items() if (a, b) != k]
        return ColoredGraph(self.n, triples, validate=False)

    def with_edge(self, u: int, v: int, c: int) -> "ColoredGraph":
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present")
        triples = [(a, b, col) for (a, b), col in self._color.items()]
        triples.append((*_key(u, v), c))
        return ColoredGraph(self.n, triples, validate=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredGraph):
            return NotImplemented
        return self.n == other.n and self._color == other._color

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self._color.items()))))

    def __repr__(self) -> str:
        return f"ColoredGraph(n={self.n}, m={self.edge_count})"


def _color_table(graph: ColoredGraph) -> list[dict[int, int]]:
    table: list[dict[int, int]] = [{} for _ in range(graph.n)]
    for (u, v), c in zip(graph._edges, map(graph._color.get, graph._edges)):
        at_u, at_v = table[u], table[v]
        at_u[c] = at_u.get(c, 0) | 1 << v
        at_v[c] = at_v.get(c, 0) | 1 << u
    return table


def _color_rows(graph: ColoredGraph) -> list[dict[int, int]]:
    """Per vertex v, each neighbor x mapped to c(vx), in ascending order of
    x (see :class:`ColoredGraph`); a per-graph fact."""
    rows: list[dict[int, int]] = [{} for _ in range(graph.n)]
    for (u, v), c in zip(graph._edges, map(graph._color.get, graph._edges)):
        rows[u][v] = rows[v][u] = c
    return rows


def _members(bits: int) -> list[int]:
    """The vertices of a bitset in ascending order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


@dataclass(frozen=True)
class ColorDegreeProfile:
    """Per-vertex color statistics.

    ``sorted_sizes`` lists class sizes in decreasing order; ties are broken
    by ascending color id, and ``sorted_classes`` pairs each size with its
    color in that same canonical order.  ``unique_nbrs`` is the union of all
    singleton color classes at the vertex.
    """

    vertex: int
    color_classes: dict[int, frozenset[int]]
    dc: int
    dmon: int
    sorted_sizes: tuple[int, ...]
    sorted_classes: tuple[tuple[int, frozenset[int]], ...]
    unique_nbrs: frozenset[int]

    @property
    def degree(self) -> int:
        return sum(self.sorted_sizes)


def color_profile(graph: ColoredGraph, v: int) -> ColorDegreeProfile:
    """Color classes, color degree and singleton neighbors of v.

    Read from the graph's cached :meth:`ColoredGraph.color_table`, as are
    all color-degree queries below; each call returns a new profile, equal
    for equal graphs.
    """
    graph._check_vertex(v)
    classes = {c: frozenset(_members(bits)) for c, bits in graph.color_table()[v].items()}
    ordered = sorted(classes.items(), key=lambda item: (-len(item[1]), item[0]))
    return ColorDegreeProfile(
        vertex=v,
        color_classes=classes,
        dc=len(classes),
        dmon=max(map(len, classes.values()), default=0),
        sorted_sizes=tuple(len(m) for _, m in ordered),
        sorted_classes=tuple(ordered),
        unique_nbrs=frozenset(y for m in classes.values() if len(m) == 1 for y in m),
    )


def _color_degrees(graph: ColoredGraph) -> list[int]:
    """The color degree of every vertex; a per-graph fact (see
    :meth:`ColoredGraph.derived`)."""
    return list(map(len, graph.color_table()))


def _mono_degrees(graph: ColoredGraph) -> list[int]:
    """The monochromatic degree of every vertex; a per-graph fact."""
    return [max(map(int.bit_count, at_v.values()), default=0)
            for at_v in graph.color_table()]


def color_degree(graph: ColoredGraph, v: int) -> int:
    """Number of distinct colors on edges incident to v."""
    graph._check_vertex(v)
    return graph.derived(_color_degrees)[v]


def min_color_degree(graph: ColoredGraph) -> int:
    """Minimum color degree over all vertices (isolated vertices give 0)."""
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")
    return min(map(len, graph.color_table()))


def mono_degree(graph: ColoredGraph, v: int) -> int:
    """Largest number of equally colored edges at v."""
    graph._check_vertex(v)
    return graph.derived(_mono_degrees)[v]


def max_mono_degree(graph: ColoredGraph) -> int:
    """Maximum of :func:`mono_degree` over all vertices.  Computed once per
    graph (see :meth:`ColoredGraph.derived`)."""
    return graph.derived(_max_mono_degree)


def _max_mono_degree(graph: ColoredGraph) -> int:
    return max(graph.derived(_mono_degrees), default=0)


def relabel_colors(graph: ColoredGraph, mapping: dict[int, int]) -> ColoredGraph:
    """Apply an injective color relabeling.  Queries are invariant under it."""
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("color relabeling must be injective")
    triples = [(u, v, mapping[c]) for (u, v), c in graph.edge_colors().items()]
    return ColoredGraph(graph.n, triples)


def normalize_colors(graph: ColoredGraph) -> ColoredGraph:
    """Relabel colors 1..k by first appearance in lexicographic edge order."""
    mapping: dict[int, int] = {}
    for u, v in graph.edges:
        c = graph.color(u, v)
        if c not in mapping:
            mapping[c] = len(mapping) + 1
    return relabel_colors(graph, mapping)


# -- ECG text format -------------------------------------------------------
#
# line 1:  ecg <n> <m>
# lines starting with '#' are comments; then exactly m lines  <u> <v> <color>
# with 0 <= u < v < n and color >= 1.  Serialization emits edges in
# lexicographic (u, v) order with LF endings, so golden files are bit-exact.


def load_ecg(text: str) -> ColoredGraph:
    """Parse an ECG document.  Errors carry the offending line number."""
    lines = text.splitlines()
    if not lines:
        raise EcgError("empty document", 1)
    header = lines[0].split()
    if len(header) != 3 or header[0] != "ecg":
        raise EcgError("header must be 'ecg <n> <m>'", 1)
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError:
        raise EcgError("header must be 'ecg <n> <m>'", 1) from None
    if n < 0 or m < 0:
        raise EcgError("n and m must be nonnegative", 1)

    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for idx, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise EcgError("edge line must be '<u> <v> <color>'", idx)
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise EcgError("edge line must contain integers", idx) from None
        if len(triples) == m:
            raise EcgError(f"more than {m} edge lines", idx)
        if not (0 <= u < v < n):
            raise EcgError(f"edge ({u}, {v}) violates 0 <= u < v < n={n}", idx)
        if c < 1:
            raise EcgError(f"color must be >= 1, got {c}", idx)
        if (u, v) in seen:
            raise EcgError(f"duplicate edge ({u}, {v})", idx)
        seen.add((u, v))
        triples.append((u, v, c))
    if len(triples) != m:
        raise EcgError(f"expected {m} edges, found {len(triples)}", len(lines))
    return ColoredGraph(n, triples, validate=False)


def save_ecg(graph: ColoredGraph) -> str:
    """Serialize to ECG text; load(save(G)) == G as a labeled colored graph."""
    out = [f"ecg {graph.n} {graph.edge_count}"]
    for u, v in graph.edges:
        out.append(f"{u} {v} {graph.color(u, v)}")
    return "\n".join(out) + "\n"
