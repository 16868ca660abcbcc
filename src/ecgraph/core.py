"""Edge-colored graph data model, ECG text format, and color-degree queries.

Vertices are dense integers 0..n-1.  Colors are sparse positive integers.
A :class:`ColoredGraph` is immutable after construction, so it is safe to
share between threads and to use as the input of pure functions.
:func:`_adjacency_bits` is the one builder of adjacency bitsets from an
edge collection, for graphs here and for the edge lists of ``matching``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction


class EcgError(ValueError):
    """Malformed ECG document.  ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _jsonable(value):
    """``value`` as JSON data, the one encoding of every result: a dataclass
    becomes a dict of its fields in declaration order, a tuple or list a
    list, a set a sorted list and a Fraction [numerator, denominator]; any
    other value is returned as is."""
    if value is None or isinstance(value, (int, float, str)):  # bool is an int
        return value
    if isinstance(value, (tuple, list)):
        # ints, the common item, skip the call
        return [x if type(x) is int else _jsonable(x) for x in value]
    if isinstance(value, (set, frozenset)):
        return _jsonable(sorted(value))
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    return value


class ColoredGraph:
    """Simple undirected graph with one positive color id per edge.

    The per-vertex bitsets (``adjacency_bits``) are the graph's only
    adjacency: ``neighbors`` walks the bits of one upward and ``degree``
    counts them, and triangle enumeration uses bitset intersection.  Edge
    colors have one store, read through ``color``.  The class table
    (``color_table``) is the one per-vertex color structure; it is built
    in one pass over the sorted edges, which meets every vertex's
    neighbors in ascending order, so each row is keyed in the order of its
    lowest neighbor.  Color degrees are counted in their own
    pass over the edge colors, so a graph whose only color query is its
    color degrees never builds the class table.  Isolated vertices are
    legal and have color degree 0.

    A graph is built by one of two routes, both through ``__init__``:
    from (u, v, color) triples, which it always checks, or by
    :func:`_assembled` from a color store, bitsets and sorted edge list
    that the caller (the two samplers, :func:`_extended` for repair,
    ``reduction.edge_minimal_reduce`` and :func:`load_ecg`) has already
    made consistent.  ``__init__`` and :func:`load_ecg` build the bitsets
    with :func:`_adjacency_bits`; the samplers, repair and reduction write
    their own as they go.
    """

    __slots__ = ("n", "_color", "_bits", "_edges", "_derived")

    def __init__(self, n: int, edges: object = ()):
        """Build a graph on vertices 0..n-1 from (u, v, color) triples,
        checking each one: vertices in range, no self-loop, color >= 1 and
        no duplicate edge."""
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        color: dict[tuple[int, int], int] = {}
        for u, v, c in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if c < 1:
                raise ValueError(f"color must be >= 1, got {c}")
            k = (u, v) if u < v else (v, u)
            if k in color:
                raise ValueError(f"duplicate edge {k}")
            color[k] = c
        self.n = n
        self._color = color
        self._bits = _adjacency_bits(n, color)
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
        return ((u, v) if u < v else (v, u)) in self._color

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


def _assembled(n: int, color: dict[tuple[int, int], int], bits: list[int],
               edges: list[tuple[int, int]]) -> ColoredGraph:
    """A graph on 0..n-1 made from trusted parts, which it keeps without
    a copy or a check: ``color`` keyed by (u, v) with u < v, ``bits`` the
    adjacency bitsets of exactly those edges, and ``edges`` the keys of
    ``color`` in lexicographic order.  It is built through
    ``ColoredGraph(0)``, whose empty stores it replaces, so every graph
    still passes one constructor and no vertex list is allocated twice."""
    graph = ColoredGraph(0)
    graph.n = n
    graph._color = color
    graph._bits = bits
    graph._edges = edges
    return graph


def _extended(graph: ColoredGraph, added: list[tuple[int, int, int]]) -> ColoredGraph:
    """``graph`` plus the ``added`` (u, v, color) edges, which must be
    absent from it and valid with u < v: the same graph, insertion order
    included, as one build from ``graph``'s edges followed by ``added``.
    ``graph``'s color store and bitsets are copied, not re-walked, and
    ``graph`` is left as it was."""
    color = graph._color.copy()
    bits = graph._bits.copy()
    keys = []
    for u, v, c in added:
        key = (u, v)
        color[key] = c
        keys.append(key)
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    # graph's edges are one sorted run, which sorted() finds and merges
    # the added keys into
    return _assembled(graph.n, color, bits, sorted(graph._edges + keys))


def _largest_color(graph: ColoredGraph) -> int:
    """The largest edge color, 0 for an edgeless graph."""
    return max(graph._color.values(), default=0)


def _adjacency_bits(n: int, pairs) -> list[int]:
    """The neighbors of each vertex of 0..n-1 as a bitset (bit u of entry
    v set iff uv is one of the (u, v) ``pairs``): the bitsets of a graph
    built from triples or loaded, and of the uncolored edge lists of
    ``matching``."""
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


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

    The classes are read from the graph's cached
    :meth:`ColoredGraph.color_table` and the degrees from its per-graph
    degree lists below; each call returns a new profile, equal for equal
    graphs.
    """
    graph._check_vertex(v)
    classes = {c: frozenset(_members(bits)) for c, bits in graph.color_table()[v].items()}
    ordered = sorted(classes.items(), key=lambda item: (-len(item[1]), item[0]))
    return ColorDegreeProfile(
        vertex=v,
        color_classes=classes,
        dc=graph.derived(_color_degrees)[v],
        dmon=graph.derived(_mono_degrees)[v],
        sorted_sizes=tuple(len(m) for _, m in ordered),
        sorted_classes=tuple(ordered),
        unique_nbrs=frozenset(y for m in classes.values() if len(m) == 1 for y in m),
    )


def _color_degrees(graph: ColoredGraph) -> list[int]:
    """The color degree of every vertex, the number of distinct colors on
    its edges, counted in one pass over the edge colors; a per-graph fact
    (see :meth:`ColoredGraph.derived`)."""
    seen: list[set[int]] = [set() for _ in range(graph.n)]
    for (u, v), c in graph._color.items():
        seen[u].add(c)
        seen[v].add(c)
    return list(map(len, seen))


def _mono_degrees(graph: ColoredGraph) -> list[int]:
    """The monochromatic degree of every vertex; a per-graph fact."""
    return [max(map(int.bit_count, at_v.values()), default=0)
            for at_v in graph.color_table()]


def min_color_degree(graph: ColoredGraph) -> int:
    """Minimum color degree over all vertices (isolated vertices give 0)."""
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")
    return min(graph.derived(_color_degrees))


def max_mono_degree(graph: ColoredGraph) -> int:
    """Largest number of equally colored edges at one vertex: the largest
    entry of the per-graph mono-degree list (see :meth:`ColoredGraph.derived`)."""
    return max(graph.derived(_mono_degrees), default=0)


# -- ECG text format -------------------------------------------------------
#
# line 1:  ecg <n> <m>
# lines starting with '#' are comments; then exactly m lines  <u> <v> <color>
# with 0 <= u < v < n and color >= 1.  Serialization emits edges in
# lexicographic (u, v) order with LF endings, so golden files are bit-exact.


def load_ecg(text: str) -> ColoredGraph:
    """Parse an ECG document.  Errors carry the offending line number.

    The color store is written as the edge lines are read, in file order,
    and each line is checked there (range, color, duplicate), so the graph
    is assembled from its parts (see :func:`_assembled`) without a second,
    validating walk.
    """
    # lines end at "\n" only (a CR before it is stripped with the line);
    # the empty piece after a final newline is not a line
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise EcgError("empty document", 1)
    header = lines[0].split()
    if len(header) != 3 or header[0] != "ecg":
        raise EcgError("header must be 'ecg <n> <m>'", 1)
    try:
        # int() also reads "1_0" and the digits of other scripts
        if "_" in lines[0] or not lines[0].isascii():
            raise ValueError
        n, m = int(header[1]), int(header[2])
    except ValueError:
        raise EcgError("header must be 'ecg <n> <m>'", 1) from None
    if n < 0 or m < 0:
        raise EcgError("n and m must be nonnegative", 1)

    color: dict[tuple[int, int], int] = {}
    for idx, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise EcgError("edge line must be '<u> <v> <color>'", idx)
        try:
            if "_" in line or not line.isascii():
                raise ValueError
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise EcgError("edge line must contain integers", idx) from None
        if len(color) == m:
            raise EcgError(f"more than {m} edge lines", idx)
        if not (0 <= u < v < n):
            raise EcgError(f"edge ({u}, {v}) violates 0 <= u < v < n={n}", idx)
        if c < 1:
            raise EcgError(f"color must be >= 1, got {c}", idx)
        if (u, v) in color:
            raise EcgError(f"duplicate edge ({u}, {v})", idx)
        color[u, v] = c
    if len(color) != m:
        raise EcgError(f"expected {m} edges, found {len(color)}", len(lines))
    # the bitsets are built only after every line is read, so a line
    # error comes before a vertex count too large to build
    try:
        bits = _adjacency_bits(n, color)
    except (OverflowError, MemoryError):  # a vertex list of n entries fails
        raise EcgError(f"vertex count {n} is too large to build", 1) from None
    return _assembled(n, color, bits, sorted(color))


def save_ecg(graph: ColoredGraph) -> str:
    """Serialize to ECG text; load(save(G)) == G as a labeled colored graph."""
    color = graph._color
    return f"ecg {graph.n} {graph.edge_count}\n" + "".join(
        [f"{u} {v} {color[u, v]}\n" for u, v in graph._edges])
