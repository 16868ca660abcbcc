"""Exact matching, vertex cover, and the matching-structure partition.

Operations take an uncolored view: a vertex count n and an edge collection
on 0..n-1.  Everything here is exact and deterministic at desk scale.
Edmonds' search walks list rows (``_adjacency``); the cover search and the
component search :func:`_components` walk the bitsets of
``core._adjacency_bits``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .core import _adjacency_bits, _jsonable, _members

COVER_SIZE_LIMIT = 64
# node limit of every exact backtracking search, counted by ``_node_budget``
SEARCH_NODE_LIMIT = 1_000_000


def _node_budget(search: str):
    """Node counter for one backtracking search: each call counts a node,
    and passing SEARCH_NODE_LIMIT raises a ValueError naming the search."""
    nodes = itertools.count(1)

    def visit() -> None:
        if next(nodes) > SEARCH_NODE_LIMIT:
            raise ValueError(f"{search} exceeded its limit of "
                             f"{SEARCH_NODE_LIMIT} search nodes")
    return visit


def _normalize_edges(n: int, edges) -> list[tuple[int, int]]:
    out = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        out.add((u, v) if u < v else (v, u))
    return sorted(out)


def _adjacency(n: int, es: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in es:
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    return adj


def _alternating_forest(adj: list[list[int]], match: list[int],
                        roots: list[int]) -> list[bool] | None:
    """Edmonds' search: alternating trees grown breadth-first from ``roots``,
    each blossom (odd cycle) contracted to its base.  Augments ``match`` in
    place and returns None on reaching an exposed vertex outside the forest;
    otherwise returns the flags of the outer (even) vertices."""
    n = len(adj)
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    for r in roots:
        used[r] = True

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(blossom, v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    q = deque(roots)
    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            # is ``to`` outer?  An exposed vertex is outer iff it is a root;
            # a matched one iff its mate has a tree parent
            if used[to] if match[to] == -1 else parent[match[to]] != -1:
                # odd cycle: contract the blossom to its base
                cur = lca(v, to)
                blossom = [False] * n
                mark_path(blossom, v, cur, to)
                mark_path(blossom, to, cur, v)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            q.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    u = to
                    while u != -1:
                        pv = parent[u]
                        nxt = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = nxt
                    return None
                used[match[to]] = True
                q.append(match[to])
    return used


def _maximum_matching(adj: list[list[int]]) -> tuple[list[int], list[tuple[int, int]]]:
    """A maximum matching of the graph with adjacency ``adj``: one
    alternating-forest search from each exposed vertex in index order.  One
    pass suffices, because a vertex with no augmenting path keeps none after
    augmentations elsewhere (Edmonds).  Returns the mate of each vertex (-1
    when exposed) and the matched pairs sorted lexicographically.

    An exposed v with an exposed neighbor is matched to the first one
    without a search: the forest from v scans v's whole row first, and
    nothing it meets before that neighbor augments (a blossom through v
    only relabels bases), so the search would augment along that edge."""
    match = [-1] * len(adj)
    for v in range(len(adj)):
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v], match[w] = w, v
                    break
            else:
                _alternating_forest(adj, match, [v])
    return match, [(v, w) for v, w in enumerate(match) if v < w]


def max_matching(n: int, edges) -> list[tuple[int, int]]:
    """Maximum matching in a general graph via augmenting paths with
    blossom contraction.  Returns the matched pairs sorted lexicographically.
    """
    return _maximum_matching(_adjacency(n, _normalize_edges(n, edges)))[1]


def _greedy_matched(edges: list[tuple[int, int]]) -> set[int]:
    """Vertices covered by the greedy maximal matching of ``edges`` in order."""
    used: set[int] = set()
    for u, v in edges:
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
    return used


def min_vertex_cover(n: int, edges) -> list[int]:
    """Exact minimum vertex cover by branch and bound.

    Branches on a highest-degree vertex, lowest index first (in cover /
    all its neighbors in cover), pruned by a greedy clique-partition lower
    bound.  Raises for instances above COVER_SIZE_LIMIT vertices, and with
    a ValueError past SEARCH_NODE_LIMIT search nodes.
    """
    es = _normalize_edges(n, edges)
    return _cover_search(es, _adjacency_bits(n, es), 0)


def _clique_bound(adj: list[int], live: int) -> int:
    """Lower bound on the cover number of G[live]: sum(|Q| - 1) over a
    greedy partition of ``live`` into cliques Q, each started at its lowest
    vertex and grown by its lowest common neighbor.  A cover misses at most
    one vertex of each clique."""
    total = 0
    while live:
        low = live & -live
        live ^= low
        cand = adj[low.bit_length() - 1] & live
        while cand:
            w = cand & -cand
            total += 1
            live ^= w
            cand &= adj[w.bit_length() - 1]
    return total


def _cover_search(es: list[tuple[int, int]], adj: list[int], lower: int) -> list[int]:
    """``min_vertex_cover`` of the normalized edge list ``es``, whose
    adjacency bitsets ``adj`` give n as their length, that may stop as soon
    as its cover has ``lower`` vertices, where ``lower`` is at most the
    cover number (a matching size).

    A node is the bitset ``live`` of undecided vertices; the edges left to
    cover are those of G[live].  The greedy initial cover is kept when it
    is optimal; otherwise the result is the first optimal leaf in DFS
    order.  An admissible bound never prunes the path to that leaf, and the
    global stop only ends the search once the cover is optimal, so bounds
    change the node count, never the cover.
    """
    n = len(adj)
    if n > COVER_SIZE_LIMIT:
        raise ValueError(f"instance too large for exact cover search (n={n})")

    # both endpoints of a greedy maximal matching form a valid initial cover
    best: list[int] = sorted(_greedy_matched(es))
    live = sum(1 << v for v in range(n) if adj[v])
    stop = max(lower, _clique_bound(adj, live))
    visit = _node_budget("min_vertex_cover")

    def bnb(live: int, chosen: list[int]) -> bool:
        """Search below one node; True once the cover reaches ``stop``."""
        nonlocal best
        visit()
        # the highest live degree, lowest vertex first; isolated vertices
        # leave ``live``
        x, dx, rest = -1, 0, live
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            d = (adj[v] & live).bit_count()
            if not d:
                live ^= low
            elif d > dx:
                x, dx = v, d
        if x < 0:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return len(best) <= stop
        if len(chosen) + _clique_bound(adj, live) >= len(best):
            return False
        bit = 1 << x
        if bnb(live ^ bit, chosen + [x]):
            return True
        nbrs = adj[x] & live
        chosen, rest = list(chosen), nbrs
        while rest:
            low = rest & -rest
            rest ^= low
            chosen.append(low.bit_length() - 1)
        return bnb(live & ~(nbrs | bit), chosen)

    if len(best) > stop:
        bnb(live, [])
    return best


def _components(adj: list[int], live: int) -> list[tuple[int, ...]]:
    """The components of G[live], the subgraph of the graph with adjacency
    bitsets ``adj`` induced by the bitset ``live``, as sorted vertex tuples
    ordered by smallest vertex: the one component search of the package.
    Each component grows from the lowest live vertex not yet reached, by a
    search that takes the lowest vertex still to visit and adds its unseen
    live neighbors."""
    comps = []
    while live:
        comp = todo = live & -live
        live ^= comp
        while todo:
            low = todo & -todo
            new = adj[low.bit_length() - 1] & live
            live ^= new
            comp |= new
            todo = (todo ^ low) | new
        comps.append(tuple(_members(comp)))
    return comps


@dataclass(frozen=True)
class GallaiPartition:
    """Alternating-path decomposition of a graph relative to its maximum
    matching (the one ``max_matching`` returns), with a virtual vertex
    joined to every unsaturated vertex.  The graph is ``matching`` plus
    ``gamma_edges``.

    ``v0`` is the set of vertices reachable from the virtual vertex only by
    alternating paths that end with a non-matching edge: the outside
    neighbors of the set D of vertices that some maximum matching misses.
    D comes from one Edmonds alternating forest grown from all unsaturated
    vertices at once, with blossoms contracted: its outer (even) vertices
    are D.  An outer vertex ends an even alternating path from an
    unsaturated root, and swapping along that path misses it; with no
    augmenting path the inner vertices form a Tutte-Berge barrier whose odd
    components are the outer blossoms, so every maximum matching covers the
    rest.  So D, ``v0`` and the ``components`` (those of the graph minus
    ``v0``) are the same for every maximum matching (Gallai-Edmonds).  The
    identity alpha' = |v0| + sum(floor(|V_i| / 2)) holds, and so does the
    structure of matching edges at ``v0``; ``verify_partition_lemmas``
    checks both (``size_identity_ok``, ``structure_ok``).
    """

    n: int
    matching: tuple[tuple[int, int], ...]
    v0: frozenset[int]
    components: tuple[tuple[int, ...], ...]
    alpha_edges: tuple[tuple[int, int], ...]
    gamma_edges: tuple[tuple[int, int], ...]
    virtual_vertex: int

    @property
    def alpha_prime(self) -> int:
        return len(self.matching)

    @property
    def p(self) -> int:
        return len(self.components)

    def to_json(self) -> dict:
        return _jsonable(self)


def gallai_partition(n: int, edges) -> GallaiPartition:
    """Build the partition of a graph for the maximum matching that
    ``max_matching`` returns; raises a ValueError if n <= 2 * alpha' (the
    decomposition needs unsaturated vertices).  The matching is maximum, so
    the alternating forest that finds ``v0`` never meets an augmenting path.
    The build checks nothing else: ``structure_ok`` of
    ``verify_partition_lemmas`` is the check of a built partition.  The
    ``components`` of G - V_0 come from :func:`_components` over the
    bitsets of the normalized edges.
    """
    es = _normalize_edges(n, edges)
    adj = _adjacency(n, es)
    match, m = _maximum_matching(adj)
    if n <= 2 * len(m):
        raise ValueError("partition undefined: n <= 2 * alpha'")

    # V_0 is the outside neighborhood of D, the outer vertices of the
    # forest grown from every unsaturated vertex (see GallaiPartition)
    unsaturated = [v for v in range(n) if match[v] == -1]
    outer = _alternating_forest(adj, match, unsaturated)
    v0 = frozenset(w for a in range(n) if outer[a] for w in adj[a] if not outer[w])
    live = (1 << n) - 1 - sum(1 << w for w in v0)
    comps = tuple(_components(_adjacency_bits(n, es), live))

    x = n
    alpha = tuple(m) + tuple((v, x) for v in unsaturated)
    gamma = tuple((u, v) for u, v in es if match[u] != v)
    return GallaiPartition(
        n=n,
        matching=tuple(m),
        v0=v0,
        components=comps,
        alpha_edges=alpha,
        gamma_edges=gamma,
        virtual_vertex=x,
    )


def _structure_holds(part: GallaiPartition) -> bool:
    """The structure of a partition, short of its size identity: ``v0``
    and the components partition the vertex set, ``v0`` is saturated, and
    the alpha edges at gamma vertices (``v0`` and the virtual vertex) each
    join one gamma vertex to an odd component, one edge per odd component."""
    comp_of = {v: i for i, comp in enumerate(part.components) for v in comp}
    if part.v0 | set(comp_of) != set(range(part.n)) or part.v0 & set(comp_of):
        return False
    if not part.v0 <= {v for e in part.matching for v in e}:
        return False
    gamma = part.v0 | {part.virtual_vertex}
    hits = []
    for e in part.alpha_edges:
        if gamma.intersection(e):
            others = [w for w in e if w not in gamma]
            if len(others) != 1:
                return False
            hits.append(comp_of.get(others[0]))
    odd = {i for i, c in enumerate(part.components) if len(c) % 2}
    return len(hits) == len(odd) and set(hits) == odd


@dataclass(frozen=True)
class PartitionDiagnostics:
    """Raw outcome of every partition-based bound for one instance.

    ``size_identity_ok`` is alpha' = |v0| + sum(floor(|V_i| / 2)), and
    ``structure_ok`` is that identity together with the structure around
    ``v0``: the one check of a built partition.  ``chain_ok`` is
    beta <= n - p <= 2 alpha' - |v0|.  The last group reports the stronger
    bounds that need n >= 2 alpha' + 2; they are recorded as observed, with
    ``connected`` alongside because the stronger bounds can genuinely fail
    on disconnected graphs.  :meth:`gap` judges them all by one rule.
    """

    n: int
    alpha_prime: int
    beta: int
    cover: tuple[int, ...]
    v0_size: int
    p: int
    connected: bool
    size_identity_ok: bool
    structure_ok: bool
    chain_ok: bool
    strong_applicable: bool
    strong_beta_ok: bool | None
    strong_v0_ok: bool | None
    tight_applicable: bool
    tight_comps_ok: bool | None
    tight_cover_ok: bool | None

    def gap(self) -> str:
        """Why the partition claim fails on this instance, or "" when it
        holds: the identities always, the stronger bounds and their tight
        case only on connected graphs."""
        if not (self.size_identity_ok and self.structure_ok and self.chain_ok):
            return f"partition identities fail: {self}"
        # the stronger bounds can genuinely fail on disconnected graphs,
        # so they are asserted only on connected instances
        if self.connected and self.strong_applicable:
            if not (self.strong_beta_ok and self.strong_v0_ok):
                return f"strong cover bound fails on connected graph: {self}"
            if self.tight_applicable and not (self.tight_comps_ok and self.tight_cover_ok):
                return f"tight-case structure fails on connected graph: {self}"
        return ""

    def to_json(self) -> dict:
        return _jsonable(self)


def verify_partition_lemmas(part: GallaiPartition) -> PartitionDiagnostics:
    """Evaluate the matching/covering bounds of the partition's graph (its
    matching plus its gamma edges) against an exact cover, and check the
    partition itself once: ``structure_ok``.  The graph's adjacency
    bitsets are built once and serve both the cover search and
    ``connected`` (at most one component).

    Never raises on a failed bound: this is a diagnostics report, meant to
    record which inequalities hold for the instance.
    """
    n, a = part.n, part.alpha_prime
    es = sorted(part.matching + part.gamma_edges)
    # a matching of the graph bounds its cover number from below; the
    # matching edges of a hand-built partition need not be disjoint
    disjoint = len({v for e in part.matching for v in e}) == 2 * a
    adj = _adjacency_bits(n, es)
    cover = _cover_search(es, adj, a if disjoint else 0)
    beta = len(cover)
    v0 = len(part.v0)
    p = part.p

    size_identity = a == v0 + sum(len(c) // 2 for c in part.components)
    chain = beta <= n - p <= 2 * a - v0

    applicable = n >= 2 * a + 2
    strong_beta = beta <= 2 * a - 1 if applicable else None
    strong_v0 = v0 >= 1 if applicable else None

    tight_applicable = applicable and beta == 2 * a - 1
    tight_comps = tight_cover = None
    if tight_applicable:
        eset = set(es)
        tight_comps = all(
            len(c) % 2 == 1
            and all((c[i], c[j]) in eset
                    for i in range(len(c)) for j in range(i + 1, len(c)))
            for c in part.components
        )
        candidate = sorted(part.v0) + [v for c in part.components for v in c[1:]]
        cand_set = set(candidate)
        covers = all(u in cand_set or v in cand_set for u, v in es)
        tight_cover = beta == n - p and covers and len(candidate) == beta

    return PartitionDiagnostics(
        n=n,
        alpha_prime=a,
        beta=beta,
        cover=tuple(cover),
        v0_size=v0,
        p=p,
        connected=len(_components(adj, (1 << n) - 1)) <= 1,
        size_identity_ok=size_identity,
        structure_ok=size_identity and _structure_holds(part),
        chain_ok=chain,
        strong_applicable=applicable,
        strong_beta_ok=strong_beta,
        strong_v0_ok=strong_v0,
        tight_applicable=tight_applicable,
        tight_comps_ok=tight_comps,
        tight_cover_ok=tight_cover,
    )
