"""Exact matching, vertex cover, and the matching-structure partition.

Operations take an uncolored view: a vertex count n and an edge collection
on 0..n-1.  Everything here is exact and deterministic at desk scale.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .core import _jsonable

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


def _augment(adj: list[list[int]], match: list[int]) -> int:
    """Grow ``match`` in place to a maximum matching: one alternating-forest
    search from each exposed vertex in index order.  Returns the number of
    augmenting paths found.  One pass suffices, because a vertex with no
    augmenting path keeps none after augmentations elsewhere (Edmonds)."""
    grown = 0
    for v in range(len(adj)):
        if match[v] == -1 and _alternating_forest(adj, match, [v]) is None:
            grown += 1
    return grown


def max_matching(n: int, edges) -> list[tuple[int, int]]:
    """Maximum matching in a general graph via augmenting paths with
    blossom contraction.  Returns the matched pairs sorted lexicographically.
    """
    match = [-1] * n
    _augment(_adjacency(n, _normalize_edges(n, edges)), match)
    return sorted((v, match[v]) for v in range(n) if v < match[v])


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
    return _cover_search(n, _normalize_edges(n, edges), 0)


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


def _cover_search(n: int, es: list[tuple[int, int]], lower: int) -> list[int]:
    """``min_vertex_cover`` of the normalized edge list ``es`` that may stop
    as soon as its cover has ``lower`` vertices, where ``lower`` is at most
    the cover number (a matching size).

    A node is the bitset ``live`` of undecided vertices; the edges left to
    cover are those of G[live].  The greedy initial cover is kept when it
    is optimal; otherwise the result is the first optimal leaf in DFS
    order.  An admissible bound never prunes the path to that leaf, and the
    global stop only ends the search once the cover is optimal, so bounds
    change the node count, never the cover.
    """
    if n > COVER_SIZE_LIMIT:
        raise ValueError(f"instance too large for exact cover search (n={n})")

    # both endpoints of a greedy maximal matching form a valid initial cover
    best: list[int] = sorted(_greedy_matched(es))
    adj = [0] * n
    for u, v in es:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
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


def _components(adj: list[list[int]], removed) -> list[tuple[int, ...]]:
    """Components of the graph minus the vertices ``removed``, as sorted
    vertex tuples ordered by smallest vertex."""
    seen = [v in removed for v in range(len(adj))]
    comps = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


@dataclass(frozen=True)
class GallaiPartition:
    """Alternating-path decomposition of a graph relative to a maximum
    matching, with a virtual vertex joined to every unsaturated vertex.

    ``v0`` is the set of vertices reachable from the virtual vertex only by
    alternating paths that end with a non-matching edge: the outside
    neighbors of the set D of vertices that some maximum matching misses.
    D comes from one Edmonds alternating forest grown from all unsaturated
    vertices at once, with blossoms contracted: its outer (even) vertices
    are D.  An outer vertex ends an even alternating path from an
    unsaturated root, and swapping along that path misses it; with no
    augmenting path the inner vertices form a Tutte-Berge barrier whose odd
    components are the outer blossoms, so every maximum matching covers the
    rest.  ``components`` are the connected components of the graph minus
    ``v0``.  The identity alpha' = |v0| + sum(floor(|V_i| / 2)) holds and is
    checked at build time, together with the structure of matching edges at
    ``v0``.
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


def gallai_partition(n: int, edges, matching) -> GallaiPartition:
    """Build the partition for a maximum matching; raises if the matching is
    not maximum or if n <= 2 * alpha' (the decomposition needs unsaturated
    vertices).  Maximality is checked by growing the matching with the
    augmenting loop of ``max_matching``: any growth means it was not
    maximum.  So the alternating forest that finds ``v0`` never meets an
    augmenting path.
    """
    es = _normalize_edges(n, edges)
    eset = set(es)
    m = _normalize_edges(n, matching)
    match = [-1] * n
    for u, v in m:
        if (u, v) not in eset:
            raise ValueError(f"matching edge ({u}, {v}) not in graph")
        if match[u] != -1 or match[v] != -1:
            raise ValueError("matching edges are not disjoint")
        match[u], match[v] = v, u
    adj = _adjacency(n, es)
    grown = _augment(adj, match)
    if grown:
        raise ValueError(f"matching has size {len(m)}, maximum is {len(m) + grown}")
    if n <= 2 * len(m):
        raise ValueError("partition undefined: n <= 2 * alpha'")

    # V_0 is the outside neighborhood of D, the outer vertices of the
    # forest grown from every unsaturated vertex (see GallaiPartition)
    unsaturated = [v for v in range(n) if match[v] == -1]
    outer = _alternating_forest(adj, match, unsaturated)
    v0 = frozenset(w for u, v in es for a, w in ((u, v), (v, u))
                   if outer[a] and not outer[w])
    comps = tuple(_components(adj, v0))

    x = n
    alpha = tuple(m) + tuple((v, x) for v in unsaturated)
    gamma = tuple((u, v) for u, v in es if match[u] != v)
    part = GallaiPartition(
        n=n,
        matching=tuple(m),
        v0=v0,
        components=comps,
        alpha_edges=alpha,
        gamma_edges=gamma,
        virtual_vertex=x,
    )
    problems = _partition_violations(part)
    if problems:
        raise RuntimeError("partition invariant violated: " + "; ".join(problems))
    return part


def _partition_violations(part: GallaiPartition) -> list[str]:
    """Internal consistency checks: the size identity, the placement of
    matching edges around v0, and saturation of v0."""
    problems = []
    comp_of: dict[int, int] = {}
    for i, comp in enumerate(part.components):
        for v in comp:
            comp_of[v] = i
    covered = part.v0 | set(comp_of)
    if covered != set(range(part.n)) or part.v0 & set(comp_of):
        problems.append("v0 and components do not partition the vertex set")

    rhs = len(part.v0) + sum(len(c) // 2 for c in part.components)
    if part.alpha_prime != rhs:
        problems.append(f"size identity fails: {part.alpha_prime} != {rhs}")

    saturated = {v for e in part.matching for v in e}
    if not part.v0 <= saturated:
        problems.append("v0 contains an unsaturated vertex")

    # every alpha edge at a gamma vertex ends in an odd component,
    # and each odd component receives exactly one such edge
    odd = {i for i, c in enumerate(part.components) if len(c) % 2 == 1}
    hits: dict[int, int] = {i: 0 for i in odd}
    x = part.virtual_vertex
    for u, v in part.alpha_edges:
        gamma_ends = [w for w in (u, v) if w == x or w in part.v0]
        if not gamma_ends:
            continue
        others = [w for w in (u, v) if w != x and w not in part.v0]
        if len(others) != 1 or comp_of.get(others[0]) not in odd:
            problems.append(f"alpha edge ({u}, {v}) not matched to an odd component")
            continue
        hits[comp_of[others[0]]] += 1
    for i in odd:
        if hits[i] != 1:
            problems.append(
                f"odd component {i} meets {hits[i]} alpha edges at gamma vertices")
    return problems


@dataclass(frozen=True)
class PartitionDiagnostics:
    """Raw outcome of every partition-based bound for one instance.

    ``size_identity_ok`` and ``structure_ok`` restate the construction
    invariants; ``chain_ok`` is beta <= n - p <= 2 alpha' - |v0|.  The last
    group reports the stronger bounds that need n >= 2 alpha' + 2; they are
    recorded as observed, with ``connected`` alongside because the stronger
    bounds can genuinely fail on disconnected graphs.
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

    def to_json(self) -> dict:
        return _jsonable(self)


def _matching_size(matching, eset: set) -> int:
    """Size of ``matching`` if it is a matching of the graph with edge set
    ``eset``, else 0: only a matching of the graph bounds its cover number
    from below, and a partition may come from another graph."""
    ends = {v for e in matching for v in e}
    if len(ends) == 2 * len(matching) and all((min(e), max(e)) in eset for e in matching):
        return len(matching)
    return 0


def verify_partition_lemmas(n: int, edges, part: GallaiPartition) -> PartitionDiagnostics:
    """Evaluate the matching/covering bounds against an exact cover.

    Never raises on a failed bound: this is a diagnostics report, meant to
    record which inequalities hold for the instance.
    """
    es = _normalize_edges(n, edges)
    eset = set(es)
    cover = _cover_search(n, es, _matching_size(part.matching, eset))
    beta = len(cover)
    a = part.alpha_prime
    v0 = len(part.v0)
    p = part.p

    size_identity = a == v0 + sum(len(c) // 2 for c in part.components)
    structure = not _partition_violations(part)
    chain = beta <= n - p <= 2 * a - v0

    applicable = n >= 2 * a + 2
    strong_beta = beta <= 2 * a - 1 if applicable else None
    strong_v0 = v0 >= 1 if applicable else None

    tight_applicable = applicable and beta == 2 * a - 1
    tight_comps = tight_cover = None
    if tight_applicable:
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
        connected=len(_components(_adjacency(n, es), ())) <= 1,
        size_identity_ok=size_identity,
        structure_ok=structure,
        chain_ok=chain,
        strong_applicable=applicable,
        strong_beta_ok=strong_beta,
        strong_v0_ok=strong_v0,
        tight_applicable=tight_applicable,
        tight_comps_ok=tight_comps,
        tight_cover_ok=tight_cover,
    )
