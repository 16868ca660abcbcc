"""Independent brute-force oracles.

Everything here is deliberately naive and kept separate from the package
implementations it cross-checks.
"""

from __future__ import annotations

import itertools
import random

from ecgraph.core import ColoredGraph


def naive_rainbow_triangles(g: ColoredGraph) -> set[tuple[int, int, int]]:
    """Triple loop over all vertex triples with a direct color check."""
    out = set()
    for a, b, c in itertools.combinations(range(g.n), 3):
        if not (g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)):
            continue
        colors = {g.color(a, b), g.color(a, c), g.color(b, c)}
        if len(colors) == 3:
            out.add((a, b, c))
    return out


def brute_max_matching(n: int, edges) -> int:
    """Recursive exact maximum matching (branch on the lowest live vertex)."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def rec(live: frozenset[int]) -> int:
        pick = None
        for v in sorted(live):
            if adj[v] & live:
                pick = v
                break
        if pick is None:
            return 0
        best = rec(live - {pick})  # leave pick unmatched
        for w in sorted(adj[pick] & live):
            best = max(best, 1 + rec(live - {pick, w}))
        return best

    return rec(frozenset(range(n)))


def enumerate_maximum_matchings(n: int, edges) -> list[tuple[tuple[int, int], ...]]:
    """All maximum matchings, as sorted edge tuples (small n only)."""
    es = sorted({(min(u, v), max(u, v)) for u, v in edges})
    best = brute_max_matching(n, es)
    out = []
    for size in (best,):
        for combo in itertools.combinations(es, size):
            used: set[int] = set()
            ok = True
            for u, v in combo:
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                out.append(combo)
    return out


def brute_min_cover_size(n: int, edges) -> int:
    es = sorted({(min(u, v), max(u, v)) for u, v in edges})
    if not es:
        return 0
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in es):
                return size
    raise AssertionError("unreachable")


def brute_max_independent_set(n: int, edges) -> int:
    es = sorted({(min(u, v), max(u, v)) for u, v in edges})
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            chosen = set(combo)
            if all(not (u in chosen and v in chosen) for u, v in es):
                return size
    return 0


def brute_fan_at(g: ColoredGraph, v: int) -> int:
    """Largest set of rainbow triangles at v with pairwise disjoint rims,
    by direct backtracking over the triangle list."""
    tris = [t for t in naive_rainbow_triangles(g) if v in t]
    rims = [tuple(sorted(set(t) - {v})) for t in sorted(tris)]

    def rec(i: int, used: frozenset[int]) -> int:
        if i == len(rims):
            return 0
        best = rec(i + 1, used)
        x, y = rims[i]
        if x not in used and y not in used:
            best = max(best, 1 + rec(i + 1, used | {x, y}))
        return best

    return rec(0, frozenset())


def brute_max_disjoint(g: ColoredGraph) -> int:
    tris = sorted(naive_rainbow_triangles(g))

    def rec(i: int, used: frozenset[int]) -> int:
        if i == len(tris):
            return 0
        best = rec(i + 1, used)
        if not used & set(tris[i]):
            best = max(best, 1 + rec(i + 1, used | set(tris[i])))
        return best

    return rec(0, frozenset())


def brute_spanning_fan_exists(g: ColoredGraph) -> bool:
    """Independent search for a properly colored spanning fan: matches the
    highest unpaired vertex first (reversed order from the implementation).
    """
    if g.n % 2 == 0:
        raise ValueError("needs odd n")

    def pair_up(v: int, free: list[int]) -> bool:
        if not free:
            return True
        x = free[-1]
        rest = free[:-1]
        for i, y in enumerate(rest):
            if not (g.has_edge(x, y) and g.has_edge(v, x) and g.has_edge(v, y)):
                continue
            cxy = g.color(x, y)
            if cxy == g.color(v, x) or cxy == g.color(v, y):
                continue
            if pair_up(v, rest[:i] + rest[i + 1:]):
                return True
        return False

    return any(pair_up(v, [w for w in range(g.n) if w != v])
               for v in range(g.n))


def gallai_sets_oracle(n: int, edges) -> tuple[set[int], set[int]]:
    """(D, A): vertices missable by some maximum matching, and their
    outside neighborhood.  Uses only the brute matching counter."""
    es = sorted({(min(u, v), max(u, v)) for u, v in edges})
    full = brute_max_matching(n, es)
    missable = {v for v in range(n)
                if brute_max_matching(n, [e for e in es if v not in e]) == full}
    frontier = set()
    for u, v in es:
        if u in missable and v not in missable:
            frontier.add(v)
        elif v in missable and u not in missable:
            frontier.add(u)
    return missable, frontier


def mono_triangle_or_path3(g: ColoredGraph) -> bool:
    """Monochromatic triangle or monochromatic path with three edges."""
    for a, b, c in itertools.combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            if g.color(a, b) == g.color(a, c) == g.color(b, c):
                return True
    for a, b in g.edges:
        for x, y in ((a, b), (b, a)):
            col = g.color(x, y)
            for u in g.neighbors(x):
                if u == y or g.color(u, x) != col:
                    continue
                for w in g.neighbors(y):
                    if w in (x, u) or g.color(y, w) != col:
                        continue
                    return True
    return False


def random_colored(rng: random.Random, n: int, p: float, c: int) -> ColoredGraph:
    """Test-local sampler, independent of the package generators."""
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                triples.append((u, v, rng.randint(1, c)))
    return ColoredGraph(n, triples)


def repair_rebuild_reference(graph: ColoredGraph, target: int,
                             rng: random.Random) -> ColoredGraph | None:
    """Color-degree repair by rebuilding the graph for every added edge.

    Rescans every vertex from 0 for the first one below ``target``, draws
    one partner with ``rng.choice`` from its non-neighbors in increasing
    order, and joins them with a fresh color (max + 1 upward); None when a
    deficient vertex has no non-neighbor left.
    """
    g = graph
    next_color = max(g.colors(), default=0) + 1
    while True:
        deficient = next((v for v in range(g.n)
                          if len({g.color(v, u) for u in g.neighbors(v)}) < target),
                         None)
        if deficient is None:
            return g
        candidates = [u for u in range(g.n)
                      if u != deficient and not g.has_edge(deficient, u)]
        if not candidates:
            return None
        g = g.with_edge(deficient, rng.choice(candidates), next_color)
        next_color += 1


def reduce_rescan_reference(graph: ColoredGraph) -> ColoredGraph:
    """Edge-minimal reduction by rescanning from the first edge after every
    deletion: repeatedly drop the lexicographically smallest edge whose
    color appears at least twice at both of its ends."""
    g = graph
    while True:
        counts: list[dict[int, int]] = [{} for _ in range(g.n)]
        for (u, v), c in g.edge_colors().items():
            counts[u][c] = counts[u].get(c, 0) + 1
            counts[v][c] = counts[v].get(c, 0) + 1
        removable = next(((u, v) for u, v in g.edges
                          if counts[u][g.color(u, v)] >= 2
                          and counts[v][g.color(u, v)] >= 2), None)
        if removable is None:
            return g
        g = g.without_edge(*removable)
