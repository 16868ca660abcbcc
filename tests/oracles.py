"""Independent brute-force oracles.

Everything here is deliberately naive and kept separate from the package
implementations it cross-checks.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction

from ecgraph.bounds import ClassBound, MonoBalanceDiagnostics, TriangleBoundReport
from ecgraph.core import (ColoredGraph, color_degree, color_profile, max_mono_degree,
                          mono_degree)
from ecgraph.matching import GallaiPartition, PartitionDiagnostics
from ecgraph.rainbow import build_index, rainbow_edge_graph
from ecgraph.reduction import is_edge_minimal


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


def find_pc_spanning_fan_reference(g: ColoredGraph):
    """Frozen backtracking search for a properly colored spanning fan:
    (center, rims) for the first center in index order that has one, or
    None.  Pairs the lowest free vertex first and has no node limit, so it
    is exponential on no-instances such as :func:`two_odd_cliques`."""

    def matchable(v: int, free: list[int], picked: list[tuple[int, int]]) -> bool:
        if not free:
            return True
        x = free[0]
        rest = free[1:]
        for idx, y in enumerate(rest):
            if not (g.has_edge(x, y) and g.has_edge(v, x) and g.has_edge(v, y)):
                continue
            cxy = g.color(x, y)
            if cxy == g.color(v, x) or cxy == g.color(v, y):
                continue
            picked.append((x, y))
            if matchable(v, rest[:idx] + rest[idx + 1:], picked):
                return True
            picked.pop()
        return False

    for v in range(g.n):
        picked: list[tuple[int, int]] = []
        if matchable(v, [w for w in range(g.n) if w != v], picked):
            return v, picked
    return None


def two_odd_cliques(n: int) -> ColoredGraph:
    """Odd n: center 0 joined to two disjoint odd cliques, of sizes as
    equal as possible, that cover the other n-1 vertices; every edge has its
    own color.  Every link of 0 lies inside one clique, and an odd clique
    has no perfect matching, so there is no spanning fan at 0; every other
    vertex misses the far clique."""
    a = (n - 1) // 2
    a += 1 - a % 2  # the larger clique first, where the backtracking starts
    parts = (range(1, a + 1), range(a + 1, n))
    es = [(0, v) for v in range(1, n)]
    es += [e for part in parts for e in itertools.combinations(part, 2)]
    return ColoredGraph(n, [(u, v, i + 1) for i, (u, v) in enumerate(es)])


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
    """Test-local sampler, independent of the package generators.

    Draw for draw the harness's colored sampler: one ``rng.random()`` per
    pair u < v in lexicographic order, one ``rng.randint(1, c)`` per edge.
    """
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                triples.append((u, v, rng.randint(1, c)))
    return ColoredGraph(n, triples)


def odd_pieces(rng: random.Random, sizes: list[int]) -> tuple[int, list]:
    """Dense odd-order pieces (a spanning path plus edges at p = 0.8)
    joined through len(sizes) - 2 hubs, each meeting three vertices of
    every piece."""
    edges, start, pieces = [], 0, []
    for size in sizes:
        piece = list(range(start, start + size))
        pieces.append(piece)
        edges += [(piece[i], piece[j]) for i in range(size) for j in range(i + 1, size)
                  if j == i + 1 or rng.random() < 0.8]
        start += size
    n = start + len(sizes) - 2
    edges += [(v, hub) for hub in range(start, n) for piece in pieces
              for v in rng.sample(piece, 3)]
    return n, edges


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


def _reference_normalize_edges(n: int, edges) -> list[tuple[int, int]]:
    out = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        out.add((u, v) if u < v else (v, u))
    return sorted(out)


def blossom_matching_reference(n: int, edges) -> list[tuple[int, int]]:
    """Single-root blossom matching, frozen as ``matching.max_matching``
    stood before the Gallai-Edmonds forest shared its search code."""
    es = _reference_normalize_edges(n, edges)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in es:
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    match = [-1] * n

    def lca(base, parent, a: int, b: int) -> int:
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

    def mark_path(base, parent, blossom, v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> bool:
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom to its base
                    cur = lca(base, parent, v, to)
                    blossom = [False] * n
                    mark_path(base, parent, blossom, v, cur, to)
                    mark_path(base, parent, blossom, to, cur, v)
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
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting(v)
    return sorted((v, match[v]) for v in range(n) if v < match[v])


def gamma_vertices_deletion_reference(n: int, edges) -> frozenset[int]:
    """V_0 by definition: delete each vertex in turn and rerun the frozen
    blossom matching; the vertices whose deletion keeps the matching number
    are missable, and V_0 is their outside neighborhood."""
    es = _reference_normalize_edges(n, edges)
    alpha_prime = len(blossom_matching_reference(n, es))
    # A vertex lies in V_0 exactly when it neighbors some vertex that a
    # maximum matching can miss, while no maximum matching misses it.
    missable = []
    for v in range(n):
        if len(blossom_matching_reference(n, [e for e in es if v not in e])) == alpha_prime:
            missable.append(v)
    mset = set(missable)
    v0 = set()
    for u, v in es:
        if u in mset and v not in mset:
            v0.add(v)
        elif v in mset and u not in mset:
            v0.add(u)
    return frozenset(v0)


def color_classes_reference(g: ColoredGraph) -> list[dict[int, set[int]]]:
    """Per vertex, color -> neighbors joined by that color, counted
    straight from ``edge_colors()``."""
    classes: list[dict[int, set[int]]] = [{} for _ in range(g.n)]
    for (u, v), c in g.edge_colors().items():
        classes[u].setdefault(c, set()).add(v)
        classes[v].setdefault(c, set()).add(u)
    return classes


def removable_edges_reference(g: ColoredGraph) -> list[tuple[int, int]]:
    """Edges whose color appears at least twice at both ends, sorted."""
    classes = color_classes_reference(g)
    return sorted((u, v) for (u, v), c in g.edge_colors().items()
                  if len(classes[u][c]) >= 2 and len(classes[v][c]) >= 2)


def _bound_terms(g: ColoredGraph, v: int):
    classes = color_classes_reference(g)
    at_v = classes[v]
    dcv = len(at_v)
    excess = sum(len(m) - 1 for m in at_v.values())
    unique = [(c, y) for c, m in at_v.items() if len(m) == 1 for y in m]

    def neighbor_sum(members) -> int:
        return sum(len(classes[x]) + dcv - g.n for x in members)

    def hits(ys, target) -> int:
        return sum(len(classes[y][c] & set(target)) for c, y in ys)
    return at_v, excess, unique, neighbor_sum, hits


def strict_class_bounds_reference(g: ColoredGraph, v: int) -> list[tuple[int, int]]:
    """(color, strict lower bound) per class at v in canonical order
    (decreasing size, then color), with the singleton-class hits counted
    only from neighbors y outside the class."""
    at_v, excess, unique, neighbor_sum, hits = _bound_terms(g, v)
    out = []
    for c, members in sorted(at_v.items(), key=lambda item: (-len(item[1]), item[0])):
        di = len(members)
        outside = [(cy, y) for cy, y in unique if y not in members]
        out.append((c, neighbor_sum(members) + di * excess - di * (di - 1)
                    - hits(outside, members)))
    return out


def vertex_lower_half_sum_reference(g: ColoredGraph, v: int) -> Fraction:
    """Half of: sum over x in N(v) of (d^c(x) + d^c(v) - n) + d(v) times
    the sum of (d_j - 1) - the sum of d_j (d_j - 1) - the singleton-class
    hits into N(v)."""
    at_v, excess, unique, neighbor_sum, hits = _bound_terms(g, v)
    nbrs = set().union(*at_v.values())
    sizes = [len(m) for m in at_v.values()]
    return Fraction(neighbor_sum(nbrs) + len(nbrs) * excess
                    - sum(s * (s - 1) for s in sizes) - hits(unique, nbrs), 2)


def rainbow_edge_graph_reference(g: ColoredGraph, v: int
                                 ) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(vertices, edges) of the rainbow edge graph at v, frozen as
    ``rainbow.rainbow_edge_graph`` stood before it shared the rainbow
    triangle scan: a double loop over pairs x < y of N(v) in lexicographic
    order, reading every color through ``has_edge`` and ``color``."""
    es = []
    nbrs = g.neighbors(v)
    for i, x in enumerate(nbrs):
        cvx = g.color(v, x)
        for y in nbrs[i + 1:]:
            if not g.has_edge(x, y):
                continue
            cvy = g.color(v, y)
            cxy = g.color(x, y)
            if cvx != cvy and cvx != cxy and cvy != cxy:
                es.append((x, y))
    return tuple(sorted({w for e in es for w in e})), tuple(es)


def restriction_count_reference(g: ColoredGraph, v: int, x_set, y: int) -> int:
    """The restriction count of y by (v, X), frozen as
    ``bounds.restriction_count`` stood before it read color-class bitsets:
    y's outside colors and the restricted colors as Python sets, every
    color read through ``has_edge`` and ``color``."""
    g._check_vertex(v)
    g._check_vertex(y)
    xs = frozenset(x_set)
    nbrs_v = set(g.neighbors(v))
    if not xs <= nbrs_v:
        raise ValueError("X must be a subset of N(v)")
    if y == v:
        raise ValueError("y must differ from v")
    outside = {g.color(y, w) for w in g.neighbors(y) if w not in xs}
    restricted = set()
    for x in xs:
        if not g.has_edge(x, y):
            continue
        a = g.color(x, y)
        if a != g.color(v, x) and a not in outside:
            restricted.add(a)
    return len(restricted)


def min_vertex_cover_reference(n: int, edges, size_limit: int = 64) -> list[int]:
    """Exact minimum vertex cover, frozen as ``matching.min_vertex_cover``
    stood before its bitset search: edge lists filtered at every node,
    branching on a highest-degree vertex (lowest index first), pruned only
    by a greedy matching, starting from the greedy matching's endpoints."""
    if n > size_limit:
        raise ValueError(f"instance too large for exact cover search (n={n})")
    es = _reference_normalize_edges(n, edges)

    def greedy_matched(edges: list[tuple[int, int]]) -> set[int]:
        used: set[int] = set()
        for u, v in edges:
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
        return used

    best: list[int] = sorted(greedy_matched(es))

    def bnb(remaining: list[tuple[int, int]], chosen: list[int]) -> None:
        nonlocal best
        if not remaining:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return
        if len(chosen) + len(greedy_matched(remaining)) // 2 >= len(best):
            return
        deg: dict[int, int] = {}
        for u, v in remaining:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        x = max(deg.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        bnb([e for e in remaining if x not in e], chosen + [x])
        nbrs = sorted({w for e in remaining if x in e for w in e if w != x})
        rest = [e for e in remaining
                if e[0] not in nbrs and e[1] not in nbrs and x not in e]
        bnb(rest, chosen + nbrs)

    bnb(es, [])
    return best


def _unique_color_hits_reference(g: ColoredGraph, profile, target_bits: int) -> int:
    """Sum over singleton-class neighbors y of the number of edges from y
    into the bitset ``target_bits`` carrying y's unique color at v."""
    v = profile.vertex
    table = g.color_table()
    return sum((table[y][g.color(v, y)] & target_bits).bit_count()
               for y in profile.unique_nbrs)


def balance_forms_reference(g: ColoredGraph, profile,
                            per_class_balance: list[int]) -> tuple[int, int, int]:
    """The three algebraic forms of the balance term, frozen as
    ``bounds._balance_forms`` stood when it read a ``ColorDegreeProfile``."""
    v = profile.vertex
    d = profile.degree
    sizes = profile.sorted_sizes
    excess = sum(s - 1 for s in sizes)
    hits_all = _unique_color_hits_reference(g, profile, g.adjacency_bits(v))
    form1 = sum(per_class_balance)
    form2 = d * excess - sum(s * (s - 1) for s in sizes) - hits_all
    if sizes:
        d1 = sizes[0]
        form3 = (d - d1) * (d1 - 1) - hits_all \
            + sum((d - s) * (s - 1) for s in sizes[1:])
    else:
        form3 = 0
    return form1, form2, form3


def triangle_bound_report_reference(g: ColoredGraph, v: int):
    """``bounds.triangle_bound_report`` frozen as it stood when it built a
    ``ColorDegreeProfile`` per vertex, called ``color_degree`` per class
    member and summed ``rt_pair`` per member."""
    profile = color_profile(g, v)
    classes = g.color_table()[v]
    index = build_index(g)
    n = g.n
    dcv = profile.dc
    excess = sum(s - 1 for s in profile.sorted_sizes)

    per_class = []
    for color, members in profile.sorted_classes:
        di = len(members)
        neighbor_sum = sum(color_degree(g, x) + dcv - n for x in members)
        hits = _unique_color_hits_reference(g, profile, classes[color])
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

    forms = balance_forms_reference(g, profile, [cb.balance for cb in per_class])
    if len(set(forms)) != 1:
        raise RuntimeError(f"balance forms disagree at vertex {v}: {forms}")

    return TriangleBoundReport(
        vertex=v,
        edge_minimal=is_edge_minimal(g)[0],
        per_class=tuple(per_class),
        balance_total=forms[0],
        rt_vertex=index.rt(v),
        vertex_lower=Fraction(sum(cb.lower_bound for cb in per_class), 2),
    )


def mono_balance_diagnostics_reference(g: ColoredGraph, v: int):
    """``bounds.mono_balance_diagnostics`` frozen as it stood when it read
    a ``ColorDegreeProfile`` and a full bound report."""
    profile = color_profile(g, v)
    delta_mon = max_mono_degree(g)
    if profile.dmon != delta_mon:
        raise ValueError(
            f"vertex {v} does not attain the maximum monochromatic degree")

    report = triangle_bound_report_reference(g, v)
    b_total = report.balance_total
    applicable = delta_mon >= 2 and b_total == 0

    cond_a = cond_b = cond_c = None
    cond_c_applicable = False
    minimal = report.edge_minimal
    if applicable:
        largest = set(profile.sorted_classes[0][1])
        cond_a = profile.unique_nbrs == frozenset(g.neighbors(v)) - largest
        cond_b = all(
            mono_degree(g, u) == delta_mon for u in profile.unique_nbrs)
        b_first = report.per_class[0].balance
        cond_c_applicable = b_first == 0 and minimal
        if cond_c_applicable:
            rt_edges = set(rainbow_edge_graph(g, v).edges)
            cond_c = all(
                (min(x, y), max(x, y)) in rt_edges
                for x in largest for y in profile.unique_nbrs
                if g.has_edge(x, y)
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


def _reference_components(n: int, es: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Components as sorted vertex tuples, ordered by smallest vertex."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in es:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack, comp = [s], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def partition_violations_reference(part: GallaiPartition) -> list[str]:
    """``matching._partition_violations`` frozen with its messages."""
    problems = []
    comp_of = {v: i for i, comp in enumerate(part.components) for v in comp}
    if (part.v0 | set(comp_of)) != set(range(part.n)) or part.v0 & set(comp_of):
        problems.append("v0 and components do not partition the vertex set")
    rhs = len(part.v0) + sum(len(c) // 2 for c in part.components)
    if part.alpha_prime != rhs:
        problems.append(f"size identity fails: {part.alpha_prime} != {rhs}")
    if not part.v0 <= {v for e in part.matching for v in e}:
        problems.append("v0 contains an unsaturated vertex")
    odd = {i for i, c in enumerate(part.components) if len(c) % 2 == 1}
    hits = {i: 0 for i in odd}
    x = part.virtual_vertex
    for u, v in part.alpha_edges:
        if not any(w == x or w in part.v0 for w in (u, v)):
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


def gallai_partition_reference(n: int, edges, matching) -> GallaiPartition:
    """``matching.gallai_partition`` frozen as it stood when it took the
    components of G - V_0 from a second validated edge list, with the
    frozen blossom matching for the maximality check and V_0 by definition
    (``gamma_vertices_deletion_reference``) in place of the shared search."""
    es = _reference_normalize_edges(n, edges)
    eset = set(es)
    m = _reference_normalize_edges(n, matching)
    match = [-1] * n
    for u, v in m:
        if (u, v) not in eset:
            raise ValueError(f"matching edge ({u}, {v}) not in graph")
        if match[u] != -1 or match[v] != -1:
            raise ValueError("matching edges are not disjoint")
        match[u], match[v] = v, u
    maximum = len(blossom_matching_reference(n, es))
    if len(m) < maximum:
        raise ValueError(f"matching has size {len(m)}, maximum is {maximum}")
    if n <= 2 * len(m):
        raise ValueError("partition undefined: n <= 2 * alpha'")
    v0 = gamma_vertices_deletion_reference(n, es)
    rest_edges = [e for e in es if e[0] not in v0 and e[1] not in v0]
    comps = tuple(c for c in _reference_components(n, rest_edges) if c[0] not in v0)
    unsaturated = [v for v in range(n) if match[v] == -1]
    part = GallaiPartition(
        n=n,
        matching=tuple(m),
        v0=v0,
        components=comps,
        alpha_edges=tuple(m) + tuple((v, n) for v in unsaturated),
        gamma_edges=tuple((u, v) for u, v in es if match[u] != v),
        virtual_vertex=n,
    )
    problems = partition_violations_reference(part)
    if problems:
        raise RuntimeError("partition invariant violated: " + "; ".join(problems))
    return part


def verify_partition_lemmas_reference(n: int, edges, part: GallaiPartition
                                      ) -> PartitionDiagnostics:
    """``matching.verify_partition_lemmas`` frozen as it stood when it
    revalidated its edges for the cover and the connectivity test, with the
    frozen cover search in place of the bitset one."""
    es = _reference_normalize_edges(n, edges)
    eset = set(es)
    cover = min_vertex_cover_reference(n, es)
    beta = len(cover)
    a = part.alpha_prime
    v0 = len(part.v0)
    p = part.p
    applicable = n >= 2 * a + 2
    tight_applicable = applicable and beta == 2 * a - 1
    tight_comps = tight_cover = None
    if tight_applicable:
        tight_comps = all(
            len(c) % 2 == 1 and all((x, y) in eset for x, y in itertools.combinations(c, 2))
            for c in part.components)
        candidate = sorted(part.v0) + [v for c in part.components for v in c[1:]]
        covers = all(u in candidate or v in candidate for u, v in es)
        tight_cover = beta == n - p and covers and len(candidate) == beta
    return PartitionDiagnostics(
        n=n,
        alpha_prime=a,
        beta=beta,
        cover=tuple(cover),
        v0_size=v0,
        p=p,
        connected=len(_reference_components(n, es)) <= 1,
        size_identity_ok=a == v0 + sum(len(c) // 2 for c in part.components),
        structure_ok=not partition_violations_reference(part),
        chain_ok=beta <= n - p <= 2 * a - v0,
        strong_applicable=applicable,
        strong_beta_ok=beta <= 2 * a - 1 if applicable else None,
        strong_v0_ok=v0 >= 1 if applicable else None,
        tight_applicable=tight_applicable,
        tight_comps_ok=tight_comps,
        tight_cover_ok=tight_cover,
    )
