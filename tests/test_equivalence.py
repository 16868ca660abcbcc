"""Package searches agree with slower reference versions of themselves.

- Repair and reduction build one graph at the end; the references in
  ``oracles.py`` rebuild the graph after every added or deleted edge.  Both
  must give the same graph, the same ``edge_colors()`` order and, for
  repair, leave the random generator in the same state.
- The Gallai-Edmonds set V_0 comes from one alternating forest; the frozen
  reference in ``oracles.py`` deletes each vertex and reruns a blossom
  matching.  ``max_matching`` must return the reference's exact matching.
- ``max_fan`` and ``find_fan`` skip centers by the floor(deg / 2) bound;
  the unpruned loops over every center must give the same value and the
  same certificate.
- Every color-degree query reads the graph's cached color table; each
  must equal the same quantity counted straight from ``edge_colors()``,
  also on graphs derived with ``with_edge``/``without_edge`` after the
  parent's table was built.
- The colored sampler makes the same draws as the test-local
  ``random_colored``; the class bounds equal the strict form recounted in
  ``oracles.py``, and the vertex bound equals the half-sum formula.
- The class bounds, the balance term and the diagnostics at a vertex come
  from one integer kernel over the class bitsets and per-graph color-degree
  and rt rows; every report field and every diagnostics field must equal
  the frozen profile-based versions in ``oracles.py``, and the ``lemma1``
  and ``lemma2`` conclusions must build no report object and no profile.
- One link scan per vertex serves the rainbow triangle index and the
  rainbow edge graph; the latter must equal the frozen double loop in
  ``oracles.py``, edge order included.  Whole-graph facts are built once
  per graph, and graphs derived after the parent's facts were cached get
  their own.
- Restriction counts come from the color table's class bitsets; each must
  equal the frozen set-based count in ``oracles.py``, on every ordered
  edge the ``prop1`` conclusion visits and on random subsets X.
- The minimum vertex cover comes from a bitset branch and bound with a
  clique-partition bound and a stop at the matching number; the cover
  itself, not only its size, must equal the frozen edge-list search in
  ``oracles.py``, through ``min_vertex_cover`` and through
  ``verify_partition_lemmas``.
- A properly colored spanning fan is a perfect matching of the center's
  proper links; the frozen backtracking in ``oracles.py`` must find one at
  the same first center, or none.  The certificate conclusions come from
  one factory; each must give the same (ok, gap) as its frozen body.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
import ecgraph.bounds
import ecgraph.core
import ecgraph.harness
import ecgraph.matching
import ecgraph.rainbow
import ecgraph.reduction
from oracles import (
    balance_forms_reference,
    blossom_matching_reference,
    find_pc_spanning_fan_reference,
    color_classes_reference,
    gallai_partition_reference,
    gamma_vertices_deletion_reference,
    min_vertex_cover_reference,
    mono_balance_diagnostics_reference,
    naive_rainbow_triangles,
    odd_pieces,
    rainbow_edge_graph_reference,
    random_colored,
    reduce_rescan_reference,
    removable_edges_reference,
    repair_rebuild_reference,
    restriction_count_reference,
    strict_class_bounds_reference,
    triangle_bound_report_reference,
    two_odd_cliques,
    verify_partition_lemmas_reference,
    vertex_lower_half_sum_reference,
)

from ecgraph.bounds import (_vertex_bounds, edge_restriction_counts,
                            mono_balance_diagnostics, restriction_count,
                            triangle_bound_report)
from ecgraph.core import (ColoredGraph, color_degree, color_profile, max_mono_degree,
                          min_color_degree, mono_degree)
from ecgraph.generators import (gen_example1, gen_proper_complete, gen_random_colored,
                                sample_random_colored)
from ecgraph.harness import (_concl_book, _concl_class_bounds, _concl_disjoint,
                             _concl_fan, _concl_mono_balance, _concl_restriction,
                             _concl_spanning_fan, _repair_color_degree)
from ecgraph.matching import (GallaiPartition, _cover_search, _greedy_matched,
                              _normalize_edges, gallai_partition, max_matching,
                              min_vertex_cover, verify_partition_lemmas)
from ecgraph.rainbow import (Certificate, RainbowTriangleIndex, _rainbow_links, build_index,
                             find_book, find_disjoint_rainbow_triangles, find_fan,
                             find_pc_spanning_fan, has_rainbow_triangle, max_book,
                             max_fan, rainbow_edge_graph)
from ecgraph.reduction import edge_minimal_reduce, is_edge_minimal


_PACKAGE_MODULES = (ecgraph.core, ecgraph.rainbow, ecgraph.reduction, ecgraph.bounds,
                    ecgraph.matching, ecgraph.harness)


def _same(a: ColoredGraph, b: ColoredGraph) -> bool:
    return a == b and list(a.edge_colors().items()) == list(b.edge_colors().items())


def _corpus(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        g = random_colored(rng, n, rng.uniform(0.0, 0.95), rng.randint(1, 6))
        if rng.random() < 0.3:  # the injective coloring of the uncolored claims
            g = ColoredGraph(n, [(u, v, i + 1) for i, (u, v) in enumerate(g.edges)])
        yield rng, g


def _check_repair(g: ColoredGraph, target: int, seed: int) -> str:
    ref_rng, new_rng = random.Random(seed), random.Random(seed)
    expected = repair_rebuild_reference(g, target, ref_rng)
    got = _repair_color_degree(g, target, new_rng)
    assert new_rng.getstate() == ref_rng.getstate()
    if expected is None:
        assert got is None
        return "exhausted"
    assert got is not None and _same(got, expected)
    if expected is g:
        assert got is g
        return "unchanged"
    return "repaired"


def test_repair_matches_rebuild_reference():
    outcomes = {"exhausted": 0, "unchanged": 0, "repaired": 0}
    for rng, g in _corpus(seed=31, count=400):
        target = rng.randint(0, g.n)
        outcomes[_check_repair(g, target, seed=rng.getrandbits(32))] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_repair_edge_cases():
    empty = ColoredGraph(4)
    assert _check_repair(empty, 0, seed=1) == "unchanged"
    assert _check_repair(empty, 3, seed=1) == "repaired"
    assert _check_repair(empty, 4, seed=1) == "exhausted"
    # a full vertex with a repeated color can never be repaired
    mono = ColoredGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 2)])
    assert _check_repair(mono, 2, seed=5) == "exhausted"
    assert _check_repair(ColoredGraph(1), 1, seed=2) == "exhausted"


def test_reduce_matches_rescan_reference():
    changed = 0
    for _, g in _corpus(seed=47, count=400):
        expected = reduce_rescan_reference(g)
        got = edge_minimal_reduce(g)
        assert _same(got, expected)
        if expected is g:
            assert got is g
        else:
            changed += 1
    assert 40 <= changed <= 360


def test_reduce_keeps_insertion_order():
    g = ColoredGraph(4, [(2, 3, 1), (0, 3, 1), (1, 3, 1), (0, 1, 1), (1, 2, 1)])
    got = edge_minimal_reduce(g)
    assert _same(got, reduce_rescan_reference(g))
    assert list(got.edge_colors()) == [(2, 3), (0, 3), (1, 3)]


def _check_v0(n: int, edges: list[tuple[int, int]],
              rng: random.Random) -> frozenset[int] | None:
    """Compare V_0 with the deletion reference, under the package's own
    maximum matching and under a second one found on relabeled vertices;
    None when the partition is undefined (n <= 2 alpha')."""
    m = max_matching(n, edges)
    assert m == blossom_matching_reference(n, edges)
    if n <= 2 * len(m):
        return None
    expected = gamma_vertices_deletion_reference(n, edges)
    assert gallai_partition(n, edges, m).v0 == expected
    perm = list(range(n))
    rng.shuffle(perm)
    back = {perm[v]: v for v in range(n)}
    other = [(back[u], back[v]) for u, v in max_matching(n, [(perm[u], perm[v]) for u, v in edges])]
    assert gallai_partition(n, edges, other).v0 == expected
    return expected


def test_v0_matches_deletion_reference_on_random_graphs():
    rng = random.Random(41)
    checked = nonempty = large = 0
    while checked < 2000:
        n = rng.randint(2, 60 if rng.random() < 0.12 else 20)
        # mostly sparse (average degree 0.3 to 6), where V_0 has structure
        p = min(1.0, rng.uniform(0.3, 6.0) / n) if rng.random() < 0.8 else rng.uniform(0.3, 1.0)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        v0 = _check_v0(n, edges, rng)
        if v0 is not None:
            checked += 1
            nonempty += bool(v0)
            large += n > 40
    assert nonempty >= 800 and large >= 60, (nonempty, large)


def _bipartite(rng: random.Random, left: int, right: int, p: float) -> tuple[int, list]:
    """Unbalanced random bipartite graph, left part first."""
    return left + right, [(u, v) for u in range(left) for v in range(left, left + right)
                          if rng.random() < p]


def test_v0_matches_deletion_reference_on_partition_shapes():
    rng = random.Random(43)
    shapes = 0
    for _ in range(6):
        for sizes in ([13, 11, 11, 9], [7, 5, 5, 3, 3], [9, 9, 7]):
            shapes += _check_v0(*odd_pieces(rng, sizes), rng) is not None
        for left, right, p in ((36, 20, 0.15), (30, 18, 0.25), (25, 6, 0.4), (40, 12, 0.08)):
            shapes += _check_v0(*_bipartite(rng, left, right, p), rng) is not None
    assert shapes == 42


def _raised(call, *args) -> str | None:
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _check_partition(rng: random.Random, n: int, edges) -> GallaiPartition | None:
    """Both partition functions against their frozen references, fed the
    edges and the matching with random orientation and repeats; also a
    matching one short of maximum, and the diagnostics of the partition
    against a subgraph and of a partition missing its first component.
    Returns the partition where it is defined."""
    def messy(pairs):
        out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        return out + rng.sample(out, len(out) // 4)

    m = max_matching(n, edges)
    if m:
        short = m[:-1]
        assert _raised(gallai_partition, n, edges, short) == \
            _raised(gallai_partition_reference, n, edges, short) is not None
    if n <= 2 * len(m):
        assert _raised(gallai_partition, n, edges, m) == \
            _raised(gallai_partition_reference, n, edges, m) is not None
        return None
    part = gallai_partition(n, messy(edges), messy(m))
    expected = gallai_partition_reference(n, edges, m)
    assert part == expected
    sub = [e for e in edges if rng.random() < 0.7]
    broken = dataclasses.replace(part, components=part.components[1:])
    for es, given in ((edges, part), (sub, part), (edges, broken)):
        assert verify_partition_lemmas(n, messy(es), given) == \
            verify_partition_lemmas_reference(n, es, given)
    return part


def test_partition_pipeline_matches_frozen_reference():
    rng = random.Random(101)
    seen = {"disconnected": 0, "isolated": 0, "v0": 0, "v0 and disconnected": 0,
            "tight": 0}
    for _ in range(600):
        n = rng.randint(1, 16)
        p = min(1.0, rng.uniform(0.2, 4.0) / n) if rng.random() < 0.7 else rng.uniform(0.2, 0.9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        part = _check_partition(rng, n, edges)
        if part is None:
            continue
        diag = verify_partition_lemmas(n, edges, part)
        seen["disconnected"] += not diag.connected
        seen["isolated"] += any(all(v not in e for e in edges) for v in range(n))
        seen["v0"] += bool(part.v0)
        seen["v0 and disconnected"] += bool(part.v0) and not diag.connected
        seen["tight"] += diag.tight_applicable
    for sizes in ([7, 5, 5, 3, 3], [5, 3, 3, 3]):
        assert _check_partition(rng, *odd_pieces(rng, sizes)).v0
    assert min(seen.values()) >= 30, seen


def _check_cover(n: int, edges) -> bool:
    """Compare the cover with the reference: plain, stopped at the
    matching number, and in the partition diagnostics where the partition
    is defined.  True when the greedy initial cover was already optimal."""
    expected = min_vertex_cover_reference(n, edges)
    assert min_vertex_cover(n, edges) == expected
    m = max_matching(n, edges)
    assert _cover_search(n, edges, len(m)) == expected
    if n > 2 * len(m):
        diag = verify_partition_lemmas(n, edges, gallai_partition(n, edges, m))
        assert diag.cover == tuple(expected) and diag.beta == len(expected)
    return len(expected) == len(_greedy_matched(_normalize_edges(n, edges)))


def test_cover_matches_reference_on_partition_shapes():
    # the shapes ``ecgraph partition`` gets in the benchmark, rebuilt here:
    # odd pieces 13/11/11/9 with two hubs, and unbalanced bipartite graphs
    for seed in range(6):
        rng = random.Random(f"cover:{seed}")
        assert not _check_cover(*odd_pieces(rng, [13, 11, 11, 9]))
        for left, right, p in ((36, 20, 0.15), (30, 18, 0.25)):
            _check_cover(*_bipartite(rng, left, right, p))


def test_cover_matches_reference_on_random_graphs():
    rng = random.Random(53)
    greedy_optimal = large = 0
    for _ in range(400):
        n = rng.randint(0, 40)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice((1.5 / max(n, 1), 0.2, 0.5, 0.9))]
        greedy_optimal += _check_cover(n, edges)
        large += n > 30
    assert greedy_optimal >= 30 and large >= 60, (greedy_optimal, large)


def test_cover_keeps_an_optimal_greedy_cover_the_bounds_cannot_prove(monkeypatch):
    # dense graphs where the greedy cover is optimal but the root bounds
    # are below it: the search runs, and its leaves of the same size must
    # not replace the greedy cover
    rng = random.Random(59)
    searched = 0
    for _ in range(600):
        n = rng.randint(6, 12)
        p = rng.choice((0.7, 0.8, 0.9))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if not _check_cover(n, edges):
            continue
        with monkeypatch.context() as patched:
            patched.setattr(ecgraph.matching, "SEARCH_NODE_LIMIT", 0)
            try:
                min_vertex_cover(n, edges)
            except ValueError:
                searched += 1
    assert searched >= 10, searched


def test_cover_matches_reference_on_structured_graphs():
    def shift(edges, k):
        return [(u + k, v + k) for u, v in edges]

    def complete(n):
        return [(u, v) for u in range(n) for v in range(u + 1, n)]

    def cycle(n):
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]

    def complete_bipartite(a, b):
        return [(u, a + v) for u in range(a) for v in range(b)]

    graphs = [(0, [])] + [(n, []) for n in range(1, 6)]
    graphs += [(n, complete(n)) for n in range(2, 15)]
    graphs += [(a + b, complete_bipartite(a, b)) for a in range(1, 8) for b in range(1, 8)]
    graphs += [(n, cycle(n)) for n in range(3, 24, 2)]
    graphs += [(17, complete(4) + shift(cycle(5), 4) + shift(complete_bipartite(2, 3), 9)
                + [(14, 15)]),
               (21, cycle(7) + shift(cycle(9), 7) + shift(complete(5), 16)),
               (12, shift(complete(5), 3) + shift(cycle(3), 8))]
    # the greedy cover is optimal: odd cliques and disjoint triangles
    optimal = [(n, complete(n)) for n in range(3, 14, 2)]
    optimal += [(3 * k, [e for i in range(k) for e in shift(cycle(3), 3 * i)])
                for k in range(1, 6)]
    for n, edges in graphs:
        _check_cover(n, edges)
    for n, edges in optimal:
        assert _check_cover(n, edges)


def _max_fan_unpruned(g: ColoredGraph) -> int:
    return max((len(max_matching(g.n, rainbow_edge_graph(g, v).edges))
                for v in range(g.n)), default=0)


def _find_fan_unpruned(g: ColoredGraph, k: int) -> Certificate | None:
    for v in range(g.n):
        matched = max_matching(g.n, rainbow_edge_graph(g, v).edges)
        if len(matched) >= k:
            return Certificate(kind="fan", base=v,
                               triangles=tuple(tuple(sorted((v, x, y))) for x, y in matched[:k]))
    return None


def _check_fans(g: ColoredGraph) -> int:
    best = max_fan(g)
    assert best == _max_fan_unpruned(g)
    for k in range(1, 6):
        assert find_fan(g, k) == _find_fan_unpruned(g, k)
    return best


def test_fan_pruning_at_the_degree_bound():
    for k in range(2, 7):
        g = gen_example1(k)
        assert all(g.degree(v) == 2 * (k - 1) for v in range(g.n))
        assert _check_fans(g) == k - 1
    for n in range(3, 14):
        g = gen_proper_complete(n, seed=n)
        assert _check_fans(g) == (n - 1) // 2


def test_fan_pruning_on_random_graphs():
    rng = random.Random(53)
    found = 0
    for _ in range(120):
        n = rng.randint(1, 60 if rng.random() < 0.2 else 14)
        found += _check_fans(random_colored(rng, n, rng.uniform(0.05, 0.9), rng.randint(1, 40))) > 0
    assert found >= 60


def _check_spanning_fan(g: ColoredGraph) -> bool:
    found = find_pc_spanning_fan(g)
    reference = find_pc_spanning_fan_reference(g)
    assert (found is None) == (reference is None)
    if found is None:
        return False
    assert found.self_check(g) and found.base == reference[0]
    return True


def test_spanning_fan_matches_backtracking_reference_on_random_graphs():
    rng = random.Random(149)
    found = 0
    for _ in range(600):
        n = rng.choice([3, 5, 7, 9])
        g = random_colored(rng, n, rng.uniform(0.6, 1.0), rng.randint(1, 8))
        found += _check_spanning_fan(g)
    assert 150 <= found <= 450


def test_spanning_fan_matches_backtracking_reference_on_structured_graphs():
    for n in range(3, 16, 2):
        for seed in range(3):
            assert _check_spanning_fan(gen_proper_complete(n, seed))
    for n in range(3, 22, 2):
        assert not _check_spanning_fan(two_odd_cliques(n))


def _concl_book_reference(g: ColoredGraph, k: int) -> tuple[bool, str]:
    cert = find_book(g, k)
    if cert is not None and cert.self_check(g):
        return True, ""
    return False, f"no {k} rainbow triangles on a common edge (max {max_book(g)})"


def _concl_fan_reference(g: ColoredGraph, k: int) -> tuple[bool, str]:
    cert = find_fan(g, k)
    if cert is not None and cert.self_check(g):
        return True, ""
    return False, f"no {k} rainbow triangles at a common vertex (max {max_fan(g)})"


def _concl_disjoint_reference(g: ColoredGraph, k: int) -> tuple[bool, str]:
    cert = find_disjoint_rainbow_triangles(g, k)
    if cert is not None and cert.self_check(g):
        return True, ""
    return False, f"no {k} vertex-disjoint rainbow triangles"


def _concl_spanning_fan_reference(g: ColoredGraph, k: int) -> tuple[bool, str]:
    cert = find_pc_spanning_fan(g)
    if cert is not None and cert.self_check(g):
        return True, ""
    return False, "no properly colored spanning fan"


_CERTIFIED_REFERENCES = ((_concl_book, _concl_book_reference),
                         (_concl_fan, _concl_fan_reference),
                         (_concl_disjoint, _concl_disjoint_reference),
                         (_concl_spanning_fan, _concl_spanning_fan_reference))


def _check_certified(g: ColoredGraph, k: int) -> int:
    """Failures among the four conclusions at (g, k); the spanning fan is
    checked only where it is defined (odd n >= 3)."""
    failed = 0
    for conclusion, reference in _CERTIFIED_REFERENCES:
        if conclusion is _concl_spanning_fan and (g.n < 3 or g.n % 2 == 0):
            continue
        result = conclusion(g, k)
        assert result == reference(g, k)
        failed += not result[0]
    return failed


def test_certified_conclusions_match_frozen_bodies():
    for k in range(2, 7):
        g = gen_example1(k)
        # no book, fan or disjoint family of k (a spanning fan only at n = 3)
        assert _check_certified(g, k) == (3 if k == 2 else 3 + g.n % 2)
    failed = 0
    for rng, g in _corpus(seed=151, count=300):
        failed += _check_certified(g, rng.randint(1, 3))
    assert 300 <= failed <= 900


def _check_color_queries(g: ColoredGraph) -> None:
    ref = color_classes_reference(g)
    for v in range(g.n):
        classes = ref[v]
        assert color_degree(g, v) == len(classes)
        assert mono_degree(g, v) == max(map(len, classes.values()), default=0)
        # colors keyed in the order of their lowest neighbor, classes as bitsets
        by_lowest = sorted(classes.items(), key=lambda item: min(item[1]))
        assert list(g.color_table()[v].items()) == [
            (c, sum(1 << y for y in m)) for c, m in by_lowest]
        profile = color_profile(g, v)
        assert profile.color_classes == {c: frozenset(m) for c, m in classes.items()}
        # colors keyed by first appearance among the ascending neighbors
        assert list(profile.color_classes) == sorted(classes, key=lambda c: min(classes[c]))
        canonical = sorted(classes.items(), key=lambda item: (-len(item[1]), item[0]))
        assert profile.sorted_classes == tuple((c, frozenset(m)) for c, m in canonical)
        assert profile.sorted_sizes == tuple(len(m) for _, m in canonical)
        assert profile.unique_nbrs == frozenset(
            y for m in classes.values() if len(m) == 1 for y in m)
        assert (profile.dc, profile.dmon, profile.degree) == (
            color_degree(g, v), mono_degree(g, v), g.degree(v))
    for v in (-1, g.n):
        for query in (color_degree, mono_degree, color_profile):
            with pytest.raises(ValueError):
                query(g, v)
    if g.n:
        assert min_color_degree(g) == min(len(classes) for classes in ref)
    else:
        with pytest.raises(ValueError):
            min_color_degree(g)
    assert max_mono_degree(g) == max(
        (len(m) for classes in ref for m in classes.values()), default=0)
    removable = removable_edges_reference(g)
    assert is_edge_minimal(g) == (not removable, removable[0] if removable else None)


def test_color_queries_match_edge_colors():
    for g in (ColoredGraph(0), ColoredGraph(1), ColoredGraph(3),
              ColoredGraph(5, [(3, 1, 2), (1, 0, 2), (0, 3, 7)])):  # 2 and 4 isolated
        _check_color_queries(g)
    isolated = 0
    for rng, g in _corpus(seed=61, count=400):
        _check_color_queries(g)
        isolated += any(g.degree(v) == 0 for v in range(g.n))
        if g.n < 2:
            continue
        u, v = rng.sample(range(g.n), 2)
        if g.has_edge(u, v):
            derived = g.without_edge(u, v)
        else:
            derived = g.with_edge(u, v, rng.randint(1, 6))
        _check_color_queries(derived)
        _check_color_queries(edge_minimal_reduce(derived))
        _check_color_queries(g)
    assert isolated >= 40


def _check_adjacency(g: ColoredGraph) -> None:
    """neighbors, degree and the link scan against a count from edge_colors."""
    ref = [[] for _ in range(g.n)]
    for u, v in g.edge_colors():
        ref[u].append(v)
        ref[v].append(u)
    for v in range(g.n):
        assert g.neighbors(v) == tuple(sorted(ref[v]))
        assert g.degree(v) == len(ref[v])
        links = list(_rainbow_links(g, v, 0))
        for lo in range(g.n + 1):
            assert list(_rainbow_links(g, v, lo)) == [(x, y) for x, y in links if x >= lo]


def test_adjacency_queries_match_edge_colors():
    for g in (ColoredGraph(0), ColoredGraph(1), ColoredGraph(3),
              ColoredGraph(5, [(3, 1, 2), (1, 0, 2), (0, 3, 7)]),  # 2 and 4 isolated
              ColoredGraph(4, [(2, 3, 1), (1, 3, 2), (1, 2, 3), (0, 3, 3), (0, 1, 1)])):
        _check_adjacency(g)
    links = 0
    for rng, g in _corpus(seed=97, count=300):
        # the same graph from its edges in shuffled input order
        triples = [(u, v, c) for (u, v), c in g.edge_colors().items()]
        rng.shuffle(triples)
        shuffled = ColoredGraph(g.n, [(v, u, c) if rng.random() < 0.5 else (u, v, c)
                                      for u, v, c in triples])
        for h in (g, shuffled, edge_minimal_reduce(g)):
            _check_adjacency(h)
        links += sum(len(list(_rainbow_links(g, v, 0))) for v in range(g.n))
        if g.n < 2:
            continue
        u, v = rng.sample(range(g.n), 2)
        if g.has_edge(u, v):
            derived = g.without_edge(u, v)
        else:
            derived = g.with_edge(u, v, rng.randint(1, 6))
        _check_adjacency(derived)
        _check_adjacency(edge_minimal_reduce(derived))
    assert links >= 1000


def test_rainbow_triangle_scan_matches_naive():
    for rng, g in _corpus(seed=67, count=300):
        naive = sorted(naive_rainbow_triangles(g))
        assert build_index(g).triangles == tuple(naive)
        assert has_rainbow_triangle(g) == bool(naive)


def test_sampler_matches_random_colored():
    rng = random.Random(71)
    for _ in range(300):
        n, p, c = rng.randint(0, 15), rng.uniform(0.0, 1.0), rng.randint(1, 8)
        seed = rng.getrandbits(32)
        ref_rng, new_rng = random.Random(seed), random.Random(seed)
        got = sample_random_colored(n, p, c, new_rng)
        assert _same(got, random_colored(ref_rng, n, p, c))
        assert new_rng.getstate() == ref_rng.getstate()
        if n:
            assert _same(gen_random_colored(n, p, c, seed), got)


def test_class_bounds_match_strict_and_half_sum_references():
    rng = random.Random(73)
    singleton_classes = 0
    for _ in range(150):
        g = random_colored(rng, rng.randint(1, 10), rng.uniform(0.2, 1.0), rng.randint(1, 6))
        for h in (g, edge_minimal_reduce(g)):
            for v in range(h.n):
                report = triangle_bound_report(h, v)
                assert [(cb.color, cb.lower_bound) for cb in report.per_class] \
                    == strict_class_bounds_reference(h, v)
                assert all(cb.lower_bound_strict == cb.lower_bound for cb in report.per_class)
                assert report.vertex_lower == vertex_lower_half_sum_reference(h, v)
                singleton_classes += sum(cb.size == 1 for cb in report.per_class)
    assert singleton_classes >= 1000


def _bound_corpus() -> list[ColoredGraph]:
    graphs = []
    for _, g in _corpus(seed=113, count=300):
        graphs += [g, edge_minimal_reduce(g)]
    graphs += [gen_proper_complete(n, seed=n) for n in range(3, 14)]
    graphs += [gen_example1(k) for k in range(2, 7)]
    return graphs


def test_bound_kernel_matches_frozen_reference():
    seen = Counter()
    for g in _bound_corpus():
        delta = max_mono_degree(g)
        for v in range(g.n):
            expected = triangle_bound_report_reference(g, v)
            report = triangle_bound_report(g, v)
            assert report == expected
            assert report.to_json() == expected.to_json()
            rows, balance_total, rt_vertex, lower_sum = _vertex_bounds(g, v)
            assert rows == [(cb.color, cb.size, cb.rt_observed, cb.lower_bound, cb.balance)
                            for cb in expected.per_class]
            assert (balance_total, rt_vertex, Fraction(lower_sum, 2)) == (
                expected.balance_total, expected.rt_vertex, expected.vertex_lower)
            seen["class"] += len(rows)
            seen["balance"] += balance_total != 0
            if mono_degree(g, v) != delta:
                with pytest.raises(ValueError) as got:
                    mono_balance_diagnostics(g, v)
                with pytest.raises(ValueError) as want:
                    mono_balance_diagnostics_reference(g, v)
                assert str(got.value) == str(want.value)
                continue
            diag = mono_balance_diagnostics(g, v)
            assert dataclasses.asdict(diag) == dataclasses.asdict(
                mono_balance_diagnostics_reference(g, v))
            seen["equality"] += diag.equality_applicable
            seen["cond_c"] += diag.cond_c is not None
    assert seen["class"] >= 10000 and seen["balance"] >= 500, seen
    assert seen["equality"] >= 100 and seen["cond_c"] >= 20, seen


def _lowered_index(monkeypatch, scope: str) -> None:
    """Replace each graph's rainbow triangle index by one whose per-edge
    (``scope`` "class") or per-vertex ("vertex") counts are 0."""
    build = ecgraph.rainbow._index

    def lowered(graph):
        index = build(graph)
        if scope == "class":
            return RainbowTriangleIndex(index.triangles, index.rt_vertex, {})
        return RainbowTriangleIndex(index.triangles, {}, index.rt_edge)
    monkeypatch.setattr(ecgraph.rainbow, "_index", lowered)


def _class_bounds_gap_reference(g: ColoredGraph) -> tuple[bool, str]:
    """The lemma1 conclusion as it read ``triangle_bound_report``."""
    h = edge_minimal_reduce(g)
    for v in range(h.n):
        report = triangle_bound_report_reference(h, v)
        for cb in report.per_class:
            if cb.rt_observed < cb.lower_bound:
                return False, (f"class bound fails at v={v}, color={cb.color}: "
                               f"{cb.rt_observed} < {cb.lower_bound}")
        if Fraction(report.rt_vertex) < report.vertex_lower:
            return False, (f"vertex bound fails at v={v}: "
                           f"{report.rt_vertex} < {report.vertex_lower}")
    return True, ""


@pytest.mark.parametrize("scope", ["class", "vertex"])
def test_class_bound_gaps_match_reference(monkeypatch, scope):
    _lowered_index(monkeypatch, scope)
    failures = halves = 0
    for _, g in _corpus(seed=127, count=200):
        result = _concl_class_bounds(g, 0)
        assert result == _class_bounds_gap_reference(g)
        if not result[0]:
            failures += 1
            assert result[1].startswith(f"{scope} bound fails at v=")
            halves += result[1].endswith("/2")
    assert failures >= 30
    if scope == "vertex":
        assert halves >= 5  # the vertex bound prints as a Fraction


def test_bound_conclusions_build_no_report_objects(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built on the conclusion path")
    for module in _PACKAGE_MODULES:
        for name in ("ClassBound", "TriangleBoundReport", "color_profile"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for _, g in _corpus(seed=131, count=150):
        assert _concl_class_bounds(g, 0) == (True, "")
        assert _concl_mono_balance(g, 0) == (True, "")


def test_every_checked_vertex_compares_the_balance_forms(monkeypatch):
    forms = ecgraph.bounds._balance_forms
    calls = []

    def counted(*args):
        calls.append(args)
        return forms(*args)
    monkeypatch.setattr(ecgraph.bounds, "_balance_forms", counted)
    for _, g in _corpus(seed=137, count=100):
        h = edge_minimal_reduce(g)
        calls.clear()
        _concl_class_bounds(g, 0)
        assert len(calls) == h.n
        calls.clear()
        _concl_mono_balance(g, 0)
        at_max = sum(mono_degree(h, v) == max_mono_degree(h) for v in range(h.n))
        assert len(calls) == (at_max if h.edge_count else 0)

    def disagree(*args):
        form1, form2, form3 = forms(*args)
        return form1, form2, form3 + 1
    monkeypatch.setattr(ecgraph.bounds, "_balance_forms", disagree)
    g = gen_proper_complete(5, seed=1)
    for check in (lambda: _concl_class_bounds(g, 0), lambda: _concl_mono_balance(g, 0),
                  lambda: triangle_bound_report(g, 0)):
        with pytest.raises(RuntimeError, match="^balance forms disagree at vertex 0: "):
            check()


def test_rainbow_edge_graph_matches_double_loop_reference():
    graphs = [g for _, g in _corpus(seed=79, count=300)]
    graphs += [gen_proper_complete(n, seed=n) for n in range(3, 14)]
    graphs += [gen_example1(k) for k in range(2, 7)]
    edges = 0
    for g in graphs:
        for v in range(g.n):
            sub = rainbow_edge_graph(g, v)
            assert (sub.vertices, sub.edges) == rainbow_edge_graph_reference(g, v)
            edges += len(sub.edges)
    assert edges >= 1000


def _count_builds(monkeypatch, module, name: str) -> list:
    """Wrap a build function so that each call is recorded, in every
    package module that binds it (a second binding left unwrapped would
    cache the same fact under a second key)."""
    calls = []
    build = getattr(module, name)

    def counted(graph):
        calls.append(graph)
        return build(graph)
    for bound in _PACKAGE_MODULES:
        if getattr(bound, name, None) is build:
            monkeypatch.setattr(bound, name, counted)
    return calls


def test_whole_graph_facts_are_built_once_per_graph(monkeypatch):
    facts = [_count_builds(monkeypatch, module, name) for module, name in (
        (ecgraph.core, "_color_table"), (ecgraph.rainbow, "_index"),
        (ecgraph.reduction, "_removals"), (ecgraph.core, "_max_mono_degree"),
        (ecgraph.core, "_color_degrees"), (ecgraph.core, "_mono_degrees"),
        (ecgraph.bounds, "_rt_rows"))]
    g = random_colored(random.Random(83), 9, 0.7, 4)
    assert build_index(g) is build_index(g)
    assert g.color_table() is g.color_table()
    for v in range(g.n):
        triangle_bound_report(g, v)
        color_profile(g, v)
        color_degree(g, v)
        if mono_degree(g, v) == max_mono_degree(g):
            mono_balance_diagnostics(g, v)
    assert is_edge_minimal(g) == is_edge_minimal(g)
    h = edge_minimal_reduce(g)
    for a, xs, b in _ordered_edge_queries(g):
        restriction_count(g, a, xs, b)
    list(edge_restriction_counts(g))
    # the conclusions reduce h to itself, so every fact they read is h's
    assert h is not g and edge_minimal_reduce(h) is h
    for _ in range(2):
        assert _concl_class_bounds(h, 0) == (True, "")
        assert _concl_mono_balance(h, 0) == (True, "")
    assert facts == [[g, h]] * len(facts)


def test_derived_graphs_get_their_own_facts():
    for rng, g in _corpus(seed=89, count=300):
        build_index(g), is_edge_minimal(g), g.color_table(), max_mono_degree(g)
        list(edge_restriction_counts(g))
        if g.n < 2:
            continue
        u, v = rng.sample(range(g.n), 2)
        if g.has_edge(u, v):
            derived = g.without_edge(u, v)
        else:
            derived = g.with_edge(u, v, rng.randint(1, 6))
        for h in (derived, edge_minimal_reduce(derived)):
            assert build_index(h).triangles == tuple(sorted(naive_rainbow_triangles(h)))
            removable = removable_edges_reference(h)
            assert is_edge_minimal(h) == (not removable, removable[0] if removable else None)
            assert max_mono_degree(h) == max(
                (len(m) for at_v in color_classes_reference(h) for m in at_v.values()),
                default=0)
            assert list(edge_restriction_counts(h)) == _reference_edge_counts(h)


def _ordered_edge_queries(g: ColoredGraph):
    """(a, X, b) for each ordered edge (a, b), with X = N(a) minus the class
    of c(ab) at a, in the order the prop1 conclusion visits them."""
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            cab = g.color(a, b)
            yield a, [w for w in g.neighbors(a) if g.color(a, w) != cab], b


def _reference_edge_counts(g: ColoredGraph) -> list[tuple[int, int, int]]:
    return [(a, b, restriction_count_reference(g, a, xs, b))
            for a, xs, b in _ordered_edge_queries(g)]


def _restriction_graphs(seed: int, count: int) -> list[ColoredGraph]:
    graphs = [g for _, g in _corpus(seed=seed, count=count)]
    graphs += [gen_proper_complete(n, seed=n) for n in range(3, 14)]
    graphs += [gen_example1(k) for k in range(2, 7)]
    return graphs


def test_restriction_counts_match_reference_on_every_ordered_edge():
    positive = 0
    for g in _restriction_graphs(seed=97, count=300):
        expected = _reference_edge_counts(g)
        assert list(edge_restriction_counts(g)) == expected
        for (a, xs, b), (_, _, sigma) in zip(_ordered_edge_queries(g), expected):
            assert restriction_count(g, a, xs, b) == sigma
        positive += sum(sigma > 0 for _, _, sigma in expected)
    assert positive >= 1000


def test_restriction_count_matches_reference_on_random_subsets():
    rng = random.Random(101)
    cases = Counter()
    for _, g in _corpus(seed=103, count=300):
        for v in range(g.n):
            nbrs = g.neighbors(v)
            for y in range(g.n):
                if y == v:
                    continue
                xs = {x for x in nbrs if rng.random() < 0.5}
                for x_set in (xs, set(), nbrs):
                    assert restriction_count(g, v, x_set, y) \
                        == restriction_count_reference(g, v, x_set, y)
                cases["y in X"] += y in xs
                cases["y not adjacent to v"] += not g.has_edge(v, y)
                cases["v or y isolated"] += not (nbrs and g.degree(y))
    assert len(cases) == 3 and min(cases.values()) >= 100


class _OrderedRt:
    """Stands in for the rainbow triangle index: rt_pair(a, b) reads a
    table keyed by the ordered edge."""

    def __init__(self, rt: dict):
        self.rt = rt

    def rt_pair(self, a: int, b: int) -> int:
        return self.rt[a, b]


def test_prop1_conclusion_compares_the_reference_counts(monkeypatch):
    # With rt(a, b) set to the reference count on every ordered edge the
    # conclusion must pass, so no count it compares exceeds the reference.
    # With rt lowered by one on a single edge it must fail there, with that
    # edge's reference count in the gap, so no count falls short of it.
    rt: dict = {}
    monkeypatch.setattr(ecgraph.harness, "build_index", lambda g: _OrderedRt(rt))
    checked = 0
    for g in _restriction_graphs(seed=107, count=150):
        expected = _reference_edge_counts(g)
        rt.clear()
        rt.update(((a, b), sigma) for a, b, sigma in expected)
        assert _concl_restriction(g, 0) == (True, "")
        for a, b, sigma in expected:
            if sigma:
                rt[a, b] = sigma - 1
                assert _concl_restriction(g, 0) == (
                    False, f"rt({a},{b}) = {sigma - 1} < restriction count {sigma}")
                rt[a, b] = sigma
                checked += 1
    assert checked >= 1000


def test_prop1_conclusion_builds_the_index_only_for_positive_counts(monkeypatch):
    indexes = _count_builds(monkeypatch, ecgraph.rainbow, "_index")
    built = []
    for _, g in _corpus(seed=109, count=200):
        assert _concl_restriction(g, 0) == (True, "")
        if any(sigma for _, _, sigma in _reference_edge_counts(g)):
            built.append(g)
    assert indexes == built and 0 < len(built) < 200
