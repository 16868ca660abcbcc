from __future__ import annotations

import itertools
import random

import pytest

import ecgraph.matching
from oracles import (
    _reference_components as reference_components,
    blossom_matching_reference,
    brute_max_independent_set,
    brute_max_matching,
    brute_min_cover_size,
    gallai_sets_oracle,
)

from ecgraph.core import _adjacency_bits
from ecgraph.matching import (
    GallaiPartition,
    _clique_bound as clique_bound,
    _cover_search,
    gallai_partition,
    max_matching,
    min_vertex_cover,
    verify_partition_lemmas,
)

P5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
K4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
PETERSEN = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
            (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]


def _complete(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _all_graphs(n):
    pairs = _complete(n)
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def _random_edges(rng, n, p):
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


class TestMaxMatching:
    def test_examples(self):
        assert len(max_matching(5, P5)) == 2
        assert len(max_matching(4, K4)) == 2
        assert len(max_matching(10, PETERSEN)) == 5
        assert brute_max_matching(10, PETERSEN) == 5  # oracle agrees

    def test_returns_a_valid_matching(self):
        m = max_matching(10, PETERSEN)
        hit = [v for e in m for v in e]
        assert len(set(hit)) == len(hit)
        assert set(m) <= set(PETERSEN)

    def test_exhaustive_up_to_5_vertices(self):
        for n in range(6):
            for edges in _all_graphs(n):
                assert len(max_matching(n, edges)) == brute_max_matching(n, edges)

    def test_random_up_to_9_vertices(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(1, 9)
            edges = _random_edges(rng, n, rng.uniform(0.1, 0.95))
            assert len(max_matching(n, edges)) == brute_max_matching(n, edges)

    # graphs where an exposed v meets matched neighbors before its first
    # exposed one, with the matching that both searches must return: at
    # v = 2, neighbor 0 and its mate 1 (a blossom through v) precede 3; at
    # v = 6, three such pairs precede 7; at v = 2, matched 1 precedes 3
    # while 1's mate 0 is no neighbor of v
    MATED_FIRST = [
        (4, [(0, 1), (0, 2), (1, 2), (2, 3)], [(0, 1), (2, 3)]),
        (8, [(0, 1), (2, 3), (4, 5), *((v, 6) for v in range(6)), (6, 7)],
         [(0, 1), (2, 3), (4, 5), (6, 7)]),
        (4, [(0, 1), (1, 2), (2, 3)], [(0, 1), (2, 3)]),
    ]

    def test_first_free_neighbor_is_the_search_matching(self):
        for n, edges, expected in self.MATED_FIRST:
            assert max_matching(n, edges) == blossom_matching_reference(n, edges) == expected
        rng = random.Random(3)
        for _ in range(2000):
            n = rng.randint(0, 24)
            edges = _random_edges(rng, n, rng.uniform(0.05, 0.9))
            assert max_matching(n, edges) == blossom_matching_reference(n, edges)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            max_matching(3, [(0, 0)])
        with pytest.raises(ValueError):
            max_matching(3, [(0, 5)])


class TestMinVertexCover:
    def test_examples(self):
        assert len(min_vertex_cover(5, P5)) == 2
        assert set(min_vertex_cover(5, P5)) in ({1, 3}, {1, 2}, {2, 3})
        for n in range(2, 8):
            assert len(min_vertex_cover(n, _complete(n))) == n - 1
        c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        assert len(min_vertex_cover(5, c5)) == 3

    def test_cover_is_actually_a_cover(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(1, 10)
            edges = _random_edges(rng, n, rng.uniform(0.1, 0.9))
            cover = set(min_vertex_cover(n, edges))
            assert all(u in cover or v in cover for u, v in edges)

    def test_exhaustive_up_to_5_vertices(self):
        for n in range(6):
            for edges in _all_graphs(n):
                assert len(min_vertex_cover(n, edges)) == \
                    brute_min_cover_size(n, edges)

    def test_random_up_to_9_vertices(self):
        rng = random.Random(3)
        for _ in range(250):
            n = rng.randint(1, 9)
            edges = _random_edges(rng, n, rng.uniform(0.1, 0.95))
            assert len(min_vertex_cover(n, edges)) == \
                brute_min_cover_size(n, edges)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            min_vertex_cover(65, [])

    def test_every_lower_bound_is_admissible(self, monkeypatch):
        # each clique bound the search computes, at the root and at every
        # node, and the matching size it may stop at, is at most the cover
        # number of the graph it bounds (brute force)
        seen = []

        def recording_bound(adj, live):
            value = clique_bound(adj, live)
            seen.append((adj, live, value))
            return value

        monkeypatch.setattr(ecgraph.matching, "_clique_bound", recording_bound)
        rng = random.Random(11)
        below = 0
        for _ in range(300):
            n = rng.randint(1, 9)
            edges = _random_edges(rng, n, rng.uniform(0.1, 0.95))
            nu = len(max_matching(n, edges))
            assert nu <= brute_min_cover_size(n, edges)
            seen.clear()
            assert len(_cover_search(edges, _adjacency_bits(n, edges), nu)) == \
                len(min_vertex_cover(n, edges)) == brute_min_cover_size(n, edges)
            for adj, live, value in seen:
                sub = [(u, v) for u, v in edges if live >> u & 1 and live >> v & 1]
                tau = brute_min_cover_size(n, sub)
                assert value <= tau
                below += value < tau
        assert below >= 50

    def test_every_node_counts_against_the_limit(self, monkeypatch):
        # C5: the root, the path 1-2-3-4 left after taking 0, then 3-4,
        # two leaves below it, one leaf after taking {1, 3}, and the
        # pruned node after taking N(0) = {1, 4}: 7 nodes
        c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        monkeypatch.setattr(ecgraph.matching, "SEARCH_NODE_LIMIT", 7)
        assert min_vertex_cover(5, c5) == [0, 2, 3]
        monkeypatch.setattr(ecgraph.matching, "SEARCH_NODE_LIMIT", 6)
        with pytest.raises(ValueError, match="min_vertex_cover exceeded its "
                                             "limit of 6 search nodes"):
            min_vertex_cover(5, c5)
        # an optimal greedy cover needs no search at all
        monkeypatch.setattr(ecgraph.matching, "SEARCH_NODE_LIMIT", 0)
        assert min_vertex_cover(7, _complete(7)) == [0, 1, 2, 3, 4, 5]


class TestDualityInvariants:
    def test_koenig_on_random_bipartite(self):
        rng = random.Random(4)
        for _ in range(200):
            left = rng.randint(1, 6)
            right = rng.randint(1, 6)
            n = left + right
            edges = [(u, left + v) for u in range(left) for v in range(right)
                     if rng.random() < 0.5]
            assert len(max_matching(n, edges)) == len(min_vertex_cover(n, edges))

    def test_general_duality_chain(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 10)
            edges = _random_edges(rng, n, rng.uniform(0.1, 0.9))
            a = len(max_matching(n, edges))
            b = len(min_vertex_cover(n, edges))
            assert a <= b <= 2 * a

    def test_gallai_identity(self):
        rng = random.Random(6)
        for _ in range(150):
            n = rng.randint(1, 10)
            edges = _random_edges(rng, n, rng.uniform(0.1, 0.9))
            beta = len(min_vertex_cover(n, edges))
            assert beta + brute_max_independent_set(n, edges) == n

    def test_cover_n_minus_1_iff_complete_small(self):
        for n in range(2, 7):
            for edges in _all_graphs(n):
                is_complete = len(edges) == n * (n - 1) // 2
                assert (len(min_vertex_cover(n, edges)) == n - 1) == is_complete

    def test_cover_n_minus_1_iff_complete_n7(self):
        pairs = _complete(7)
        # all near-complete graphs, where the boundary lives
        for missing in range(3):
            for gone in itertools.combinations(range(len(pairs)), missing):
                edges = [pairs[i] for i in range(len(pairs)) if i not in gone]
                assert (len(min_vertex_cover(7, edges)) == 6) == (missing == 0)
        rng = random.Random(7)
        for _ in range(500):
            edges = _random_edges(rng, 7, rng.uniform(0.2, 0.95))
            is_complete = len(edges) == 21
            assert (len(min_vertex_cover(7, edges)) == 6) == is_complete


class TestGallaiPartition:
    def test_p5_worked_example(self):
        part = gallai_partition(5, P5)
        assert part.matching == ((0, 1), (2, 3))
        assert sorted(part.v0) == [1, 3]
        assert part.components == ((0,), (2,), (4,))
        assert part.alpha_prime == 2 == len(part.v0) + 0
        assert (4, 5) in part.alpha_edges  # virtual edge to the exposed vertex
        assert part.virtual_vertex == 5

    def test_star_k14(self):
        edges = [(0, v) for v in range(1, 5)]
        part = gallai_partition(5, edges)
        assert sorted(part.v0) == [0]
        assert part.alpha_prime == 1
        assert len(part.components) == 4

    def test_two_triangles(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        part = gallai_partition(6, edges)
        # validated purely against the size identity: 2 = 0 + 1 + 1
        assert part.v0 == frozenset()
        assert sorted(len(c) for c in part.components) == [3, 3]

    def test_rejects_saturating_matching(self):
        with pytest.raises(ValueError, match="partition undefined"):
            gallai_partition(4, [(0, 1), (2, 3)])

    def test_v0_matches_independent_oracle(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(250):
            n = rng.randint(2, 9)
            edges = _random_edges(rng, n, rng.uniform(0.1, 0.9))
            m = max_matching(n, edges)
            if n <= 2 * len(m):
                continue
            checked += 1
            part = gallai_partition(n, edges)
            assert part.matching == tuple(m)
            _, frontier = gallai_sets_oracle(n, edges)
            assert part.v0 == frozenset(frontier)
            # every component holds exactly floor(|V_i|/2) matching edges
            for comp in part.components:
                cset = set(comp)
                inside = sum(1 for u, v in m if u in cset and v in cset)
                assert inside == len(comp) // 2
        assert checked > 100


class TestPartitionDiagnostics:
    def test_p5_chain_is_tight(self):
        diag = verify_partition_lemmas(gallai_partition(5, P5))
        assert diag.beta == 2
        assert diag.size_identity_ok and diag.structure_ok and diag.chain_ok
        assert diag.beta <= 5 - diag.p == 2 <= 2 * 2 - diag.v0_size == 2

    def test_c7_gate(self):
        c7 = [(i, (i + 1) % 7) for i in range(7)]
        c7 = [(min(u, v), max(u, v)) for u, v in c7]
        diag = verify_partition_lemmas(gallai_partition(7, c7))
        assert diag.alpha_prime == 3
        # n = 7 = 2 alpha' + 1: the strong bounds do not apply
        assert not diag.strong_applicable
        assert diag.size_identity_ok and diag.structure_ok and diag.chain_ok

    def test_overlapping_matching_edges_do_not_stop_the_cover_early(self):
        # a hand-built partition of the star K(1,3) whose two "matching"
        # edges share the center: 2 is no lower bound on the cover number
        part = GallaiPartition(n=4, matching=((0, 1), (0, 2)), v0=frozenset({0}),
                               components=((1,), (2,), (3,)),
                               alpha_edges=((0, 1), (0, 2), (3, 4)),
                               gamma_edges=((0, 3),), virtual_vertex=4)
        diag = verify_partition_lemmas(part)
        assert diag.beta == 1 and diag.cover == (0,)
        assert diag.alpha_prime == 2 and not diag.structure_ok

    def test_tripwire_k5_plus_two_isolated(self):
        """Designated boundary instance, resolved by brute force.

        True values: alpha' = 2 (a 5-clique has a maximum matching of two
        edges), beta = 4, v0 empty.  The size identity and the chain hold;
        the strong bounds (beta <= 2 alpha' - 1, v0 nonempty) fail even
        though n >= 2 alpha' + 2, because the graph is disconnected.  On
        connected graphs the strong bounds are theorems.
        """
        edges = _complete(5)
        n = 7
        assert brute_max_matching(n, edges) == 2
        assert brute_min_cover_size(n, edges) == 4
        part = gallai_partition(n, edges)
        diag = verify_partition_lemmas(part)
        record = (f"tripwire K5+2iso: alpha'={diag.alpha_prime} "
                  f"beta={diag.beta} v0={sorted(part.v0)} "
                  f"size_identity={diag.size_identity_ok} chain={diag.chain_ok} "
                  f"strong_beta={diag.strong_beta_ok} "
                  f"strong_v0={diag.strong_v0_ok} connected={diag.connected}")
        print(record)
        assert diag.alpha_prime == 2 and diag.beta == 4
        assert part.v0 == frozenset()
        assert diag.size_identity_ok and diag.structure_ok and diag.chain_ok
        assert diag.strong_applicable
        assert diag.strong_beta_ok is False
        assert diag.strong_v0_ok is False
        assert not diag.connected

    @pytest.mark.parametrize("edges,n", [
        ([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], 6),  # 2 triangles
        ([(0, 1), (0, 2), (1, 2)], 4),                           # K3 + isolate
    ])
    def test_more_disconnected_boundary_instances(self, edges, n):
        part = gallai_partition(n, edges)
        diag = verify_partition_lemmas(part)
        assert diag.size_identity_ok and diag.structure_ok and diag.chain_ok
        assert diag.strong_applicable and not diag.connected
        assert diag.strong_beta_ok is False or diag.strong_v0_ok is False

    def test_one_bitset_build_per_check(self, monkeypatch):
        # the cover search and the connectivity test share one build of
        # the graph's adjacency bitsets
        rng = random.Random(12)
        parts = []
        while len(parts) < 100:
            n = rng.randint(1, 14)
            edges = _random_edges(rng, n, rng.uniform(0.05, 0.8))
            if n > 2 * len(max_matching(n, edges)):
                parts.append(gallai_partition(n, edges))
        build = ecgraph.matching._adjacency_bits
        calls = []

        def counting(n, pairs):
            calls.append(n)
            return build(n, pairs)

        monkeypatch.setattr(ecgraph.matching, "_adjacency_bits", counting)
        connected = set()
        for part in parts:
            calls.clear()
            connected.add(verify_partition_lemmas(part).connected)
            assert calls == [part.n]
        assert connected == {True, False}

    def test_strong_bounds_hold_on_connected_instances(self):
        rng = random.Random(10)
        checked = tight = 0
        while checked < 400:
            n = rng.randint(3, 10)
            edges = _random_edges(rng, n, rng.uniform(0.15, 0.7))
            if not edges or len(reference_components(n, edges)) > 1:
                continue
            m = max_matching(n, edges)
            if n < 2 * len(m) + 2:
                continue
            checked += 1
            part = gallai_partition(n, edges)
            diag = verify_partition_lemmas(part)
            assert diag.strong_beta_ok and diag.strong_v0_ok
            if diag.tight_applicable:
                tight += 1
                assert diag.tight_comps_ok and diag.tight_cover_ok
        assert tight > 0


class TestDeskScale:
    """Structured instances near the intended size limit."""

    def test_odd_cycle_c41(self):
        c41 = [(i, (i + 1) % 41) for i in range(41)]
        c41 = [(min(u, v), max(u, v)) for u, v in c41]
        assert len(max_matching(41, c41)) == 20
        assert len(min_vertex_cover(41, c41)) == 21

    def test_complete_k31_partition(self):
        edges = _complete(31)
        part = gallai_partition(31, edges)
        assert part.alpha_prime == 15
        assert part.v0 == frozenset()
        assert part.components == (tuple(range(31)),)
        diag = verify_partition_lemmas(part)
        assert diag.beta == 30
        assert diag.size_identity_ok and diag.structure_ok and diag.chain_ok

    def test_complete_bipartite_koenig_at_scale(self):
        edges = [(u, 17 + v) for u in range(17) for v in range(23)]
        assert len(max_matching(40, edges)) == 17
        assert len(min_vertex_cover(40, edges)) == 17
