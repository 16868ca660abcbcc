from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import colored_graphs
from oracles import (
    brute_fan_at,
    brute_max_disjoint,
    brute_spanning_fan_exists,
    naive_rainbow_triangles,
    random_colored,
    two_odd_cliques,
)

from ecgraph.core import ColoredGraph
from ecgraph.generators import gen_example1, gen_proper_complete
from ecgraph.matching import max_matching
from ecgraph.rainbow import (
    build_index,
    find_book,
    find_disjoint_rainbow_triangles,
    find_fan,
    find_pc_spanning_fan,
    has_rainbow_triangle,
    _links,
    max_book,
    max_fan,
)

RAINBOW_K3 = ColoredGraph(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])
MONO_K3 = ColoredGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
# each color class a perfect matching: every triangle of K_4 is rainbow
PROPER_K4 = ColoredGraph(4, [(0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2),
                             (0, 3, 3), (1, 2, 3)])


class TestIndex:
    def test_rainbow_triangle(self):
        idx = build_index(RAINBOW_K3)
        assert idx.triangles == ((0, 1, 2),)
        assert all(idx.rt(v) == 1 for v in range(3))
        assert all(idx.rt_pair(u, v) == 1 for u, v in RAINBOW_K3.edges)

    def test_monochromatic_triangle(self):
        assert build_index(MONO_K3).count() == 0
        assert not has_rainbow_triangle(MONO_K3)

    def test_properly_3_colored_k4(self):
        # hand enumeration: all four triangles use three distinct classes
        idx = build_index(PROPER_K4)
        assert idx.count() == 4
        assert all(idx.rt_pair(u, v) == 2 for u, v in PROPER_K4.edges)
        assert all(idx.rt(v) == 3 for v in range(4))

    @settings(max_examples=200)
    @given(colored_graphs())
    def test_matches_naive_triple_loop(self, g):
        idx = build_index(g)
        assert set(idx.triangles) == naive_rainbow_triangles(g)
        assert has_rainbow_triangle(g) == (idx.count() > 0)

    @settings(max_examples=100)
    @given(colored_graphs())
    def test_count_identities(self, g):
        idx = build_index(g)
        assert sum(idx.rt_vertex.values()) == 3 * idx.count()
        assert sum(idx.rt_edge.values()) == 3 * idx.count()


class TestRainbowEdgeGraph:
    def test_rainbow_k3(self):
        assert list(_links(RAINBOW_K3, 0)) == [(1, 2)]

    def test_star_center_has_no_triangle_edges(self):
        g = ColoredGraph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)])
        assert list(_links(g, 0)) == []

    def test_example1_k3_matching_at_most_2(self):
        g = gen_example1(3)
        for v in range(g.n):
            links = list(_links(g, v))
            assert links
            assert len(max_matching(g.n, links)) <= 2

    def test_agrees_with_index(self):
        rng = random.Random(0)
        for _ in range(50):
            g = random_colored(rng, rng.randint(3, 8), 0.6, 4)
            idx = build_index(g)
            for v in range(g.n):
                expected = {tuple(sorted(set(t) - {v}))
                            for t in idx.triangles if v in t}
                assert set(_links(g, v)) == expected


class TestBooks:
    def test_proper_k4_has_a_2_book(self):
        cert = find_book(PROPER_K4, 2)
        assert cert is not None and cert.self_check(PROPER_K4)
        assert cert.base == (0, 1)
        assert len(cert.triangles) == 2

    def test_example1_k4_has_no_4_book(self):
        g = gen_example1(4)
        assert find_book(g, 4) is None
        assert max_book(g) == 3

    def test_single_apex_book(self):
        cert = find_book(RAINBOW_K3, 1)
        assert cert is not None and cert.self_check(RAINBOW_K3)
        assert cert.base == (0, 1) and cert.triangles == ((0, 1, 2),)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            find_book(RAINBOW_K3, 0)


class TestFans:
    def test_fan_of_one(self):
        cert = find_fan(RAINBOW_K3, 1)
        assert cert is not None and cert.self_check(RAINBOW_K3)

    def test_example1_k3_has_no_3_fan(self):
        g = gen_example1(3)
        assert find_fan(g, 3) is None
        assert max_fan(g) == 2

    def test_bowtie_fan_of_two(self):
        g = ColoredGraph(5, [(0, 1, 1), (0, 2, 2), (1, 2, 3),
                             (0, 3, 1), (0, 4, 2), (3, 4, 4)])
        cert = find_fan(g, 2)
        assert cert is not None and cert.self_check(g)
        assert cert.base == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_fan_equals_matching_in_triangle_edge_graph(self, seed):
        rng = random.Random(seed)
        g = random_colored(rng, rng.randint(3, 8), 0.7, rng.randint(2, 6))
        for v in range(g.n):
            assert len(max_matching(g.n, _links(g, v))) == brute_fan_at(g, v)


class TestDisjointFamilies:
    def test_two_disjoint_rainbow_triangles(self):
        g = ColoredGraph(6, [(0, 1, 1), (0, 2, 2), (1, 2, 3),
                             (3, 4, 1), (3, 5, 2), (4, 5, 3)])
        cert = find_disjoint_rainbow_triangles(g, 2)
        assert cert is not None and cert.self_check(g)

    def test_not_enough_vertices(self):
        assert find_disjoint_rainbow_triangles(RAINBOW_K3, 2) is None

    def test_example1_k3_has_two_disjoint(self):
        g = gen_example1(3)
        assert brute_max_disjoint(g) >= 2  # oracle first
        cert = find_disjoint_rainbow_triangles(g, 2)
        assert cert is not None and cert.self_check(g)

    @pytest.mark.parametrize("seed", range(30))
    def test_max_family_matches_oracle(self, seed):
        rng = random.Random(seed + 100)
        g = random_colored(rng, rng.randint(3, 8), 0.6, rng.randint(2, 5))
        md = brute_max_disjoint(g)
        if md:
            cert = find_disjoint_rainbow_triangles(g, md)
            assert cert is not None and cert.self_check(g)
        assert find_disjoint_rainbow_triangles(g, md + 1) is None


class TestSearchNodeLimit:
    @pytest.mark.parametrize("search, call", [
        ("find_disjoint_rainbow_triangles",
         lambda: find_disjoint_rainbow_triangles(gen_example1(3), 2)),
    ])
    def test_exceeding_the_limit_raises(self, monkeypatch, search, call):
        import ecgraph.matching

        assert call() is not None
        monkeypatch.setattr(ecgraph.matching, "SEARCH_NODE_LIMIT", 2)
        with pytest.raises(ValueError, match=f"{search} exceeded its limit of 2 search nodes"):
            call()


class TestSpanningFan:
    def test_rainbow_k3(self):
        cert = find_pc_spanning_fan(RAINBOW_K3)
        assert cert is not None and cert.self_check(RAINBOW_K3)
        assert len(cert.triangles) == 1

    def test_proper_k5(self):
        g = gen_proper_complete(5, 4)
        assert brute_spanning_fan_exists(g)  # oracle first
        cert = find_pc_spanning_fan(g)
        assert cert is not None and cert.self_check(g)
        assert len(cert.triangles) == 2

    def test_proper_link_allows_equal_spokes(self):
        # c(01) = c(02) = 1, c(12) = 2: properly colored at 0, not rainbow
        g = ColoredGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 2)])
        cert = find_pc_spanning_fan(g)
        assert cert is not None and cert.self_check(g)
        assert (cert.base, cert.triangles) == (0, ((0, 1, 2),))
        assert find_fan(g, 1) is None

    def test_monochromatic_k5_has_none(self):
        g = ColoredGraph(5, [(u, v, 1) for u in range(5)
                             for v in range(u + 1, 5)])
        assert find_pc_spanning_fan(g) is None

    def test_even_n_rejected(self):
        # so is n = 1: odd, but without a triangle to fan out
        for g in (ColoredGraph(4, [(0, 1, 1)]), ColoredGraph(1)):
            with pytest.raises(ValueError, match="odd vertex count of at least 3"):
                find_pc_spanning_fan(g)

    def test_spanning_fan_uses_no_search_budget(self, monkeypatch):
        import ecgraph.matching

        monkeypatch.setattr(ecgraph.matching, "SEARCH_NODE_LIMIT", 2)
        g = gen_proper_complete(13, 1)
        cert = find_pc_spanning_fan(g)
        assert cert is not None and cert.self_check(g)
        # exponential for backtracking, one matching per center here
        assert find_pc_spanning_fan(two_odd_cliques(25)) is None

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_independent_oracle(self, seed):
        rng = random.Random(seed)
        g = random_colored(rng, rng.choice([3, 5, 7]), 0.7, rng.randint(1, 6))
        found = find_pc_spanning_fan(g)
        assert (found is not None) == brute_spanning_fan_exists(g)
        if found is not None:
            assert found.self_check(g)


class TestCertificates:
    def test_fuzz_soundness(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            n = rng.randint(3, 8)
            g = random_colored(rng, n, rng.uniform(0.2, 0.9), rng.randint(1, 6))
            for cert in (
                find_book(g, rng.randint(1, 3)),
                find_fan(g, rng.randint(1, 3)),
                find_disjoint_rainbow_triangles(g, rng.randint(1, 2)),
            ):
                if cert is not None:
                    assert cert.self_check(g)

    def test_self_check_rejects_forgeries(self):
        good = find_book(PROPER_K4, 2)
        tampered = good.__class__(kind="book", base=good.base,
                                  triangles=((0, 1, 2), (0, 1, 2)))
        assert not tampered.self_check(PROPER_K4)
        wrong_graph = ColoredGraph(4, [(0, 1, 1)])
        assert not good.self_check(wrong_graph)
        mono = good.__class__(kind="fan", base=0,
                              triangles=((0, 1, 2),))
        assert not mono.self_check(MONO_K3)

    def test_json_cites_every_edge_color(self):
        cert = find_book(PROPER_K4, 2)
        doc = cert.to_json(PROPER_K4)
        assert doc["kind"] == "book" and doc["base"] == [0, 1]
        assert len(doc["triangles"]) == 2
        for u, v, c in doc["edge_colors"]:
            assert PROPER_K4.color(u, v) == c

    def test_monotonicity_of_search_families(self):
        rng = random.Random(9)
        for _ in range(150):
            g = random_colored(rng, rng.randint(3, 8), 0.7, rng.randint(2, 6))
            mb, mf = max_book(g), max_fan(g)
            md = brute_max_disjoint(g)
            for k in range(1, mb + 2):
                assert (find_book(g, k) is not None) == (k <= mb)
            for k in range(1, mf + 2):
                assert (find_fan(g, k) is not None) == (k <= mf)
            for k in range(1, md + 2):
                assert (find_disjoint_rainbow_triangles(g, k) is not None) \
                    == (k <= md)


def test_searches_are_deterministic():
    text = None
    for _ in range(3):
        g = gen_proper_complete(7, 3)
        cert = find_fan(g, 3)
        doc = str(cert.to_json(g))
        if text is None:
            text = doc
        assert doc == text


@settings(max_examples=80)
@given(colored_graphs(max_colors=5))
def test_injective_recoloring_preserves_counts(g):
    idx = build_index(g)
    shifted = ColoredGraph(
        g.n, [(u, v, c + 17) for (u, v), c in g.edge_colors().items()])
    idx2 = build_index(shifted)
    assert idx2.count() == idx.count()
    assert idx2.rt_vertex == idx.rt_vertex
    assert max_book(shifted) == max_book(g)
