from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import colored_graphs
from oracles import naive_rainbow_triangles

from ecgraph.core import (
    ColoredGraph,
    EcgError,
    color_profile,
    load_ecg,
    min_color_degree,
    normalize_colors,
    relabel_colors,
    save_ecg,
)
from ecgraph.generators import gen_example1

RAINBOW_K3 = "ecg 3 3\n0 1 1\n0 2 2\n1 2 3\n"


def test_load_smallest_rainbow_triangle():
    g = load_ecg(RAINBOW_K3)
    assert g.n == 3 and g.edge_count == 3
    assert {g.color(0, 1), g.color(0, 2), g.color(1, 2)} == {1, 2, 3}


def test_load_empty_edge_set():
    g = load_ecg("ecg 2 0\n")
    assert g.n == 2 and g.edge_count == 0
    assert min_color_degree(g) == 0


def test_load_duplicate_edge_reports_line_3():
    with pytest.raises(EcgError) as err:
        load_ecg("ecg 3 2\n0 1 1\n0 1 2\n")
    assert err.value.line == 3
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize("text,line,fragment", [
    ("graph 3 3\n", 1, "header"),
    ("ecg 3\n", 1, "header"),
    ("ecg 3 1\n0 5 1\n", 2, "0 <= u < v"),
    ("ecg 3 1\n1 0 1\n", 2, "0 <= u < v"),
    ("ecg 3 1\n0 0 1\n", 2, "0 <= u < v"),
    ("ecg 3 1\n0 1 0\n", 2, "color"),
    ("ecg 3 1\n0 1\n", 2, "edge line"),
    ("ecg 3 2\n0 1 1\n", 2, "expected 2 edges"),
    # int() reads these, but ECG numbers are ASCII digits only
    ("ecg 1_0 1\n", 1, "header"),
    ("ecg ٣ 1\n0 1 1\n", 1, "header"),  # Arabic-Indic 3
    ("ecg 3 1\n0 1 1_0\n", 2, "must contain integers"),
    ("ecg 3 1\n0 ١ 2\n", 2, "must contain integers"),  # Arabic-Indic 1
    ("ecg 3 1\n0 1 ２\n", 2, "must contain integers"),  # fullwidth 2
    # lines end at LF only: str.splitlines() would also break these lines
    ("ecg 3 2\n0 1 1\x0c0 2 1\n", 2, "edge line must be"),  # form feed
    ("ecg 3 2\n0 1 1\x1c0 2\n", 2, "edge line must be"),  # file separator
    ("ecg 3 2\n0 1\x852\n0 2 1\n", 2, "must contain integers"),  # NEL
    ("ecg 3 2\n0 1\u20282\n0 2 1\n", 2, "must contain integers"),  # LS
    ("ecg 3 1\r0 1 1\r", 1, "header"),  # a lone CR is not a line break
    ("ecg 3 2\n0 1 1\n\n", 3, "expected 2 edges"),  # the last line
])
def test_load_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(EcgError) as err:
        load_ecg(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_load_allows_comments_and_blank_lines():
    g = load_ecg("ecg 3 1\n# a comment\n\n0 2 4\n")
    assert g.edges == [(0, 2)] and g.color(0, 2) == 4
    # a comment is free text, "_" and non-ASCII included
    g = load_ecg("ecg 3 1\n# n_max été ١\n0 2 4\n")
    assert g.edges == [(0, 2)] and g.color(0, 2) == 4
    # a CR before the LF is stripped with the rest of the line
    g = load_ecg("ecg 3 2\r\n# a comment\r\n\r\n0 2 4\r\n0 1 1\r\n")
    assert g.edges == [(0, 1), (0, 2)] and g.color(0, 2) == 4


def test_save_is_lexicographic_and_bit_exact():
    g = ColoredGraph(4, [(2, 3, 5), (0, 1, 1), (0, 3, 2)])
    assert save_ecg(g) == "ecg 4 3\n0 1 1\n0 3 2\n2 3 5\n"


@settings(max_examples=150)
@given(colored_graphs())
def test_ecg_round_trip(g):
    assert load_ecg(save_ecg(g)) == g


def test_profile_rainbow_triangle():
    g = load_ecg(RAINBOW_K3)
    prof = color_profile(g, 0)
    assert prof.dc == 2 and prof.dmon == 1
    assert prof.sorted_sizes == (1, 1)
    assert prof.unique_nbrs == frozenset({1, 2})


def test_profile_monochromatic_triangle():
    g = ColoredGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    prof = color_profile(g, 0)
    assert prof.dc == 1 and prof.dmon == 2
    assert prof.unique_nbrs == frozenset()


def test_profile_example1_k3_every_vertex():
    g = gen_example1(3)
    for v in range(g.n):
        assert color_profile(g, v).dc == 4  # 2k-2


def test_profile_vertex_out_of_range():
    g = load_ecg(RAINBOW_K3)
    with pytest.raises(ValueError):
        color_profile(g, 3)


def test_min_color_degree_examples():
    assert min_color_degree(load_ecg(RAINBOW_K3)) == 2
    assert min_color_degree(gen_example1(4)) == 6
    assert min_color_degree(ColoredGraph(2, [(0, 1, 9)])) == 1


def test_isolated_vertices_are_legal():
    g = ColoredGraph(4, [(0, 1, 1)])
    assert color_profile(g, 3).dc == 0
    assert min_color_degree(g) == 0


@settings(max_examples=150)
@given(colored_graphs())
def test_profile_invariants(g):
    for v in range(g.n):
        prof = color_profile(g, v)
        assert sum(prof.sorted_sizes) == g.degree(v)
        assert prof.dc <= g.degree(v) <= max(g.n - 1, 0)
        assert prof.dc == len(prof.color_classes)
        assert prof.dmon == (prof.sorted_sizes[0] if prof.sorted_sizes else 0)
        for u in g.neighbors(v):
            singleton = len(prof.color_classes[g.color(u, v)]) == 1
            assert (u in prof.unique_nbrs) == singleton


@settings(max_examples=100)
@given(colored_graphs(), st.randoms(use_true_random=False))
def test_color_relabeling_changes_no_query(g, rnd):
    colors = sorted(g.colors())
    fresh = rnd.sample(range(1, 10 * len(colors) + 10), len(colors))
    relabeled = relabel_colors(g, dict(zip(colors, fresh)))
    assert min_color_degree(relabeled) == min_color_degree(g) if g.n else True
    for v in range(g.n):
        assert color_profile(relabeled, v).dc == color_profile(g, v).dc
        assert color_profile(relabeled, v).dmon == color_profile(g, v).dmon
    naive = {t for t in naive_rainbow_triangles(g)}
    assert naive_rainbow_triangles(relabeled) == naive


@settings(max_examples=100)
@given(colored_graphs())
def test_normalize_colors_is_contiguous_and_invariant(g):
    h = normalize_colors(g)
    k = len(g.colors())
    assert h.colors() == set(range(1, k + 1))
    for v in range(g.n):
        assert color_profile(h, v).dc == color_profile(g, v).dc
    assert naive_rainbow_triangles(h) == naive_rainbow_triangles(g)


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        ColoredGraph(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        ColoredGraph(3, [(0, 1, 0)])
    with pytest.raises(ValueError):
        ColoredGraph(3, [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(ValueError):
        ColoredGraph(2, [(0, 5, 1)])


def test_adjacency_bitsets_match_neighbor_lists():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 9)
        triples = [(u, v, rng.randint(1, 4))
                   for u in range(n) for v in range(u + 1, n)
                   if rng.random() < 0.5]
        g = ColoredGraph(n, triples)
        for v in range(n):
            bits = {i for i in range(n) if g.adjacency_bits(v) >> i & 1}
            assert bits == set(g.neighbors(v))
