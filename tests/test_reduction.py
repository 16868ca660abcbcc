from __future__ import annotations

import random

from hypothesis import given, settings

from conftest import colored_graphs
from oracles import mono_triangle_or_path3, random_colored

from ecgraph.core import ColoredGraph, _color_degrees
from ecgraph.reduction import edge_minimal_reduce, is_edge_minimal

RAINBOW_K3 = ColoredGraph(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])
MONO_K3 = ColoredGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
MONO_K4 = ColoredGraph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])


def test_rainbow_triangle_is_minimal():
    assert is_edge_minimal(RAINBOW_K3) == (True, None)


def test_monochromatic_triangle_is_not_minimal():
    minimal, witness = is_edge_minimal(MONO_K3)
    assert not minimal
    assert witness == (0, 1)  # deterministic: lexicographically smallest


def test_monochromatic_path_is_minimal():
    g = ColoredGraph(3, [(0, 1, 1), (1, 2, 1)])
    assert is_edge_minimal(g)[0]


def test_reduce_monochromatic_triangle():
    g = edge_minimal_reduce(MONO_K3)
    assert g.edges == [(0, 2), (1, 2)]  # the lexicographic rule removes (0, 1)


def test_reduce_rainbow_triangle_unchanged():
    assert edge_minimal_reduce(RAINBOW_K3) == RAINBOW_K3


def test_reduce_monochromatic_k4_golden():
    # frozen output of the deterministic rule: remove (0,1), (0,2), (1,2)
    g = edge_minimal_reduce(MONO_K4)
    assert g.edges == [(0, 3), (1, 3), (2, 3)]
    assert g.derived(_color_degrees) == [1, 1, 1, 1]
    assert is_edge_minimal(g)[0]
    assert not mono_triangle_or_path3(g)


def test_fuzz_invariants_10k():
    rng = random.Random(77)
    for _ in range(10_000):
        n = rng.randint(1, 8)
        g = random_colored(rng, n, rng.uniform(0.1, 0.95), rng.randint(1, 4))
        h = edge_minimal_reduce(g)
        assert set(h.edges) <= set(g.edges)
        for u, v in h.edges:
            assert h.color(u, v) == g.color(u, v)
        assert h.derived(_color_degrees) == g.derived(_color_degrees)
        assert is_edge_minimal(h)[0]
        assert not mono_triangle_or_path3(h)


@settings(max_examples=150)
@given(colored_graphs(max_colors=3))
def test_idempotent(g):
    h = edge_minimal_reduce(g)
    assert edge_minimal_reduce(h) == h


@settings(max_examples=150)
@given(colored_graphs(max_colors=4))
def test_reduce_fixed_point_iff_minimal(g):
    assert (edge_minimal_reduce(g) == g) == is_edge_minimal(g)[0]
