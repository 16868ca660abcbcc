"""Repair and reduction agree with the rebuild-per-step reference versions.

The package builds one graph at the end of each; the references in
``oracles.py`` rebuild the graph after every added or deleted edge.  Both
must give the same graph, the same ``edge_colors()`` order and, for repair,
leave the random generator in the same state.
"""

from __future__ import annotations

import random

from oracles import random_colored, reduce_rescan_reference, repair_rebuild_reference

from ecgraph.core import ColoredGraph
from ecgraph.harness import _repair_color_degree
from ecgraph.reduction import edge_minimal_reduce


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
