from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import balance_forms_reference, naive_rainbow_triangles, random_colored

from ecgraph.core import ColoredGraph, color_profile
from ecgraph.bounds import (
    counting_lower_bound,
    mono_balance_diagnostics,
    restriction_count,
    triangle_bound_report,
)
from ecgraph.generators import gen_example1, gen_proper_complete
from ecgraph.rainbow import build_index
from ecgraph.reduction import edge_minimal_reduce, is_edge_minimal

RAINBOW_K3 = ColoredGraph(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])


class TestRestrictionCount:
    def test_rainbow_triangle_restricts_one_color(self):
        # v=0, x=1, y=2: color 3 on xy closes a rainbow path and is absent
        # from y's edges outside X (only vy with color 2)
        assert restriction_count(RAINBOW_K3, 0, {1}, 2) == 1

    def test_no_restriction_when_path_not_rainbow(self):
        g = ColoredGraph(3, [(0, 1, 1), (0, 2, 2), (1, 2, 1)])
        assert restriction_count(g, 0, {1}, 2) == 0

    def test_open_path_still_restricts(self):
        # no closing edge vy: the count speaks about restrictions, not
        # triangles
        g = ColoredGraph(3, [(0, 1, 1), (1, 2, 2)])
        assert restriction_count(g, 0, {1}, 2) == 1

    def test_color_on_outside_edge_blocks_restriction(self):
        g = ColoredGraph(4, [(0, 1, 1), (1, 2, 3), (2, 3, 3)])
        # color 3 appears on an edge from y=2 to 3, which is outside X={1}
        assert restriction_count(g, 0, {1}, 2) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            restriction_count(RAINBOW_K3, 0, {2, 1, 0}, 2)  # 0 not in N(0)
        with pytest.raises(ValueError):
            restriction_count(RAINBOW_K3, 0, {1}, 0)  # y == v
        for v in (-1, 99):  # v out of range
            with pytest.raises(ValueError):
                restriction_count(RAINBOW_K3, v, set(), 0)
        for x in (-1, RAINBOW_K3.n):  # no vertex, so not in N(v)
            with pytest.raises(ValueError, match="X must be a subset of N"):
                restriction_count(RAINBOW_K3, 0, {x}, 1)
            # v and y are checked first, and X before y != v
            with pytest.raises(ValueError, match="vertex 5 out of range"):
                restriction_count(RAINBOW_K3, 0, {x}, 5)
            with pytest.raises(ValueError, match="X must be a subset of N"):
                restriction_count(RAINBOW_K3, 0, {x}, 0)

    def test_rt_dominates_restriction_count_fuzz(self):
        rng = random.Random(31)
        for _ in range(1500):
            g = random_colored(rng, rng.randint(2, 9),
                               rng.uniform(0.2, 0.9), rng.randint(1, 6))
            idx = build_index(g)
            for u, v in g.edges:
                for a, b in ((u, v), (v, u)):
                    cab = g.color(a, b)
                    xs = [w for w in g.neighbors(a) if g.color(a, w) != cab]
                    assert idx.rt_pair(a, b) >= restriction_count(g, a, xs, b)

    def test_summed_form_over_color_class(self):
        rng = random.Random(8)
        for _ in range(200):
            g = random_colored(rng, rng.randint(3, 8), 0.7, rng.randint(2, 5))
            idx = build_index(g)
            for v in range(g.n):
                prof = color_profile(g, v)
                for _, members in prof.sorted_classes:
                    ys = [w for w in g.neighbors(v) if w not in members]
                    total = sum(restriction_count(g, v, ys, x) for x in members)
                    assert sum(idx.rt_pair(v, x) for x in members) >= total


class TestTriangleBoundReport:
    def test_rainbow_k3_exact_values(self):
        rep = triangle_bound_report(RAINBOW_K3, 0)
        assert rep.edge_minimal
        assert len(rep.per_class) == 2
        for cb in rep.per_class:
            assert cb.size == 1
            assert cb.balance == 0
            assert cb.lower_bound == 1  # d^c(x) + d^c(v) - n = 2 + 2 - 3
            assert cb.rt_observed == 1
            assert cb.slack == 0
        assert rep.balance_total == 0
        assert rep.vertex_lower == Fraction(1)
        assert rep.rt_vertex == 1

    def test_properly_colored_graphs_have_zero_balance(self):
        for g in (gen_proper_complete(6, 1), gen_proper_complete(9, 2),
                  gen_example1(4)):
            for v in range(g.n):
                assert triangle_bound_report(g, v).balance_total == 0

    def test_monochromatic_star_center(self):
        g = ColoredGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        rep = triangle_bound_report(g, 0)
        assert len(rep.per_class) == 1
        cb = rep.per_class[0]
        assert cb.size == 3
        assert cb.balance == 3 * 2 - 3 * 2 - 0 == 0
        # removing any edge zeroes a leaf's color degree, so the star is
        # edge-minimal and the per-class guarantee applies (and holds:
        # the bound is negative here)
        assert rep.edge_minimal
        assert cb.rt_observed == 0 >= cb.lower_bound

    def test_balance_forms_agree_fuzz(self):
        rng = random.Random(12)
        for _ in range(500):
            g = random_colored(rng, rng.randint(1, 9),
                               rng.uniform(0.1, 0.95), rng.randint(1, 5))
            for v in range(g.n):
                prof = color_profile(g, v)
                rep = triangle_bound_report(g, v)
                forms = balance_forms_reference(
                    g, prof, [cb.balance for cb in rep.per_class])
                assert forms[0] == forms[1] == forms[2] == rep.balance_total

    def test_class_bounds_hold_on_reduced_graphs(self):
        rng = random.Random(99)
        for _ in range(400):
            g = random_colored(rng, rng.randint(2, 10),
                               rng.uniform(0.2, 0.95), rng.randint(1, 6))
            h = edge_minimal_reduce(g)
            for v in range(h.n):
                rep = triangle_bound_report(h, v)
                assert rep.edge_minimal
                for cb in rep.per_class:
                    assert cb.rt_observed >= cb.lower_bound_strict
                    assert cb.lower_bound_strict >= cb.lower_bound
                assert Fraction(rep.rt_vertex) >= rep.vertex_lower

    def test_flag_is_false_on_non_minimal_graphs(self):
        g = ColoredGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        assert not triangle_bound_report(g, 0).edge_minimal

    def test_json_round_trip_fields(self):
        rep = triangle_bound_report(RAINBOW_K3, 1)
        doc = rep.to_json()
        assert doc["vertex"] == 1
        assert doc["vertex_lower"] == [1, 1]
        assert len(doc["per_class"]) == 2


class TestMonoBalance:
    def test_properly_colored_k4_trivially_passes(self):
        g = gen_proper_complete(4, 0)
        for v in range(4):
            diag = mono_balance_diagnostics(g, v)
            assert diag.balance_total == 0
            assert not diag.equality_applicable  # max mono degree is 1
            assert diag.passed()

    def test_precondition_enforced(self):
        g = ColoredGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 2), (1, 3, 2)])
        with pytest.raises(ValueError, match="^vertex 2 does not attain the "
                                             "maximum monochromatic degree$"):
            mono_balance_diagnostics(g, 2)  # vertex 2 has dmon 1 < 2

    @pytest.mark.parametrize("query", [triangle_bound_report, mono_balance_diagnostics])
    def test_vertex_out_of_range(self, query):
        for v in (-1, RAINBOW_K3.n):
            with pytest.raises(ValueError, match=f"^vertex {v} out of range for n=3$"):
                query(RAINBOW_K3, v)

    def test_monochromatic_path_equality_case(self):
        g = ColoredGraph(3, [(0, 1, 1), (1, 2, 1)])
        diag = mono_balance_diagnostics(g, 1)
        assert diag.balance_total == 0
        assert diag.equality_applicable
        assert diag.cond_a and diag.cond_b is True
        assert diag.cond_c_applicable and diag.cond_c
        assert diag.passed()

    def test_hand_built_equality_instance(self):
        # center 0: two edges of color 1, one unique-color neighbor 3 whose
        # color-2 edge lands back in N(0); balance vanishes with delta = 2
        g = ColoredGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 2), (1, 3, 2)])
        assert is_edge_minimal(g)[0]
        diag = mono_balance_diagnostics(g, 0)
        assert diag.balance_total == 0
        assert diag.equality_applicable
        assert diag.cond_a is True and diag.cond_b is True
        assert not diag.cond_c_applicable  # first-class balance is negative
        assert diag.passed()

    def test_nonnegative_and_equality_conditions_fuzz(self):
        rng = random.Random(400)
        found_equality = 0
        for _ in range(1200):
            g = random_colored(rng, rng.randint(2, 9),
                               rng.uniform(0.2, 0.9), rng.randint(1, 5))
            h = edge_minimal_reduce(g)
            if h.edge_count == 0:
                continue
            delta = max(color_profile(h, v).dmon for v in range(h.n))
            for v in range(h.n):
                if color_profile(h, v).dmon != delta:
                    continue
                diag = mono_balance_diagnostics(h, v)
                assert diag.balance_total >= 0
                if diag.equality_applicable:
                    found_equality += 1
                    assert diag.cond_a and diag.cond_b
                    if diag.cond_c_applicable:
                        assert diag.cond_c
        assert found_equality > 0


class TestCountingLowerBound:
    def test_tight_at_rainbow_triangle(self):
        bound = counting_lower_bound(RAINBOW_K3)
        assert bound == Fraction(1)
        assert build_index(RAINBOW_K3).count() == 1

    def test_vacuous_for_monochromatic_k5(self):
        g = ColoredGraph(5, [(u, v, 1) for u in range(5)
                             for v in range(u + 1, 5)])
        assert counting_lower_bound(g) < 0

    def test_proper_k5(self):
        g = gen_proper_complete(5, 0)
        assert counting_lower_bound(g) == Fraction(10)
        count = build_index(g).count()
        assert count == len(naive_rainbow_triangles(g))
        assert count >= 10

    def test_holds_on_random_samples(self):
        rng = random.Random(17)
        for _ in range(500):
            g = random_colored(rng, rng.randint(3, 10),
                               rng.uniform(0.3, 0.9), rng.randint(2, 10))
            assert Fraction(build_index(g).count()) >= counting_lower_bound(g)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_exactly_tight_on_the_3_partite_family(self, k):
        # every transversal triangle is rainbow, so the count is (k-1)^3,
        # and the bound evaluates to the same cube
        g = gen_example1(k)
        assert counting_lower_bound(g) == Fraction((k - 1) ** 3)
        assert build_index(g).count() == (k - 1) ** 3
