from __future__ import annotations

import random
import sys

import pytest

import ecgraph.generators
from ecgraph.core import color_profile, min_color_degree, save_ecg
from ecgraph.generators import (
    KINDS,
    GeneratorSpec,
    _below,
    gen_complete_multipartite,
    gen_example1,
    gen_proper_complete,
    gen_random_colored,
    generate,
    sample_random_colored,
)
from ecgraph.rainbow import find_book, find_fan, max_book, max_fan
from oracles import proper_complete_reference


def _is_properly_colored(g) -> bool:
    return all(color_profile(g, v).dmon <= 1 for v in range(g.n))


class TestExample1:
    def test_k2_is_rainbow_triangle(self):
        g = gen_example1(2)
        assert g.n == 3 and g.edge_count == 3
        assert len(g.colors()) == 3
        assert min_color_degree(g) == 2

    def test_k3_matches_extremal_statement(self):
        g = gen_example1(3)
        assert g.n == 6
        assert len(g.colors()) == 6
        assert all(color_profile(g, v).dc == 4 for v in range(6))
        assert find_book(g, 3) is None
        assert find_fan(g, 3) is None
        assert max_book(g) == 2 and max_fan(g) == 2

    def test_k5_degree_equals_half_bound(self):
        g = gen_example1(5)
        assert g.n == 12
        dc = min_color_degree(g)
        assert dc == 8
        assert 2 * dc == g.n + 5 - 1

    @pytest.mark.parametrize("k", range(2, 8))
    def test_coloring_is_proper_and_balanced(self, k):
        g = gen_example1(k)
        assert g.n == 3 * (k - 1)
        assert _is_properly_colored(g)
        assert all(g.degree(v) == 2 * k - 2 for v in range(g.n))

    @pytest.mark.parametrize("k", range(2, 8))
    def test_common_neighborhood_size_is_k_minus_1(self, k):
        g = gen_example1(k)
        for u, v in g.edges:
            common = set(g.neighbors(u)) & set(g.neighbors(v))
            assert len(common) == k - 1

    def test_rejects_k_below_2(self):
        with pytest.raises(ValueError):
            gen_example1(1)


class TestRandomColored:
    def test_deterministic_in_seed(self):
        a = gen_random_colored(10, 0.8, 12, seed=7)
        b = gen_random_colored(10, 0.8, 12, seed=7)
        assert a == b
        assert save_ecg(a) == save_ecg(b)
        assert a != gen_random_colored(10, 0.8, 12, seed=8)

    def test_forced_monochromatic_complete(self):
        g = gen_random_colored(5, 1.0, 1, seed=3)
        assert g.edge_count == 10
        assert g.colors() == {1}
        assert min_color_degree(g) == 1

    def test_empty_graph(self):
        g = gen_random_colored(4, 0.0, 3, seed=3)
        assert g.edge_count == 0

    def test_palette_respected(self):
        g = gen_random_colored(12, 0.7, 5, seed=1)
        assert g.colors() <= set(range(1, 6))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_random_colored(0, 0.5, 3, 0)
        with pytest.raises(ValueError):
            gen_random_colored(5, 1.5, 3, 0)
        with pytest.raises(ValueError):
            gen_random_colored(5, 0.5, 0, 0)

    @pytest.mark.parametrize("c", [0, -1])
    def test_empty_palette_raises_before_any_draw(self, c):
        # an edge kept with no color to draw would spin, since
        # getrandbits(0) is 0; this generator fails such a draw instead
        class NoEmptyDraws(random.Random):
            def getrandbits(self, k):
                assert k > 0, "a 0-bit draw never leaves the rejection loop"
                return super().getrandbits(k)

        rng = NoEmptyDraws(9)
        state = rng.getstate()
        with pytest.raises(ValueError, match="palette size must be >= 1"):
            sample_random_colored(8, 1.0, c, rng)
        assert rng.getstate() == state


# every n up to 1,100, and 2^j - 1, 2^j and 2^j + 1 for j <= 70
BELOW_SIZES = sorted({*range(1, 1101), *(2 ** j + d for j in range(71) for d in (-1, 0, 1))}
                     - {0})


@pytest.mark.parametrize("seed", [0, 1, 71, 2 ** 40 + 3])
def test_below_draws_what_randrange_randint_and_choice_draw(seed):
    ours, stdlib = random.Random(seed), random.Random(seed)
    bits = ours.getrandbits
    for n in BELOW_SIZES:
        assert _below(bits, n) == stdlib.randrange(n)
        if n <= sys.maxsize:  # choice takes len(), which stops there
            seq = range(seed, seed + 3 * n, 3)
            assert seq[_below(bits, n)] == stdlib.choice(seq)
        a, b = -n // 2, -n // 2 + n - 1
        assert a + _below(bits, b - a + 1) == stdlib.randint(a, b)
    assert ours.getstate() == stdlib.getstate()


class TestProperComplete:
    def test_n3_is_rainbow_triangle(self):
        g = gen_proper_complete(3, 0)
        assert min_color_degree(g) == 2
        assert len({g.color(*e) for e in g.edges}) == 3

    def test_n4_colors_are_perfect_matchings(self):
        g = gen_proper_complete(4, 11)
        assert len(g.colors()) == 3
        by_color: dict[int, list] = {}
        for u, v in g.edges:
            by_color.setdefault(g.color(u, v), []).append((u, v))
        for pairs in by_color.values():
            hit = [w for e in pairs for w in e]
            assert sorted(hit) == [0, 1, 2, 3]

    def test_n5_min_color_degree(self):
        g = gen_proper_complete(5, 2)
        assert g.edge_count == 10
        assert min_color_degree(g) == 4
        assert _is_properly_colored(g)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_properness_and_color_count(self, n):
        g = gen_proper_complete(n, 5)
        assert g.edge_count == n * (n - 1) // 2
        assert _is_properly_colored(g)
        assert min_color_degree(g) == n - 1
        assert len(g.colors()) == (n - 1 if n % 2 == 0 else n)

    def test_seed_permutes_colors(self):
        a = gen_proper_complete(6, 1)
        b = gen_proper_complete(6, 2)
        assert a == gen_proper_complete(6, 1)
        assert _is_properly_colored(b)

    def test_rejects_n_below_2(self):
        with pytest.raises(ValueError):
            gen_proper_complete(1, 0)

    def test_colors_are_permuted_as_shuffle_permutes_them(self, monkeypatch):
        # with every draw at its top value the loop swaps nothing, so each
        # edge of that graph carries its round r + 1 unpermuted
        with monkeypatch.context() as patched:
            patched.setattr(ecgraph.generators, "_below", lambda bits, n: n - 1)
            unpermuted = {n: gen_proper_complete(n, 0) for n in range(2, 41)}
        rng = random.Random(157)
        seeds = [0, 1, 2 ** 32 - 1, *(rng.getrandbits(32) for _ in range(27))]
        for n, base in unpermuted.items():
            for seed in seeds:
                perm = list(range(1, len(base.colors()) + 1))
                random.Random(seed).shuffle(perm)
                g = gen_proper_complete(n, seed)
                assert list(g.edge_colors().items()) == [
                    (e, perm[c - 1]) for e, c in base.edge_colors().items()]


    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1])
    def test_edge_colors_are_the_dummy_player_construction(self, seed):
        # one circle method for both parities gives the rounds, pair order
        # and colors of the dummy-player construction, which factors
        # K_(n+1) for odd n and drops the dummy vertex n
        for n in range(2, 65):
            assert list(gen_proper_complete(n, seed).edge_colors().items()) \
                == proper_complete_reference(n, seed), n


class TestCompleteMultipartite:
    def test_balanced_three_parts(self):
        g = gen_complete_multipartite([2, 2, 2])
        assert g.n == 6 and g.edge_count == 12
        assert len(g.colors()) == 12  # injective
        assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
        assert g.has_edge(0, 2) and g.has_edge(1, 5)

    def test_rejects_empty_or_bad_parts(self):
        with pytest.raises(ValueError):
            gen_complete_multipartite([])
        with pytest.raises(ValueError):
            gen_complete_multipartite([2, 0])


class TestGeneratorSpec:
    def test_byte_identical_for_same_spec_and_seed(self):
        spec = GeneratorSpec(kind="random_colored",
                             parameters={"n": 9, "p": 0.6, "c": 7}, seed=42)
        assert save_ecg(generate(spec)) == save_ecg(generate(spec))

    def test_dispatch(self):
        assert generate(GeneratorSpec("example1", {"k": 3})).n == 6
        assert generate(GeneratorSpec("proper_complete", {"n": 5}, seed=1)).n == 5
        assert generate(GeneratorSpec("complete_multipartite",
                                      {"parts": [1, 2]})).edge_count == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="mystery")


# every (kind, parameter) pair a spec must supply; "seed" is the spec's own
FULL_PARAMETERS = {
    "example1": {"k": 3},
    "random_colored": {"n": 5, "p": 0.5, "c": 3},
    "proper_complete": {"n": 5},
    "complete_multipartite": {"parts": [2, 2]},
}
MISSING = [(kind, name) for kind, params in FULL_PARAMETERS.items() for name in params]


def test_kinds_table_names_every_parameter():
    assert list(KINDS) == list(FULL_PARAMETERS)
    for kind, (_, names) in KINDS.items():
        assert [name for name in names if name != "seed"] == list(FULL_PARAMETERS[kind])


@pytest.mark.parametrize("kind, name", MISSING)
def test_missing_parameter_is_named(kind, name):
    params = {key: value for key, value in FULL_PARAMETERS[kind].items() if key != name}
    with pytest.raises(ValueError, match=f"{kind!r} needs parameter {name!r}"):
        generate(GeneratorSpec(kind, params, seed=1))
