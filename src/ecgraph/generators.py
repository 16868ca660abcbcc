"""Deterministic instance generators.

All generators are pure functions of their parameters and a seed:
identical inputs yield byte-identical ECG serializations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import ColoredGraph

KINDS = ("example1", "random_colored", "proper_complete", "complete_multipartite")


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible description of a generated instance."""

    kind: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")


def generate(spec: GeneratorSpec) -> ColoredGraph:
    """Materialize a GeneratorSpec."""
    p = spec.parameters
    if spec.kind == "example1":
        return gen_example1(p["k"])
    if spec.kind == "random_colored":
        return gen_random_colored(p["n"], p["p"], p["c"], spec.seed)
    if spec.kind == "proper_complete":
        return gen_proper_complete(p["n"], spec.seed)
    return gen_complete_multipartite(p["parts"])


def gen_example1(k: int) -> ColoredGraph:
    """Properly colored balanced complete 3-partite graph on 3k-3 vertices.

    Parts A, B, C of size k-1; the edge between the i-th and j-th vertices
    of two parts gets color (i+j) mod (k-1) within a tag range disjoint per
    part pair (a Latin-square proper coloring).  Every vertex then sees
    2k-2 distinct colors, one per incident edge class.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    s = k - 1
    a0, b0, c0 = 0, s, 2 * s
    triples = []
    for i in range(s):
        for j in range(s):
            triples.append((a0 + i, b0 + j, 1 + (i + j) % s))
            triples.append((b0 + i, c0 + j, k + (i + j) % s))
            triples.append((a0 + j, c0 + i, 2 * k - 1 + (i + j) % s))
    return ColoredGraph(3 * s, triples)


def gen_random_colored(n: int, p: float, c: int, seed: int) -> ColoredGraph:
    """G(n, p) with uniform colors from 1..c; deterministic in the seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if c < 1:
        raise ValueError("palette size must be >= 1")
    return sample_random_colored(n, p, c, random.Random(seed))


def sample_random_colored(n: int, p: float, c: int,
                          rng: random.Random) -> ColoredGraph:
    """G(n, p) with uniform colors from 1..c, drawn from ``rng``: one
    ``rng.random()`` per pair u < v in lexicographic order and one
    ``rng.randint(1, c)`` per edge kept."""
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                triples.append((u, v, rng.randint(1, c)))
    return ColoredGraph(n, triples, validate=False)


def _round_robin_rounds(n_even: int) -> list:
    """1-factorization of K_n (n even) by the circle method: n-1 rounds."""
    rounds = []
    fixed = n_even - 1
    mod = n_even - 1
    for r in range(mod):
        pairs = [(r, fixed)]
        for i in range(1, n_even // 2):
            pairs.append(((r + i) % mod, (r - i) % mod))
        rounds.append(pairs)
    return rounds


def gen_proper_complete(n: int, seed: int) -> ColoredGraph:
    """K_n with a proper edge coloring from a round-robin 1-factorization.

    Uses n-1 colors for even n and n colors for odd n (each odd-n color
    class is a near-perfect matching); color ids are then permuted by the
    seed.  The minimum color degree is n-1.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 0:
        rounds = _round_robin_rounds(n)
    else:
        # round-robin on n+1 players where the dummy's opponent sits out
        rounds = [
            [(u, v) for u, v in pairs if u != n and v != n]
            for pairs in _round_robin_rounds(n + 1)
        ]
    k = len(rounds)
    perm = list(range(1, k + 1))
    random.Random(seed).shuffle(perm)
    triples = []
    for r, pairs in enumerate(rounds):
        for u, v in pairs:
            triples.append((min(u, v), max(u, v), perm[r]))
    return ColoredGraph(n, triples, validate=False)


def gen_complete_multipartite(parts: list[int]) -> ColoredGraph:
    """Complete multipartite graph with an injective (all-distinct) coloring.

    Colors are assigned 1..m in lexicographic edge order, so every subgraph
    is rainbow and the graph doubles as an uncolored instance.
    """
    if not parts or any(s < 1 for s in parts):
        raise ValueError("parts must be a nonempty list of positive sizes")
    bounds = []
    start = 0
    for s in parts:
        bounds.append((start, start + s))
        start += s
    n = start
    part_of = [0] * n
    for idx, (lo, hi) in enumerate(bounds):
        for v in range(lo, hi):
            part_of[v] = idx
    triples = []
    color = 1
    for u in range(n):
        for v in range(u + 1, n):
            if part_of[u] != part_of[v]:
                triples.append((u, v, color))
                color += 1
    return ColoredGraph(n, triples, validate=False)
