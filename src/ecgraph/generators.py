"""Deterministic instance generators.

All generators are pure functions of their parameters and a seed:
identical inputs yield byte-identical ECG serializations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import ColoredGraph, _assembled

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
    """Materialize a GeneratorSpec: call its kind's builder with the
    parameters that :data:`KINDS` names, in order.  A missing parameter
    raises ``ValueError`` naming it."""
    build, names = KINDS[spec.kind]
    params = {**spec.parameters, "seed": spec.seed}
    for name in names:
        if name not in params:
            raise ValueError(f"generator {spec.kind!r} needs parameter {name!r}")
    return build(*(params[name] for name in names))


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
    return sample_random_colored(n, p, c, random.Random(seed))


def _below(bits, n: int) -> int:
    """A uniform integer in [0, n) read from ``bits``, a generator's
    ``getrandbits``: draw n.bit_length() bits until the value is below n.

    This is the rejection loop that ``random.Random.randrange(n)``,
    ``randint``, ``choice`` and each step of ``shuffle`` run, so it returns
    what they return and leaves the generator in the same state.  Callers pass n >= 1:
    ``bits(0)`` is always 0, so n = 0 would never end.
    """
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def sample_random_colored(n: int, p: float, c: int,
                          rng: random.Random) -> ColoredGraph:
    """G(n, p) with uniform colors from 1..c, drawn from ``rng``: one
    ``rng.random()`` per pair u < v in lexicographic order and one
    ``1 + _below(rng.getrandbits, c)`` per edge kept (the value and state
    ``rng.randint(1, c)`` gives).  The color store and the adjacency
    bitsets are written as the pairs are drawn, in lexicographic order,
    and handed to :func:`core._assembled`.  A palette c < 1 raises
    ``ValueError`` before anything is drawn."""
    if c < 1:
        raise ValueError("palette size must be >= 1")
    draw, bits = rng.random, rng.getrandbits
    color: dict[tuple[int, int], int] = {}
    adjacency = [0] * n
    for u in range(n):
        row = 0
        for v in range(u + 1, n):
            if draw() < p:
                color[u, v] = 1 + _below(bits, c)
                row |= 1 << v
                adjacency[v] |= 1 << u
        adjacency[u] |= row
    return _assembled(n, color, adjacency, list(color))


def _round_robin_rounds(n: int) -> list:
    """1-factorization of K_n by the circle method, for either parity:
    round r pairs r + i with r - i, both taken modulo the number of rounds.
    Even n has n-1 rounds of perfect matchings, and round r also pairs r
    with the fixed vertex n-1.  Odd n has n rounds of near-perfect
    matchings, and vertex r rests in round r."""
    mod = n if n % 2 else n - 1
    rounds = []
    for r in range(mod):
        pairs = [] if n % 2 else [(r, n - 1)]
        for i in range(1, (mod + 1) // 2):
            pairs.append(((r + i) % mod, (r - i) % mod))
        rounds.append(pairs)
    return rounds


def gen_proper_complete(n: int, seed: int) -> ColoredGraph:
    """K_n with a proper edge coloring from the round-robin 1-factorization
    of :func:`_round_robin_rounds`, round r giving color r + 1.

    Uses n-1 colors for even n and n colors for odd n (each odd-n color
    class is a near-perfect matching, vertex r missing color r + 1); color
    ids are then permuted by the seed, as ``random.Random(seed).shuffle``
    permutes them.  The minimum color degree is n-1.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rounds = _round_robin_rounds(n)
    # the Fisher-Yates loop of random.Random(seed).shuffle, drawn through
    # _below like every other sample path
    bits = random.Random(seed).getrandbits
    perm = list(range(1, len(rounds) + 1))
    for i in range(len(perm) - 1, 0, -1):
        j = _below(bits, i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    triples = []
    for r, pairs in enumerate(rounds):
        for u, v in pairs:
            triples.append((u, v, perm[r]) if u < v else (v, u, perm[r]))
    return ColoredGraph(n, triples)


def gen_complete_multipartite(parts: list[int]) -> ColoredGraph:
    """Complete multipartite graph with an injective (all-distinct) coloring.

    Colors are assigned 1..m in lexicographic edge order, so every subgraph
    is rainbow and the graph doubles as an uncolored instance.
    """
    if not parts or any(s < 1 for s in parts):
        raise ValueError("parts must be a nonempty list of positive sizes")
    part_of = [idx for idx, s in enumerate(parts) for _ in range(s)]
    n = len(part_of)
    cross = ((u, v) for u in range(n) for v in range(u + 1, n)
             if part_of[u] != part_of[v])
    triples = [(u, v, color) for color, (u, v) in enumerate(cross, start=1)]
    return ColoredGraph(n, triples)


# The one table of generator kinds: kind -> (builder, its parameter names
# in call order), where "seed" stands for the spec's seed.  GeneratorSpec,
# generate and the CLI's gen command all read it.
KINDS = {
    "example1": (gen_example1, ("k",)),
    "random_colored": (gen_random_colored, ("n", "p", "c", "seed")),
    "proper_complete": (gen_proper_complete, ("n", "seed")),
    "complete_multipartite": (gen_complete_multipartite, ("parts",)),
}
