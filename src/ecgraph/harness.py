"""Sampling harness: hypothesis enforcement, conclusion checks, reports.

Every registered claim pairs a hypothesis predicate with a conclusion
predicate, both total functions of a graph.  A :class:`Claim` holds its id
and description, ``min_k`` (None when it takes no k), the name of its
sampler, the order condition, the color-degree target, an optional extra
graph hypothesis and the conclusion.  The certificate conclusions (book,
fan, disjoint family, spanning fan) come from one factory,
:func:`_certified`.

The sampler admits a graph only when the hypothesis holds; admission
combines rejection sampling with a repair mode that raises deficient color
degrees by adding fresh-colored edges, followed by a full re-check (so
repair can never smuggle in a hypothesis-violating graph).

The whole sample stream is a deterministic function of (spec, seed).
Repair is part of it: it always works on the first deficient vertex in
index order, joins it to the rank-``rng.randrange(count)`` vertex among
its ``count`` non-neighbors in increasing order (the draw ``rng.choice``
makes over that list), one draw per added edge, and numbers fresh colors
from the largest color + 1 upward.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .core import (ColoredGraph, _color_degrees, _jsonable, _mono_degrees, load_ecg,
                   max_mono_degree, min_color_degree, save_ecg)
from .generators import gen_proper_complete, sample_random_colored
from .rainbow import (
    build_index,
    find_book,
    find_disjoint_rainbow_triangles,
    find_fan,
    find_pc_spanning_fan,
    has_rainbow_triangle,
    max_book,
    max_fan,
)
from .reduction import edge_minimal_reduce
from .bounds import (
    _vertex_bounds,
    counting_lower_bound,
    edge_restriction_counts,
    mono_balance_diagnostics,
)
from .matching import (_node_budget, gallai_partition, max_matching,
                       verify_partition_lemmas)


class UnsatisfiableHypothesisError(ValueError):
    """The requested ranges admit no graph satisfying the hypothesis."""


class AdmissionError(RuntimeError):
    """Too few sampled graphs met the hypothesis to fill the budget."""


def _ceil_half(a: int) -> int:
    return (a + 1) // 2


def _sample_injective(n: int, p: float, rng: random.Random) -> ColoredGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return ColoredGraph(n, [(u, v, i + 1) for i, (u, v) in enumerate(edges)],
                        validate=False)


# sampler name -> (n, p, spec, rng) -> graph; the names are looked up at
# call time, so a module-level rebinding (for tracing) is seen
_SAMPLERS = {
    "random": lambda n, p, spec, rng: sample_random_colored(
        n, p, rng.randint(*spec.c_range), rng),
    "injective": lambda n, p, spec, rng: _sample_injective(n, p, rng),
    "proper_complete": lambda n, p, spec, rng: gen_proper_complete(
        n, rng.getrandbits(32)),
}


@dataclass(frozen=True)
class Claim:
    """Hypothesis/conclusion pair for one verifiable statement.

    ``min_k`` is the least k the claim takes, or None for a claim without
    k; ``sampler`` names the graphs drawn before repair: "random" (random
    palette), "injective" (every edge its own color, i.e. uncolored) or
    "proper_complete".
    """

    id: str
    description: str
    min_k: int | None = None
    sampler: str = "random"
    n_condition: Callable[[int, int], bool] = lambda n, k: n >= 1
    delta_target: Callable[[int, int], int] | None = None
    graph_hypothesis: Callable[[ColoredGraph, int], bool] | None = None
    conclusion: Callable[[ColoredGraph, int], tuple[bool, str]] = \
        lambda g, k: (True, "")

    def __post_init__(self):
        if self.sampler not in _SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r} for claim {self.id!r}")

    def hypothesis(self, graph: ColoredGraph, k: int) -> bool:
        """Full independent hypothesis check on a concrete graph."""
        if not self.n_condition(graph.n, k):
            return False
        if self.delta_target is not None:
            if min_color_degree(graph) < self.delta_target(graph.n, k):
                return False
        if self.graph_hypothesis is not None and not self.graph_hypothesis(graph, k):
            return False
        return True


# -- conclusion predicates --------------------------------------------------

def _concl_rainbow_triangle(g: ColoredGraph, k: int) -> tuple[bool, str]:
    return (True, "") if has_rainbow_triangle(g) else (False, "no rainbow triangle")


def _certified(search, gap):
    """Conclusion that holds iff ``search(g, k)`` returns a certificate that
    passes its own self-check; ``gap(g, k)`` runs only on failure."""
    def conclusion(g: ColoredGraph, k: int) -> tuple[bool, str]:
        cert = search(g, k)
        if cert is not None and cert.self_check(g):
            return True, ""
        return False, gap(g, k)
    return conclusion


# the searches are looked up by name at call time, as in _SAMPLERS, so a
# module-level rebinding (for tracing) is seen
_concl_book = _certified(lambda g, k: find_book(g, k), lambda g, k: (
    f"no {k} rainbow triangles on a common edge (max {max_book(g)})"))
_concl_fan = _certified(lambda g, k: find_fan(g, k), lambda g, k: (
    f"no {k} rainbow triangles at a common vertex (max {max_fan(g)})"))
_concl_disjoint = _certified(find_disjoint_rainbow_triangles,
                             lambda g, k: f"no {k} vertex-disjoint rainbow triangles")
_concl_spanning_fan = _certified(lambda g, k: find_pc_spanning_fan(g),
                                 lambda g, k: "no properly colored spanning fan")


def _concl_class_bounds(g: ColoredGraph, k: int) -> tuple[bool, str]:
    h = edge_minimal_reduce(g)
    for v in range(h.n):
        rows, _, rt_vertex, lower_sum = _vertex_bounds(h, v)
        for color, _, rt, lower, _ in rows:
            if rt < lower:
                return False, (f"class bound fails at v={v}, color={color}: "
                               f"{rt} < {lower}")
        # the vertex bound is lower_sum / 2
        if 2 * rt_vertex < lower_sum:
            return False, (f"vertex bound fails at v={v}: "
                           f"{rt_vertex} < {Fraction(lower_sum, 2)}")
    return True, ""


def _concl_mono_balance(g: ColoredGraph, k: int) -> tuple[bool, str]:
    h = edge_minimal_reduce(g)
    if h.edge_count == 0:
        return True, ""
    delta = max_mono_degree(h)
    for v, dmon in enumerate(h.derived(_mono_degrees)):
        if dmon != delta:
            continue
        diag = mono_balance_diagnostics(h, v)
        if not diag.passed():
            return False, f"balance diagnostics fail at v={v}: {diag}"
    return True, ""


def _concl_restriction(g: ColoredGraph, k: int) -> tuple[bool, str]:
    # rt(a, b) >= 0 always dominates sigma = 0, so the rainbow triangle
    # index is built only for a graph with a positive restriction count
    for a, b, sigma in edge_restriction_counts(g):
        if sigma and (rt := build_index(g).rt_pair(a, b)) < sigma:
            return False, f"rt({a},{b}) = {rt} < restriction count {sigma}"
    return True, ""


def _concl_counting(g: ColoredGraph, k: int) -> tuple[bool, str]:
    count = build_index(g).count()
    bound = counting_lower_bound(g)
    if Fraction(count) >= bound:
        return True, ""
    return False, f"{count} rainbow triangles < bound {bound}"


def _max_matching(g: ColoredGraph) -> list[tuple[int, int]]:
    """A maximum matching of g, shared through ``g.derived`` by the
    ``eg_partition`` hypothesis and conclusion."""
    return max_matching(g.n, g.edges)


def _concl_partition(g: ColoredGraph, k: int) -> tuple[bool, str]:
    n, es = g.n, g.edges
    try:
        part = gallai_partition(n, es, g.derived(_max_matching))
    except (ValueError, RuntimeError) as exc:
        return False, f"partition construction failed: {exc}"
    diag = verify_partition_lemmas(n, es, part)
    if not (diag.size_identity_ok and diag.structure_ok and diag.chain_ok):
        return False, f"partition identities fail: {diag}"
    # the stronger bounds can genuinely fail on disconnected graphs,
    # so they are asserted only on connected instances
    if diag.connected and diag.strong_applicable:
        if not (diag.strong_beta_ok and diag.strong_v0_ok):
            return False, f"strong cover bound fails on connected graph: {diag}"
        if diag.tight_applicable and not (diag.tight_comps_ok and diag.tight_cover_ok):
            return False, f"tight-case structure fails on connected graph: {diag}"
    return True, ""


CLAIMS: dict[str, Claim] = {}


def register_claim(claim: Claim) -> None:
    CLAIMS[claim.id] = claim


def _register_builtin_claims() -> None:
    register_claim(Claim(
        id="li_triangle",
        description="min color degree >= (n+1)/2 forces a rainbow triangle",
        delta_target=lambda n, k: _ceil_half(n + 1),
        conclusion=_concl_rainbow_triangle,
    ))
    register_claim(Claim(
        id="book_bk",
        description="n >= 3k-2 and min color degree >= (n+k-1)/2 force k "
                    "rainbow triangles on one edge",
        min_k=2,
        n_condition=lambda n, k: n >= 3 * k - 2,
        delta_target=lambda n, k: _ceil_half(n + k - 1),
        conclusion=_concl_book,
    ))
    register_claim(Claim(
        id="fan_fk",
        description="n >= 2k+9 and min color degree >= (n+2k-3)/2 force k "
                    "rainbow triangles at one vertex",
        min_k=2,
        n_condition=lambda n, k: n >= 2 * k + 9,
        delta_target=lambda n, k: _ceil_half(n + 2 * k - 3),
        conclusion=_concl_fan,
    ))
    register_claim(Claim(
        id="original_i",
        description="n >= 5 and min color degree >= (n+1)/2 force two "
                    "rainbow triangles on one edge",
        n_condition=lambda n, k: n >= 5,
        delta_target=lambda n, k: _ceil_half(n + 1),
        conclusion=lambda g, k: _concl_book(g, 2),
    ))
    register_claim(Claim(
        id="original_ii",
        description="n >= 13 and min color degree >= (n+1)/2 force two "
                    "rainbow triangles at one vertex",
        n_condition=lambda n, k: n >= 13,
        delta_target=lambda n, k: _ceil_half(n + 1),
        conclusion=lambda g, k: _concl_fan(g, 2),
    ))
    register_claim(Claim(
        id="lemma1",
        description="per-class rainbow triangle lower bounds hold after "
                    "edge-minimal reduction",
        conclusion=_concl_class_bounds,
    ))
    register_claim(Claim(
        id="lemma2",
        description="balance term is nonnegative at maximum monochromatic "
                    "degree vertices of reduced graphs",
        conclusion=_concl_mono_balance,
    ))
    register_claim(Claim(
        id="prop1",
        description="rt(v,x) dominates the restriction count of x",
        conclusion=_concl_restriction,
    ))
    register_claim(Claim(
        id="lnsz",
        description="global rainbow triangle count dominates "
                    "delta^c (2 delta^c - n) n / 6",
        conclusion=_concl_counting,
    ))
    register_claim(Claim(
        id="eg_partition",
        description="matching/cover partition identities hold",
        sampler="injective",
        graph_hypothesis=lambda g, k: g.n > 2 * len(g.derived(_max_matching)),
        conclusion=_concl_partition,
    ))
    register_claim(Claim(
        id="lemma3_uncolored",
        description="uncolored: n >= 3k-2 and min degree >= (n+k-1)/2 force "
                    "k triangles on one edge",
        min_k=2,
        sampler="injective",
        n_condition=lambda n, k: n >= 3 * k - 2,
        delta_target=lambda n, k: _ceil_half(n + k - 1),
        conclusion=_concl_book,
    ))
    register_claim(Claim(
        id="prop_fan_uncolored",
        description="uncolored: n >= 3k-1 and min degree >= (n+k-1)/2 force "
                    "k triangles at one vertex",
        min_k=2,
        sampler="injective",
        n_condition=lambda n, k: n >= 3 * k - 1,
        delta_target=lambda n, k: _ceil_half(n + k - 1),
        conclusion=_concl_fan,
    ))
    register_claim(Claim(
        id="prop_fan_halfdeg",
        description="uncolored: n >= 50k^2 and min degree >= (n+1)/2 force "
                    "k triangles at one vertex",
        min_k=2,
        sampler="injective",
        n_condition=lambda n, k: n >= 50 * k * k,
        delta_target=lambda n, k: _ceil_half(n + 1),
        conclusion=_concl_fan,
    ))
    register_claim(Claim(
        id="prop_book_halfdeg",
        description="uncolored: n >= 6k and min degree >= (n+1)/2 force "
                    "k triangles on one edge",
        min_k=2,
        sampler="injective",
        n_condition=lambda n, k: n >= 6 * k,
        delta_target=lambda n, k: _ceil_half(n + 1),
        conclusion=_concl_book,
    ))
    register_claim(Claim(
        id="fact_spanning_fan",
        description="odd n with min color degree >= n-1 forces a properly "
                    "colored spanning fan",
        sampler="proper_complete",
        n_condition=lambda n, k: n >= 3 and n % 2 == 1,
        delta_target=lambda n, k: n - 1,
        conclusion=_concl_spanning_fan,
    ))
    register_claim(Claim(
        id="hly_conjecture",
        description="n >= 3k and min color degree >= (n+k)/2 suggest k "
                    "vertex-disjoint rainbow triangles (open conjecture)",
        min_k=1,
        n_condition=lambda n, k: n >= 3 * k,
        delta_target=lambda n, k: _ceil_half(n + k),
        conclusion=_concl_disjoint,
    ))


_register_builtin_claims()


@dataclass(frozen=True)
class TheoremSpec:
    """What to verify and how hard to sample."""

    id: str
    k: int | None = None
    n_range: tuple[int, int] = (4, 12)
    c_range: tuple[int, int] = (2, 16)
    p_range: tuple[float, float] = (0.2, 0.9)
    budget: int = 1000
    seed: int = 0
    keep_samples: int = 0

    def echo(self) -> dict:
        doc = _jsonable(self)
        del doc["keep_samples"]
        return doc


@dataclass(frozen=True)
class Failure:
    index: int
    gap: str
    ecg: str

    def to_json(self) -> dict:
        return _jsonable(self)


@dataclass
class Report:
    spec_echo: dict
    samples_attempted: int = 0
    samples_admitted: int = 0
    conclusion_failures: list[Failure] = field(default_factory=list)
    runtime_seconds: float = 0.0
    sample_ecgs: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.conclusion_failures

    def to_json(self) -> dict:
        """The canonical document: the volatile runtime is left out."""
        return {
            "schema": 1,
            "spec": self.spec_echo,
            "samples_attempted": self.samples_attempted,
            "samples_admitted": self.samples_admitted,
            "conclusion_failures": _jsonable(self.conclusion_failures),
            "sample_ecgs": list(self.sample_ecgs),
        }


class WriteError(OSError):
    """A file that was opened but could not be written."""


def write_text(text: str, path) -> None:
    """Write ``text`` to ``path``.  A failed write, which names no file (a
    failed open names its own), raises :class:`WriteError` naming ``path``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise WriteError(exc.errno, exc.strerror, path) from None


def write_json(doc: dict, path) -> None:
    """Write ``doc`` to ``path`` as indented JSON with a final newline."""
    write_text(json.dumps(doc, indent=2) + "\n", path)


def emit_report(report: Report, path) -> None:
    """Write the canonical JSON document.

    Field order is fixed and the volatile runtime is omitted, so two runs
    with the same spec and seed produce byte-identical files.
    """
    write_json(report.to_json(), path)


def _repair_color_degree(graph: ColoredGraph, target: int,
                         rng: random.Random) -> ColoredGraph | None:
    """Raise every color degree to ``target`` by adding fresh-colored edges
    at deficient vertices; None when some deficient vertex is already full.

    Determinism contract: each step takes the first deficient vertex in
    index order and joins it to the rank-``rng.randrange(count)`` vertex
    among its ``count`` non-neighbors in increasing order (the draw
    ``rng.choice`` makes over that list), read off a bitset of
    non-neighbors, with the next fresh color from max(colors) + 1 up.
    A fresh color adds one to both ends' color degrees and degrees never
    fall, so the scan only moves forward.  The graph is built once, from
    the original edges in insertion order followed by the added ones.
    """
    n = graph.n
    full = (1 << n) - 1
    free = [full & ~(graph.adjacency_bits(v) | 1 << v) for v in range(n)]
    dc = list(graph.derived(_color_degrees))
    fresh = max(graph.colors(), default=0) + 1
    added: list[tuple[int, int, int]] = []
    for v in range(n):
        while dc[v] < target:
            count = free[v].bit_count()
            if not count:
                return None
            # the rank-i non-neighbor: clear the i lowest bits, take the next
            bits = free[v]
            for _ in range(rng.randrange(count)):
                bits &= bits - 1
            u = (bits & -bits).bit_length() - 1
            free[v] ^= 1 << u
            free[u] ^= 1 << v
            dc[v] += 1
            dc[u] += 1
            added.append((min(u, v), max(u, v), fresh + len(added)))
    if not added:
        return graph
    return ColoredGraph(n, [(*e, c) for e, c in graph.edge_colors().items()] + added,
                        validate=False)


def verify(spec: TheoremSpec) -> Report:
    """Run one claim over ``budget`` admitted samples.

    Conclusion failures never abort the run: the budget completes so the
    report can show a failure density.  Every failure embeds a reloadable
    ECG witness.  This is the one check of k: it raises ``ValueError``
    unless k >= ``min_k`` for a claim that takes k, or k is None for a
    claim that takes none.
    """
    if spec.id not in CLAIMS:
        raise ValueError(f"unknown claim id {spec.id!r}")
    claim = CLAIMS[spec.id]
    if claim.min_k is None:
        if spec.k is not None:
            raise ValueError(f"claim {spec.id!r} takes no k, got k={spec.k}")
    elif spec.k is None or spec.k < claim.min_k:
        raise ValueError(f"claim {spec.id!r} needs k >= {claim.min_k}")
    k = spec.k or 0
    lo, hi = spec.n_range
    if lo > hi or lo < 1:
        raise ValueError(f"bad n range {spec.n_range}")
    if not 1 <= spec.c_range[0] <= spec.c_range[1]:
        raise ValueError(f"bad colors range {spec.c_range}")
    if not 0 <= spec.p_range[0] <= spec.p_range[1] <= 1:
        raise ValueError(f"bad p range {spec.p_range}")
    if spec.budget < 1:
        raise ValueError(f"budget must be >= 1, got {spec.budget}")

    feasible = [n for n in range(lo, hi + 1) if claim.n_condition(n, k) and (
        claim.delta_target is None or claim.delta_target(n, k) <= n - 1)]
    if not feasible:
        raise UnsatisfiableHypothesisError(
            f"hypothesis of {spec.id!r} unsatisfiable for n in "
            f"[{lo}, {hi}] with k={spec.k}")

    rng = random.Random(spec.seed)
    report = Report(spec_echo=spec.echo())
    start = time.perf_counter()
    max_attempts = 60 * spec.budget + 1000
    while report.samples_admitted < spec.budget:
        if report.samples_attempted >= max_attempts:
            raise AdmissionError(
                f"admission rate too low for {spec.id!r}: "
                f"{report.samples_admitted}/{report.samples_attempted}")
        report.samples_attempted += 1
        n = rng.choice(feasible)
        p = rng.uniform(*spec.p_range)
        g = _SAMPLERS[claim.sampler](n, p, spec, rng)
        if claim.delta_target is not None:
            g = _repair_color_degree(g, claim.delta_target(n, k), rng)
        if g is None or not claim.hypothesis(g, k):
            continue
        index = report.samples_admitted
        report.samples_admitted += 1
        if len(report.sample_ecgs) < spec.keep_samples:
            report.sample_ecgs.append(save_ecg(g))
        ok, gap = claim.conclusion(g, k)
        if not ok:
            report.conclusion_failures.append(
                Failure(index=index, gap=gap, ecg=save_ecg(g)))
    report.runtime_seconds = time.perf_counter() - start
    return report


def _disjoint_family_exists_bruteforce(g: ColoredGraph, k: int) -> bool:
    """Independent exhaustive check used to confirm candidate
    counterexamples before they are reported: k triangles are disjoint iff
    they cover 3k vertices.  Raises ValueError past SEARCH_NODE_LIMIT
    subsets tried."""
    visit = _node_budget("_disjoint_family_exists_bruteforce")
    for combo in itertools.combinations(build_index(g).triangles, k):
        visit()
        if len(set().union(*combo)) == 3 * k:
            return True
    return False


def search_hly_counterexample(k: int, n_range: tuple[int, int],
                              c_range: tuple[int, int], budget: int,
                              seed: int,
                              p_range: tuple[float, float] = (0.2, 0.9)) -> Report:
    """Hunt for a graph meeting the disjoint-triangle color degree bound
    yet lacking k vertex-disjoint rainbow triangles.

    Any candidate is re-verified by an independent exhaustive search before
    being reported; for the conjectured regime the interesting outcome is
    an empty failure list.  k itself is checked by :func:`verify`.
    """
    if n_range[0] < 3 * k:
        raise ValueError(f"n range must start at 3k = {3 * k}")
    spec = TheoremSpec(id="hly_conjecture", k=k, n_range=n_range,
                       c_range=c_range, p_range=p_range, budget=budget,
                       seed=seed)
    report = verify(spec)
    confirmed = []
    for failure in report.conclusion_failures:
        g = load_ecg(failure.ecg)
        if _disjoint_family_exists_bruteforce(g, k):
            raise RuntimeError(
                "searcher disagreement: exhaustive check finds a family "
                "the backtracking search missed")
        confirmed.append(failure)
    report.conclusion_failures = confirmed
    return report
