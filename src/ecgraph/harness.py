"""Sampling harness: hypothesis enforcement, conclusion checks, reports.

Every registered claim pairs a hypothesis predicate with a conclusion
predicate, both total functions of a graph.  The sampler admits a graph
only when the hypothesis holds; admission combines rejection sampling with
a repair mode that raises deficient color degrees by adding fresh-colored
edges, followed by a full re-check (so repair can never smuggle in a
hypothesis-violating graph).

The whole sample stream is a deterministic function of (spec, seed).
Repair is part of it: it always works on the first deficient vertex in
index order, draws its partner with one ``rng.choice`` per added edge over
the non-neighbors in increasing order, and numbers fresh colors from the
largest color + 1 upward.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .core import ColoredGraph, color_profile, min_color_degree, save_ecg, load_ecg
from .generators import gen_example1, gen_proper_complete
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
    counting_lower_bound,
    mono_balance_diagnostics,
    restriction_count,
    triangle_bound_report,
)
from .matching import gallai_partition, max_matching, verify_partition_lemmas


class UnsatisfiableHypothesisError(ValueError):
    """The requested ranges admit no graph satisfying the hypothesis."""


class AdmissionError(RuntimeError):
    """Too few sampled graphs met the hypothesis to fill the budget."""


def _ceil_half(a: int) -> int:
    return (a + 1) // 2


@dataclass(frozen=True)
class Claim:
    """Hypothesis/conclusion pair for one verifiable statement."""

    id: str
    description: str
    needs_k: bool = False
    min_k: int = 2
    colored: bool = True
    sampler: str = "random"  # or "proper_complete"
    n_condition: Callable[[int, int], bool] = lambda n, k: n >= 1
    delta_target: Callable[[int, int], int] | None = None
    graph_hypothesis: Callable[[ColoredGraph, int], bool] | None = None
    conclusion: Callable[[ColoredGraph, int], tuple[bool, str]] = \
        lambda g, k: (True, "")

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


def _concl_book(g: ColoredGraph, k: int) -> tuple[bool, str]:
    cert = find_book(g, k)
    if cert is not None and cert.self_check(g):
        return True, ""
    return False, f"no {k} rainbow triangles on a common edge (max {max_book(g)})"


def _concl_fan(g: ColoredGraph, k: int) -> tuple[bool, str]:
    cert = find_fan(g, k)
    if cert is not None and cert.self_check(g):
        return True, ""
    return False, f"no {k} rainbow triangles at a common vertex (max {max_fan(g)})"


def _concl_class_bounds(g: ColoredGraph, k: int) -> tuple[bool, str]:
    h = edge_minimal_reduce(g)
    index = build_index(h)
    for v in range(h.n):
        report = triangle_bound_report(h, v, index)
        for cb in report.per_class:
            if cb.rt_observed < cb.lower_bound:
                return False, (f"class bound fails at v={v}, color={cb.color}: "
                               f"{cb.rt_observed} < {cb.lower_bound}")
        if Fraction(report.rt_vertex) < report.vertex_lower:
            return False, (f"vertex bound fails at v={v}: "
                           f"{report.rt_vertex} < {report.vertex_lower}")
    return True, ""


def _concl_mono_balance(g: ColoredGraph, k: int) -> tuple[bool, str]:
    h = edge_minimal_reduce(g)
    if h.edge_count == 0:
        return True, ""
    index = build_index(h)
    delta = max(color_profile(h, v).dmon for v in range(h.n))
    for v in range(h.n):
        if color_profile(h, v).dmon != delta:
            continue
        diag = mono_balance_diagnostics(h, v, index)
        if not diag.passed():
            return False, f"balance diagnostics fail at v={v}: {diag}"
    return True, ""


def _concl_restriction(g: ColoredGraph, k: int) -> tuple[bool, str]:
    index = build_index(g)
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            cab = g.color(a, b)
            x_set = [w for w in g.neighbors(a) if g.color(a, w) != cab]
            sigma = restriction_count(g, a, x_set, b)
            if index.rt_pair(a, b) < sigma:
                return False, (f"rt({a},{b}) = {index.rt_pair(a, b)} "
                               f"< restriction count {sigma}")
    return True, ""


def _concl_counting(g: ColoredGraph, k: int) -> tuple[bool, str]:
    count = build_index(g).count()
    bound = counting_lower_bound(g)
    if Fraction(count) >= bound:
        return True, ""
    return False, f"{count} rainbow triangles < bound {bound}"


def _concl_partition(g: ColoredGraph, k: int) -> tuple[bool, str]:
    n, es = g.n, g.edges
    matching = max_matching(n, es)
    try:
        part = gallai_partition(n, es, matching)
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


def _concl_disjoint(g: ColoredGraph, k: int) -> tuple[bool, str]:
    cert = find_disjoint_rainbow_triangles(g, k)
    if cert is not None and cert.self_check(g):
        return True, ""
    return False, f"no {k} vertex-disjoint rainbow triangles"


def _concl_spanning_fan(g: ColoredGraph, k: int) -> tuple[bool, str]:
    cert = find_pc_spanning_fan(g)
    if cert is not None and cert.self_check(g):
        return True, ""
    return False, "no properly colored spanning fan"


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
        needs_k=True,
        n_condition=lambda n, k: n >= 3 * k - 2,
        delta_target=lambda n, k: _ceil_half(n + k - 1),
        conclusion=_concl_book,
    ))
    register_claim(Claim(
        id="fan_fk",
        description="n >= 2k+9 and min color degree >= (n+2k-3)/2 force k "
                    "rainbow triangles at one vertex",
        needs_k=True,
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
        colored=False,
        graph_hypothesis=lambda g, k: g.n > 2 * len(max_matching(g.n, g.edges)),
        conclusion=_concl_partition,
    ))
    register_claim(Claim(
        id="lemma3_uncolored",
        description="uncolored: n >= 3k-2 and min degree >= (n+k-1)/2 force "
                    "k triangles on one edge",
        needs_k=True,
        colored=False,
        n_condition=lambda n, k: n >= 3 * k - 2,
        delta_target=lambda n, k: _ceil_half(n + k - 1),
        conclusion=_concl_book,
    ))
    register_claim(Claim(
        id="prop_fan_uncolored",
        description="uncolored: n >= 3k-1 and min degree >= (n+k-1)/2 force "
                    "k triangles at one vertex",
        needs_k=True,
        colored=False,
        n_condition=lambda n, k: n >= 3 * k - 1,
        delta_target=lambda n, k: _ceil_half(n + k - 1),
        conclusion=_concl_fan,
    ))
    register_claim(Claim(
        id="prop_fan_halfdeg",
        description="uncolored: n >= 50k^2 and min degree >= (n+1)/2 force "
                    "k triangles at one vertex",
        needs_k=True,
        colored=False,
        n_condition=lambda n, k: n >= 50 * k * k,
        delta_target=lambda n, k: _ceil_half(n + 1),
        conclusion=_concl_fan,
    ))
    register_claim(Claim(
        id="prop_book_halfdeg",
        description="uncolored: n >= 6k and min degree >= (n+1)/2 force "
                    "k triangles on one edge",
        needs_k=True,
        colored=False,
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
        needs_k=True,
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
        return {
            "id": self.id,
            "k": self.k,
            "n_range": list(self.n_range),
            "c_range": list(self.c_range),
            "p_range": list(self.p_range),
            "budget": self.budget,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class Failure:
    index: int
    gap: str
    ecg: str

    def to_json(self) -> dict:
        return {"index": self.index, "gap": self.gap, "ecg": self.ecg}


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

    def to_json(self, include_runtime: bool = False) -> dict:
        doc = {
            "schema": 1,
            "spec": self.spec_echo,
            "samples_attempted": self.samples_attempted,
            "samples_admitted": self.samples_admitted,
            "conclusion_failures": [f.to_json() for f in self.conclusion_failures],
            "sample_ecgs": list(self.sample_ecgs),
        }
        if include_runtime:
            doc["runtime_seconds"] = self.runtime_seconds
        return doc


def emit_report(report: Report, path) -> None:
    """Write the canonical JSON document.

    Field order is fixed and the volatile runtime is omitted, so two runs
    with the same spec and seed produce byte-identical files.
    """
    doc = report.to_json(include_runtime=False)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _sample_colored(n: int, p: float, c: int, rng: random.Random) -> ColoredGraph:
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                triples.append((u, v, rng.randint(1, c)))
    return ColoredGraph(n, triples, validate=False)


def _sample_injective(n: int, p: float, rng: random.Random) -> ColoredGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return ColoredGraph(n, [(u, v, i + 1) for i, (u, v) in enumerate(edges)],
                        validate=False)


def _repair_color_degree(graph: ColoredGraph, target: int,
                         rng: random.Random) -> ColoredGraph | None:
    """Raise every color degree to ``target`` by adding fresh-colored edges
    at deficient vertices; None when some deficient vertex is already full.

    Determinism contract: each step takes the first deficient vertex in
    index order and joins it, by one ``rng.choice`` over its non-neighbors
    in increasing order, with the next fresh color from max(colors) + 1 up.
    A fresh color adds one to both ends' color degrees and degrees never
    fall, so the scan only moves forward.  The graph is built once, from
    the original edges in insertion order followed by the added ones.
    """
    n = graph.n
    seen = [graph.adjacency_bits(v) | 1 << v for v in range(n)]
    dc = [len({graph.color(v, u) for u in graph.neighbors(v)}) for v in range(n)]
    fresh = max(graph.colors(), default=0) + 1
    added: list[tuple[int, int, int]] = []
    for v in range(n):
        while dc[v] < target:
            candidates = [u for u in range(n) if not seen[v] >> u & 1]
            if not candidates:
                return None
            u = rng.choice(candidates)
            seen[v] |= 1 << u
            seen[u] |= 1 << v
            dc[v] += 1
            dc[u] += 1
            added.append((min(u, v), max(u, v), fresh + len(added)))
    if not added:
        return graph
    return ColoredGraph(n, [(*e, c) for e, c in graph.edge_colors().items()] + added)


def verify(spec: TheoremSpec) -> Report:
    """Run one claim over ``budget`` admitted samples.

    Conclusion failures never abort the run: the budget completes so the
    report can show a failure density.  Every failure embeds a reloadable
    ECG witness.
    """
    if spec.id not in CLAIMS:
        raise ValueError(f"unknown claim id {spec.id!r}")
    claim = CLAIMS[spec.id]
    k = spec.k if spec.k is not None else 0
    if claim.needs_k:
        if spec.k is None or spec.k < claim.min_k:
            raise ValueError(f"claim {spec.id!r} needs k >= {claim.min_k}")
    lo, hi = spec.n_range
    if lo > hi or lo < 1:
        raise ValueError(f"bad n range {spec.n_range}")

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
        if claim.sampler == "proper_complete":
            g = gen_proper_complete(n, rng.getrandbits(32))
        elif claim.colored:
            c = rng.randint(*spec.c_range)
            g = _sample_colored(n, p, c, rng)
        else:
            g = _sample_injective(n, p, rng)
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


def check_example1_sharpness(k_range) -> Report:
    """Check the extremal 3-partite construction for each k.

    Asserts the exact values: min color degree 2k-2 = (n+k-1)/2 with
    n = 3k-3, largest rainbow book k-1, largest rainbow fan k-1.
    """
    ks = sorted(k_range)
    if any(k < 2 for k in ks):
        raise ValueError("k must be >= 2")
    report = Report(spec_echo={"id": "example1_sharpness", "k_range": ks})
    start = time.perf_counter()
    for k in ks:
        g = gen_example1(k)
        report.samples_attempted += 1
        report.samples_admitted += 1
        problems = []
        dc = min_color_degree(g)
        if g.n != 3 * k - 3:
            problems.append(f"n = {g.n} != 3k-3")
        if dc != 2 * k - 2 or 2 * dc != g.n + k - 1:
            problems.append(f"min color degree {dc} != 2k-2 = (n+k-1)/2")
        mb = max_book(g)
        if mb != k - 1:
            problems.append(f"max book {mb} != k-1")
        mf = max_fan(g)
        if mf != k - 1:
            problems.append(f"max fan {mf} != k-1")
        if problems:
            report.conclusion_failures.append(Failure(
                index=k, gap="; ".join(problems), ecg=save_ecg(g)))
    report.runtime_seconds = time.perf_counter() - start
    return report


def _disjoint_family_exists_bruteforce(g: ColoredGraph, k: int) -> bool:
    """Independent exhaustive check used to confirm candidate
    counterexamples before they are reported."""
    tris = build_index(g).triangles
    for combo in itertools.combinations(range(len(tris)), k):
        used: set[int] = set()
        good = True
        for i in combo:
            t = tris[i]
            if used & set(t):
                good = False
                break
            used.update(t)
        if good:
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
    an empty failure list.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
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
