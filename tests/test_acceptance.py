"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
live).  Heavy sample corpora are shared through module-scoped fixtures.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from oracles import (
    brute_max_matching,
    brute_min_cover_size,
    naive_rainbow_triangles,
    random_colored,
)

from ecgraph.core import load_ecg, min_color_degree, save_ecg
from ecgraph.bounds import counting_lower_bound
from ecgraph.generators import gen_example1
from ecgraph.harness import (
    CLAIMS,
    Claim,
    TheoremSpec,
    UnsatisfiableHypothesisError,
    verify,
)
from ecgraph.matching import (
    gallai_partition,
    max_matching,
    min_vertex_cover,
    verify_partition_lemmas,
)
from ecgraph.rainbow import build_index, max_book, max_fan
from ecgraph.reduction import edge_minimal_reduce


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run_claim(claim_id: str, **kwargs) -> tuple:
    spec = TheoremSpec(id=claim_id, **kwargs)
    start = time.perf_counter()
    report = verify(spec)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def suite2():
    """Criterion 2 corpus (10^4 admitted samples, n in [6, 14], min color
    degree at least ceil((n+1)/2)), shared with criterion 9."""
    triangle_failures: list[str] = []
    bound_failures: list[str] = []

    def conclusion(g, k):
        idx = build_index(g)
        if idx.count() == 0:
            triangle_failures.append(save_ecg(g))
        if Fraction(idx.count()) < counting_lower_bound(g):
            bound_failures.append(save_ecg(g))
        return True, ""

    claim = Claim(id="_suite2", description="criterion 2/9 corpus",
                  delta_target=lambda n, k: (n + 2) // 2,
                  conclusion=conclusion)
    CLAIMS["_suite2"] = claim
    try:
        spec = TheoremSpec(id="_suite2", n_range=(6, 14), c_range=(2, 20),
                           p_range=(0.2, 0.9), budget=10_000, seed=20260808)
        start = time.perf_counter()
        report = verify(spec)
        elapsed = time.perf_counter() - start
    finally:
        del CLAIMS["_suite2"]
    return report, triangle_failures, bound_failures, elapsed


def test_criterion_01_example1_exactness():
    start = time.perf_counter()
    for k in range(2, 8):
        g = gen_example1(k)
        dc = min_color_degree(g)
        assert g.n == 3 * k - 3
        assert dc == 2 * k - 2 and 2 * dc == g.n + k - 1
        assert max_book(g) == k - 1
        assert max_fan(g) == k - 1
    elapsed = time.perf_counter() - start
    _line(1, elapsed < 1.0,
          f"extremal construction exact for k=2..7 in {elapsed:.2f}s")


def test_criterion_02_rainbow_triangle_suite(suite2):
    report, triangle_failures, _, elapsed = suite2
    ok = (report.samples_admitted == 10_000 and not triangle_failures
          and elapsed < 60.0)
    _line(2, ok, f"rainbow triangle found in "
                 f"{10_000 - len(triangle_failures)}/10000 admitted samples "
                 f"(n in [6,14], {elapsed:.1f}s)")


def test_criterion_03_book_suite():
    total = 0
    failures = 0
    start = time.perf_counter()
    for k in (2, 3, 4):
        report, _ = _run_claim("book_bk", k=k, n_range=(3 * k - 2, 14),
                               c_range=(2, 20), budget=1000, seed=300 + k)
        total += report.samples_admitted
        failures += len(report.conclusion_failures)
    elapsed = time.perf_counter() - start
    ok = total == 3000 and failures == 0 and elapsed < 120.0
    _line(3, ok, f"rainbow book found in {total - failures}/{total} samples, "
                 f"k in {{2,3,4}} ({elapsed:.1f}s)")


def test_criterion_04_fan_suite():
    total = 0
    failures = 0
    start = time.perf_counter()
    for k in (2, 3):
        report, _ = _run_claim("fan_fk", k=k, n_range=(2 * k + 9, 17),
                               c_range=(2, 24), budget=1000, seed=400 + k)
        total += report.samples_admitted
        failures += len(report.conclusion_failures)
    elapsed = time.perf_counter() - start
    ok = total == 2000 and failures == 0 and elapsed < 300.0
    _line(4, ok, f"rainbow fan found in {total - failures}/{total} samples, "
                 f"k in {{2,3}} ({elapsed:.1f}s)")


def test_criterion_05_class_bounds_on_reduced_graphs():
    report, elapsed = _run_claim("lemma1", n_range=(4, 10), c_range=(1, 12),
                                 p_range=(0.1, 0.95), budget=1000, seed=500)
    _line(5, report.ok,
          f"per-class and half-sum triangle bounds hold on "
          f"{report.samples_admitted} reduced graphs ({elapsed:.1f}s)")


def test_criterion_06_restriction_bound():
    report, elapsed = _run_claim("prop1", n_range=(4, 10), c_range=(1, 12),
                                 p_range=(0.1, 0.95), budget=10_000, seed=600)
    _line(6, report.ok,
          f"rt(v,x) dominates the restriction count on every edge of "
          f"{report.samples_admitted} graphs ({elapsed:.1f}s)")


def test_criterion_07_balance_nonnegativity():
    report, elapsed = _run_claim("lemma2", n_range=(4, 10), c_range=(1, 12),
                                 p_range=(0.1, 0.95), budget=1000, seed=700)
    _line(7, report.ok,
          f"balance nonnegative with equality structure on "
          f"{report.samples_admitted} reduced graphs ({elapsed:.1f}s)")


def test_criterion_08_partition_identities():
    core_failures: list[str] = []
    strong_failures_connected: list[str] = []
    strong_failures_disconnected = 0
    cover_mismatches: list[str] = []

    def conclusion(g, k):
        n, es = g.n, g.edges
        m = max_matching(n, es)
        part = gallai_partition(n, es, m)
        diag = verify_partition_lemmas(n, es, part)
        if not (diag.size_identity_ok and diag.structure_ok and diag.chain_ok):
            core_failures.append(save_ecg(g))
        if n <= 9 and diag.beta != brute_min_cover_size(n, es):
            cover_mismatches.append(save_ecg(g))
        if diag.strong_applicable and not (diag.strong_beta_ok
                                           and diag.strong_v0_ok):
            nonlocal strong_failures_disconnected
            if diag.connected:
                strong_failures_connected.append(save_ecg(g))
            else:
                strong_failures_disconnected += 1
        return True, ""

    claim = Claim(
        id="_suite8", description="criterion 8 corpus", sampler="injective",
        graph_hypothesis=lambda g, k: g.n > 2 * len(max_matching(g.n, g.edges)),
        conclusion=conclusion)
    CLAIMS["_suite8"] = claim
    try:
        spec = TheoremSpec(id="_suite8", n_range=(4, 12), p_range=(0.1, 0.9),
                           budget=10_000, seed=800)
        start = time.perf_counter()
        report = verify(spec)
        elapsed = time.perf_counter() - start
    finally:
        del CLAIMS["_suite8"]

    # designated tripwire: K5 plus two isolated vertices, resolved by brute
    # force; the strong bounds fail here precisely because the graph is
    # disconnected, while the size identity and the chain hold
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    assert brute_max_matching(7, edges) == 2
    assert brute_min_cover_size(7, edges) == 4
    part = gallai_partition(7, edges, max_matching(7, edges))
    diag = verify_partition_lemmas(7, edges, part)
    print(f"\ntripwire record: alpha'=2 beta=4 v0={sorted(part.v0)} "
          f"size_identity={diag.size_identity_ok} chain={diag.chain_ok} "
          f"strong_bounds_fail_connected={diag.connected}")
    assert diag.size_identity_ok and diag.structure_ok and diag.chain_ok
    assert diag.strong_beta_ok is False and diag.strong_v0_ok is False
    assert not diag.connected

    ok = (report.samples_admitted == 10_000 and not core_failures
          and not cover_mismatches and not strong_failures_connected
          and elapsed < 120.0)
    _line(8, ok,
          f"size identity, structure and chain hold on 10000 samples; "
          f"strong bounds hold on every connected sample "
          f"({strong_failures_disconnected} disconnected boundary cases "
          f"recorded, {elapsed:.1f}s)")


def test_criterion_09_counting_bound(suite2):
    report, _, bound_failures, _ = suite2
    k3 = load_ecg("ecg 3 3\n0 1 1\n0 2 2\n1 2 3\n")
    tight = (counting_lower_bound(k3) == 1 and build_index(k3).count() == 1)
    ok = report.samples_admitted == 10_000 and not bound_failures and tight
    _line(9, ok, f"triangle count meets the counting bound on all 10000 "
                 f"samples; tight at the rainbow triangle")


def test_criterion_10_spanning_fans():
    start = time.perf_counter()
    total = 0
    failures = 0
    for n in (3, 5, 7, 9, 11):
        report, _ = _run_claim("fact_spanning_fan", n_range=(n, n),
                               budget=100, seed=1000 + n)
        total += report.samples_admitted
        failures += len(report.conclusion_failures)
    elapsed = time.perf_counter() - start
    ok = total == 500 and failures == 0 and elapsed < 60.0
    _line(10, ok, f"properly colored spanning fan found in {total}/500 "
                  f"proper complete colorings ({elapsed:.1f}s)")


def _certified_fan_violation(g, k: int) -> bool:
    """Confirm a fan-suite violation independently of the search code:
    either no vertex has the 2k neighbors a k-fan center needs, or an
    exhaustive backtracking search over triangle sets finds no fan."""
    from oracles import brute_fan_at

    if max(g.degree(v) for v in range(g.n)) < 2 * k:
        return True
    return max(brute_fan_at(g, v) for v in range(g.n)) < k


def test_criterion_11_uncolored_suites():
    """KNOWN RED (spec defect, see the decisions ledger).

    The uncolored fan statement 'n >= 3k-1 and min degree >= (n+k-1)/2
    force a k-fan' is false at its boundary: for odd k >= 3 a
    (2k-1)-regular graph on 3k-1 vertices satisfies the hypothesis, yet a
    k-fan needs a center of degree 2k.  The complement of the 8-cycle
    (5-regular, n = 8, k = 3) is a concrete counterexample, and random
    sampling finds more.  The criterion demands zero violations, so it is
    implemented as stated and fails on the certified counterexamples; all
    other uncolored suites are violation-free.
    """
    start = time.perf_counter()
    admitted = 0
    gated: list[str] = []
    violations: list[tuple[str, int, str]] = []
    runs = [
        ("lemma3_uncolored", 2), ("lemma3_uncolored", 3),
        ("lemma3_uncolored", 4),
        ("prop_fan_uncolored", 2), ("prop_fan_uncolored", 3),
        ("prop_fan_uncolored", 4),
        ("prop_book_halfdeg", 2),
        ("prop_fan_halfdeg", 2),
    ]
    for claim_id, k in runs:
        try:
            report, _ = _run_claim(claim_id, k=k, n_range=(4, 16),
                                   budget=300, seed=1100 + k)
            admitted += report.samples_admitted
            for failure in report.conclusion_failures:
                violations.append((claim_id, k, failure.ecg))
        except UnsatisfiableHypothesisError:
            # the quadratic vertex requirement is out of desk-scale reach:
            # recorded as hypothesis-gated, partially verified
            gated.append(f"{claim_id}(k={k})")

    # deterministic boundary instance: complement of C_8 (5-regular, n=8)
    # satisfies the k=3 fan hypothesis but has no degree-6 fan center
    comp_c8 = [(u, v) for u in range(8) for v in range(u + 1, 8)
               if (v - u) % 8 not in (1, 7)]
    from ecgraph.core import ColoredGraph

    g = ColoredGraph(8, [(u, v, i + 1) for i, (u, v) in enumerate(comp_c8)])
    assert CLAIMS["prop_fan_uncolored"].hypothesis(g, 3)
    admitted += 1
    ok_concl, _ = CLAIMS["prop_fan_uncolored"].conclusion(g, 3)
    if not ok_concl:
        violations.append(("prop_fan_uncolored", 3, save_ecg(g)))

    # every violation must be certified by an independent argument;
    # anything uncertifiable would be a search bug, not a spec finding
    for claim_id, k, ecg in violations:
        assert claim_id == "prop_fan_uncolored"
        witness = load_ecg(ecg)
        assert CLAIMS[claim_id].hypothesis(witness, k)
        assert _certified_fan_violation(witness, k)
        print(f"\ncertified counterexample to the uncolored fan statement "
              f"(k={k}, n={witness.n}, degrees "
              f"{sorted(witness.degree(v) for v in range(witness.n))})")

    elapsed = time.perf_counter() - start
    ok = not violations and gated == ["prop_fan_halfdeg(k=2)"]
    _line(11, ok,
          f"uncolored suites: {len(violations)} certified violations on "
          f"{admitted} admitted samples (all against the fan statement at "
          f"its n = 3k-1 boundary); hypothesis-gated: {', '.join(gated)} "
          f"({elapsed:.1f}s)")


def test_criterion_12_oracle_equivalence():
    rng = random.Random(1234)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(2, 8)
        g = random_colored(rng, n, rng.uniform(0.1, 0.95), rng.randint(1, 6))
        assert set(build_index(g).triangles) == naive_rainbow_triangles(g)
        assert len(max_matching(n, g.edges)) == brute_max_matching(n, g.edges)
        assert len(min_vertex_cover(n, g.edges)) == \
            brute_min_cover_size(n, g.edges)
    elapsed = time.perf_counter() - start
    _line(12, True, f"index, matching and cover agree with naive oracles on "
                    f"1000 instances with n <= 8 ({elapsed:.1f}s)")


def test_reduction_preserves_color_degrees_spotcheck():
    # cross-module guard used by criteria 5 and 7: reduction really is
    # color-degree preserving on the acceptance distribution
    rng = random.Random(5555)
    for _ in range(300):
        g = random_colored(rng, rng.randint(2, 10),
                           rng.uniform(0.1, 0.95), rng.randint(1, 8))
        h = edge_minimal_reduce(g)
        for v in range(g.n):
            before = len({g.color(v, u) for u in g.neighbors(v)})
            after = len({h.color(v, u) for u in h.neighbors(v)})
            assert before == after
