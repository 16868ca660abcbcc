from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter

import pytest

from ecgraph.core import ColoredGraph, load_ecg, min_color_degree
from ecgraph.generators import gen_example1
from ecgraph.harness import (
    CLAIMS,
    Claim,
    Report,
    TheoremSpec,
    UnsatisfiableHypothesisError,
    emit_report,
    register_claim,
    search_hly_counterexample,
    verify,
)

EXPECTED_IDS = {
    "li_triangle", "book_bk", "fan_fk", "original_i", "original_ii",
    "lemma1", "lemma2", "prop1", "lnsz", "eg_partition", "lemma3_uncolored",
    "prop_fan_uncolored", "prop_fan_halfdeg", "prop_book_halfdeg",
    "fact_spanning_fan", "hly_conjecture",
}


def test_registry_is_complete():
    assert EXPECTED_IDS <= set(CLAIMS)


def test_rainbow_triangle_suite_small():
    spec = TheoremSpec(id="li_triangle", n_range=(6, 10), budget=200, seed=1,
                       keep_samples=25)
    report = verify(spec)
    assert report.samples_admitted == 200
    assert report.ok
    assert len(report.sample_ecgs) == 25


def test_admitted_samples_satisfy_hypothesis_independently():
    spec = TheoremSpec(id="book_bk", k=2, n_range=(4, 10), budget=60, seed=9,
                       keep_samples=60)
    report = verify(spec)
    assert report.ok
    for text in report.sample_ecgs:
        g = load_ecg(text)
        assert g.n >= 4
        assert 2 * min_color_degree(g) >= g.n + 1  # (n+k-1)/2 with k=2


@pytest.mark.parametrize("claim_id,kwargs", [
    ("original_i", dict(n_range=(5, 9), budget=100)),
    ("lemma1", dict(n_range=(3, 8), budget=60)),
    ("lemma2", dict(n_range=(3, 8), budget=60)),
    ("prop1", dict(n_range=(3, 8), budget=60)),
    ("lnsz", dict(n_range=(3, 9), budget=60)),
    ("eg_partition", dict(n_range=(3, 9), budget=80)),
    ("lemma3_uncolored", dict(n_range=(4, 10), budget=60)),
    ("prop_fan_uncolored", dict(n_range=(5, 11), budget=60)),
    ("fact_spanning_fan", dict(n_range=(3, 9), budget=30)),
])
def test_claim_suites_report_zero_failures(claim_id, kwargs):
    spec = TheoremSpec(id=claim_id, k=2 if CLAIMS[claim_id].min_k is not None else None,
                       seed=4, **kwargs)
    report = verify(spec)
    assert report.samples_admitted == kwargs["budget"]
    assert report.ok, report.conclusion_failures[:1]


def test_fan_suite_small():
    spec = TheoremSpec(id="fan_fk", k=2, n_range=(13, 14), budget=25, seed=2)
    report = verify(spec)
    assert report.ok and report.samples_admitted == 25


def test_two_fans_suite_small():
    spec = TheoremSpec(id="original_ii", n_range=(13, 14), budget=25, seed=8)
    report = verify(spec)
    assert report.ok and report.samples_admitted == 25


def test_determinism_same_spec_same_stream(tmp_path):
    spec = TheoremSpec(id="li_triangle", n_range=(6, 9), budget=40, seed=11,
                       keep_samples=40)
    a, b = verify(spec), verify(spec)
    assert a.sample_ecgs == b.sample_ecgs
    assert a.samples_attempted == b.samples_attempted
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(a, pa)
    emit_report(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_unsatisfiable_hypothesis_is_reported():
    with pytest.raises(UnsatisfiableHypothesisError):
        verify(TheoremSpec(id="book_bk", k=4, n_range=(3, 5), budget=10))
    with pytest.raises(UnsatisfiableHypothesisError):
        verify(TheoremSpec(id="prop_fan_halfdeg", k=2, n_range=(4, 16),
                           budget=10))
    with pytest.raises(UnsatisfiableHypothesisError):
        verify(TheoremSpec(id="fact_spanning_fan", n_range=(4, 4), budget=10))


def test_spec_validation():
    with pytest.raises(ValueError):
        verify(TheoremSpec(id="no_such_claim", budget=1))
    with pytest.raises(ValueError):
        verify(TheoremSpec(id="book_bk", budget=1))  # missing k
    with pytest.raises(ValueError):
        verify(TheoremSpec(id="book_bk", k=1, budget=1))  # below min_k
    with pytest.raises(ValueError):
        verify(TheoremSpec(id="li_triangle", n_range=(9, 3), budget=1))


def test_unknown_sampler_is_rejected():
    with pytest.raises(ValueError, match="unknown sampler 'colored'"):
        Claim(id="_test_sampler", description="test only", sampler="colored")


def test_failure_witnesses_are_reproducible(tmp_path):
    def tiny_conclusion(g, k):
        return (g.edge_count <= 2, f"graph has {g.edge_count} edges")

    register_claim(Claim(id="_test_tiny", description="test only",
                         conclusion=tiny_conclusion))
    try:
        spec = TheoremSpec(id="_test_tiny", n_range=(6, 8),
                           p_range=(0.8, 0.9), budget=30, seed=3)
        report = verify(spec)
        # failures do not abort the run: the budget completes
        assert report.samples_admitted == 30
        assert not report.ok
        for failure in report.conclusion_failures:
            g = load_ecg(failure.ecg)
            ok, _ = tiny_conclusion(g, 0)
            assert not ok  # reloading reproduces the failure
            assert "edges" in failure.gap
        # witnesses survive the JSON round trip
        path = tmp_path / "failing.json"
        emit_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["conclusion_failures"]
        for entry in doc["conclusion_failures"]:
            g = load_ecg(entry["ecg"])
            assert not tiny_conclusion(g, 0)[0]
    finally:
        del CLAIMS["_test_tiny"]


def test_emit_report_empty_and_with_failures(tmp_path):
    empty = Report(spec_echo={"id": "x"})
    path = tmp_path / "empty.json"
    emit_report(empty, path)
    doc = json.loads(path.read_text())
    assert doc["schema"] == 1
    assert doc["samples_admitted"] == 0
    assert doc["conclusion_failures"] == []


def test_hly_search_no_counterexample_for_k1():
    report = search_hly_counterexample(k=1, n_range=(4, 9), c_range=(2, 9),
                                       budget=300, seed=5)
    assert report.samples_admitted == 300
    assert report.ok  # k=1 is a theorem, not a conjecture


def test_hly_search_k2_logs_absence():
    report = search_hly_counterexample(k=2, n_range=(6, 10), c_range=(2, 12),
                                       budget=150, seed=6)
    assert report.samples_admitted == 150
    print(f"disjoint-pair search: {report.samples_admitted} samples, "
          f"{len(report.conclusion_failures)} counterexamples")
    assert report.ok


def _always_failing_hly(monkeypatch) -> None:
    """Swap the hly claim for a copy whose conclusion never holds."""
    monkeypatch.setitem(CLAIMS, "hly_conjecture", dataclasses.replace(
        CLAIMS["hly_conjecture"], conclusion=lambda g, k: (False, "forced")))


def test_hly_search_raises_when_the_exhaustive_check_finds_a_family(monkeypatch):
    # every candidate is re-checked; at k = 1 each admitted graph has a
    # rainbow triangle (Li's theorem), so the exhaustive check disagrees
    _always_failing_hly(monkeypatch)
    with pytest.raises(RuntimeError, match="^searcher disagreement"):
        search_hly_counterexample(k=1, n_range=(4, 6), c_range=(2, 6),
                                  budget=3, seed=0)


def test_hly_search_reports_confirmed_counterexamples(monkeypatch, capsys):
    import ecgraph.harness
    from ecgraph.cli import main

    _always_failing_hly(monkeypatch)
    monkeypatch.setattr(ecgraph.harness, "_disjoint_family_exists_bruteforce",
                        lambda g, k: False)
    assert main(["hly-search", "--k", "1", "--n", "4:6", "--budget", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "counterexamples: 3" in lines
    assert [line for line in lines if line.startswith("counterexample at")] == [
        f"counterexample at sample {i}: forced" for i in range(3)]


def test_hypothesis_rejects_a_failed_order_condition_or_a_low_color_degree():
    # gen_example1(3) meets book_bk's degree bound for k = 3, but n = 6 < 3k - 2
    g = gen_example1(3)
    assert min_color_degree(g) >= CLAIMS["book_bk"].delta_target(g.n, 3)
    assert not CLAIMS["book_bk"].hypothesis(g, 3)
    path = load_ecg("ecg 3 2\n0 1 1\n1 2 2\n")
    assert not CLAIMS["li_triangle"].hypothesis(path, 0)


def test_hly_search_rejects_malformed_range():
    with pytest.raises(ValueError):
        search_hly_counterexample(k=2, n_range=(4, 5), c_range=(2, 5),
                                  budget=5, seed=0)


def test_uncolored_k2_statements_exhaustively_at_small_n():
    """Every 5- or 6-vertex graph with min degree >= ceil((n+1)/2) has two
    triangles on a common edge and two sharing only a vertex (checked over
    all graphs, injectively colored so triangle searches apply)."""
    from ecgraph.core import ColoredGraph
    from ecgraph.rainbow import max_book, max_fan

    for n in (5, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        need = (n + 2) // 2
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            deg = [0] * n
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            if min(deg) < need:
                continue
            g = ColoredGraph(n, [(u, v, i + 1)
                                 for i, (u, v) in enumerate(edges)])
            assert max_book(g) >= 2
            assert max_fan(g) >= 2


def test_harness_detects_fan_statement_boundary_violation():
    """The uncolored fan claim is false at n = 3k-1 for odd k >= 3, and the
    harness must say so: the complement of the 8-cycle is 5-regular on 8
    vertices (hypothesis holds for k=3) but no vertex has the 6 neighbors a
    3-fan center needs."""
    from ecgraph.core import ColoredGraph

    comp_c8 = [(u, v) for u in range(8) for v in range(u + 1, 8)
               if (v - u) % 8 not in (1, 7)]
    g = ColoredGraph(8, [(u, v, i + 1) for i, (u, v) in enumerate(comp_c8)])
    claim = CLAIMS["prop_fan_uncolored"]
    assert claim.hypothesis(g, 3)
    ok, gap = claim.conclusion(g, 3)
    assert not ok
    assert "max 2" in gap


def test_low_admission_raises_admission_error():
    from ecgraph.harness import AdmissionError

    spec = TheoremSpec(id="eg_partition", n_range=(4, 4), p_range=(1.0, 1.0),
                       budget=1)
    with pytest.raises(AdmissionError, match="admission rate too low"):
        verify(spec)
    assert issubclass(AdmissionError, RuntimeError)


def test_bruteforce_disjoint_check_has_a_subset_limit(monkeypatch):
    import ecgraph.matching
    from ecgraph.generators import gen_proper_complete
    from ecgraph.harness import _disjoint_family_exists_bruteforce

    # every triangle of a properly colored K5 is rainbow, and no two of
    # its 10 triangles are disjoint: all C(10, 2) = 45 pairs are tried
    g = gen_proper_complete(5, seed=1)
    assert _disjoint_family_exists_bruteforce(g, 2) is False
    monkeypatch.setattr(ecgraph.matching, "SEARCH_NODE_LIMIT", 45)
    assert _disjoint_family_exists_bruteforce(g, 2) is False
    monkeypatch.setattr(ecgraph.matching, "SEARCH_NODE_LIMIT", 44)
    with pytest.raises(ValueError, match="_disjoint_family_exists_bruteforce "
                                         "exceeded its limit of 44"):
        _disjoint_family_exists_bruteforce(g, 2)


def test_eg_partition_computes_one_matching_per_sampled_graph(monkeypatch):
    import ecgraph.harness
    import ecgraph.matching

    matchings = []
    maximum = ecgraph.matching._maximum_matching

    def counting(adj):
        matchings.append(len(adj))
        return maximum(adj)

    def forbidden(n, edges):
        raise AssertionError("max_matching called on the eg_partition path")

    # the hypothesis and the conclusion share one partition per sampled
    # graph, and the partition finds the graph's only matching
    monkeypatch.setattr(ecgraph.matching, "_maximum_matching", counting)
    monkeypatch.setattr(ecgraph.matching, "max_matching", forbidden)
    report = verify(TheoremSpec(id="eg_partition", budget=40, seed=1))
    assert report.ok and report.samples_admitted == 40
    assert len(matchings) == report.samples_attempted > report.samples_admitted


def test_eg_partition_validates_each_graph_once_per_public_call(monkeypatch):
    import ecgraph.matching

    normalize = ecgraph.matching._normalize_edges
    calls = []

    def counting(n, edges):
        calls.append(n)
        return normalize(n, edges)

    # one validation per sampled graph, in its one gallai_partition call;
    # the diagnostics read the partition's own edges
    monkeypatch.setattr(ecgraph.matching, "_normalize_edges", counting)
    report = verify(TheoremSpec(id="eg_partition", budget=100, seed=1))
    assert report.ok and report.samples_admitted == 100
    assert len(calls) == report.samples_attempted > report.samples_admitted



def test_each_partition_is_checked_once(monkeypatch, tmp_path, capsys):
    import ecgraph.matching
    from ecgraph.cli import main

    holds = ecgraph.matching._structure_holds
    checked = []

    def counting(part):
        checked.append(part)
        return holds(part)

    monkeypatch.setattr(ecgraph.matching, "_structure_holds", counting)
    # the build checks nothing; the diagnostics check once
    part = ecgraph.matching.gallai_partition(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert checked == []
    assert ecgraph.matching.verify_partition_lemmas(part).structure_ok
    assert checked == [part]

    checked.clear()
    src = tmp_path / "k2_5.ecg"
    assert main(["gen", "--kind", "complete_multipartite", "--parts", "2,5",
                 "--out", str(src)]) == 0
    assert main(["partition", str(src)]) == 0
    assert len(checked) == 1 and checked[0].v0 == {0, 1}
    capsys.readouterr()

    checked.clear()
    report = verify(TheoremSpec(id="eg_partition", budget=40, seed=1))
    assert report.ok and report.samples_admitted == 40
    # one partition per admitted graph, each checked once by its conclusion
    assert len(checked) == len({id(part) for part in checked}) == 40


def test_eg_partition_hypothesis_is_exactly_an_unsaturated_vertex():
    from ecgraph.matching import max_matching

    claim = CLAIMS["eg_partition"]
    rng = random.Random(13)
    admitted = Counter()
    for _ in range(400):
        n = rng.randint(0, 10)
        g = ColoredGraph(n, [(u, v, rng.randint(1, 3)) for u in range(n)
                             for v in range(u + 1, n) if rng.random() < 0.4])
        expected = g.n > 2 * len(max_matching(g.n, g.edges))
        assert claim.hypothesis(g, 0) == expected
        admitted[expected] += 1
        if not expected:
            # the conclusion of a graph the hypothesis rejects names why
            assert claim.conclusion(g, 0) == (
                False, "partition construction failed: "
                       "partition undefined: n <= 2 * alpha'")
    assert min(admitted[True], admitted[False]) >= 100, admitted


def test_failed_partition_construction_is_a_recorded_failure(monkeypatch):
    import ecgraph.harness

    built = ecgraph.harness.gallai_partition
    calls = []

    def failing_on_odd_calls(n, edges):
        calls.append(n)
        part = built(n, edges)
        if len(calls) % 2:
            raise RuntimeError("partition invariant violated: stand-in")
        return part

    # a RuntimeError raised past the n > 2 alpha' test admits the graph, and
    # its conclusion records the failure instead of escaping verify
    monkeypatch.setattr(ecgraph.harness, "gallai_partition", failing_on_odd_calls)
    report = verify(TheoremSpec(id="eg_partition", budget=30, seed=2))
    assert report.samples_admitted == 30
    assert len(calls) == report.samples_attempted
    assert 0 < len(report.conclusion_failures) < 30
    for failure in report.conclusion_failures:
        assert failure.gap == ("partition construction failed: "
                               "partition invariant violated: stand-in")
        assert CLAIMS["eg_partition"].hypothesis(load_ecg(failure.ecg), 0)


@pytest.mark.parametrize("claim_id, search", [
    ("book_bk", "find_book"), ("original_i", "find_book"),
    ("fan_fk", "find_fan"), ("original_ii", "find_fan"),
])
def test_certified_conclusions_look_up_their_search_at_call_time(
        monkeypatch, claim_id, search):
    import ecgraph.harness

    calls = []
    for name in ("find_book", "find_fan"):
        def counting(g, k, name=name, found=getattr(ecgraph.harness, name)):
            calls.append(name)
            return found(g, k)

        # a module-level rebinding, as a tracer makes, must be seen
        monkeypatch.setattr(ecgraph.harness, name, counting)
    report = verify(TheoremSpec(id=claim_id, k=CLAIMS[claim_id].min_k,
                                n_range=(13, 15), budget=5, seed=1))
    assert report.ok and calls == [search] * 5


@pytest.mark.parametrize("claim_id", sorted(cid for cid, claim in CLAIMS.items()
                                            if claim.min_k is None))
def test_k_for_a_claim_without_k_is_rejected(claim_id):
    with pytest.raises(ValueError, match=f"claim {claim_id!r} takes no k"):
        verify(TheoremSpec(id=claim_id, k=3, budget=1))
