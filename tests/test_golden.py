"""Golden digests: the exact bytes of reports and reductions are pinned.

Run-against-run determinism tests cannot see a refactor that changes the
sample stream the same way in both runs.  These digests can: they were
recorded once and must never change unless an output change is intended.

Each built-in claim runs at a small budget on two fixed seeds with every
admitted sample kept, so the digest covers the whole sample stream (every
admitted graph, the attempt count and each failure witness).  The output of
``ecgraph partition --json``, whose minimum vertex cover is part of the
output contract, is pinned on two fixed instances, and that of
``ecgraph analyze --json`` on three.  The per-class rainbow-triangle bound
reports and the balance diagnostics are pinned over a corpus of reduced
graphs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random

import pytest

from oracles import odd_pieces, random_colored

from ecgraph.bounds import mono_balance_diagnostics, triangle_bound_report
from ecgraph.cli import main
from ecgraph.core import ColoredGraph, max_mono_degree, mono_degree, save_ecg
from ecgraph.generators import gen_example1, gen_proper_complete, gen_random_colored
from ecgraph.harness import CLAIMS, TheoremSpec, emit_report, verify
from ecgraph.reduction import edge_minimal_reduce

SEEDS = (1, 2)

# claim id -> TheoremSpec keyword arguments (budget = samples kept)
GOLDEN_SPECS: dict[str, dict] = {
    "li_triangle": dict(n_range=(6, 10), budget=30),
    "book_bk": dict(k=3, n_range=(7, 12), budget=20),
    "fan_fk": dict(k=2, n_range=(13, 14), budget=8),
    "original_i": dict(n_range=(5, 9), budget=20),
    "original_ii": dict(n_range=(13, 14), budget=8),
    "lemma1": dict(n_range=(3, 8), budget=20),
    "lemma2": dict(n_range=(3, 8), budget=20),
    "prop1": dict(n_range=(3, 8), budget=20),
    "lnsz": dict(n_range=(3, 9), budget=20),
    "eg_partition": dict(n_range=(3, 9), budget=20),
    "lemma3_uncolored": dict(k=2, n_range=(4, 10), budget=20),
    "prop_fan_uncolored": dict(k=3, n_range=(8, 9), budget=20),
    "prop_fan_halfdeg": dict(k=2, n_range=(200, 200), p_range=(0.5, 0.5),
                             budget=1),
    "prop_book_halfdeg": dict(k=2, n_range=(12, 14), budget=10),
    "fact_spanning_fan": dict(n_range=(5, 9), budget=10),
    "hly_conjecture": dict(k=2, n_range=(6, 9), budget=20),
}

EXPECTED_REPORTS: dict[tuple[str, int], str] = {
    ("li_triangle", 1): "e87c06f2a0100d2c1da6bfd73dbec8129fa77e5a8719dcabbf88c35637aece4f",
    ("li_triangle", 2): "5ceb37a1fdb4537f4dbe6a21fdf358a5453a4a517608eea6d2adb64176604a9c",
    ("book_bk", 1): "4c98ab2f6ccc0ff98b4fcc293223baa0ac8fcd9567e0385ddfb12847b218b4c6",
    ("book_bk", 2): "cd02cf1b5b6413f3ac87f0fc6089b9221f444661fa7ffa4ec4b514bfa0d95870",
    ("fan_fk", 1): "58227d1440427122b7aab7c07dde231e6eff41c5976685223c5abacfd7a612b6",
    ("fan_fk", 2): "3d211deba88b09e6bb93fae8d9fc399113605c500bcdeb356dac14dc82d7f8ce",
    ("original_i", 1): "a2ef0173a4419a74a59cc805345d722a8e8af28ffb3fe52f9ecd79754cfe48ac",
    ("original_i", 2): "dfb9772e6acceed6a694feeac9af9e97c90be51d98854ee755f6ebff43d9aa56",
    ("original_ii", 1): "4b7909eb78865caf0f69eefe2d0a7af54ce2dd6aa2dda79713502e8221435c33",
    ("original_ii", 2): "fcb8dcf561c002cad82e74c39abc74a17584be0e66c458d0bed084f652cfee56",
    ("lemma1", 1): "2162f10b93cee99f88762e2319d209026535203cb405355f55fdab9e2e4f3738",
    ("lemma1", 2): "52f8262f4b531db6406668445c86a99f948c969c0327668f1e1300925d709d6f",
    ("lemma2", 1): "b932e52f9784f6d687c89ae8cec6fc7708ad31768c2bc711ee4f128c6954ab4f",
    ("lemma2", 2): "151d4525465895b836314d06ddbddf48350048c4756c94182bb7c32148af1f9a",
    ("prop1", 1): "80a7985e137afc037493242912bd8835d46896ba1095d69f358883e2d8f37a6c",
    ("prop1", 2): "b59a7b01c6b0b29ddc1271a9cd9c03c0d1fc2db2b91d2843025842764059a543",
    ("lnsz", 1): "b415babb92ab51c582ea49231d94028f3f7f2342ed3ad750bbd143bf012388b5",
    ("lnsz", 2): "19b73f0031eec610e922f9274d718dbd9dc279da1b708b02f9733b04e69e0f33",
    ("eg_partition", 1): "18c7c06de099dfd4332e769920145ce1bff8178385e0d658f8c99f5f67164e83",
    ("eg_partition", 2): "d5dc3c539d16368041ac3cf651264f6122db761c741e4c5893dbc6f0193206e5",
    ("lemma3_uncolored", 1): "f4f486b3988ef8c5211d0031660cc6285b38fe90849c07d45b0917e749741a05",
    ("lemma3_uncolored", 2): "ec9ba6fa6d38b67b6e126be59a94d23808f4391066b7079e32fa4c97ea42fbef",
    ("prop_fan_uncolored", 1): "7f620b445c456a58b157d5182c22bd6562ce45ecaa863d5572f0c613b6a4e40d",
    ("prop_fan_uncolored", 2): "1f339cb6bf8839425204e5780017c26a630cb42a42c3c3bb1a3c0f811317af6c",
    ("prop_fan_halfdeg", 1): "0814e11f02c36e354dab0f08fb39258e6cb2e66b83583091684f67bdb0a4b110",
    ("prop_fan_halfdeg", 2): "24101accb7ae380b7e6aa92b837a170727e8643e393552a43b33674c830a60e8",
    ("prop_book_halfdeg", 1): "1aa2752483fd98cd5d98a4cec0f2f855b7e90ffd8fbe6c7471e24fb79f42d2fe",
    ("prop_book_halfdeg", 2): "53dee095f2f6df995ae317c079e301f8fa5ec3cd9dc55ce7a948197d7bb664ea",
    ("fact_spanning_fan", 1): "b48bf939354f42eb1995e3b90d48d85e11aaf114df02de59caafcacceefdb626",
    ("fact_spanning_fan", 2): "54720420d959c35d4565543bea4775bb8e27d88cf37fab9d623feefb7ef9b696",
    ("hly_conjecture", 1): "2a76607c340804e44e2891670843defeaff188b6508262027d9af140e7353507",
    ("hly_conjecture", 2): "0c92f49dde6e7f8353fbc67e3c344cf508ed0d0589396c255f72fe0878843e21",
}

REDUCTION_CORPUS_SIZE = 1000
EXPECTED_REDUCTIONS = "1371b02e729428b0f563030769759b58c2c72f05394a2223a2802400eddd1e6e"


def report_digest(claim_id: str, seed: int, path) -> str:
    kwargs = GOLDEN_SPECS[claim_id]
    spec = TheoremSpec(id=claim_id, seed=seed, keep_samples=kwargs["budget"],
                       **kwargs)
    emit_report(verify(spec), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reduction_digest() -> str:
    """One digest over the reduced ECG text and the ``edge_colors()`` order
    of a seeded corpus of random colored graphs."""
    rng = random.Random(2024)
    h = hashlib.sha256()
    for _ in range(REDUCTION_CORPUS_SIZE):
        g = random_colored(rng, rng.randint(1, 14), rng.uniform(0.1, 0.95),
                           rng.randint(1, 5))
        reduced = edge_minimal_reduce(g)
        h.update(save_ecg(reduced).encode())
        h.update(repr(list(reduced.edge_colors().items())).encode())
    return h.hexdigest()


def test_every_builtin_claim_is_pinned():
    builtin = {cid for cid in CLAIMS if not cid.startswith("_")}
    assert set(GOLDEN_SPECS) == builtin
    assert set(EXPECTED_REPORTS) == {(c, s) for c in GOLDEN_SPECS for s in SEEDS}


@pytest.mark.parametrize("claim_id", sorted(GOLDEN_SPECS))
@pytest.mark.parametrize("seed", SEEDS)
def test_report_bytes_match_golden(claim_id, seed, tmp_path):
    digest = report_digest(claim_id, seed, tmp_path / "report.json")
    assert digest == EXPECTED_REPORTS[(claim_id, seed)]


def test_reduction_corpus_matches_golden():
    assert reduction_digest() == EXPECTED_REDUCTIONS


EXPECTED_PARTITIONS = {
    "odd_pieces": "bbead6c8b6617f17f13d93300a541196100bc43c38e27685e1b558a3458a0019",
    "bipartite": "851422d70a2ba5ede844026a485f44106d99bd4a1f23d550c51c1f9451a84ba2",
}


def _partition_instance(name: str) -> ColoredGraph:
    """Injectively colored instances of the two shapes ``ecgraph partition``
    gets in the benchmark: odd pieces 13/11/11/9 joined through two hubs,
    and an unbalanced bipartite graph."""
    rng = random.Random(f"partition:{name}")
    if name == "odd_pieces":
        n, edges = odd_pieces(rng, [13, 11, 11, 9])
    else:
        n = 36 + 20
        edges = [(u, v) for u in range(36) for v in range(36, n) if rng.random() < 0.15]
    return ColoredGraph(n, [(u, v, i + 1) for i, (u, v) in enumerate(edges)])


def cli_json_digest(command: str, graph: ColoredGraph, tmp_path) -> str:
    """Digest of the exit code, the standard output and the JSON document
    of ``ecgraph <command> --json`` on one graph."""
    src, out = tmp_path / "graph.ecg", tmp_path / "out.json"
    src.write_text(save_ecg(graph), encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, str(src), "--json", str(out)])
    h = hashlib.sha256(f"exit {code}\n{stdout.getvalue()}".encode())
    h.update(b"\0" + out.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(EXPECTED_PARTITIONS))
def test_partition_json_matches_golden(name, tmp_path):
    digest = cli_json_digest("partition", _partition_instance(name), tmp_path)
    assert digest == EXPECTED_PARTITIONS[name]


EXPECTED_ANALYSES = {
    "example1": "8bd3cc69f5048f2cb00304aa067dbca221235e0641d27f8df8e31d38234b431d",
    "random_colored": "fffd159b613388d5e444c7593e9fc2b28789050609926df0316183652f98ee4d",
    "proper_complete": "f7e62afb440a2a6a5c5865306466f1f11e7bceaa2351e4c680c2dc2fc336cde1",
}


def _analyze_instance(name: str) -> ColoredGraph:
    if name == "example1":
        return gen_example1(4)
    if name == "random_colored":
        return gen_random_colored(40, 0.5, 64, seed=3)
    return gen_proper_complete(9, seed=9)


@pytest.mark.parametrize("name", sorted(EXPECTED_ANALYSES))
def test_analyze_json_matches_golden(name, tmp_path):
    digest = cli_json_digest("analyze", _analyze_instance(name), tmp_path)
    assert digest == EXPECTED_ANALYSES[name]


BOUNDS_CORPUS_SIZE = 200
EXPECTED_BOUNDS = "f74390f544e94095a22373433245b0d266d9afccc9beeea39a78981a373a1842"


def bounds_digest() -> tuple[str, int]:
    """One digest over every vertex's ``triangle_bound_report`` and, at the
    vertices of maximum monochromatic degree, every ``mono_balance_diagnostics``
    field, on a seeded corpus of reduced random colored graphs.  Also returns
    how many diagnostics met the equality case, where conditions (a)-(c) run."""
    rng = random.Random(2025)
    h = hashlib.sha256()
    equality = 0
    for _ in range(BOUNDS_CORPUS_SIZE):
        g = random_colored(rng, rng.randint(1, 12), rng.uniform(0.2, 1.0),
                           rng.randint(1, 6))
        reduced = edge_minimal_reduce(g)
        delta = max_mono_degree(reduced)
        for v in range(reduced.n):
            h.update(json.dumps(triangle_bound_report(reduced, v).to_json()).encode())
            if mono_degree(reduced, v) == delta:
                diag = mono_balance_diagnostics(reduced, v)
                h.update(json.dumps(dataclasses.asdict(diag)).encode())
                equality += diag.equality_applicable
    return h.hexdigest(), equality


def test_bound_reports_match_golden():
    digest, equality = bounds_digest()
    assert equality >= 20
    assert digest == EXPECTED_BOUNDS
