"""The three workloads: job lists made from a seed, and the checks on outputs.

A job is one ``ecgraph.verify`` call or one in-process ``ecgraph.cli.main``
call.  The program only ever sees the generated specs and ECG files; the
seed itself never reaches it.  Job lists are fixed per seed, and a run
repeats the same list ("round") until its time is up, so every round does
identical work and its outputs must be byte-identical to the first round's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

# (claim id, k, n range, palette range, edge probability range, budget).
# The ranges are those of the acceptance criteria for each claim; budgets
# are chosen so each job takes 10 to 20 ms on a 2-CPU x86 host (Python 3.11).
REPAIR_TEMPLATES = [
    ("li_triangle", None, (6, 14), (2, 20), (0.2, 0.9), 20),
    ("book_bk", 3, (7, 14), (2, 20), (0.2, 0.9), 10),
    ("fan_fk", 3, (15, 17), (2, 24), (0.2, 0.9), 3),
    ("lemma3_uncolored", 3, (4, 16), (2, 16), (0.2, 0.9), 10),
]
REDUCE_TEMPLATES = [
    ("lemma1", None, (4, 10), (1, 12), (0.1, 0.95), 12),
    ("lemma2", None, (4, 10), (1, 12), (0.1, 0.95), 12),
    ("prop1", None, (4, 10), (1, 12), (0.1, 0.95), 60),
    ("eg_partition", None, (4, 12), (2, 16), (0.1, 0.9), 20),
]
# jobs per template in a round: over 100 distinct jobs, so that the seed's
# effect on the amount of work averages out (verify-reduce jobs are shorter,
# so it gets more)
JOBS_PER_TEMPLATE = {"verify-repair": 28, "verify-reduce": 56}

# cli-large: (n, palette) of the random colored graphs given to analyze and
# reduce, and the shapes given to partition.  Sizes are fixed so that the
# seed changes the edges, not the scale.  Each is used several times with
# other edges, so that a round has over 100 distinct jobs and still lasts
# only a few seconds (each job then runs about 7 times in a 35 s run).
RANDOM_GRAPHS = [(n, c) for n in (40, 44, 48, 52, 56, 60) for c in (64, 128)] * 3
RANDOM_P = 0.5
ODD_PIECES = [13, 11, 11, 9]
ODD_PIECE_P = 0.8
BIPARTITE = [(36, 20, 0.15), (30, 18, 0.25)]
PARTITION_COPIES = 10


@dataclass
class Job:
    kind: str           # "verify" or "cli"
    label: str          # claim id or cli command, for reports
    spec: object = None
    k: int = 0
    argv: tuple = ()
    writes: tuple = ()  # files the command writes, part of its output
    source: str = ""    # input ECG text, for the cli output checks
    samples: int = 1    # admitted samples (verify) or input graphs (cli)


def _verify_jobs(modules: dict, templates, name: str, seed: int) -> list[Job]:
    spec_cls = modules["ecgraph"].TheoremSpec
    rng = random.Random(f"{name}:{seed}")
    jobs = []
    for _ in range(JOBS_PER_TEMPLATE[name]):
        for claim, k, n_range, c_range, p_range, budget in templates:
            spec = spec_cls(id=claim, k=k, n_range=n_range, c_range=c_range,
                            p_range=p_range, budget=budget,
                            seed=rng.getrandbits(32))
            jobs.append(Job("verify", claim, spec=spec, k=k or 0, samples=budget))
    return jobs


def _odd_pieces_graph(ecg, sizes: list[int], rng: random.Random):
    """Dense odd-order pieces joined through len(sizes) - 2 hub vertices.

    Each hub meets every piece, so the graph is connected, while each piece
    keeps an unsaturated vertex: n > 2 * alpha', so the Gallai-Edmonds
    partition exists.
    """
    hubs = len(sizes) - 2
    n = sum(sizes) + hubs
    triples, color, start, pieces = [], 1, 0, []
    for size in sizes:
        piece = list(range(start, start + size))
        pieces.append(piece)
        for i in range(size):
            for j in range(i + 1, size):
                if j == i + 1 or rng.random() < ODD_PIECE_P:
                    triples.append((piece[i], piece[j], color))
                    color += 1
        start += size
    for hub in range(start, n):
        for piece in pieces:
            for v in rng.sample(piece, 3):
                triples.append((v, hub, color))
                color += 1
    return ecg.ColoredGraph(n, triples)


def _bipartite_graph(ecg, left: int, right: int, p: float, rng: random.Random):
    """Unbalanced random bipartite graph, injectively colored."""
    pairs = [(u, v) for u in range(left) for v in range(left, left + right)
             if rng.random() < p]
    return ecg.ColoredGraph(left + right,
                            [(u, v, i + 1) for i, (u, v) in enumerate(pairs)])


def _cli_jobs(modules: dict, seed: int, workdir: Path) -> list[Job]:
    ecg = modules["ecgraph"]
    rng = random.Random(f"cli-large:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    graphs = []
    for n, palette in RANDOM_GRAPHS:
        spec = ecg.GeneratorSpec(kind="random_colored",
                                 parameters={"n": n, "p": RANDOM_P, "c": palette},
                                 seed=rng.getrandbits(32))
        graphs.append(("rand", ecg.generate(spec)))
    for _ in range(PARTITION_COPIES):
        graphs.append(("part", _odd_pieces_graph(ecg, ODD_PIECES, rng)))
        for left, right, p in BIPARTITE:
            graphs.append(("part", _bipartite_graph(ecg, left, right, p, rng)))

    jobs = []
    for i, (use, graph) in enumerate(graphs):
        text = ecg.save_ecg(graph)
        path = workdir / f"g{i}.ecg"
        path.write_text(text, encoding="utf-8")
        if use == "rand":
            out = workdir / f"g{i}.reduced.ecg"
            jobs.append(Job("cli", "analyze", argv=("analyze", str(path)), source=text))
            jobs.append(Job("cli", "reduce", argv=("reduce", str(path), "--out", str(out)),
                            writes=(out,), source=text))
        else:
            out = workdir / f"g{i}.partition.json"
            jobs.append(Job("cli", "partition",
                            argv=("partition", str(path), "--json", str(out)),
                            writes=(out,), source=text))
    return jobs


def build_jobs(workload: str, modules: dict, seed: int, workdir: Path) -> list[Job]:
    if workload == "verify-repair":
        return _verify_jobs(modules, REPAIR_TEMPLATES, workload, seed)
    if workload == "verify-reduce":
        return _verify_jobs(modules, REDUCE_TEMPLATES, workload, seed)
    return _cli_jobs(modules, seed, workdir)


def warm_up_jobs(jobs: list[Job]) -> list[Job]:
    """One job of each label: enough to load every code path once.  A
    verify job is warmed up with spec seed 0, so the cost of set-up does not
    depend on the benchmark's seed."""
    seen, picked = set(), []
    for job in jobs:
        if job.label not in seen:
            seen.add(job.label)
            if job.kind == "verify":
                job = dataclasses.replace(job, spec=dataclasses.replace(job.spec, seed=0))
            picked.append(job)
    return picked


# -- running ------------------------------------------------------------------

def run_job(job: Job, modules: dict):
    """Execute one job; the value returned is what the checks inspect.

    Entry points are looked up on the module at call time, so hooks
    installed by the tracer take effect.
    """
    if job.kind == "verify":
        return modules["ecgraph"].verify(job.spec)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = modules["ecgraph.cli"].main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- checking -----------------------------------------------------------------

class CheckError(Exception):
    """A job's output is wrong."""


def digest_output(job: Job, output, modules: dict, report_path: Path) -> str:
    """sha256 of the canonical bytes of a job's output.

    verify: the bytes ``emit_report`` writes.  cli: exit code, stdout and
    every file the command wrote.
    """
    h = hashlib.sha256()
    if job.kind == "verify":
        modules["ecgraph"].emit_report(output, report_path)
        h.update(report_path.read_bytes())
        return h.hexdigest()
    code, stdout, _ = output
    h.update(f"exit {code}\n".encode())
    h.update(stdout.encode())
    for path in job.writes:
        h.update(b"\0" + Path(path).read_bytes())
    return h.hexdigest()


def check_output(job: Job, output, modules: dict) -> None:
    """Seed-independent checks; raise CheckError on a wrong output."""
    if job.kind == "verify":
        _check_report(job, output, modules)
        return
    code, stdout, stderr = output
    if code != 0:
        raise CheckError(f"{job.label}: exit code {code}: {stderr.strip()[-200:]}")
    if job.label == "analyze":
        n, m = job.source.split("\n", 1)[0].split()[1:]
        if f"n: {n}\n" not in stdout or f"m: {m}\n" not in stdout:
            raise CheckError("analyze: n or m missing from the summary")
    elif job.label == "reduce":
        _check_reduced(job.source, Path(job.writes[0]).read_text(encoding="utf-8"))
    elif job.label == "partition":
        diag = json.loads(Path(job.writes[0]).read_text(encoding="utf-8"))["diagnostics"]
        if not (diag["size_identity_ok"] and diag["structure_ok"] and diag["chain_ok"]):
            raise CheckError("partition: identities fail")


def _check_report(job: Job, report, modules: dict) -> None:
    """Admission count, then reload and recheck every failure witness."""
    spec = job.spec
    if report.samples_admitted != spec.budget:
        raise CheckError(f"{job.label}: admitted {report.samples_admitted} "
                         f"of budget {spec.budget}")
    claim = modules["ecgraph.harness"].CLAIMS[spec.id]
    for failure in report.conclusion_failures:
        graph = modules["ecgraph"].load_ecg(failure.ecg)
        if not claim.hypothesis(graph, job.k):
            raise CheckError(f"{job.label}: failure witness breaks the hypothesis")
        if claim.conclusion(graph, job.k)[0]:
            raise CheckError(f"{job.label}: failure witness satisfies the conclusion")


def _parse_ecg(text: str) -> tuple[int, dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    n = int(lines[0].split()[1])
    edges = {}
    for line in lines[1:]:
        u, v, c = map(int, line.split())
        edges[(u, v)] = c
    return n, edges


def _color_counts(n: int, edges: dict) -> list[dict]:
    counts = [dict() for _ in range(n)]
    for (u, v), c in edges.items():
        counts[u][c] = counts[u].get(c, 0) + 1
        counts[v][c] = counts[v].get(c, 0) + 1
    return counts


def _check_reduced(source: str, reduced: str) -> None:
    """Independent check of a reduction: a colored subgraph with every
    color degree kept, in which every edge is alone in its color at one of
    its ends (edge-minimal)."""
    n, before = _parse_ecg(source)
    n2, after = _parse_ecg(reduced)
    if n2 != n or any(before.get(e) != c for e, c in after.items()):
        raise CheckError("reduce: output is not a colored subgraph of the input")
    counts_before, counts_after = _color_counts(n, before), _color_counts(n, after)
    if any(len(a) != len(b) for a, b in zip(counts_before, counts_after)):
        raise CheckError("reduce: a color degree changed")
    for (u, v), c in after.items():
        if counts_after[u][c] >= 2 and counts_after[v][c] >= 2:
            raise CheckError(f"reduce: edge ({u}, {v}) is still removable")
