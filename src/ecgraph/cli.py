"""Command-line interface.

Subcommands: gen, analyze, reduce, partition, verify, hly-search.
Exit codes: 0 all conclusions held, 1 failures found, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .core import load_ecg, max_mono_degree, min_color_degree, save_ecg
from .generators import KINDS, GeneratorSpec, generate
from .bounds import counting_lower_bound
from .harness import (
    CLAIMS,
    AdmissionError,
    TheoremSpec,
    emit_report,
    search_hly_counterexample,
    verify,
    write_json,
)
from .matching import gallai_partition, max_matching, verify_partition_lemmas
from .rainbow import build_index, max_book, max_fan
from .reduction import edge_minimal_reduce, is_edge_minimal


def _int_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) == 1:
        v = int(parts[0])
        return (v, v)
    if len(parts) == 2:
        return (int(parts[0]), int(parts[1]))
    raise argparse.ArgumentTypeError(f"bad range {text!r}, expected A or A:B")


def _float_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) == 1:
        v = float(parts[0])
        return (v, v)
    if len(parts) == 2:
        return (float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"bad range {text!r}, expected A or A:B")


def _read_graph(path: str):
    if path == "-":
        return load_ecg(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return load_ecg(fh.read())


def _check_writable(path: str | None) -> None:
    """Raise, before any work, the OSError that opening ``path`` for writing
    would raise when it is a directory, or when its parent is missing, is
    not a directory or is unwritable; creates no file."""
    if path is None or path == "-":
        return
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    parent = os.path.dirname(path) or "."
    try:
        os.stat(parent)  # a missing parent, or a regular file above it
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        code = errno.EACCES if os.path.isdir(parent) else errno.ENOTDIR
        raise OSError(code, os.strerror(code), path)


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgraph",
        description="Edge-colored graph toolkit and verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance in ECG format")
    g.add_argument("--kind", required=True, choices=KINDS)
    g.add_argument("--k", type=int, help="parameter for example1")
    g.add_argument("--n", type=int, help="vertex count")
    g.add_argument("--p", type=float, default=0.5, help="edge probability")
    g.add_argument("--colors", type=int, default=3, help="palette size")
    g.add_argument("--parts", type=str, help="comma-separated part sizes")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=str, default=None)

    a = sub.add_parser("analyze", help="summarize an ECG file")
    a.add_argument("file", help="ECG path or - for stdin")
    a.add_argument("--json", dest="json_path", type=str, default=None)

    r = sub.add_parser("reduce", help="edge-minimal reduction of an ECG file")
    r.add_argument("file", help="ECG path or - for stdin")
    r.add_argument("--out", type=str, default=None)

    pt = sub.add_parser("partition",
                        help="matching/cover partition of an ECG file")
    pt.add_argument("file", help="ECG path or - for stdin")
    pt.add_argument("--json", dest="json_path", type=str, default=None)

    v = sub.add_parser("verify", help="sample-and-check one claim")
    v.add_argument("--theorem", required=True, choices=sorted(CLAIMS),
                   help="claim id")
    v.add_argument("--k", type=int, default=None)
    v.add_argument("--n", type=_int_range, default=(4, 12),
                   help="vertex range A or A:B")
    v.add_argument("--colors", type=_int_range, default=(2, 16),
                   help="palette range A or A:B")
    v.add_argument("--p", type=_float_range, default=(0.2, 0.9),
                   help="edge probability A or A:B")
    v.add_argument("--budget", type=int, default=1000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", dest="json_path", type=str, default=None)

    h = sub.add_parser("hly-search",
                       help="search for disjoint-triangle counterexamples")
    h.add_argument("--k", type=int, required=True)
    h.add_argument("--n", type=_int_range, required=True)
    h.add_argument("--colors", type=_int_range, default=(2, 16))
    h.add_argument("--p", type=_float_range, default=(0.2, 0.9))
    h.add_argument("--budget", type=int, default=1000)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--json", dest="json_path", type=str, default=None)
    return parser


def _cmd_gen(args) -> int:
    params: dict = {}
    if args.kind == "example1":
        if args.k is None:
            raise ValueError("gen --kind example1 needs --k")
        params["k"] = args.k
    elif args.kind == "random_colored":
        if args.n is None:
            raise ValueError("gen --kind random_colored needs --n")
        params.update(n=args.n, p=args.p, c=args.colors)
    elif args.kind == "proper_complete":
        if args.n is None:
            raise ValueError("gen --kind proper_complete needs --n")
        params["n"] = args.n
    else:
        if not args.parts:
            raise ValueError("gen --kind complete_multipartite needs --parts")
        params["parts"] = [int(s) for s in args.parts.split(",")]
    graph = generate(GeneratorSpec(kind=args.kind, parameters=params,
                                   seed=args.seed))
    _write_text(save_ecg(graph), args.out)
    return 0


def _cmd_analyze(args) -> int:
    g = _read_graph(args.file)
    minimal, witness = is_edge_minimal(g)
    bound = counting_lower_bound(g)
    doc = {
        "n": g.n,
        "m": g.edge_count,
        "colors": len(g.colors()),
        "min_color_degree": min_color_degree(g),
        "max_mono_degree": max_mono_degree(g),
        "edge_minimal": minimal,
        "removable_edge": list(witness) if witness else None,
        "rainbow_triangles": build_index(g).count(),
        "max_book": max_book(g),
        "max_fan": max_fan(g),
        "counting_lower_bound": [bound.numerator, bound.denominator],
    }
    for key, value in doc.items():
        print(f"{key}: {value}")
    if args.json_path:
        write_json({"schema": 1, **doc}, args.json_path)
    return 0


def _cmd_reduce(args) -> int:
    g = _read_graph(args.file)
    _write_text(save_ecg(edge_minimal_reduce(g)), args.out)
    return 0


def _cmd_partition(args) -> int:
    g = _read_graph(args.file)
    part = gallai_partition(g.n, g.edges, max_matching(g.n, g.edges))
    diag = verify_partition_lemmas(g.n, g.edges, part)
    doc = {"schema": 1, "partition": part.to_json(),
           "diagnostics": diag.to_json()}
    print(f"alpha_prime: {diag.alpha_prime}")
    print(f"beta: {diag.beta}")
    print(f"v0: {sorted(part.v0)}")
    print(f"components: {[list(c) for c in part.components]}")
    print(f"size_identity_ok: {diag.size_identity_ok}  structure_ok: {diag.structure_ok}  "
          f"chain_ok: {diag.chain_ok}")
    if args.json_path:
        write_json(doc, args.json_path)
    return 0 if diag.size_identity_ok and diag.structure_ok and diag.chain_ok else 1


def _cmd_verify(args) -> int:
    spec = TheoremSpec(id=args.theorem, k=args.k, n_range=args.n,
                       c_range=args.colors, p_range=args.p,
                       budget=args.budget, seed=args.seed)
    report = verify(spec)
    print(f"claim: {args.theorem}")
    print(f"attempted: {report.samples_attempted}")
    print(f"admitted: {report.samples_admitted}")
    print(f"failures: {len(report.conclusion_failures)}")
    print(f"runtime_seconds: {report.runtime_seconds:.3f}")
    if args.json_path:
        emit_report(report, args.json_path)
    return 0 if report.ok else 1


def _cmd_hly_search(args) -> int:
    report = search_hly_counterexample(
        k=args.k, n_range=args.n, c_range=args.colors, budget=args.budget,
        seed=args.seed, p_range=args.p)
    print(f"attempted: {report.samples_attempted}")
    print(f"admitted: {report.samples_admitted}")
    print(f"counterexamples: {len(report.conclusion_failures)}")
    for failure in report.conclusion_failures:
        print(f"counterexample at sample {failure.index}: {failure.gap}")
    if args.json_path:
        emit_report(report, args.json_path)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "analyze": _cmd_analyze,
        "reduce": _cmd_reduce,
        "partition": _cmd_partition,
        "verify": _cmd_verify,
        "hly-search": _cmd_hly_search,
    }
    try:
        _check_writable(getattr(args, "out", None) or getattr(args, "json_path", None))
        return handlers[args.command](args)
    except (ValueError, AdmissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a file that cannot be read or written is an input error, not a failure
        print(f"error: cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
