"""Command-line interface.

Subcommands: gen, analyze, reduce, partition, verify, hly-search.
Exit codes: 0 all conclusions held, 1 failures found, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import suppress

from .core import _jsonable, load_ecg, max_mono_degree, min_color_degree, save_ecg
from .generators import KINDS, GeneratorSpec, generate
from .bounds import _rainbow_count, counting_lower_bound
from .harness import (CLAIMS, AdmissionError, TheoremSpec, WriteError, emit_report,
                      search_hly_counterexample, verify, write_json, write_text)
from .matching import gallai_partition, verify_partition_lemmas
from .rainbow import max_book, max_fan
from .reduction import edge_minimal_reduce, is_edge_minimal


def _range(cast):
    """An argparse type reading "A" or "A:B" as the pair (A, A) or (A, B)
    of ``cast`` values."""
    def parse(text: str) -> tuple:
        parts = text.split(":")
        if len(parts) > 2:
            raise argparse.ArgumentTypeError(f"bad range {text!r}, expected A or A:B")
        return (cast(parts[0]), cast(parts[-1]))
    parse.__name__ = f"_{cast.__name__}_range"  # argparse names it in errors
    return parse


def _read_graph(path: str):
    if path == "-":
        try:
            return load_ecg(sys.stdin.read())
        except OSError as exc:  # named: main reads an unnamed one as stdout's
            raise OSError(exc.errno, exc.strerror, "stdin") from None
    # newline="": a file reaches load_ecg with the line ends stdin gives it
    with open(path, encoding="utf-8", newline="") as fh:
        return load_ecg(fh.read())


def _check_writable(path: str | None) -> None:
    """Raise, before any work, the OSError that opening ``path`` for writing
    would raise when it is empty, a directory or an unwritable file, or,
    when it does not exist, when its parent is missing, is not a directory
    or is unwritable; creates no file.  "-" is a file here: only
    ``--out -`` means stdout, and :func:`main` maps it to None."""
    if path is None:
        return
    if not path:
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.exists(path):  # opened in place: its directory does not matter
        if not os.access(path, os.W_OK):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)
        return
    parent = os.path.dirname(path) or "."
    try:
        os.stat(parent)  # a missing parent, or a regular file above it
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        code = errno.EACCES if os.path.isdir(parent) else errno.ENOTDIR
        raise OSError(code, os.strerror(code), path)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(text, out)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser; given ``command``, it holds that subcommand alone.
    argparse hands everything after a subcommand's name to its subparser,
    and adding the other five would cost more than the parse itself.  They
    would show only in the usage line of an unrecognized-arguments error,
    for which :func:`main` builds the whole parser."""
    parser = argparse.ArgumentParser(
        prog="ecgraph",
        description="Edge-colored graph toolkit and verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str) -> argparse.ArgumentParser | None:
        """The subparser ``name``, or None when ``command`` is another."""
        if command in (None, name):
            return sub.add_parser(name, help=text)
        return None

    if g := add("gen", "generate an instance in ECG format"):
        g.add_argument("--kind", required=True, choices=KINDS)
        g.add_argument("--k", type=int, help="parameter for example1")
        g.add_argument("--n", type=int, help="vertex count")
        g.add_argument("--p", type=float, default=0.5, help="edge probability")
        g.add_argument("--colors", type=int, default=3, help="palette size")
        g.add_argument("--parts", type=str, help="comma-separated part sizes")
        g.add_argument("--seed", type=int, default=0)
        g.add_argument("--out", type=str, default=None)

    if a := add("analyze", "summarize an ECG file"):
        a.add_argument("file", help="ECG path or - for stdin")
        a.add_argument("--json", dest="json_path", type=str, default=None)

    if r := add("reduce", "edge-minimal reduction of an ECG file"):
        r.add_argument("file", help="ECG path or - for stdin")
        r.add_argument("--out", type=str, default=None)

    if pt := add("partition", "matching/cover partition of an ECG file"):
        pt.add_argument("file", help="ECG path or - for stdin")
        pt.add_argument("--json", dest="json_path", type=str, default=None)

    if v := add("verify", "sample-and-check one claim"):
        v.add_argument("--theorem", required=True, choices=sorted(CLAIMS),
                       help="claim id")
        v.add_argument("--k", type=int, default=None)
        v.add_argument("--n", type=_range(int), default=TheoremSpec.n_range,
                       help="vertex range A or A:B")
        v.add_argument("--colors", type=_range(int), default=TheoremSpec.c_range,
                       help="palette range A or A:B")
        v.add_argument("--p", type=_range(float), default=TheoremSpec.p_range,
                       help="edge probability A or A:B")
        v.add_argument("--budget", type=int, default=TheoremSpec.budget)
        v.add_argument("--seed", type=int, default=TheoremSpec.seed)
        v.add_argument("--json", dest="json_path", type=str, default=None)

    if h := add("hly-search", "search for disjoint-triangle counterexamples"):
        h.add_argument("--k", type=int, required=True)
        h.add_argument("--n", type=_range(int), required=True)
        h.add_argument("--colors", type=_range(int), default=TheoremSpec.c_range)
        h.add_argument("--p", type=_range(float), default=TheoremSpec.p_range)
        h.add_argument("--budget", type=int, default=TheoremSpec.budget)
        h.add_argument("--seed", type=int, default=TheoremSpec.seed)
        h.add_argument("--json", dest="json_path", type=str, default=None)
    return parser


def _parts(value: str) -> list[int]:
    try:
        return [int(s) for s in value.split(",")]
    except ValueError:
        raise ValueError(f"gen --parts needs comma-separated integers, "
                         f"got {value!r}") from None


def _cmd_gen(args) -> int:
    params: dict = {}
    for name in KINDS[args.kind][1]:
        flag = "colors" if name == "c" else name
        value = getattr(args, flag)
        if value is None or value == "":
            raise ValueError(f"gen --kind {args.kind} needs --{flag}")
        params[name] = _parts(value) if name == "parts" else value
    graph = generate(GeneratorSpec(kind=args.kind, parameters=params, seed=args.seed))
    _write_text(save_ecg(graph), args.out)
    return 0


def _cmd_analyze(args) -> int:
    g = _read_graph(args.file)
    minimal, witness = is_edge_minimal(g)
    doc = {
        "n": g.n,
        "m": g.edge_count,
        "colors": len(g.colors()),
        "min_color_degree": min_color_degree(g),
        "max_mono_degree": max_mono_degree(g),
        "edge_minimal": minimal,
        "removable_edge": _jsonable(witness),
        "rainbow_triangles": _rainbow_count(g),
        "max_book": max_book(g),
        "max_fan": max_fan(g),
        "counting_lower_bound": _jsonable(counting_lower_bound(g)),
    }
    for key, value in doc.items():
        print(f"{key}: {value}")
    if args.json_path is not None:
        write_json({"schema": 1, **doc}, args.json_path)
    return 0


def _cmd_reduce(args) -> int:
    g = _read_graph(args.file)
    _write_text(save_ecg(edge_minimal_reduce(g)), args.out)
    return 0


def _cmd_partition(args) -> int:
    g = _read_graph(args.file)
    part = gallai_partition(g.n, g.edges)
    diag = verify_partition_lemmas(part)
    doc = {"schema": 1, "partition": part.to_json(),
           "diagnostics": diag.to_json()}
    print(f"alpha_prime: {diag.alpha_prime}")
    print(f"beta: {diag.beta}")
    print(f"v0: {doc['partition']['v0']}")
    print(f"components: {doc['partition']['components']}")
    print(f"size_identity_ok: {diag.size_identity_ok}  structure_ok: {diag.structure_ok}  "
          f"chain_ok: {diag.chain_ok}")
    if args.json_path is not None:
        write_json(doc, args.json_path)
    gap = diag.gap()  # the eg_partition claim's rule
    if gap:
        print(gap, file=sys.stderr)
    return 1 if gap else 0


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
    if args.json_path is not None:
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
    if args.json_path is not None:
        emit_report(report, args.json_path)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    handlers = {
        "gen": _cmd_gen,
        "analyze": _cmd_analyze,
        "reduce": _cmd_reduce,
        "partition": _cmd_partition,
        "verify": _cmd_verify,
        "hly-search": _cmd_hly_search,
    }
    # argv that starts with a subcommand is parsed by that subparser alone
    command = argv[0] if argv and argv[0] in handlers else None
    args, extra = _build_parser(command).parse_known_args(argv)
    if extra:  # the usage line of this error names every subcommand
        _build_parser().parse_args(argv)
    if getattr(args, "out", None) == "-":
        args.out = None  # "-" means stdout, for --out only
    try:
        _check_writable(getattr(args, "out", getattr(args, "json_path", None)))
        code = handlers[args.command](args)
        sys.stdout.flush()  # a buffered write to stdout fails here, not at exit
        return code
    except (ValueError, AdmissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a file that cannot be read or written is an input error, not a failure
        if exc.filename is None:  # only a failed write to stdout names no file
            with suppress(OSError):  # closed, exit does not retry what is left buffered
                sys.stdout.close()
            exc = WriteError(exc.errno, exc.strerror, "stdout")
        verb = "write" if isinstance(exc, WriteError) else "open"
        print(f"error: cannot {verb} {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
