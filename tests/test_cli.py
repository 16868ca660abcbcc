from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import sys

import pytest

from ecgraph.cli import main
from ecgraph.core import _color_degrees, load_ecg, min_color_degree

P5_ECG = "ecg 5 4\n0 1 1\n1 2 2\n2 3 3\n3 4 4\n"
MONO_K3_ECG = "ecg 3 3\n0 1 1\n0 2 1\n1 2 1\n"


def test_gen_example1(capsys):
    assert main(["gen", "--kind", "example1", "--k", "3"]) == 0
    g = load_ecg(capsys.readouterr().out)
    assert g.n == 6 and min_color_degree(g) == 4


def test_gen_random_is_deterministic(capsys):
    argv = ["gen", "--kind", "random_colored", "--n", "10", "--p", "0.7",
            "--colors", "6", "--seed", "42"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_gen_multipartite(capsys):
    assert main(["gen", "--kind", "complete_multipartite",
                 "--parts", "2,2"]) == 0
    g = load_ecg(capsys.readouterr().out)
    assert g.n == 4 and g.edge_count == 4


def test_gen_missing_argument_is_usage_error(capsys):
    assert main(["gen", "--kind", "example1"]) == 2
    assert "error" in capsys.readouterr().err


# sha256 of the ECG text on stdout, recorded before the kinds became one table
GEN_DIGESTS = {
    "--kind example1 --k 4":
        "f68f184e6a9b61ea060e57746aea7f08bdb6f9f281b87ea79fa1c2506f35a764",
    "--kind random_colored --n 12 --p 0.6 --colors 8 --seed 7":
        "921d96c6f378f3964d278b254a5662a8eeaf5057ad33aaf7c3baa00348c26e8e",
    "--kind random_colored --n 10 --seed 3":
        "4c42d6073edb34d32b1281cbeffddeac97ec8ac16ae34fa7fcaf55fe0e5481a9",
    "--kind proper_complete --n 9 --seed 1":
        "622ffeb6a5ca65fde1d27dd4d3997191d588e7fa4ba59e2930031b219a130c26",
    "--kind proper_complete --n 10 --seed 5":
        "dc45a839c1b0434c7a62e89f0f43327cc70fa745d41c0e3d18b2fda8a387534a",
    "--kind complete_multipartite --parts 2,3,4":
        "dfdf838955a3c57f2581fd7fc536bd52043ceceaeeed6c997bd07934717de7bb",
}


@pytest.mark.parametrize("args", GEN_DIGESTS)
def test_gen_output_is_golden(args, capsys):
    assert main(["gen", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_DIGESTS[args]


@pytest.mark.parametrize("kind, flag", [
    ("example1", "--k"), ("random_colored", "--n"), ("proper_complete", "--n"),
    ("complete_multipartite", "--parts"),
])
def test_gen_names_its_missing_flag(kind, flag, capsys):
    assert main(["gen", "--kind", kind]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: gen --kind {kind} needs {flag}\n"
    assert captured.out == ""


@pytest.mark.parametrize("parts", ["2,x", "2,,3"])
def test_gen_malformed_parts_is_usage_error(parts, capsys):
    assert main(["gen", "--kind", "complete_multipartite", "--parts", parts]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: gen --parts needs comma-separated integers, "
                            f"got {parts!r}\n")
    assert captured.out == ""


def test_gen_to_file(tmp_path):
    out = tmp_path / "g.ecg"
    assert main(["gen", "--kind", "proper_complete", "--n", "5",
                 "--out", str(out)]) == 0
    assert min_color_degree(load_ecg(out.read_text())) == 4


def test_analyze(tmp_path, capsys):
    src = tmp_path / "p5.ecg"
    src.write_text(P5_ECG)
    json_path = tmp_path / "report.json"
    assert main(["analyze", str(src), "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "min_color_degree: 1" in out
    assert "rainbow_triangles: 0" in out
    doc = json.loads(json_path.read_text())
    assert doc["schema"] == 1 and doc["n"] == 5 and doc["m"] == 4


def test_reduce(tmp_path, capsys):
    src = tmp_path / "k3.ecg"
    src.write_text(MONO_K3_ECG)
    assert main(["reduce", str(src)]) == 0
    reduced = load_ecg(capsys.readouterr().out)
    assert reduced.edge_count == 2
    original = load_ecg(MONO_K3_ECG)
    assert reduced.derived(_color_degrees) == original.derived(_color_degrees)


def test_partition(tmp_path, capsys):
    src = tmp_path / "p5.ecg"
    src.write_text(P5_ECG)
    json_path = tmp_path / "part.json"
    assert main(["partition", str(src), "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "alpha_prime: 2" in out
    doc = json.loads(json_path.read_text())
    assert doc["partition"]["v0"] == [1, 3]
    assert doc["diagnostics"]["size_identity_ok"] is True


def test_verify_writes_deterministic_report(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--theorem", "li_triangle", "--n", "6:9",
            "--budget", "30", "--seed", "7"]
    assert main(argv + ["--json", str(a)]) == 0
    assert main(argv + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "failures: 0" in capsys.readouterr().out


def test_verify_unsatisfiable_is_usage_error(capsys):
    rc = main(["verify", "--theorem", "book_bk", "--k", "4", "--n", "3:5",
               "--budget", "5"])
    assert rc == 2
    assert "unsatisfiable" in capsys.readouterr().err


def test_verify_unknown_theorem_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--theorem", "bogus"])
    assert err.value.code == 2


def test_bad_range_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--theorem", "li_triangle", "--n", "1:2:3"])
    assert err.value.code == 2


RANGE_COMMANDS = [["verify", "--theorem", "li_triangle"], ["hly-search", "--k", "1"]]


@pytest.mark.parametrize("command", RANGE_COMMANDS, ids=lambda argv: argv[0])
def test_ranges_reach_the_spec_echo(command, tmp_path):
    out = tmp_path / "report.json"
    argv = command + ["--n", "5", "--p", "0.3:0.4", "--budget", "2", "--seed", "1"]
    assert main(argv + ["--json", str(out)]) == 0
    spec = json.loads(out.read_text())["spec"]
    assert spec["n_range"] == [5, 5] and spec["p_range"] == [0.3, 0.4]


@pytest.mark.parametrize("command", RANGE_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("bad", ["1:2:3", "x"])
def test_malformed_range_exits_2(command, bad, capsys):
    with pytest.raises(SystemExit) as err:
        main(command + ["--n", bad])
    assert err.value.code == 2
    assert "argument --n:" in capsys.readouterr().err


def test_k_for_a_claim_without_k_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["verify", "--theorem", "li_triangle", "--k", "3", "--budget", "5",
                 "--json", str(out)]) == 2
    assert capsys.readouterr().err == "error: claim 'li_triangle' takes no k, got k=3\n"
    assert not out.exists()


def test_hly_search_k_below_one_is_usage_error(capsys):
    assert main(["hly-search", "--k", "0", "--n", "3:5", "--budget", "1"]) == 2
    assert capsys.readouterr().err == "error: claim 'hly_conjecture' needs k >= 1\n"


def test_hly_search(tmp_path, capsys):
    json_path = tmp_path / "hly.json"
    rc = main(["hly-search", "--k", "1", "--n", "4:7", "--budget", "25",
               "--seed", "3", "--json", str(json_path)])
    assert rc == 0
    assert "counterexamples: 0" in capsys.readouterr().out
    doc = json.loads(json_path.read_text())
    assert doc["spec"]["id"] == "hly_conjecture"


def test_analyze_missing_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.ecg"
    assert main(["analyze", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err


# the first step of each command's work, which must not run before its
# output path is checked
FIRST_WORK = {"gen": "generate", "analyze": "_read_graph", "reduce": "_read_graph",
              "partition": "_read_graph", "verify": "verify",
              "hly-search": "search_hly_counterexample"}


# each command, ending in its output flag
OUTPUT_ARGV = [
    ["gen", "--kind", "example1", "--k", "3", "--out"],
    ["analyze", "{src}", "--json"],
    ["reduce", "{src}", "--out"],
    ["partition", "{src}", "--json"],
    ["verify", "--theorem", "li_triangle", "--budget", "5", "--seed", "1", "--json"],
    ["hly-search", "--k", "1", "--n", "4:7", "--budget", "5", "--seed", "3", "--json"],
]


@pytest.mark.parametrize("argv", OUTPUT_ARGV, ids=lambda argv: argv[0])
def test_unwritable_output_is_usage_error(argv, monkeypatch, tmp_path, capsys):
    import ecgraph.cli

    work = FIRST_WORK[argv[0]]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    monkeypatch.setattr(ecgraph.cli, work, no_work)
    src = tmp_path / "p5.ecg"
    src.write_text(P5_ECG)
    argv = [arg.format(src=src) for arg in argv]
    out = tmp_path / "missing-dir" / "out"
    assert main(argv + [str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot open {out}: No such file or directory\n"
    assert not out.parent.exists()
    # an existing directory is refused the same way, before any work
    assert main(argv + [str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot open {tmp_path}: Is a directory\n"
    # so is a path below a regular file, with the reason open would give
    for out in (src / "x", src / "sub" / "x"):
        assert main(argv + [str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot open {out}: Not a directory\n"
    # an empty path is refused too, as open("") would refuse it
    assert main(argv + [""]) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot open : No such file or directory\n"
    # and an existing file that may not be written is kept as it was
    out = tmp_path / "ro.out"
    out.write_text("old\n")
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs:
                        path != str(out) and access(path, mode, **kwargs))
    assert main(argv + [str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot open {out}: Permission denied\n"
    assert out.read_text() == "old\n"
    # while a writable file in a directory that may not be written is
    # opened in place, so the check lets the work start
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs:
                        path != str(tmp_path) and access(path, mode, **kwargs))
    with pytest.raises(AssertionError, match="ran before"):
        main(argv + [str(out)])


def test_usage_error_creates_and_truncates_no_output(tmp_path):
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    fresh = tmp_path / "fresh.json"
    for out in (kept, fresh):
        assert main(["verify", "--theorem", "li_triangle", "--budget", "0",
                     "--json", str(out)]) == 2
    assert kept.read_text() == "old\n" and not fresh.exists()


def test_verify_admission_too_low_is_usage_error(capsys):
    # with p = 1 every sample on 4 vertices has a perfect matching, so the
    # eg_partition hypothesis (an exposed vertex) is never met
    rc = main(["verify", "--theorem", "eg_partition", "--n", "4", "--p", "1",
               "--budget", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "admission rate too low" in err


def test_internal_runtime_error_is_not_a_usage_error(monkeypatch):
    import ecgraph.cli

    def disagree(**kwargs):
        raise RuntimeError("searcher disagreement")

    monkeypatch.setattr(ecgraph.cli, "search_hly_counterexample", disagree)
    with pytest.raises(RuntimeError, match="searcher disagreement"):
        main(["hly-search", "--k", "1", "--n", "4:5", "--budget", "1"])


@pytest.mark.parametrize("argv, search", [
    (["hly-search", "--k", "2", "--n", "6:8", "--budget", "1"],
     "find_disjoint_rainbow_triangles"),
])
def test_search_node_limit_is_usage_error(monkeypatch, capsys, argv, search):
    import ecgraph.matching

    monkeypatch.setattr(ecgraph.matching, "SEARCH_NODE_LIMIT", 2)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{search} exceeded its limit of 2" in err


def test_cover_search_node_limit_is_usage_error(monkeypatch, tmp_path, capsys):
    import ecgraph.matching

    # C5: tau = 3 > nu = 2, so the cover search runs (7 nodes)
    src = tmp_path / "c5.ecg"
    src.write_text("ecg 5 5\n0 1 1\n0 4 5\n1 2 2\n2 3 3\n3 4 4\n")
    monkeypatch.setattr(ecgraph.matching, "SEARCH_NODE_LIMIT", 7)
    assert main(["partition", str(src)]) == 0
    assert "beta: 3" in capsys.readouterr().out
    monkeypatch.setattr(ecgraph.matching, "SEARCH_NODE_LIMIT", 6)
    assert main(["partition", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "min_vertex_cover exceeded its limit of 6" in err


def test_partition_above_cover_size_limit_is_usage_error(tmp_path, capsys):
    src = tmp_path / "k30_35.ecg"
    assert main(["gen", "--kind", "complete_multipartite", "--parts", "30,35",
                 "--out", str(src)]) == 0
    assert main(["partition", str(src)]) == 2
    assert "instance too large for exact cover search (n=65)" in capsys.readouterr().err


def test_verify_probability_range_outside_unit_interval_is_usage_error(capsys):
    rc = main(["verify", "--theorem", "li_triangle", "--p", "1.5:2",
               "--budget", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad p range" in err


def test_verify_empty_palette_is_usage_error(capsys):
    rc = main(["verify", "--theorem", "li_triangle", "--colors", "0:0",
               "--budget", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad colors range" in err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_verify_budget_below_one_is_usage_error(budget, capsys):
    rc = main(["verify", "--theorem", "li_triangle", "--budget", budget])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget must be >= 1" in err


def test_json_dash_is_a_file_checked_before_work(monkeypatch, tmp_path, capsys):
    import ecgraph.cli

    def no_work(*args, **kwargs):
        raise AssertionError("_read_graph ran before the output path was checked")

    src = tmp_path / "p5.ecg"
    src.write_text(P5_ECG)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ecgraph.cli, "_read_graph", no_work)
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    assert main(["analyze", str(src), "--json", "-"]) == 2
    assert capsys.readouterr().err == "error: cannot open -: Permission denied\n"
    assert not (tmp_path / "-").exists()


def test_dash_is_stdout_for_out_only(monkeypatch, tmp_path, capsys):
    src = tmp_path / "p5.ecg"
    src.write_text(P5_ECG)
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", str(src), "--json", "-"]) == 0
    assert json.loads((tmp_path / "-").read_text())["m"] == 4
    (tmp_path / "-").unlink()
    capsys.readouterr()
    assert main(["reduce", str(src), "--out", "-"]) == 0
    assert capsys.readouterr().out == P5_ECG
    assert not (tmp_path / "-").exists()


def test_claim_registered_after_import_is_a_theorem(capsys):
    from ecgraph.harness import CLAIMS, Claim, register_claim

    register_claim(Claim(id="_test_late", description="test only"))
    try:
        assert main(["verify", "--theorem", "_test_late", "--n", "4:6",
                     "--budget", "3"]) == 0
        assert "claim: _test_late\n" in capsys.readouterr().out
    finally:
        del CLAIMS["_test_late"]


@pytest.mark.parametrize("data, line", [
    (b"ecg 3 2\r\n0 1 1\r\n0 2 2\r\n", None),  # CRLF loads
    (b"ecg 3 1\r0 1 1\r", 1),  # a lone CR ends no line: one bad header
], ids=["crlf", "lone-cr"])
def test_file_and_stdin_read_the_same_line_ends(data, line, monkeypatch,
                                                tmp_path, capsys):
    path = tmp_path / "g.ecg"
    path.write_bytes(data)
    results = [main(["analyze", str(path)])]
    results.append(capsys.readouterr())
    # stdin as CPython opens it on POSIX, splitting lines at LF only
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", newline="\n"))
    results += [main(["analyze", "-"]), capsys.readouterr()]
    assert results[0] == results[2] == (0 if line is None else 2)
    assert results[1] == results[3]
    if line is None:
        assert "m: 2\n" in results[1].out
    else:
        assert f"line {line}" in results[1].err


# sha256 of what the parser printed when it held every subcommand's
# arguments, at COLUMNS=80; argparse lays help out differently across
# Python versions, and these were recorded with CPython 3.11
HELP_DIGESTS = {
    (): "84a7b72989064f40dc2f41bead6db8ab223d1c1f5121607efe30ee29a475912b",
    ("gen",): "dd88d4482f6fdb46e4931f547a8255bfdf429999e08cba45d5dde752ba415161",
    ("analyze",): "e6ea51c7ca1e4a5ab6b46d9cbbea840a65906233c72d1a35d5bac760c538cea6",
    ("reduce",): "479413c16b019aa94de2744d45e6395fa0a36c8eb4c0143fe63668d3a589054e",
    ("partition",): "b677ce9359c043a2eadb9854a6ab2620b2469086ba1d15f47ec90db783ab9980",
    ("verify",): "87add83ee21b8f73c617071f10f3ed15acbb4db8542c566b5ed8786b61308114",
    ("hly-search",): "85ac96b1c7b9570921172f9b6c8cd89ed45c6ae51880c0caf35c9f952d9c5e4b",
}
# the same for stderr of usage errors; the first three print the top-level
# usage line, which names all six subcommands
USAGE_ERROR_DIGESTS = {
    ("analyze", "a.ecg", "extra"):
        "93ff323628bc52bf06b7a67ccda7e6170d0e94e3644ec7a86f0eef8d43c31f7c",
    ("bogus",): "1b7a5243b7e170b38bcd6c427d4f23be9981a0bc07b28ca1ec004cdc69611d4b",
    (): "414d56352a2a73b9e6e1c03c7ae0897ad72ea9bbc009e62fd41d63d5b609c862",
    ("verify",): "ed67dacadaac93471f13388ea043799346e50fd6ffc59ef5e7fbc4629a7db9fb",
    ("verify", "--theorem", "nope"):
        "305068243c090960e55419fc3b8ed438843067bc54b73cfbe6f4f7834e41f8ab",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help digests recorded with CPython 3.11's argparse")
def test_help_and_usage_errors_are_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_DIGESTS.items():
        with pytest.raises(SystemExit) as err:
            main([*command, "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
    for argv, digest in USAGE_ERROR_DIGESTS.items():
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        err = capsys.readouterr().err
        assert hashlib.sha256(err.encode()).hexdigest() == digest, argv


NO_SPACE = os.strerror(errno.ENOSPC)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", OUTPUT_ARGV, ids=lambda argv: argv[0])
def test_failed_write_names_the_output(argv, monkeypatch, tmp_path, capsys):
    src = tmp_path / "p5.ecg"
    src.write_text(P5_ECG)
    argv = [arg.format(src=src) for arg in argv]
    assert main(argv + ["/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write /dev/full: {NO_SPACE}\n"
    with open("/dev/full", "w", encoding="utf-8") as full:
        monkeypatch.setattr(sys, "stdout", full)
        assert main(argv[:-1]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write stdout: {NO_SPACE}\n"


class _FullStream(io.TextIOBase):
    """A stdout whose every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, NO_SPACE)


def test_write_error_of_an_in_process_stdout(monkeypatch, tmp_path, capsys):
    src = tmp_path / "p5.ecg"
    src.write_text(P5_ECG)
    for argv in (["reduce", str(src)], ["analyze", str(src)]):
        monkeypatch.setattr(sys, "stdout", _FullStream())
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write stdout: {NO_SPACE}\n"


def test_failed_read_of_stdin_names_stdin(monkeypatch, capsys):
    class Unreadable:
        def read(self):
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    monkeypatch.setattr(sys, "stdin", Unreadable())
    assert main(["analyze", "-"]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot open stdin: {os.strerror(errno.EBADF)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_buffered_stdout_failure_exits_2_without_an_exit_flush_error():
    import subprocess

    import ecgraph

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = os.path.dirname(os.path.dirname(ecgraph.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "ecgraph", "gen", "--kind",
                               "example1", "--k", "3"], stdout=full,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {NO_SPACE}\n")
