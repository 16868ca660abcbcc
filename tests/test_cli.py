from __future__ import annotations

import json

import pytest

from ecgraph.cli import main
from ecgraph.core import load_ecg, min_color_degree, color_degree

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
    for v in range(3):
        assert color_degree(reduced, v) == color_degree(original, v)


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


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "example1", "--k", "3", "--out"],
    ["analyze", "{src}", "--json"],
    ["reduce", "{src}", "--out"],
    ["partition", "{src}", "--json"],
    ["verify", "--theorem", "li_triangle", "--budget", "5", "--seed", "1", "--json"],
    ["hly-search", "--k", "1", "--n", "4:7", "--budget", "5", "--seed", "3", "--json"],
], ids=lambda argv: argv[0])
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
