import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from patcol.cli import main


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


# Inputs that no JSON decoder reads: nested deeper than the recursion limit, and not UTF-8.
_DEEP = b"[" * 100_000 + b"]" * 100_000
_NOT_UTF8 = b"[[2,\xff1]]"


class TestPartitionsCommand:
    def test_enumerate(self, capsys):
        code, data = run(capsys, "partitions", "--r", "4")
        assert code == 0
        assert data["count"] == 5
        assert data["partitions"][0] == [4] and data["partitions"][-1] == [1, 1, 1, 1]


class TestClosureCommand:
    def test_rd_worked_example(self, capsys):
        code, data = run(capsys, "closure", "--r", "6", "--rd", "[[3,1,1,1]]")
        assert code == 0
        assert len(data["result"]) == 7
        assert [6] in data["result"] and [3, 1, 1, 1] in data["result"]

    def test_ex_worked_example(self, capsys):
        code, data = run(capsys, "closure", "--r", "6", "--ex", "[[3,3]]")
        assert code == 0
        assert len(data["result"]) == 6

    def test_requires_exactly_one_mode(self, capsys):
        code, _ = run(capsys, "closure", "--r", "6")
        assert code == 2
        code, _ = run(capsys, "closure", "--r", "6", "--rd", "[[3,3]]", "--ex", "[[3,3]]")
        assert code == 2


class TestClassifyCommand:
    def test_not_robust(self, capsys):
        code, data = run(capsys, "classify", "--r", "4", "--Q", "[[3,1]]")
        assert code == 0
        assert data["robust"] is False

    def test_bool_part_exits_2(self, capsys):
        code = main(["classify", "--r", "3", "--Q", "[[true,2]]"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "boolean" in err

    @pytest.mark.parametrize("q", ['[["a",2]]', "[[2.0,1.0]]"])
    def test_non_integer_part_exits_2(self, capsys, q):
        code = main(["classify", "--r", "3", "--Q", q])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_full_universe(self, capsys):
        code, data = run(capsys, "classify", "--r", "4", "--Q", "[[4],[3,1],[2,2],[2,1,1],[1,1,1,1]]")
        assert code == 0
        assert data["reduction_closed"] and data["expansion_closed"] and data["robust"]


class TestBuildCommand:
    def test_complete_to_file_roundtrip(self, capsys, tmp_path):
        out = str(tmp_path / "h.json")
        code, data = run(capsys, "build", "--kind", "complete", "--n", "4", "--r", "3", "--out", out)
        assert code == 0 and data["edges"] == 4
        written = json.loads(Path(out).read_text())
        assert written["r"] == 3 and len(written["edges"]) == 4

    def test_sigma_parametric_description(self, capsys):
        code, data = run(capsys, "build", "--kind", "sigma", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]")
        assert code == 0 and data["vertices"] == 4 and "edges" not in data

    def test_sigma_explicit(self, capsys):
        code, data = run(
            capsys, "build", "--kind", "sigma", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--explicit"
        )
        assert code == 0 and len(data["edges"]) == 4

    def test_grid(self, capsys):
        code, data = run(
            capsys,
            "build", "--kind", "grid", "--rows", "4", "--cols", "2", "--cell-size", "2",
            "--row-patterns", "[[3,1]]", "--col-patterns", "[[3,1]]", "--r", "4",
        )
        assert code == 0 and data["vertices"] == 16 and len(data["edges"]) == 96

    def test_family(self, capsys):
        code, data = run(capsys, "build", "--kind", "family", "--family", "nmnr", "--r", "4")
        assert code == 0 and data["patterns"] == [[3, 1], [2, 2], [2, 1, 1]]

    def test_ramsey(self, capsys):
        code, data = run(capsys, "build", "--kind", "ramsey", "--n", "6", "--r", "2", "--p", "3")
        assert code == 0 and data["vertices"] == 15 and len(data["edges"]) == 20

    def test_alpha_beta_family(self, capsys):
        code, data = run(capsys, "build", "--kind", "family", "--family", "alpha-beta", "--r", "4", "--alpha", "2", "--beta", "3")
        assert code == 0 and data["patterns"] == [[3, 1], [2, 2], [2, 1, 1]]

    def test_invalid_arguments_exit_2(self, capsys):
        code, _ = run(capsys, "build", "--kind", "complete", "--n", "2", "--r", "3")
        assert code == 2

    def test_library_edge_cap_applies_without_the_flag(self, capsys):
        code = main(["build", "--kind", "complete", "--n", "200", "--r", "5"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.endswith("above the cap of 10000000\n") and err.count("\n") == 1


class TestSpectrumCommand:
    def test_sigma_engine_headline_example(self, capsys):
        code, data = run(
            capsys, "spectrum", "--sigma", "n=3,r=4,q=3", "--Sigma", "[[3,1]]", "--Q", "[[3,1]]"
        )
        assert code == 0
        assert data["feasible"] == [3] and data["unknown"] == []

    def test_explicit_file_path(self, capsys, tmp_path):
        out = str(tmp_path / "h.json")
        run(capsys, "build", "--kind", "complete", "--n", "4", "--r", "3", "--out", out)
        code, data = run(capsys, "spectrum", "--file", out, "--Q", "[[2,1],[1,1,1]]", "--k-max", "4")
        assert code == 0 and data["feasible"] == [2, 3, 4]

    def test_explicit_engine_prints_the_same(self, capsys, tmp_path):
        structure = ["--sigma", "n=3,r=4,q=3", "--Sigma", "[[3,1]]"]
        assert main(["spectrum", *structure, "--Q", "[[3,1]]"]) == 0
        by_distribution = capsys.readouterr().out
        out = str(tmp_path / "h.json")
        assert main(["build", "--kind", "sigma", *structure, "--explicit", "--out", out]) == 0
        capsys.readouterr()
        assert main(["spectrum", "--file", out, "--Q", "[[3,1]]"]) == 0
        assert capsys.readouterr().out == by_distribution

    def test_unknowns_exit_3(self, capsys):
        code, data = run(
            capsys,
            "spectrum", "--sigma", "n=10,r=4,q=10",
            "--Sigma", "[[4],[3,1],[2,2],[2,1,1],[1,1,1,1]]",
            "--Q", "[[4],[3,1],[2,2],[2,1,1],[1,1,1,1]]",
            "--k-max", "25", "--budget", "0.0",
        )
        assert code == 3
        assert data["unknown"]


class TestCliqueCommand:
    def test_structured(self, capsys):
        code, data = run(capsys, "clique", "--sigma", "n=3,r=3,q=3", "--Sigma", "[[2,1]]")
        assert code == 0 and data["omega"] == 4 and data["witness"]["b"] == [2, 2]

    def test_brute_force_file(self, capsys, tmp_path):
        out = str(tmp_path / "h.json")
        run(capsys, "build", "--kind", "complete", "--n", "6", "--r", "3", "--out", out)
        code, data = run(capsys, "clique", "--file", out)
        assert code == 0 and data["omega"] == 6

    def test_duplicate_edge_warns_in_one_line(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"r": 3, "vertices": 4, "edges": [[0, 1, 2], [2, 1, 0]]}')
        code = main(["clique", "--file", str(path)])
        out, err = capsys.readouterr()
        assert code == 0 and json.loads(out)["omega"] == 3
        assert err == f"warning: {path}: dropped 1 duplicate edge(s)\n"

    def test_vertex_cap_exits_2_with_one_line(self, capsys, tmp_path):
        out = str(tmp_path / "h.json")
        run(capsys, "build", "--kind", "complete", "--n", "6", "--r", "3", "--out", out)
        code = main(["clique", "--file", out, "--vertex-cap", "5"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "cap" in err and err.count("\n") == 1


class TestTightCommand:
    def test_flagship(self, capsys):
        code, data = run(capsys, "tight", "--sigma", "n=6,r=3,q=5", "--Sigma", "[[2,1]]")
        assert code == 0 and data["verdict"] == "true" and data["k"] == 6

    def test_budget_overrun_is_unknown_and_exits_3(self, capsys):
        # The uniqueness search here needs more ticks than the ticker's stride.
        code, data = run(capsys, "tight", "--sigma", "n=8,r=4,q=10", "--Sigma", "[[2,2]]", "--budget", "0")
        assert data["k"] == 8
        assert code == 3 and data["verdict"] == "unknown" and data["unique_up_to_relabel"] == "unknown"


class TestGapsCommand:
    def test_small_robust_grid_empty(self, capsys):
        code, data = run(
            capsys, "gaps", "--r", "3", "--Q", "[[3],[2,1],[1,1,1]]", "--n-max", "2", "--q-max", "2"
        )
        assert code == 0 and data["hits"] == []

    def test_lists_a_gap_hit(self, capsys):
        code, data = run(capsys, "gaps", "--r", "3", "--Q", "[[3],[1,1,1]]", "--n-max", "1", "--q-max", "3")
        assert code == 0 and data["unresolved"] == []
        spectrum = {"feasible": [1, 3], "gaps": [2], "probed_max": 3, "unknown": []}
        assert data["hits"][0] == {"n": 1, "q": 3, "Sigma": [[3]], "spectrum": spectrum}

    def test_budget_overrun_is_unresolved_and_exits_3(self, capsys):
        code, data = run(
            capsys,
            "gaps", "--r", "4", "--Q", "[[3,1]]", "--n-min", "7", "--n-max", "7",
            "--q-min", "8", "--q-max", "8", "--Sigma", "[[2,1,1]]", "--budget", "0",
        )
        assert code == 3
        assert data == {"hits": [], "unresolved": [{"n": 7, "q": 8, "Sigma": [[2, 1, 1]]}]}

    @pytest.mark.parametrize(
        "grid,flag",
        [
            (["--n-min", "3", "--n-max", "2", "--q-max", "2"], "--n-min..--n-max"),
            (["--n-max", "2", "--q-min", "2", "--q-max", "1"], "--q-min..--q-max"),
            (["--n-max", "2", "--q-max", "2", "--Sigma", "[]"], "--Sigma"),
        ],
    )
    def test_empty_grid_exits_2_naming_the_flag(self, capsys, grid, flag):
        # A grid that scans nothing must not print an empty "no gap found" report.
        code = main(["gaps", "--r", "4", "--Q", "[[3,1]]", *grid])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: nothing to scan") and flag in err and len(err.strip().splitlines()) == 1


class TestRamseyCommand:
    def test_desk_pair(self, capsys):
        code, data = run(capsys, "ramsey", "--n", "6", "--r", "2", "--p", "3", "--k", "2", "--Q", "[[2,1],[1,1,1]]")
        assert code == 0 and data["colourable"] == "false"
        code, data = run(capsys, "ramsey", "--n", "5", "--r", "2", "--p", "3", "--k", "2", "--Q", "[[2,1],[1,1,1]]")
        assert code == 0 and data["colourable"] == "true"

    def test_budget_overrun_is_unknown_and_exits_3(self, capsys):
        argv = ["ramsey", "--n", "17", "--r", "2", "--p", "3", "--k", "3", "--Q", "[[2,1],[1,1,1]]", "--budget", "0"]
        code, data = run(capsys, *argv)
        assert code == 3 and data["colourable"] == "unknown" and data["witness"] is None


class TestVerifyCommand:
    def test_lemma_suite_r3(self, capsys):
        code, data = run(capsys, "verify", "--r", "3", "--budget", "120")
        assert code == 0
        verdicts = [rep["verdict"] for rep in data["reports"]]
        assert verdicts.count("true") >= 5

    def test_unknown_suite_exit_2(self, capsys):
        # verify runs the lemma suite only, so --suite is an unknown flag; the usage error exits from parse_args.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "lemmas", "--r", "3"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.startswith("error: ") and err.count("\n") == 1


class TestCliContracts:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["partitions", "--r", "4", "--frobnicate"])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, capsys):
        main(["partitions", "--r", "5"])
        first = capsys.readouterr().out
        main(["partitions", "--r", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_outputs_parse_as_json(self, capsys):
        for argv in (
            ["partitions", "--r", "3"],
            ["closure", "--r", "6", "--rd", "[[3,1,1,1]]"],
            ["classify", "--r", "4", "--Q", "[[3,1]]"],
            ["spectrum", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"],
        ):
            main(argv)
            json.loads(capsys.readouterr().out)

    def test_pattern_file_reference(self, capsys, tmp_path):
        qfile = tmp_path / "q.json"
        qfile.write_text("[[3,1]]")
        code, data = run(capsys, "classify", "--r", "4", "--Q", f"@{qfile}")
        assert code == 0 and data["robust"] is False

    def test_catalog_appends(self, capsys, tmp_path):
        cat = tmp_path / "cat.ndjson"
        run(capsys, "partitions", "--r", "4", "--catalog", str(cat))
        run(capsys, "partitions", "--r", "4", "--catalog", str(cat))
        lines = cat.read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["command"] == "partitions" and rec["engine_version"]

    def test_unwritable_catalogue_exits_2_with_one_line(self, capsys, tmp_path):
        code = main(["partitions", "--r", "2", "--catalog", str(tmp_path / "missing-dir" / "x.jsonl")])
        out, err = capsys.readouterr()
        assert code == 2 and json.loads(out)["count"] == 2
        assert err.startswith("error: ") and "missing-dir" in err and err.count("\n") == 1

    def test_catalogue_digest_ignores_spelling(self, capsys, tmp_path):
        cat, other = tmp_path / "cat.ndjson", tmp_path / "other.ndjson"
        base = ["classify", "--r", "3", "--Q"]
        for argv in (
            base + ["[[2,1]]", "--catalog", str(cat)],
            base + ["[[2, 1]]", "--catalog", str(cat)],
            base + ["[[1,2]]", "--catalog", str(cat)],
            base + ["[[2,1]]", "--catalog", str(other)],
        ):
            assert run(capsys, *argv)[0] == 0
        records = [json.loads(line) for path in (cat, other) for line in path.read_text().splitlines()]
        assert len(records) == 4 and len({rec["input_digest"] for rec in records}) == 1

    @pytest.mark.parametrize(
        "argv,flag,same",
        [
            (["spectrum", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"], ["--budget", "5"], False),
            (["verify", "--r", "3"], ["--budget", "600"], True),
            (["clique", "--file", "h.json"], ["--vertex-cap", "41"], True),
            (["spectrum", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"], ["--k-max", "4"], True),
            (["spectrum", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"], ["--k-max", "3"], False),
            (
                ["gaps", "--r", "3", "--Q", "[[2,1]]", "--n-max", "4", "--q-max", "2", "--Sigma", "[[2,1],[1,1,1]]"],
                ["--Sigma", "[[1,1,1],[2,1]]"],  # the later --Sigma wins: the same types in the other order
                False,
            ),
            (["gaps", "--r", "3", "--Q", "[[2,1]]", "--n-max", "4", "--q-max", "2"], ["--k-max", "8"], True),
        ],
        ids=[
            "spectrum-budget",
            "verify-default-budget",
            "clique-file-vertex-cap",
            "spectrum-k-max-vertex-count",
            "spectrum-k-max-below",
            "gaps-Sigma-order",
            "gaps-k-max-largest-vertex-count",
        ],
    )
    def test_catalogue_digest_counts_only_what_shapes_the_result(self, capsys, tmp_path, monkeypatch, argv, flag, same):
        """The digest counts what the computation read, such as the effective budget and k_max and the order of
        gaps' type list; not the vertex cap, which can only refuse a run, and a refused run is not catalogued."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h.json").write_text('{"r": 3, "vertices": 4, "edges": [[0, 1, 2]]}')
        cat = tmp_path / "cat.ndjson"
        for extra in ([], flag):
            assert run(capsys, *argv, *extra, "--catalog", str(cat))[0] == 0
        digests = [json.loads(line)["input_digest"] for line in cat.read_text().splitlines()]
        assert len(digests) == 2 and (digests[0] == digests[1]) == same

    def test_tight_digest_counts_the_default_Q_as_given(self, capsys, tmp_path):
        cat = tmp_path / "cat.ndjson"
        argv = ["tight", "--sigma", "n=6,r=3,q=5", "--Sigma", "[[2,1]]", "--catalog", str(cat)]
        assert run(capsys, *argv) == run(capsys, *argv, "--Q", "[[2,1]]")
        digests = [json.loads(line)["input_digest"] for line in cat.read_text().splitlines()]
        assert len(digests) == 2 and digests[0] == digests[1]

    def test_catalogue_digest_counts_file_content_not_path(self, capsys, tmp_path):
        cat, first, second = tmp_path / "cat.ndjson", tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "build", "--kind", "complete", "--n", "4", "--r", "3", "--out", str(first))
        second.write_bytes(first.read_bytes())
        argv = ["spectrum", "--Q", "[[2,1],[1,1,1]]", "--catalog", str(cat), "--file"]
        assert run(capsys, *argv, str(first))[0] == 0
        assert run(capsys, *argv, str(second))[0] == 0
        run(capsys, "build", "--kind", "complete", "--n", "5", "--r", "3", "--out", str(second))
        assert run(capsys, *argv, str(second))[0] == 0
        digests = [json.loads(line)["input_digest"] for line in cat.read_text().splitlines()]
        assert digests[0] == digests[1] != digests[2]

    @pytest.mark.parametrize(
        "name,value",
        [
            ("--budget", "-1"),
            ("--budget", "nan"),
            ("--budget", "inf"),
            ("--edge-cap", "0"),
            ("--vertex-cap", "0"),
            ("--vertex-cap", "-1"),
            ("--catalog", ""),
            pytest.param("--budget", "1e400", id="--budget-beyond-float"),
        ],
    )
    def test_bad_flag_and_env_values_exit_2(self, capsys, name, value):
        # --edge-cap is a build flag, --vertex-cap a clique one, checked before the file is read.
        argv = ["spectrum", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"]
        if name == "--edge-cap":
            argv = ["build", "--kind", "complete", "--n", "4", "--r", "3"]
        if name == "--vertex-cap":
            argv = ["clique", "--file", "h.json"]
        code = main([*argv, name, value])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"error: {name} must be ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--r", "3", "--Q", "[5]"],
            ["gaps", "--r", "3", "--Q", "[[2,1]]", "--n-max", "1", "--q-max", "1", "--Sigma", "5"],
            ["spectrum", "--sigma", "n=2,r=3,q=2", "--Q", "[[2,1]]"],
            ["clique", "--sigma", "n=2,r=3,q=2"],
            ["clique", "--sigma", "n=2,r=3,q=3", "--Sigma", "[[3]]", "--uncapped"],
            ["build", "--kind", "complete"],
            ["build", "--kind", "family", "--r", "3", "--family", "proper"],
            ["build", "--kind", "sigma", "--sigma", "n=3,r=3,q=3", "--Sigma", "[[2,1]]", "--explicit", "--edge-cap=1"],
            ["partitions", "--r", "4", "--frobnicate"],
            ["partitions"],
            ["classify", "--r", "3", "--Q", "-1e+16"],
            ["spectrum", "--sigma", "n=2,r=3,q=2,q=3", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"],
            ["spectrum", "--sigma", "n=2,n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"],
            ["build", "--kind", "complete", "--n", "10", "--r", "3", "--edge-cap", "5"],
            ["build", "--kind", "ramsey", "--n", "8", "--r", "2", "--p", "3", "--edge-cap", "5"],
            ["verify", "--suite", "nonsense", "--r", "3"],
            ["classify", "--r", "3", "--Q", "[[2,1]"],
            ["spectrum", "--sigma", "n=2,r=x,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"],
            ["spectrum", "--sigma", "n=2,r=3", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"],
            ["ramsey", "--n", "6", "--r", "2", "--p", "3", "--k", "0", "--Q", "[[2,1],[1,1,1]]"],
            ["spectrum", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]", "--k-max", "0"],
            ["build", "--kind", "grid", "--rows", "1", "--cols", "1", "--cell-size", "0"]
            + ["--row-patterns", "[[2,1]]", "--col-patterns", "[[2,1]]", "--r", "3"],
            ["build", "--kind", "grid", "--rows", "1", "--cols", "1", "--cell-size", "2"]
            + ["--row-patterns", "[[4]]", "--col-patterns", "[[4]]", "--r", "4"],
            ["spectrum", "--Q", "[[2,1]]"],
            ["spectrum", "--sigma", "n=²,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"],
            ["classify", "--r", "3", "--Q", "[[1.5,1.5]]"],
            # Flags the command would ignore, which would pass unnoticed (h.json is a valid file).
            ["spectrum", "--file", "h.json", "--Q", "[[2,1]]", "--explicit"],
            ["spectrum", "--file", "h.json", "--Q", "[[2,1]]", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]"],
            ["clique", "--file", "h.json", "--sigma", "n=2,r=3,q=2"],
            ["clique", "--file", "h.json", "--Sigma", "[[2,1]]"],
            ["build", "--kind", "complete", "--n", "4", "--r", "3", "--p", "5"],
            ["build", "--kind", "complete", "--n", "4", "--r", "3", "--rows", "2"],
            ["build", "--kind", "sigma", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--n", "0"],
            ["build", "--kind", "complete", "--n", "4", "--r", "3", "--alpha", "1"],
            ["build", "--kind", "complete", "--n", "4", "--r", "3", "--explicit"],
            ["build", "--kind", "family", "--r", "3", "--family", "classical", "--out", "f.json"],
            ["build", "--kind", "sigma", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--out", "s.json"],
            ["build", "--kind", "family", "--r", "3", "--family", "classical", "--alpha", "2"],
            # A type set listed twice would be scanned and reported twice.
            ["gaps", "--r", "3", "--Q", "[[2,1]]", "--n-max", "4", "--q-max", "2", "--Sigma", "[[2,1],[2,1]]"],
            # Flags that only other commands read: argparse refuses them, and clique refuses a cap it would ignore.
            ["partitions", "--r", "3", "--budget", "5"],
            ["classify", "--r", "3", "--Q", "[[2,1]]", "--edge-cap", "5"],
            ["ramsey", "--n", "5", "--r", "2", "--p", "3", "--k", "2", "--Q", "[[2,1],[1,1,1]]", "--edge-cap", "5"],
            ["spectrum", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]", "--edge-cap", "5"],
            ["spectrum", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]", "--explicit"],
            ["clique", "--sigma", "n=3,r=3,q=2", "--Sigma", "[[2,1]]", "--vertex-cap", "5"],
            # An empty path would read as no path at all.
            ["build", "--kind", "complete", "--n", "4", "--r", "3", "--out", ""],
            # Kinds that build no edge set ignore the cap; settings come only from the flags.
            ["build", "--kind", "family", "--r", "3", "--family", "classical", "--edge-cap", "5"],
            ["build", "--kind", "sigma", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--edge-cap", "1"],
            ["partitions", "--r", "3", "--config", "x.json"],
        ],
    )
    def test_malformed_input_exits_2_with_one_line(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h.json").write_text('{"r": 3, "vertices": 4, "edges": [[0, 1, 2]]}')
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors exit from parse_args
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text,detail",
        [
            pytest.param("[1, 2]", "top level", id="top-level-list"),
            pytest.param('{"r": 0, "vertices": 4, "edges": []}', "r must be positive", id="r-zero"),
            pytest.param('{"r": 3, "vertices": 4, "edges": [[0, 1, 2], [1, 2, 9]]}', "edge #1", id="vertex-out-of-range"),
        ],
    )
    def test_malformed_file_error_names_the_file(self, capsys, tmp_path, text, detail):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["spectrum", "--file", str(path), "--Q", "[[2,1]]"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and detail in err and err.count("\n") == 1

    def test_sigma_values_must_be_decimal_digits(self, capsys):
        # "²" is a digit to str.isdigit but not to int().
        code = main(["spectrum", "--sigma", "n=²,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"])
        assert code == 2 and capsys.readouterr().err == (
            "error: bad structure parameters 'n=²,r=3,q=2'; expected n=..,r=..,q=..\n"
        )

    @pytest.mark.parametrize(
        "content,argv,source",
        [
            pytest.param(b"", ["classify", "--r", "3", "--Q", "[" * 3000 + "]" * 3000], "--Q", id="inline-deep"),
            pytest.param(_DEEP, ["classify", "--r", "3", "--Q", "@{path}"], None, id="at-file-deep"),
            pytest.param(_DEEP, ["spectrum", "--file", "{path}", "--Q", "[[2,1]]"], None, id="file-deep"),
            pytest.param(_NOT_UTF8, ["classify", "--r", "3", "--Q", "@{path}"], None, id="at-file-not-utf8"),
            pytest.param(_NOT_UTF8, ["spectrum", "--file", "{path}", "--Q", "[[2,1]]"], None, id="file-not-utf8"),
        ],
    )
    def test_undecodable_json_exits_2_naming_its_source(self, capsys, tmp_path, content, argv, source):
        """Each JSON input fails in one line that names its flag or file, however it fails to decode."""
        path = tmp_path / "input.json"
        path.write_bytes(content)
        code = main([arg.replace("{path}", str(path)) for arg in argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"error: {source or path}: ") and err.count("\n") == 1


# The README's quick-start commands (all but verify, whose payload
# test_analysis pins) with the sha256 of their stdout; each exits 0.
_README_COMMANDS = {
    "partitions": (["partitions", "--r", "4"], "64dbded43f2b8f877f775391e62bc24b371abd41ea20145b5008d6aaf8adff03"),
    "closure": (["closure", "--r", "6", "--rd", "[[3,1,1,1]]"], "e69fb82431480bad24220717da2731eaaaa0e77960ab7032f0da04ca8c65bcf7"),
    "classify": (["classify", "--r", "4", "--Q", "[[3,1]]"], "4d8f0cbf2f120d2d9a7500dbb8589404ac045474542481c37ccb384ea08637cd"),
    "build": (
        ["build", "--kind", "grid", "--rows", "4", "--cols", "2", "--cell-size", "2"]
        + ["--row-patterns", "[[3,1]]", "--col-patterns", "[[3,1]]", "--r", "4", "--out", "grid.json"],
        "fdff86c3fa8ac164711457ee847e35d8f6efa68554fd09e9ce309d42de2540c0",
    ),
    "spectrum-file": (
        ["spectrum", "--file", "grid.json", "--Q", "[[3,1]]", "--k-max", "4"],
        "8da743ceb25447292b718a77f7ffbeb40ff4f0b992cc0d052588e4f7de4bc9b6",
    ),
    "spectrum-sigma": (
        ["spectrum", "--sigma", "n=3,r=4,q=3", "--Sigma", "[[3,1]]", "--Q", "[[3,1]]"],
        "b0e73f7f28f20f13589ab776b5ff74a08aced38147fa444430cdc3e199682381",
    ),
    "clique": (
        ["clique", "--sigma", "n=3,r=3,q=3", "--Sigma", "[[2,1]]"],
        "3fa8af94b17512522f676dcd01245fe6d90933f46ceca126b1761ef451a7d9d9",
    ),
    "tight": (
        ["tight", "--sigma", "n=6,r=3,q=5", "--Sigma", "[[2,1]]"],
        "22f5969a21e51eabd959234896bf0a13780aa8c19b7a78e8d74234c0bc09b288",
    ),
    "gaps": (
        ["gaps", "--r", "3", "--Q", "[[3],[1,1,1]]", "--n-max", "3", "--q-max", "3"],
        "a495674ca0e84f7eaebea496d6f01645b368cb3a3d256bf6a64b125d4a1ce712",
    ),
    "ramsey": (
        ["ramsey", "--n", "6", "--r", "2", "--p", "3", "--k", "2", "--Q", "[[2,1],[1,1,1]]"],
        "980dcf2e579041251cfd2c03ab74805e259b4bccf78df9d5fa6e02eb407c83a7",
    ),
}


@pytest.mark.parametrize("name", list(_README_COMMANDS))
def test_readme_command_output_is_pinned(name, capsys, tmp_path, monkeypatch):
    # Settings come only from flags: these variables change no output and write no file.
    for var, value in [("BUDGET", "abc"), ("EDGE_CAP", "1"), ("CATALOG", "cat.ndjson"), ("CONFIG", "missing.json")]:
        monkeypatch.setenv("PATCOL_" + var, value)
    monkeypatch.chdir(tmp_path)
    if name == "spectrum-file":  # reads the grid that the build command writes
        assert main(_README_COMMANDS["build"][0]) == 0
        capsys.readouterr()
    argv, sha256 = _README_COMMANDS[name]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256
    assert [p.name for p in tmp_path.iterdir()] == (["grid.json"] if name in ("build", "spectrum-file") else [])


_SRC = str(Path(__file__).resolve().parent.parent / "src")
_ENGINES = {"patcol.analysis", "patcol.clique", "patcol.colouring", "patcol.hypergraph", "patcol.sigma_engine"}


def _modules_after(code: str, *flags: str) -> set[str]:
    """The modules a fresh interpreter, started with ``flags``, has loaded after running ``code``."""
    script = code + "\nimport sys\nprint(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def _patcol_modules_after(code: str) -> set[str]:
    """The patcol modules a fresh interpreter has loaded after running ``code``."""
    return {m for m in _modules_after(code) if m.startswith("patcol")}


class TestLazyImports:
    @pytest.mark.parametrize(
        "argv",
        [
            ["partitions", "--r", "4"],
            ["closure", "--r", "3", "--rd", "[[1,1,1]]"],
            ["classify", "--r", "3", "--Q", "[[2,1]]"],
        ],
    )
    def test_pattern_commands_load_no_engine(self, argv):
        loaded = _patcol_modules_after(f"from patcol.cli import main\nassert main({argv!r}) == 0")
        assert "patcol.partitions" in loaded and not loaded & (_ENGINES | {"patcol.budget", "patcol.catalog"})

    @pytest.mark.parametrize(
        "argv", [["tight", "--sigma", "n=6,r=3,q=5", "--Sigma", "[[2,1]]"], ["partitions", "--r", "4"]]
    )
    def test_cold_command_loads_no_dataclasses(self, argv):
        # -S: the interpreter's site hooks can neither hide nor add modules.
        loaded = _modules_after(f"from patcol.cli import main\nassert main({argv!r}) == 0", "-S")
        assert not loaded & {"dataclasses", "inspect"}
        if argv[0] == "partitions":  # no --catalog: neither the catalogue nor its digest
            assert not loaded & {"patcol.catalog", "hashlib"}

    def test_sigma_spectrum_loads_no_explicit_engine(self):
        argv = ["spectrum", "--sigma", "n=2,r=3,q=2", "--Sigma", "[[2,1]]", "--Q", "[[2,1]]"]
        loaded = _patcol_modules_after(f"from patcol.cli import main\nassert main({argv!r}) == 0")
        assert "patcol.sigma_engine" in loaded and "patcol.colouring" not in loaded
        assert "patcol.colouring" not in _patcol_modules_after("import patcol.sigma_engine")

    @pytest.mark.parametrize(
        "argv",
        [
            ["tight", "--sigma", "n=6,r=3,q=5", "--Sigma", "[[2,1]]"],
            ["gaps", "--r", "3", "--Q", "[[3],[1,1,1]]", "--n-max", "1", "--q-max", "3"],
        ],
    )
    def test_distribution_commands_load_no_explicit_engine(self, argv):
        loaded = _patcol_modules_after(f"from patcol.cli import main\nassert main({argv!r}) == 0")
        assert "patcol.analysis" in loaded and "patcol.sigma_engine" in loaded and "patcol.colouring" not in loaded

    def test_ramsey_loads_no_distribution_engine(self):
        argv = ["ramsey", "--n", "5", "--r", "2", "--p", "3", "--k", "2", "--Q", "[[2,1],[1,1,1]]"]
        loaded = _patcol_modules_after(f"from patcol.cli import main\nassert main({argv!r}) == 0")
        assert "patcol.analysis" in loaded and "patcol.colouring" in loaded and "patcol.sigma_engine" not in loaded

    def test_package_import_loads_no_submodule(self):
        assert _patcol_modules_after("import patcol") == {"patcol"}


# Arbitrary JSON: scalars, and lists and objects nested up to a few levels.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)

# Each command reads the fuzzed value as a pattern-set argument, passed as
# --flag=value so that a value starting with "-" is not taken for a flag; the
# structures and grids are tiny so a well-formed value decides at once.
_PATTERN_COMMANDS = [
    lambda v: ["classify", "--r", "3", f"--Q={v}"],
    lambda v: ["closure", "--r", "3", f"--rd={v}"],
    lambda v: ["gaps", "--r", "3", "--Q", "[[2,1]]", "--n-max", "1", "--q-max", "2", f"--Sigma={v}"],
    lambda v: ["spectrum", "--sigma", "n=1,r=3,q=3", f"--Sigma={v}", f"--Q={v}"],
    lambda v: ["tight", "--sigma", "n=1,r=3,q=3", "--Sigma", "[[3]]", f"--Q={v}"],
    lambda v: ["ramsey", "--n", "4", "--r", "2", "--p", "3", "--k", "2", f"--Q={v}"],
]


@given(value=_JSON, command=st.sampled_from(_PATTERN_COMMANDS))
@settings(max_examples=150, deadline=None)
def test_fuzzed_pattern_arguments_exit_0_or_2_with_one_line(value, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command(json.dumps(value)))
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code in (0, 3) and err.getvalue() == ""
        json.loads(out.getvalue())
