import json
import subprocess
import sys
import time

import pytest
from hypothesis import given

from dgr import build_digraph, complete_graph, directed_cycle, remoteness
from dgr.cli import GENERATE_MAX_ORDER, run
from dgr.io import (
    digraph_from_edge_list,
    digraph_to_dot,
    digraph_to_edge_list,
    graph_from_edge_list,
    graph_to_edge_list,
)

from conftest import digraphs
from oracles import eulerian_mask_flags, is_strong_oracle
from test_core import dpk_2121


class TestEdgeListFormat:
    def test_roundtrip_digraph(self):
        D = dpk_2121()
        assert digraph_from_edge_list(digraph_to_edge_list(D)) == D

    @given(digraphs())
    def test_roundtrip_property(self, D):
        assert digraph_from_edge_list(digraph_to_edge_list(D)) == D

    def test_comments_and_blanks(self):
        text = "# a comment\n\n3\n# another\n0 1\n1 2\n2 0\n"
        D = digraph_from_edge_list(text)
        assert D == build_digraph(3, [(0, 1), (1, 2), (2, 0)])

    def test_graph_roundtrip(self):
        G = complete_graph(4)
        assert graph_from_edge_list(graph_to_edge_list(G)) == G

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="order"):
            digraph_from_edge_list("x\n0 1\n")

    def test_malformed_pair(self):
        with pytest.raises(ValueError, match="expected"):
            digraph_from_edge_list("3\n0 1 2\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            digraph_from_edge_list("# nothing\n")

    def test_dot_output(self):
        dot = digraph_to_dot(build_digraph(2, [(0, 1), (1, 0)]))
        assert "digraph" in dot
        assert "0 -> 1;" in dot and "1 -> 0;" in dot


class TestCLI:
    def _write_cycle(self, tmp_path, n=5):
        path = tmp_path / "cycle.edges"
        path.write_text(digraph_to_edge_list(directed_cycle(n)))
        return str(path)

    def test_compute_remoteness(self, tmp_path, capsys):
        code = run(["compute", "--input", self._write_cycle(tmp_path), "--invariant", "remoteness"])
        assert code == 0
        assert capsys.readouterr().out == "5/2 (= 2.5) at vertex 0\n"

    def test_compute_json(self, tmp_path, capsys):
        code = run([
            "compute", "--input", self._write_cycle(tmp_path),
            "--invariant", "remoteness", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num"] == 5 and doc["den"] == 2 and doc["witness"] == 0

    def test_compute_profile_requires_vertex(self, tmp_path, capsys):
        code = run(["compute", "--input", self._write_cycle(tmp_path), "--invariant", "profile"])
        assert code == 1

    def test_compute_profile(self, tmp_path, capsys):
        code = run([
            "compute", "--input", self._write_cycle(tmp_path),
            "--invariant", "profile", "--vertex", "0",
        ])
        assert code == 0
        assert capsys.readouterr().out == "(1, 1, 1, 1, 1)\n"

    def test_compute_kappa_lambda_eulerian(self, tmp_path, capsys):
        path = self._write_cycle(tmp_path, 4)
        assert run(["compute", "--input", path, "--invariant", "kappa"]) == 0
        assert capsys.readouterr().out.startswith("1 ")
        assert run(["compute", "--input", path, "--invariant", "lambda"]) == 0
        assert capsys.readouterr().out.startswith("1 ")
        assert run(["compute", "--input", path, "--invariant", "eulerian"]) == 0
        assert capsys.readouterr().out == "true\n"

    @pytest.mark.parametrize(
        "digraph, invariant, fmt, expected",
        [
            (dpk_2121, "kappa", "text", "2 (witness cut: [1, 2])\n"),
            (dpk_2121, "kappa", "json",
             '{"invariant": "kappa", "value": 2, "witness_cut": [1, 2]}\n'),
            (dpk_2121, "lambda", "text", "2 (witness cut: [(0, 1), (0, 2)])\n"),
            (dpk_2121, "lambda", "json",
             '{"invariant": "lambda", "value": 2, "witness_cut": [[0, 1], [0, 2]]}\n'),
            (lambda: directed_cycle(4), "kappa", "text", "1 (witness cut: [1])\n"),
            (lambda: directed_cycle(4), "kappa", "json",
             '{"invariant": "kappa", "value": 1, "witness_cut": [1]}\n'),
            (lambda: directed_cycle(4), "lambda", "text", "1 (witness cut: [(0, 1)])\n"),
            (lambda: directed_cycle(4), "lambda", "json",
             '{"invariant": "lambda", "value": 1, "witness_cut": [[0, 1]]}\n'),
        ],
        ids=[
            f"{name}-{invariant}-{fmt}"
            for name in ("dpk_2121", "cycle4")
            for invariant in ("kappa", "lambda")
            for fmt in ("text", "json")
        ],
    )
    def test_compute_connectivity_output_pinned(
        self, tmp_path, capsys, digraph, invariant, fmt, expected
    ):
        # the witness cut is part of the output; these bytes were recorded
        # with the per-pair flow networks
        path = tmp_path / "d.edges"
        path.write_text(digraph_to_edge_list(digraph()))
        args = ["compute", "--input", str(path), "--invariant", invariant, "--format", fmt]
        assert run(args) == 0
        assert capsys.readouterr().out == expected

    def test_compute_missing_file(self, capsys):
        assert run(["compute", "--input", "/nonexistent.edges", "--invariant", "diam"]) == 2

    def test_compute_not_strong(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("3\n0 1\n1 2\n")
        assert run(["compute", "--input", str(path), "--invariant", "remoteness"]) == 2

    def test_compute_undirected(self, tmp_path, capsys):
        path = tmp_path / "p3.edges"
        path.write_text("3\n0 1\n1 2\n")
        code = run([
            "compute", "--input", str(path), "--invariant", "remoteness", "--undirected",
        ])
        assert code == 0
        assert capsys.readouterr().out == "3/2 (= 1.5) at vertex 0\n"

    def test_generate_dpk_selector(self, capsys):
        assert run(["generate", "dpk", "--n", "6", "--m", "20", "--kappa", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "6"
        assert len(lines) == 26

    def test_generate_explicit_params_dot(self, capsys):
        assert run([
            "generate", "dpk", "--kappa", "2", "--ell", "1", "--a", "2", "--b", "1",
            "--format", "dot",
        ]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_generate_roundtrip_through_compute(self, tmp_path, capsys):
        out = tmp_path / "dpk.edges"
        assert run([
            "generate", "dpk", "--n", "6", "--m", "20", "--kappa", "2",
            "--output", str(out),
        ]) == 0
        assert run(["compute", "--input", str(out), "--invariant", "remoteness"]) == 0
        assert capsys.readouterr().out == "9/5 (= 1.8) at vertex 0\n"

    def test_generate_pklambda(self, capsys):
        assert run([
            "generate", "pklambda", "--lambda", "2", "--variant", "A",
            "--k", "1", "--a", "2", "--b", "1",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "6" and len(lines) == 11

    def test_generate_profile(self, capsys):
        assert run(["generate", "profile", "--blocks", "1,2,1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "4" and len(lines) == 11

    def test_generate_infeasible(self, capsys):
        assert run(["generate", "dpk", "--n", "6", "--m", "26", "--kappa", "2"]) == 2
        # a size above the complete digraph's is refused before any member is built
        assert run(["generate", "dpk", "--n", "120", "--m", "100000", "--kappa", "2"]) == 2
        assert "at most 14280" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["dpk", "pk"])
    def test_generate_ell_zero_is_input_error(self, capsys, family):
        args = ["generate", family, "--kappa", "1", "--ell", "0", "--a", "1", "--b", "1"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err == "input error: parameters kappa, ell, a and b must be positive\n"

    @pytest.mark.parametrize("args", [
        ["cycle", "--n", str(GENERATE_MAX_ORDER + 1)],
        ["complete", "--n", str(GENERATE_MAX_ORDER + 1)],
        ["profile", "--blocks", f"1,{GENERATE_MAX_ORDER}"],
        ["dpk", "--n", str(GENERATE_MAX_ORDER + 1), "--m", "10", "--kappa", "2"],
        ["dpk", "--kappa", "2", "--ell", "1", "--a", "2", "--b", str(GENERATE_MAX_ORDER - 4)],
        ["pk", "--n", str(GENERATE_MAX_ORDER + 1), "--m", "10", "--kappa", "2"],
        ["pk", "--kappa", "2", "--ell", "1", "--a", "2", "--b", str(GENERATE_MAX_ORDER - 4)],
        ["pklambda", "--n", str(GENERATE_MAX_ORDER + 1), "--m", "10", "--lambda", "2"],
        ["pklambda", "--lambda", "2", "--variant", "A", "--k", "1", "--a", "2",
         "--b", str(GENERATE_MAX_ORDER - 4)],
    ])
    def test_generate_above_the_order_cap_is_input_error(self, capsys, monkeypatch, args):
        import dgr.cli as cli_mod

        # every order here is the cap plus one; no builder may run
        def refuse(*_args, **_kwargs):
            raise AssertionError("builder called above the order cap")

        for name in ("profile_digraph", "kappa_pc_digraph", "pc_graph", "lambda_pc_graph",
                     "dpk_select", "pk_select", "pk_lambda_select"):
            monkeypatch.setattr(cli_mod, name, refuse)
        for name in ("directed_cycle", "complete_digraph"):
            monkeypatch.setattr(cli_mod.core, name, refuse)
        assert run(["generate", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: order {GENERATE_MAX_ORDER + 1} is above the order cap "
            f"{GENERATE_MAX_ORDER}\n"
        )

    def test_generate_at_the_order_cap(self, capsys):
        assert run(["generate", "cycle", "--n", str(GENERATE_MAX_ORDER)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == str(GENERATE_MAX_ORDER) and len(lines) == GENERATE_MAX_ORDER + 1

    @pytest.mark.parametrize("invariant", ["remoteness", "eulerian"])
    @pytest.mark.parametrize("undirected", [False, True])
    def test_compute_above_the_order_cap_is_input_error(
        self, tmp_path, capsys, monkeypatch, invariant, undirected
    ):
        import dgr.cli as cli_mod

        # a file of a few bytes may declare any order; no invariant may run
        def refuse(*_args, **_kwargs):
            raise AssertionError("invariant computed above the order cap")

        monkeypatch.setattr(cli_mod.core, "remoteness", refuse)
        monkeypatch.setattr(cli_mod.conn_mod, "is_eulerian", refuse)
        path = tmp_path / "big.edges"
        path.write_text(f"{GENERATE_MAX_ORDER + 1}\n0 1\n1 0\n")
        args = ["compute", "--input", str(path), "--invariant", invariant]
        assert run(args + ["--undirected"] * undirected) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: order {GENERATE_MAX_ORDER + 1} is above the order cap "
            f"{GENERATE_MAX_ORDER}\n"
        )

    def test_compute_at_the_order_cap(self, tmp_path, capsys):
        path = tmp_path / "cycle.edges"
        path.write_text(digraph_to_edge_list(directed_cycle(GENERATE_MAX_ORDER)))
        assert run(["compute", "--input", str(path), "--invariant", "remoteness"]) == 0
        # the cycle's remoteness is (1 + 2 + ... + (n - 1)) / (n - 1) = n / 2
        assert capsys.readouterr().out == "350 (= 350) at vertex 0\n"

    def test_bound_text(self, capsys):
        assert run(["bound", "--bound", "size_digraph", "--n", "5", "--m", "10"]) == 0
        assert capsys.readouterr().out.startswith("7/2 (= 3.5)")

    def test_bound_json(self, capsys):
        assert run([
            "bound", "--bound", "kappa_digraph", "--n", "6", "--m", "25",
            "--kappa", "2", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == {"num": 9, "den": 5, "decimal": 1.8}
        assert doc["m_star"] == 25

    def test_bound_missing_param(self, capsys):
        assert run(["bound", "--bound", "kappa_graph", "--n", "6", "--m", "5"]) == 1

    def test_verify_clean_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "verify", "--check", "digraph_order", "--order", "4",
            "--format", "json", "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["violations"] == [] and doc["instances"] == 1606

    def test_verify_csv_one_row_per_size(self, capsys):
        assert run(["verify", "--check", "size_digraph", "--order", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "check_id,n,m,class,instances,skipped,violations,equality_instances"
        # strong digraphs on 3 vertices have sizes 3..6: one row per size
        sizes = [int(line.split(",")[2]) for line in lines[1:]]
        assert sizes == [3, 4, 5, 6]
        assert sum(int(line.split(",")[4]) for line in lines[1:]) == 18

    def test_verify_exit_three_on_violation(self, capsys, monkeypatch):
        import dgr.cli as cli_mod
        from dgr.verifier import CheckReport, Counterexample

        fake = CheckReport(
            check_id="universal_bound:digraph_order:n=4:class=strong",
            spec={"order": 4, "class": "strong"},
            instances_examined=1,
            violations=[
                Counterexample("4\n0 1\n", "3/1", 1, None, None, "2/1", "1/1", "ff")
            ],
        )
        monkeypatch.setattr(cli_mod.verifier, "check_universal_bounds", lambda *a, **k: [fake])
        assert run(["verify", "--check", "digraph_order", "--order", "4"]) == 3
        assert "VIOLATION" in capsys.readouterr().out

    def test_verify_exit_three_from_a_real_sweep(self, capsys, monkeypatch):
        from fractions import Fraction

        from dgr import check_universal_bounds
        from test_verifier import lower_bounds

        lower_bounds(monkeypatch, lambda n: Fraction(1, n - 1))
        (library,) = check_universal_bounds(4, "strong", ("digraph_order",))
        args = ["verify", "--check", "digraph_order", "--order", "4"]
        assert run(args) == 3
        text = capsys.readouterr().out.splitlines()
        shown = [i for i, line in enumerate(text) if line.startswith("  VIOLATION ")]
        assert len(shown) == 20 and text[shown[-1] + 1] == "  ... 874 more"
        assert "result: FAILED" in text
        assert run([*args, "--format", "json"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == [v.to_dict() for v in library.violations]
        assert run([*args, "--format", "csv"]) == 3
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert sum(int(row.split(",")[6]) for row in rows) == 894

    def test_violation_lines_name_kappa_and_canonical(self, capsys, monkeypatch):
        from fractions import Fraction

        from dgr import check_universal_bounds
        from test_verifier import lower_bounds

        lower_bounds(monkeypatch, lambda n: Fraction(1, n - 1))
        (library,) = check_universal_bounds(4, "strong", ("kappa_digraph",))
        args = ["verify", "--check", "kappa_digraph", "--order", "4"]
        assert run(args) == 3
        shown = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  VIOLATION ")
        ]
        # the kappa the bound was evaluated at, no lambda, and the canonical
        # form, before the edge list
        assert shown == [
            f"  VIOLATION rho={v.rho} bound={v.bound} margin={v.margin} m={v.m} "
            f"kappa={v.kappa} canonical={v.canonical} digraph={v.digraph.replace(chr(10), '; ')}"
            for v in library.violations[:20]
        ]
        assert all(v.kappa is not None and v.lam is None for v in library.violations)
        # the JSON and CSV output are the records and tallies as before
        assert run([*args, "--format", "json"]) == 3
        assert capsys.readouterr().out == library.to_json()
        assert run([*args, "--format", "csv"]) == 3
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert sum(int(row.split(",")[6]) for row in rows) == len(library.violations) == 24

    def test_verify_sampled(self, capsys):
        code = run([
            "verify", "--check", "digraph_order", "--order", "6",
            "--samples", "100", "--seed", "5",
        ])
        assert code == 0

    def test_verify_extremal_uniqueness(self, capsys):
        assert run([
            "verify", "--check", "extremal_uniqueness", "--order", "4",
            "--m", "9", "--kappa", "1",
        ]) == 0

    def test_verify_lemma(self, capsys):
        assert run(["verify", "--check", "lemma_monotonicity", "--order", "7"]) == 0

    def test_verify_lemma_with_huge_kappa_max(self, capsys):
        # families of connectivity kappa start at order 2 * kappa + 2, so the
        # sweep stops at kappa = 1 however large --kappa-max is
        args = ["verify", "--check", "lemma_monotonicity", "--order", "5", "--format", "json"]
        started = time.monotonic()
        assert run([*args, "--kappa-max", "100000000"]) == 0
        assert time.monotonic() - started < 5
        huge = json.loads(capsys.readouterr().out)
        assert run([*args, "--kappa-max", "3"]) == 0
        small = json.loads(capsys.readouterr().out)
        assert huge["spec"] == {**small["spec"], "kappa_max": 100_000_000}
        assert huge["meta"] == small["meta"] and huge["meta"]["members"] == 4
        assert huge["violations"] == small["violations"] == []

    @pytest.mark.parametrize("kappa_max", ["0", "-1"])
    def test_verify_lemma_below_kappa_one_is_input_error(self, capsys, kappa_max):
        args = ["verify", "--check", "lemma_monotonicity", "--order", "3"]
        assert run([*args, "--kappa-max", kappa_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: kappa_max must be at least 1, got {kappa_max}\n"

    def test_verify_lemma_below_order_one_is_input_error(self, capsys):
        assert run(["verify", "--check", "lemma_monotonicity", "--order", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: n_max must be at least 1, got -2\n"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_audit_below_order_one_is_usage_error(self, capsys, n):
        assert run(["audit", "--n", n, "--kappa", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: order must be at least 1, got {n}\n"

    def test_verify_infeasible_order(self, capsys):
        # past the one order cap, exhaustive and sampled alike
        assert run(["verify", "--check", "digraph_order", "--order", "7"]) == 2
        sampled = ["--samples", "10", "--seed", "1"]
        assert run(["verify", "--check", "digraph_order", "--order", "7", *sampled]) == 2

    def test_audit(self, capsys):
        assert run(["audit", "--n", "6", "--kappa", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        items = [r["item"] for r in doc["audit"]]
        assert "family_max" in items

    def test_usage_error_exit_one(self, capsys):
        assert run(["bound", "--bound", "no_such", "--n", "5", "--m", "1"]) == 1

    def test_console_entrypoint(self):
        result = subprocess.run(
            [sys.executable, "-m", "dgr.cli", "bound", "--bound", "order", "--n", "8"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("4 (= 4)")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--check", "digraph_order", "--order", "3"],
            ["bound", "--bound", "size_digraph", "--n", "5", "--m", "10"],
            ["generate", "cycle", "--n", "4"],
            ["audit", "--n", "6", "--kappa", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_output_is_input_error(self, tmp_path, argv):
        out = tmp_path / "missing" / "out"
        result = subprocess.run(
            [sys.executable, "-m", "dgr.cli", *argv, "--output", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("input error: ")
        assert "Traceback" not in result.stderr
        assert not out.parent.exists()


class TestWorkersEnv:
    def test_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DGR_WORKERS", "2")
        code = run(["verify", "--check", "digraph_order", "--order", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["instances"] == 18

    @pytest.mark.parametrize("value", ["abc", "", "0", "-2"])
    def test_bad_env_is_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("DGR_WORKERS", value)
        assert run(["verify", "--check", "digraph_order", "--order", "3"]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_flag_is_usage_error(self, capsys, value):
        code = run(["verify", "--check", "digraph_order", "--order", "3", "--workers", value])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: ")


class TestVerifyExitCodes:
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_samples_is_usage_error(self, capsys, value):
        code = run([
            "verify", "--check", "digraph_order", "--order", "6",
            "--samples", value, "--seed", "1",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_eulerian_lambda_skips_lambda_one(self, capsys):
        # the bound is stated for lambda in {2, 3}: lambda = 1 digraphs are
        # counted as inapplicable rather than failing the sweep
        code = run(["verify", "--check", "eulerian_lambda", "--order", "4", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["instances"] == 118 and doc["violations"] == []
        assert doc["skipped_inapplicable"] == _eulerian_lambda_one_count(4)

    def test_seed_without_samples_is_usage_error(self, capsys):
        code = run(["verify", "--check", "digraph_order", "--order", "4", "--seed", "3"])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_samples_without_seed_is_usage_error(self, capsys):
        code = run(["verify", "--check", "digraph_order", "--order", "4", "--samples", "10"])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("args", [
        ["eulerian_size_theorem", "--order", "4", "--class", "strong_kappa", "--kappa", "3"],
        ["digraph_order", "--order", "4", "--kappa", "2"],
        ["digraph_order", "--order", "4", "--lambda", "2"],
        ["lemma_monotonicity", "--order", "5", "--m", "3"],
        ["digraph_order", "--order", "4", "--m", "9"],
        ["digraph_order", "--order", "4", "--kappa-max", "2"],
        ["size_digraph", "--order", "4", "--class", "strong_kappa", "--kappa", "2",
         "--lambda", "2"],
        ["extremal_uniqueness", "--order", "4", "--m", "9", "--kappa", "1",
         "--class", "strong"],
        ["extremal_uniqueness", "--order", "4", "--m", "9", "--kappa", "1",
         "--kappa-max", "2"],
    ])
    def test_flags_the_check_does_not_read_are_usage_errors(self, capsys, args):
        assert run(["verify", "--check", *args]) == 1
        assert "does not read" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["size_digraph", "--order", "4", "--class", "strong_kappa", "--kappa", "2"],
        ["eulerian_size", "--order", "4", "--class", "eulerian_lambda", "--lambda", "2"],
        ["lemma_monotonicity", "--order", "6", "--kappa-max", "2"],
    ])
    def test_flags_the_check_reads_are_accepted(self, capsys, args):
        assert run(["verify", "--check", *args]) == 0

    @pytest.mark.parametrize("flags", [["--samples", "5"], ["--seed", "1"],
                                       ["--samples", "5", "--seed", "1"]])
    @pytest.mark.parametrize("check", [
        ["eulerian_size_theorem", "--order", "4"],
        ["extremal_uniqueness", "--order", "4", "--m", "9", "--kappa", "1"],
        ["lemma_monotonicity", "--order", "6"],
    ])
    def test_sampling_flags_on_exhaustive_check_are_usage_errors(self, capsys, check, flags):
        assert run(["verify", "--check", *check, *flags]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("args", [
        ["kappa_digraph", "--order", "6", "--samples", "5", "--seed", "1",
         "--class", "strong_kappa"],
        ["eulerian_size", "--order", "4", "--class", "eulerian_kappa"],
        ["eulerian_lambda", "--order", "4", "--class", "eulerian_lambda"],
    ])
    def test_missing_class_parameter_is_usage_error(self, capsys, args):
        assert run(["verify", "--check", *args]) == 1
        assert capsys.readouterr().err.startswith("usage error: missing flags: --")

    def test_negative_class_parameter_is_input_error(self, capsys):
        code = run([
            "verify", "--check", "kappa_digraph", "--order", "6", "--samples", "5",
            "--seed", "1", "--class", "strong_kappa", "--kappa", "-2",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-negative" in captured.err

    def test_negative_seed_is_input_error(self, capsys):
        # Random(-1) would draw seed 1's sample under a header saying -1
        code = run([
            "verify", "--check", "digraph_order", "--order", "3", "--samples", "5",
            "--seed", "-1",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("args", [
        ["size_digraph", "--class", "strong_kappa", "--kappa", "1"],
        ["eulerian_lambda", "--class", "eulerian_lambda", "--lambda", "2"],
    ])
    def test_order_one_connectivity_class_is_empty(self, capsys, args):
        # below order 2 connectivity is taken as 0, so no digraph meets a threshold
        code = run(["verify", "--check", *args, "--order", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["instances"] == 0 and doc["violations"] == []


def _eulerian_lambda_one_count(n: int) -> int:
    """Eulerian strong digraphs of order n that one arc removal disconnects."""
    cells = [(u, v) for u in range(n) for v in range(n) if v != u]
    count = 0
    for mask, flag in enumerate(eulerian_mask_flags(n)):
        if not flag:
            continue
        arcs = [cell for k, cell in enumerate(cells) if mask >> k & 1]
        count += any(
            not is_strong_oracle(n, arcs[:i] + arcs[i + 1:]) for i in range(len(arcs))
        )
    return count
