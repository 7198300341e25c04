"""End-to-end tests for the signed-clique command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io import write_signed_edgelist
from tests.conftest import PAPER_EDGES
from repro.graphs import SignedGraph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "paper.txt"
    write_signed_edgelist(SignedGraph(PAPER_EDGES), path)
    return str(path)


class TestStats:
    def test_stats_output(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "17" in out and "negative fraction" in out


class TestMccore:
    def test_mccore_nodes(self, graph_file, capsys):
        assert main(["mccore", graph_file, "--alpha", "3", "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "5 nodes" in out
        assert "1 2 3 4 5" in out

    def test_positive_core_method(self, graph_file, capsys):
        assert main(
            ["mccore", graph_file, "--alpha", "3", "-k", "1", "--method", "positive-core"]
        ) == 0
        assert "7 nodes" in capsys.readouterr().out


class TestEnumerate:
    def test_text_output(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "--alpha", "3", "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "#1: size=5" in out

    def test_json_output(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "--alpha", "3", "-k", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["nodes"] == [1, 2, 3, 4, 5]
        assert payload[0]["negative_edges"] == 1

    def test_selection_flag(self, graph_file, capsys):
        assert main(
            ["enumerate", graph_file, "--alpha", "3", "-k", "1", "--selection", "random"]
        ) == 0
        assert "size=5" in capsys.readouterr().out

    def test_workers_flag(self, graph_file, capsys):
        argv = ["enumerate", graph_file, "--alpha", "3", "-k", "1", "--workers", "2"]
        assert main(argv) == 0
        assert "#1: size=5" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["enumerate", "serve-grid", "serve"])
def test_rejects_non_positive_workers(graph_file, capsys, command, value):
    options = {
        "enumerate": ["--alpha", "3", "-k", "1"],
        "serve-grid": ["--alphas", "3", "--ks", "1"],
        "serve": ["--port", "0", "--exit-after", "0.01"],
    }[command]
    argv = [command, graph_file, *options, f"--workers={value}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


class TestTopAndConductance:
    def test_top(self, graph_file, capsys):
        assert main(["top", graph_file, "--alpha", "3", "-k", "0", "-r", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("#") == 2

    def test_conductance(self, graph_file, capsys):
        assert main(["conductance", graph_file, "--alpha", "3", "-k", "1", "-r", "5"]) == 0
        assert "signed_conductance=" in capsys.readouterr().out


class TestGenerate:
    def test_generate_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "toy.txt"
        assert main(["generate", "flysign", str(out_path), "--seed", "1"]) == 0
        assert out_path.exists()
        assert "wrote" in capsys.readouterr().out


class TestQuery:
    def test_query_finds_clique(self, graph_file, capsys):
        assert main(["query", graph_file, "--alpha", "3", "-k", "1", "1"]) == 0
        assert "size=5" in capsys.readouterr().out

    def test_query_multiple_nodes(self, graph_file, capsys):
        assert main(["query", graph_file, "--alpha", "3", "-k", "1", "2", "3"]) == 0
        assert "size=5" in capsys.readouterr().out

    def test_query_empty_answer(self, graph_file, capsys):
        assert main(["query", graph_file, "--alpha", "3", "-k", "1", "8"]) == 0
        assert "no maximal" in capsys.readouterr().out

    def test_query_unknown_node_errors(self, graph_file, capsys):
        assert main(["query", graph_file, "--alpha", "3", "-k", "1", "42"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBalance:
    def test_balance_report(self, graph_file, capsys):
        assert main(["balance", graph_file]) == 0
        out = capsys.readouterr().out
        assert "balanced:" in out and "triangle census" in out


class TestSweep:
    def test_sweep_prints_grid_and_suggestion(self, graph_file, capsys):
        assert main(["sweep", graph_file, "--alphas", "2", "3", "--ks", "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "alpha\\k" in out
        assert "strictest non-empty setting" in out


class TestErrors:
    def test_missing_file_reports_error(self, tmp_path, capsys):
        bogus = tmp_path / "bad.txt"
        bogus.write_text("1 2 weird\n")
        assert main(["stats", str(bogus)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_binary_input_reports_error_without_traceback(self, tmp_path, capsys):
        binary = tmp_path / "net.graph"
        binary.write_bytes(b"\xff\xfe" + bytes(range(256)))
        assert main(["enumerate", str(binary), "--alpha", "2", "-k", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: not UTF-8")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--memory-budget", "0"),
            ("--memory-budget", "-1g"),
            ("--memory-budget", "lots"),
            ("--default-deadline", "soon"),
            ("--default-deadline", "0"),
            ("--max-deadline", "-5s"),
        ],
    )
    def test_serve_rejects_bad_limits_without_traceback(self, graph_file, capsys, flag, value):
        argv = ["serve", graph_file, "--port", "0", "--exit-after", "0.01", f"{flag}={value}"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert "serving" not in captured.out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestReportCommand:
    def test_report_subcommand(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", str(target), "--sections", "table1"]) == 0
        assert target.exists()
        assert "wrote" in capsys.readouterr().out
