"""CLI tests (direct main() invocation; no subprocesses needed)."""

import pytest

from repro.cli import main


class TestRewrite:
    def test_figure1(self, capsys):
        code = main(
            [
                "rewrite",
                "--query", "a.(b.a+c)*",
                "--view", "e1=a",
                "--view", "e2=a.c*.b",
                "--view", "e3=c",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rewriting: e2*.e1.e3*" in out
        assert "exact: True" in out

    def test_inexact_reports_witness(self, capsys):
        main(
            [
                "rewrite",
                "--query", "a.(b.a+c)*",
                "--view", "e1=a",
                "--view", "e2=a.c*.b",
            ]
        )
        out = capsys.readouterr().out
        assert "exact: False" in out
        assert "missed query word:" in out

    def test_partial_search(self, capsys):
        main(
            [
                "rewrite",
                "--query", "a.(b+c)",
                "--view", "q1=a",
                "--view", "q2=b",
                "--partial",
            ]
        )
        out = capsys.readouterr().out
        assert "add elementary views for c" in out

    def test_dot_output(self, capsys):
        main(
            ["rewrite", "--query", "a", "--view", "e1=a", "--dot"]
        )
        out = capsys.readouterr().out
        assert "digraph rewriting" in out

    def test_bad_view_definition(self):
        with pytest.raises(SystemExit):
            main(["rewrite", "--query", "a", "--view", "nonsense"])


class TestRewriteBatch:
    VIEWS = ["--view", "e1=a", "--view", "e2=a.c*.b", "--view", "e3=c"]

    def test_batch_file(self, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("a.(b.a+c)*\n# a comment\n\n(a.c*.b)*\nd\n")
        code = main(["rewrite", "--batch", str(batch), *self.VIEWS])
        captured = capsys.readouterr()
        assert code == 0
        assert "query: a.(b.a+c)*" in captured.out
        assert "rewriting: e2*.e1.e3*" in captured.out
        assert "query: d" in captured.out
        assert "empty: True" in captured.out
        assert "3 queries, 2 nonempty rewritings" in captured.err

    def test_repeated_query_flags_run_as_batch(self, capsys):
        code = main(
            ["rewrite", "--query", "a", "--query", "c", *self.VIEWS]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "query: a" in out and "query: c" in out

    def test_batch_rejects_partial_flag(self, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("a\nc\n")
        with pytest.raises(SystemExit):
            main(["rewrite", "--batch", str(batch), "--partial", *self.VIEWS])

    def test_no_queries_at_all_rejected(self):
        with pytest.raises(SystemExit):
            main(["rewrite", "--view", "e1=a"])


class TestCheck:
    def test_nonempty(self, capsys):
        code = main(["check", "--query", "a*", "--view", "e1=a"])
        assert code == 0
        assert "nonempty" in capsys.readouterr().out

    def test_empty_sets_exit_code(self, capsys):
        code = main(["check", "--query", "a", "--view", "e1=b"])
        assert code == 1
        assert "empty" in capsys.readouterr().out

    def test_epsilon_witness_rendering(self, capsys):
        code = main(["check", "--query", "a*", "--view", "e1=b"])
        assert code == 0
        assert "(empty word)" in capsys.readouterr().out


class TestEval:
    def test_evaluates_graph_file(self, tmp_path, capsys):
        graph = tmp_path / "edges.tsv"
        graph.write_text("x\ta\ty\ny\tb\tz\n# comment\n\n")
        code = main(["eval", "--graph", str(graph), "--query", "a.b"])
        captured = capsys.readouterr()
        assert code == 0
        assert "x\tz" in captured.out
        assert "1 answers" in captured.err

    def test_malformed_line_rejected(self, tmp_path):
        graph = tmp_path / "bad.tsv"
        graph.write_text("only two\tfields\n")
        with pytest.raises(SystemExit):
            main(["eval", "--graph", str(graph), "--query", "a"])

    def test_naive_engine_agrees(self, tmp_path, capsys):
        graph = tmp_path / "edges.tsv"
        graph.write_text("x\ta\ty\ny\tb\tz\nz\ta\tx\n")
        main(["eval", "--graph", str(graph), "--query", "a.b*"])
        fast = capsys.readouterr().out
        main(["eval", "--graph", str(graph), "--query", "a.b*", "--naive"])
        naive = capsys.readouterr().out
        assert fast == naive

    def test_single_source(self, tmp_path, capsys):
        graph = tmp_path / "edges.tsv"
        graph.write_text("x\ta\ty\ny\tb\tz\n")
        code = main(
            ["eval", "--graph", str(graph), "--query", "a.b", "--source", "x"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "x\tz" in captured.out

    def test_single_source_unknown_node(self, tmp_path):
        graph = tmp_path / "edges.tsv"
        graph.write_text("x\ta\ty\n")
        with pytest.raises(SystemExit):
            main(
                ["eval", "--graph", str(graph), "--query", "a", "--source", "q"]
            )

    def test_pair_decision_exit_codes(self, tmp_path, capsys):
        graph = tmp_path / "edges.tsv"
        graph.write_text("x\ta\ty\ny\tb\tz\n")
        assert (
            main(
                ["eval", "--graph", str(graph), "--query", "a.b", "--pair", "x", "z"]
            )
            == 0
        )
        assert "answer" in capsys.readouterr().out
        assert (
            main(
                ["eval", "--graph", str(graph), "--query", "b", "--pair", "x", "z"]
            )
            == 1
        )
        assert "no answer" in capsys.readouterr().out


class TestAnswer:
    @pytest.fixture
    def tuples(self, tmp_path):
        path = tmp_path / "tuples.tsv"
        path.write_text("q1\tu\tv\nq1\tw\tv\nq2\tv\tz\n")
        return str(path)

    def test_all_pairs_from_extensions(self, tuples, capsys):
        code = main(
            [
                "answer",
                "--query", "a.b",
                "--view", "q1=a",
                "--view", "q2=b",
                "--extensions", tuples,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "exact: True" in out
        assert "u\tz" in out and "w\tz" in out

    def test_single_source_and_pair_modes(self, tuples, capsys):
        main(
            [
                "answer",
                "--query", "a.b",
                "--view", "q1=a",
                "--view", "q2=b",
                "--extensions", tuples,
                "--source", "u",
            ]
        )
        assert "u\tz" in capsys.readouterr().out
        assert (
            main(
                [
                    "answer",
                    "--query", "a.b",
                    "--view", "q1=a",
                    "--view", "q2=b",
                    "--extensions", tuples,
                    "--pair", "u", "v",
                ]
            )
            == 1
        )
        assert "no answer" in capsys.readouterr().out

    def test_stats_prints_serving_counters_as_json_on_stderr(
        self, tuples, capsys
    ):
        import json

        code = main(
            [
                "answer",
                "--query", "a.b",
                "--query", "a",
                "--view", "q1=a",
                "--view", "q2=b",
                "--extensions", tuples,
                "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "u\tz" in captured.out  # answers untouched on stdout
        report = json.loads(captured.err.splitlines()[-1])
        assert report["store"]["tuples"] == 3
        assert report["store"]["version"] >= 1
        assert [entry["query"] for entry in report["sessions"]] == ["a.b", "a"]
        for entry in report["sessions"]:
            assert entry["stats"]["requests"] == 1
            assert entry["stats"]["full_recomputes"] == 1
            assert entry["stats"]["incremental_updates"] == 0
        assert report["compile_cache"]["misses"] >= 1
        assert report["plan_cache"]["built"] == 2

    def test_stats_with_pair_mode(self, tuples, capsys):
        import json

        code = main(
            [
                "answer",
                "--query", "a.b",
                "--view", "q1=a",
                "--view", "q2=b",
                "--extensions", tuples,
                "--pair", "u", "z",
                "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.err.splitlines()[-1])
        assert report["sessions"][0]["stats"]["requests"] == 1

    def test_plan_cache_persists_between_invocations(
        self, tuples, tmp_path, capsys
    ):
        plan_dir = tmp_path / "plans"
        args = [
            "answer",
            "--query", "a.b",
            "--view", "q1=a",
            "--view", "q2=b",
            "--extensions", tuples,
            "--plan-cache", str(plan_dir),
        ]
        assert main(args) == 0
        saved = list(plan_dir.glob("*.json"))
        assert len(saved) == 1
        first = capsys.readouterr().out
        assert main(args) == 0  # second run loads the saved plan
        assert capsys.readouterr().out == first

    def test_unknown_view_in_extensions_rejected(self, tmp_path):
        path = tmp_path / "tuples.tsv"
        path.write_text("zzz\tu\tv\n")
        with pytest.raises(SystemExit, match="undefined views"):
            main(
                [
                    "answer",
                    "--query", "a",
                    "--view", "q1=a",
                    "--extensions", str(path),
                ]
            )

    def test_malformed_extension_line_rejected(self, tmp_path):
        path = tmp_path / "tuples.tsv"
        path.write_text("q1\tonly-two-fields\n")
        with pytest.raises(SystemExit, match="3 tab-separated"):
            main(
                [
                    "answer",
                    "--query", "a",
                    "--view", "q1=a",
                    "--extensions", str(path),
                ]
            )


class TestAnswerSharded:
    @pytest.fixture
    def tuples(self, tmp_path):
        path = tmp_path / "tuples.tsv"
        path.write_text("q1\tu\tv\nq1\tw\tv\nq2\tv\tz\n")
        return str(path)

    BASE = ["answer", "--query", "a.b", "--view", "q1=a", "--view", "q2=b"]

    def test_invalid_shard_and_worker_counts_rejected(self, tuples, capsys):
        """The answer verb has no shard options: any count is refused."""
        for flag in ("--shards", "--workers"):
            for count in ("0", "3"):
                with pytest.raises(SystemExit):
                    main([*self.BASE, "--extensions", tuples, flag, count])
                assert flag in capsys.readouterr().err


class TestWorkload:
    def test_graph_tsv_feeds_eval(self, tmp_path, capsys):
        graph = tmp_path / "graph.tsv"
        code = main(
            [
                "workload",
                "--family", "grid",
                "--seed", "7",
                "--edges", "24",
                "--graph-out", str(graph),
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "grid seed=7" in err
        # The emitted TSV is directly consumable by `repro eval`.
        code = main(["eval", "--graph", str(graph), "--query", "r.d"])
        captured = capsys.readouterr()
        assert code == 0
        assert "answers" in captured.err

    def test_stdout_graph_queries_and_signature(self, capsys):
        code = main(
            [
                "workload",
                "--family", "chain",
                "--seed", "3",
                "--edges", "5",
                "--num-queries", "2",
                "--signature",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert len([l for l in captured.out.splitlines() if "\t" in l]) == 5
        assert sum(l.startswith("# query: ") for l in captured.out.splitlines()) == 2
        assert "# signature: " in captured.err

    def test_queries_out_file_feeds_rewrite_batch(self, tmp_path, capsys):
        graph = tmp_path / "graph.tsv"
        queries = tmp_path / "queries.txt"
        main(
            [
                "workload",
                "--family", "scale_free",
                "--seed", "1",
                "--edges", "30",
                "--graph-out", str(graph),
                "--num-queries", "3",
                "--queries-out", str(queries),
            ]
        )
        capsys.readouterr()
        assert len(queries.read_text().splitlines()) == 3
        code = main(
            [
                "rewrite",
                "--batch", str(queries),
                "--view", "v_a=a",
                "--view", "v_b=b",
                "--view", "v_c=c",
            ]
        )
        assert code == 0
        assert "3 queries" in capsys.readouterr().err

    def test_unknown_family_and_bad_edges_rejected(self):
        with pytest.raises(SystemExit, match="unknown --family"):
            main(["workload", "--family", "torus"])
        with pytest.raises(SystemExit, match="--edges"):
            main(["workload", "--family", "chain", "--edges", "0"])

    def test_queries_out_without_num_queries_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--num-queries"):
            main(
                [
                    "workload",
                    "--family", "chain",
                    "--queries-out", str(tmp_path / "q.txt"),
                ]
            )


class TestServeBench:
    def test_tiny_run_reports_speedups(self, capsys):
        code = main(
            [
                "serve-bench",
                "--nodes", "40",
                "--edges", "120",
                "--queries", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cold rewrite+evaluate loop" in out
        assert "steady state" in out


class TestServe:
    """The serve verb needs a subprocess: it blocks until shutdown."""

    def test_serves_http_until_shutdown(self):
        import json
        import os
        import subprocess
        import sys
        import urllib.request
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        with subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workload-tenant", "alpha=chain:3:40",
                "--workload-tenant", "beta=grid:5:40",
            ],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:  # closes both pipes and waits on the way out
            try:
                banner = proc.stdout.readline()
                assert "serving 2 tenant(s) on http://" in banner
                url = banner.strip().rsplit(" ", 1)[-1]
                with urllib.request.urlopen(f"{url}/health", timeout=30) as resp:
                    health = json.load(resp)
                assert set(health["tenants"]) == {"alpha", "beta"}
                request = urllib.request.Request(
                    f"{url}/tenants/alpha/query",
                    data=json.dumps({"query": "a.b"}).encode(),
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=60) as resp:
                    body = json.load(resp)
                assert body["version"] == health["tenants"]["alpha"]["version"]
                assert isinstance(body["answers"], list)
                request = urllib.request.Request(
                    f"{url}/shutdown", data=b"{}", method="POST"
                )
                with urllib.request.urlopen(request, timeout=30) as resp:
                    assert json.load(resp)["status"] == "shutting-down"
                assert proc.wait(timeout=60) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)

    def test_shard_and_worker_flags_rejected(self, capsys):
        for flag in ("--shards", "--workers"):
            with pytest.raises(SystemExit):
                main(
                    ["serve", "--workload-tenant", "alpha=chain:3:40", flag, "2"]
                )
            assert flag in capsys.readouterr().err

    def test_bad_tenant_specs_rejected(self):
        with pytest.raises(SystemExit, match="expected NAME=FAMILY:SEED:EDGES"):
            main(["serve", "--workload-tenant", "nonsense"])
        with pytest.raises(SystemExit, match="must be integers"):
            main(["serve", "--workload-tenant", "t=chain:x:40"])
        with pytest.raises(SystemExit, match="unknown family"):
            main(["serve", "--workload-tenant", "t=blob:1:40"])
        with pytest.raises(SystemExit, match="duplicate tenant"):
            main(
                [
                    "serve",
                    "--workload-tenant", "t=chain:1:40",
                    "--workload-tenant", "t=grid:1:40",
                ]
            )


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401
