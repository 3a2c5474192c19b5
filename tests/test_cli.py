"""Tests for the command-line interface."""

import json
import socket

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig4"])
        assert args.experiment == "fig4"
        assert args.scale == "small"
        assert args.seed == 0

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "fig8", "--scale", "full", "--seed", "3", "--out", "/tmp/x"]
        )
        assert args.scale == "full"
        assert args.seed == 3
        assert args.out == "/tmp/x"

    def test_demo_options(self):
        args = build_parser().parse_args(["demo", "--db-size", "10", "--k", "3"])
        assert args.db_size == 10
        assert args.k == 3

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_index_add_options(self):
        args = build_parser().parse_args(
            ["index-add", "idx.json", "--graphs", "g.gspan"]
        )
        assert args.index == "idx.json"
        assert args.graphs == "g.gspan"
        assert args.format == "gspan"

    def test_index_remove_requires_ids(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index-remove", "idx.json"])
        args = build_parser().parse_args(
            ["index-remove", "idx.json", "--ids", "3", "7"]
        )
        assert args.ids == [3, 7]


class TestMain:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "fig9" in out and "ablation" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_demo_small(self, capsys):
        # Tiny demo end to end: index 12 graphs, answer one query.
        assert main(["demo", "--db-size", "12", "--num-features", "4",
                     "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out

    def test_index_lifecycle_verbs(self, tmp_path, capsys):
        """build (API) → index-add → index-remove → index-compact."""
        from repro.core.mapping import build_mapping
        from repro.datasets import chemical_database, chemical_query_set
        from repro.graph.io import save_gspan
        from repro.index import journal_path, load_index, save_index

        db = chemical_database(14, seed=0)
        mapping = build_mapping(
            db, num_features=5, min_support=0.3, max_pattern_edges=2
        )
        idx = tmp_path / "index.json"
        save_index(mapping, idx)
        graph_file = tmp_path / "new.gspan"
        save_gspan(chemical_query_set(3, seed=5), graph_file)

        assert main(["index-add", str(idx), "--graphs", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "added 3 graphs" in out and "14 -> 17" in out

        assert main(["index-remove", str(idx), "--ids", "0", "2"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 graphs" in out and "17 -> 15" in out
        assert len(journal_path(idx).read_text().splitlines()) == 2

        assert main(["index-compact", str(idx)]) == 0
        out = capsys.readouterr().out
        assert "compacted 2 journal entries" in out
        assert not journal_path(idx).exists()
        assert load_index(idx).space.n == 15

    def test_index_compact_counts_committed_entries(self, tmp_path, capsys):
        """A torn journal tail is an append that never committed: the
        count is what the load replayed, not the lines in the file."""
        from repro.core.mapping import build_mapping
        from repro.datasets import chemical_database
        from repro.index import journal_path, load_index, save_index

        mapping = build_mapping(
            chemical_database(14, seed=0),
            num_features=5, min_support=0.3, max_pattern_edges=2,
        )
        idx = tmp_path / "index.json"
        save_index(mapping, idx)
        mapping.remove_graphs([0])
        save_index(mapping, idx)
        with journal_path(idx).open("a") as handle:
            handle.write('{"seq": 1, "torn')
        assert main(["index-compact", str(idx)]) == 0
        assert "compacted 1 journal entries" in capsys.readouterr().out
        assert load_index(idx).space.n == 13

    def test_index_add_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "index-add", str(tmp_path / "nope.json"),
            "--graphs", str(tmp_path / "nope.gspan"),
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_index_build_malformed_graph_file_fails_cleanly(
        self, tmp_path, capsys
    ):
        graphs = tmp_path / "bad.gspan"
        graphs.write_text("t # 0\nv 0 C\nv 1 C\ne 0 1\n")
        assert main([
            "index-build", str(tmp_path / "idx.json"), "--graphs", str(graphs),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: ")
        assert "Traceback" not in err

    def test_index_remove_bad_ids_fail_cleanly(self, tmp_path, capsys):
        from repro.core.mapping import build_mapping
        from repro.datasets import chemical_database
        from repro.index import save_index

        db = chemical_database(10, seed=0)
        mapping = build_mapping(
            db, num_features=4, min_support=0.3, max_pattern_edges=2
        )
        idx = tmp_path / "index.json"
        save_index(mapping, idx)
        assert main(["index-remove", str(idx), "--ids", "99"]) == 2
        assert "error" in capsys.readouterr().err


def _small_index(tmp_path):
    """A small chemical index saved under *tmp_path*: (mapping, path)."""
    from repro.core.mapping import build_mapping
    from repro.datasets import chemical_database
    from repro.index import save_index

    db = chemical_database(14, seed=0)
    mapping = build_mapping(
        db, num_features=5, min_support=0.3, max_pattern_edges=2
    )
    idx = tmp_path / "index.json"
    save_index(mapping, idx)
    return mapping, idx


def _run_cli(argv, requests=(), **kwargs):
    """``python -m repro.cli *argv*`` with *requests* as its NDJSON
    stdin (or whatever *kwargs* pass instead); returns the finished
    process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if "stdin" not in kwargs:
        kwargs["input"] = "".join(json.dumps(r) + "\n" for r in requests)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, **kwargs,
    )


def _stdio_session(tmp_path, verb, requests):
    """Pipe *requests* through ``python -m repro.cli <verb> --index ...``
    over a small chemical index; returns the finished process, the
    mapping behind the index and the query graph of the session."""
    from repro.datasets import chemical_query_set
    from repro.serving.protocol import graph_to_wire

    mapping, idx = _small_index(tmp_path)
    q = chemical_query_set(1, seed=5)[0]
    proc = _run_cli([*verb, "--index", str(idx)], [
        {**request, "graph": graph_to_wire(q)}
        if request["op"] == "query" else request
        for request in requests
    ])
    return proc, mapping, q


def _refuses_connections(port):
    with socket.socket() as probe:
        return probe.connect_ex(("127.0.0.1", port)) != 0


class TestServeVerb:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.index is None
        assert args.tcp is None
        assert not args.no_stdio
        assert args.queue == 256
        assert args.batch_size == 16
        assert args.quota_rate is None

    @pytest.mark.parametrize(
        "argv",
        [["--search-mode", "approx"], ["--nprobe", "2"], ["--ef", "32"]],
        ids=["search-mode", "nprobe", "ef"],
    )
    def test_serve_has_no_server_wide_search(self, argv, capsys):
        """A request names its own search: ``serve`` takes no policy."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", *argv])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in (
            capsys.readouterr().err
        )

    def test_serve_no_stdio_requires_tcp(self, capsys):
        assert main(["serve", "--no-stdio"]) == 2
        assert "--no-stdio requires --tcp" in capsys.readouterr().err

    def test_serve_rejects_malformed_tcp(self, capsys):
        assert main(["serve", "--tcp", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_serve_missing_index_fails_cleanly(self, tmp_path, capsys):
        assert main(["serve", "--index", str(tmp_path / "no.json")]) == 2
        assert "does not exist" in capsys.readouterr().err
        # ... and so does one that exists but is not an index: a
        # manifest missing a field is an `error:` line, not a traceback.
        assert main([
            "index-build", str(tmp_path / "bad.json"), "--db-size", "10",
            "--num-features", "4", "--min-support", "0.3",
            "--max-pattern-edges", "2",
        ]) == 0
        manifest = json.loads((tmp_path / "bad.json").read_text())
        del manifest["support_counts"]
        (tmp_path / "bad.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["serve", "--index", str(tmp_path / "bad.json")]) == 2
        assert "error: corrupt mapping file" in capsys.readouterr().err

    def test_serve_stdio_session_subprocess(self, tmp_path):
        """A full NDJSON session through the real CLI entry point."""
        proc, mapping, q = _stdio_session(tmp_path, ["serve"], [
            {"op": "query", "id": 1, "k": 3},
            {"op": "stats", "id": 2},
            {"op": "shutdown", "id": 3},
        ])
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3]
        truth = mapping.query_engine().query(q, 3)
        assert responses[0]["ranking"] == truth.ranking
        assert responses[0]["scores"] == truth.scores
        assert responses[1]["frontend"]["completed"] == 1
        assert responses[2]["draining"]
        assert "drained and shut down" in proc.stderr

    def test_lone_query_does_not_wait_out_the_batch_window(self, tmp_path):
        """``--batch-window`` caps the wait for company, and a lone
        caller has none: the query is answered without a linger (it used
        to sit out the whole 5 s)."""
        proc, _mapping, _q = _stdio_session(
            tmp_path, ["serve", "--batch-window", "5"], [
                {"op": "query", "id": 1, "k": 3},
                {"op": "stats", "id": 2},
                {"op": "shutdown", "id": 3},
            ]
        )
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["ok"] for r in responses] == [True, True, True]
        assert responses[1]["frontend"]["completed"] == 1
        assert responses[1]["frontend"]["lingers"] == 0
        assert responses[1]["frontend"]["lingers_expired"] == 0
        assert responses[1]["frontend"]["concurrency"] == 1

    @pytest.mark.parametrize("window", ["nan", "inf", "-1"])
    def test_serve_rejects_unusable_batch_window(self, window, capsys):
        assert main(["serve", "--batch-window", window]) == 2
        err = capsys.readouterr().err
        assert "error: batch_window must be a finite number >= 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--shards", "0"], "n_shards must be >= 1"),
            (["--shards", "-3"], "n_shards must be >= 1"),
            (["--cache-size", "-5"], "cache_size must be >= 0"),
            (["--quota-rate", "nan"], "quota_rate must be a finite number"),
            (["--maintenance-interval", "inf"],
             "maintenance_interval must be a finite number"),
        ],
        ids=["zero-shards", "negative-shards", "negative-cache",
             "nan-quota-rate", "inf-maintenance-interval"],
    )
    def test_serve_rejects_unusable_sizes(self, argv, message, capsys):
        """A size or rate the server refuses is an argument error like
        any other: an ``error:`` line and exit 2, before anything
        serves.  A NaN quota rate used to serve, refusing every query
        with a ``retry_after`` that is not JSON."""
        assert main([
            "serve", "--db-size", "12", "--num-features", "4", *argv
        ]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_serve_with_stdin_on_dev_null_drains_and_exits(self, tmp_path):
        """A character device on stdin (``serve < /dev/null``) reads as
        EOF: the server drains and exits instead of failing inside the
        event loop and serving nothing until a signal."""
        import subprocess

        _mapping, idx = _small_index(tmp_path)
        proc = _run_cli(
            ["serve", "--index", str(idx)], stdin=subprocess.DEVNULL
        )
        assert proc.returncode == 0, proc.stderr
        assert "drained and shut down" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestServeRouterVerb:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--spawn", "1", "--no-stdio"], "--no-stdio requires --tcp"),
            (["--spawn", "1", "--replicas", "127.0.0.1:9"],
             "pass exactly one of --replicas or --spawn"),
            ([], "pass exactly one of --replicas or --spawn"),
            (["--spawn", "1", "--tcp", "nonsense"],
             "--tcp expects HOST:PORT, got 'nonsense'"),
            (["--replicas", "127.0.0.1:x"],
             "--replicas expects HOST:PORT, got '127.0.0.1:x'"),
            (["--spawn", "1", "--health-interval", "nan"],
             "health_interval must be a finite number"),
            (["--spawn", "1", "--shards", "0"], "n_shards must be >= 1"),
        ],
        ids=[
            "no-stdio-without-tcp", "replicas-and-spawn",
            "neither-replicas-nor-spawn", "malformed-tcp",
            "malformed-replicas", "nan-health-interval", "zero-shards",
        ],
    )
    def test_argument_errors_exit_2(self, argv, message, capsys):
        assert main(["serve-router", *argv]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_spawned_stdio_session_subprocess(self, tmp_path):
        """ping / query / maintain / stats / shutdown through the real
        entry point, over one spawned ``serve`` child."""
        proc, mapping, q = _stdio_session(
            tmp_path, ["serve-router", "--spawn", "1"], [
                {"op": "ping", "id": 1},
                {"op": "query", "id": 2, "k": 3},
                {"op": "maintain", "id": 3},
                {"op": "stats", "id": 4},
                {"op": "shutdown", "id": 5},
            ]
        )
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3, 4, 5]
        assert [r["ok"] for r in responses] == [True, True, False, True, True]
        truth = mapping.query_engine().query(q, 3)
        assert responses[1]["ranking"] == truth.ranking
        assert responses[1]["scores"] == truth.scores
        assert responses[1]["replica"] == "replica-0"
        assert responses[2]["error"] == "bad_request"
        assert responses[3]["router"]["completed"] == 1
        assert responses[3]["router"]["bad_requests"] == 1
        assert responses[4]["draining"]
        assert "drained and shut down" in proc.stderr
        # The router owns the child it spawned: gone before it exits.
        spawned = [
            line for line in proc.stderr.splitlines()
            if line.startswith("spawned replica-0 on 127.0.0.1:")
        ]
        assert len(spawned) == 1
        assert _refuses_connections(int(spawned[0].rpartition(":")[2]))

    def test_two_spawned_replicas_each_answer_their_block(self, tmp_path):
        """``--spawn 2``, the way a second core is used: a query placed
        on each block is answered by that block's replica, bit-identical
        to the single engine, and both children are gone after
        ``shutdown``."""
        from repro.datasets import chemical_query_set
        from repro.serving.protocol import graph_to_wire
        from repro.serving.router import ContentPlacer

        mapping, idx = _small_index(tmp_path)
        placer = ContentPlacer(mapping, 2)
        by_block = {}
        for q in chemical_query_set(40, seed=5):
            by_block.setdefault(placer.block_for(q), q)
        assert sorted(by_block) == [0, 1]
        proc = _run_cli(
            ["serve-router", "--spawn", "2", "--index", str(idx)],
            [
                *(
                    {"op": "query", "id": block, "k": 3,
                     "graph": graph_to_wire(by_block[block])}
                    for block in (0, 1)
                ),
                {"op": "shutdown", "id": 2},
            ],
        )
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["id"] for r in responses] == [0, 1, 2]
        engine = mapping.query_engine()
        for block in (0, 1):
            answer = responses[block]
            truth = engine.query(by_block[block], 3)
            assert answer["replica"] == f"replica-{block}"
            assert answer["ranking"] == truth.ranking
            assert answer["scores"] == truth.scores
        assert responses[2]["draining"]
        ports = [
            int(line.rpartition(":")[2])
            for line in proc.stderr.splitlines()
            if line.startswith("spawned replica-")
        ]
        assert len(ports) == 2
        assert all(_refuses_connections(port) for port in ports)


class TestAutoCompactOption:
    def test_index_add_auto_compacts(self, tmp_path, capsys):
        from repro.core.mapping import build_mapping
        from repro.datasets import chemical_database, chemical_query_set
        from repro.graph.io import save_gspan
        from repro.index import journal_path, load_index, save_index

        db = chemical_database(14, seed=0)
        mapping = build_mapping(
            db, num_features=5, min_support=0.3, max_pattern_edges=2
        )
        idx = tmp_path / "index.json"
        save_index(mapping, idx)
        graph_file = tmp_path / "new.gspan"
        save_gspan(chemical_query_set(2, seed=5), graph_file)
        assert main([
            "index-add", str(idx), "--graphs", str(graph_file),
            "--auto-compact-ratio", "1e-9",
        ]) == 0
        assert not journal_path(idx).exists()  # folded into a fresh base
        assert load_index(idx).space.n == 16


class TestKernelAndBuildVerbs:
    def test_index_build_parser_defaults(self):
        args = build_parser().parse_args(["index-build", "idx.json"])
        assert args.index == "idx.json"
        assert args.selection == "variance"
        assert args.graphs is None

    def test_index_build_synthetic_paged_round_trip(self, tmp_path, capsys):
        from repro.index import load_index, payload_path

        idx = tmp_path / "built.json"
        assert main([
            "index-build", str(idx), "--db-size", "14",
            "--num-features", "6", "--min-support", "0.3",
            "--max-pattern-edges", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "built index from synthetic" in out
        assert f"saved {idx}: manifest" in out and "KiB, payload" in out
        assert payload_path(idx).exists()
        eager = load_index(idx)
        lazy = load_index(idx, mmap=True)
        assert lazy.load_mode == "mmap" and eager.load_mode == "eager"
        assert (lazy.database_vectors == eager.database_vectors).all()

    def test_index_build_from_graph_file(self, tmp_path, capsys):
        from repro.datasets import chemical_database
        from repro.graph.io import save_gspan
        from repro.index import load_index

        graph_file = tmp_path / "db.gspan"
        save_gspan(chemical_database(12, seed=1), graph_file)
        idx = tmp_path / "built.json"
        assert main([
            "index-build", str(idx), "--graphs", str(graph_file),
            "--num-features", "5", "--min-support", "0.3",
            "--max-pattern-edges", "2",
        ]) == 0
        assert "12 graphs" in capsys.readouterr().out
        assert load_index(idx).space.n == 12

    def test_index_build_missing_graphs_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "index-build", str(tmp_path / "idx.json"),
            "--graphs", str(tmp_path / "nope.gspan"),
        ]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            {"edges": []},
            {"vertices": ["C", "C"], "edges": [[0, 1.7, "s"]]},
        ],
        ids=["no-vertices", "float-endpoint"],
    )
    def test_index_build_bad_json_graph_fails_cleanly(
        self, tmp_path, capsys, record
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([record]))
        assert main([
            "index-build", str(tmp_path / "idx.json"),
            "--graphs", str(bad), "--format", "json",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_index_build_impossible_support_fails_cleanly(
        self, tmp_path, capsys
    ):
        assert main([
            "index-build", str(tmp_path / "idx.json"), "--db-size", "8",
            "--min-support", "1.1",
        ]) == 2
        assert "error" in capsys.readouterr().err
