"""Command-line interface.

Examples
--------
List the available experiments::

    repro-graphdim list

Regenerate a figure at bench scale, writing the table to ``results/``::

    repro-graphdim run fig4 --scale small --out results

Run an interactive-style demo search::

    repro-graphdim demo --db-size 60 --num-features 20 --k 5
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.experiments import RUNNERS

    print("available experiments:")
    for name in RUNNERS:
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import RUNNERS

    if args.experiment == "all":
        names = list(RUNNERS)
    else:
        names = [args.experiment]
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in names:
        start = time.perf_counter()
        result = RUNNERS[name](scale=args.scale, seed=args.seed, out_dir=args.out)
        elapsed = time.perf_counter() - start
        print(result["report"])
        print(f"[{name} finished in {elapsed:.1f}s]")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.mapping import build_mapping
    from repro.datasets import chemical_database, chemical_query_set
    from repro.query.topk import ExactTopKEngine

    print(f"generating {args.db_size} molecule-like graphs ...")
    db = chemical_database(args.db_size, seed=args.seed)
    queries = chemical_query_set(1, seed=args.seed + 1)

    print("building DSPM index (mine -> select -> embed) ...")
    start = time.perf_counter()
    mapping = build_mapping(
        db,
        num_features=args.num_features,
        min_support=0.1,
        max_pattern_edges=5,
    )
    print(
        f"  index ready in {time.perf_counter() - start:.1f}s "
        f"({mapping.dimensionality} dimensions out of {mapping.space.m} mined)"
    )

    engine = mapping.query_engine()
    print(
        f"  feature lattice: {engine.lattice.num_edges} containment pairs "
        f"({engine.lattice.vf2_checks} offline VF2 checks)"
    )
    exact = ExactTopKEngine(db)
    q = queries[0]
    start = time.perf_counter()
    result = engine.query(q, args.k)
    mapped = time.perf_counter()
    truth = exact.query(q, args.k)
    end = time.perf_counter()
    print(f"query {q.graph_id}: |V|={q.num_vertices} |E|={q.num_edges}")
    print(f"  mapped  top-{args.k}: {[db[i].graph_id for i in result.ranking]}")
    print(
        f"          in {(mapped - start) * 1e3:.2f} ms "
        f"({engine.stats.vf2_calls} VF2 calls, "
        f"{engine.stats.features_pruned} lattice-pruned)"
    )
    print(f"  exact   top-{args.k}: {[db[i].graph_id for i in truth.ranking]}")
    print(f"          in {(end - mapped) * 1e3:.2f} ms")
    overlap = len(set(result.ranking) & set(truth.ranking))
    print(f"  precision: {overlap}/{args.k}")
    return 0


def _parse_search_policy(args: argparse.Namespace):
    """The server-wide default SearchPolicy from --search-mode/--nprobe.

    Returns ``None`` for plain exact mode (the service default), so the
    flags only pin a policy when they actually change behaviour.
    """
    from repro.query.pruning import SearchPolicy

    if args.search_mode == "approx":
        if args.nprobe is None:
            raise ValueError("--search-mode approx requires --nprobe")
        if args.ef is not None:
            raise ValueError("--ef requires --search-mode graph")
        return SearchPolicy(mode="approx", nprobe=args.nprobe)
    if args.search_mode == "graph":
        if args.nprobe is not None:
            raise ValueError("--nprobe requires --search-mode approx")
        return SearchPolicy(mode="graph", ef=args.ef)
    if args.nprobe is not None:
        raise ValueError("--nprobe requires --search-mode approx")
    if args.ef is not None:
        raise ValueError("--ef requires --search-mode graph")
    return None


def _build_demo_mapping(db_size: int, num_features: int, seed: int):
    """The synthetic demo index ``serve``/``serve-router`` fall back to."""
    from repro.core.mapping import mapping_from_selection, variance_selection
    from repro.datasets import synthetic_database
    from repro.features.binary_matrix import FeatureSpace
    from repro.mining import mine_frequent_subgraphs

    db = synthetic_database(db_size, seed=seed)
    features = mine_frequent_subgraphs(db, min_support=0.1, max_edges=6)
    space = FeatureSpace(features, len(db))
    return mapping_from_selection(
        space, variance_selection(space, num_features)
    )


def _parse_address(flag: str, spec: str) -> Tuple[str, int]:
    """``HOST:PORT`` as given to *flag*; ``ValueError`` names the flag."""
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"{flag} expects HOST:PORT, got {spec!r}")
    return host, int(port)


def _listen_address(args: argparse.Namespace) -> Optional[Tuple[str, int]]:
    """The ``--tcp`` address of a serving verb, or ``None`` (stdio only)."""
    if args.no_stdio and not args.tcp:
        raise ValueError("--no-stdio requires --tcp")
    return _parse_address("--tcp", args.tcp) if args.tcp else None


async def _serve_until_drained(
    handler, listen: Optional[Tuple[str, int]], use_stdio: bool
) -> None:
    """Run a started *handler* (frontend or router) until it has drained:
    signals and ``shutdown`` begin the drain, stdin EOF also means "wrap
    up"; the listener and the handler are closed on the way out."""
    import asyncio
    import signal

    from repro.serving import protocol

    server = None
    try:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, handler.begin_drain)
            except (NotImplementedError, RuntimeError):
                pass  # platform without signal support
        if listen is not None:
            server = await protocol.serve_tcp(handler, *listen)
            bound = server.sockets[0].getsockname()
            print(f"listening on {bound[0]}:{bound[1]}", file=sys.stderr)
        if use_stdio:
            await protocol.serve_stdio(handler)
            handler.begin_drain()
        else:
            await handler.wait_shutdown()
    finally:
        if server is not None:
            server.close()
            await server.wait_closed()
        await handler.aclose()
    print("drained and shut down", file=sys.stderr)


def _cmd_serve(args: argparse.Namespace) -> int:
    """The long-running NDJSON serving loop (stdin/stdout and/or TCP)."""
    import asyncio

    from repro.serving.frontend import AsyncFrontend, FrontendConfig
    from repro.serving.service import QueryService
    from repro.utils.errors import GraphDimensionError

    try:
        listen = _listen_address(args)
        if args.index:
            from repro.index import load_index

            mapping = load_index(args.index)
            print(f"loaded index {args.index}: {mapping.space.n} graphs, "
                  f"{mapping.dimensionality} dimensions", file=sys.stderr)
        else:
            mapping = _build_demo_mapping(
                args.db_size, args.num_features, args.seed
            )
            print(f"built demo index: {mapping.space.n} graphs, "
                  f"{mapping.dimensionality} dimensions", file=sys.stderr)
        reselector = None
        if args.reselect:
            from repro.core.reselect import Reselector

            reselector = Reselector().attach(
                mapping, max_drift=args.max_drift
            )
        else:
            from repro.core.mapping import StalenessPolicy

            mapping.staleness_policy = StalenessPolicy(
                max_drift=args.max_drift
            )
        config = FrontendConfig(
            max_queue=args.queue,
            batch_size=args.batch_size,
            batch_window=args.batch_window,
            quota_rate=args.quota_rate,
            quota_burst=args.quota_burst,
            default_policy=_parse_search_policy(args),
            maintenance_interval=args.maintenance_interval,
            reselector=reselector,
        )
        service = QueryService(
            mapping.query_engine(),
            n_shards=args.shards,
            cache_size=args.cache_size,
        )
    except (ValueError, OSError, GraphDimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _main() -> None:
        frontend = AsyncFrontend(service, config)
        await frontend.start()
        await _serve_until_drained(frontend, listen, not args.no_stdio)

    asyncio.run(_main())
    return 0


def _cmd_serve_router(args: argparse.Namespace) -> int:
    """The router tier: one NDJSON coordinator over N serving replicas."""
    import asyncio
    import tempfile
    from pathlib import Path

    from repro.serving.router import (
        ContentPlacer,
        Router,
        RouterConfig,
        TcpReplica,
        spawn_replica,
    )
    from repro.utils.errors import GraphDimensionError, ReplicaError

    try:
        listen = _listen_address(args)
        if bool(args.replicas) == bool(args.spawn):
            raise ValueError("pass exactly one of --replicas or --spawn")
        addresses = [
            _parse_address("--replicas", spec)
            for spec in args.replicas or []
        ]
        config = RouterConfig(
            max_inflight=args.max_inflight,
            quota_rate=args.quota_rate,
            quota_burst=args.quota_burst,
            max_tenants=args.max_tenants,
            health_interval=args.health_interval,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _main() -> int:
        from repro.index import load_index, save_index

        tmpdir = None
        try:
            if args.index:
                index_path = args.index
                mapping = load_index(index_path)
                print(
                    f"loaded index {index_path}: {mapping.space.n} graphs, "
                    f"{mapping.dimensionality} dimensions",
                    file=sys.stderr,
                )
            elif args.spawn:
                # Spawned children need an artifact on disk; build the
                # demo index once and let every replica load the same
                # file — exactly the artifact-restart story.
                tmpdir = tempfile.TemporaryDirectory(prefix="serve-router-")
                index_path = str(Path(tmpdir.name) / "index.json")
                mapping = _build_demo_mapping(
                    args.db_size, args.num_features, args.seed
                )
                save_index(mapping, index_path)
                print(
                    f"built demo index: {mapping.space.n} graphs, "
                    f"{mapping.dimensionality} dimensions",
                    file=sys.stderr,
                )
            else:
                # Pre-existing replicas, no index on hand: round-robin
                # placement only.
                index_path, mapping = None, None

            if args.spawn:
                replicas = [
                    await spawn_replica(
                        f"replica-{i}", index_path, n_shards=args.shards
                    )
                    for i in range(args.spawn)
                ]
                for replica in replicas:
                    print(
                        f"spawned {replica.name} on "
                        f"{replica.host}:{replica.port}",
                        file=sys.stderr,
                    )
            else:
                replicas = [
                    TcpReplica(f"replica-{i}", host, port)
                    for i, (host, port) in enumerate(addresses)
                ]
            placer = (
                ContentPlacer(mapping, n_blocks=len(replicas))
                if mapping is not None
                else None
            )
            router = Router(replicas, config, placer=placer)
            await router.start()
            print(
                f"routing over {len(replicas)} replicas "
                f"({'content-aware' if placer else 'round-robin'} "
                "placement)",
                file=sys.stderr,
            )
            await _serve_until_drained(router, listen, not args.no_stdio)
            return 0
        finally:
            if tmpdir is not None:
                tmpdir.cleanup()

    try:
        return asyncio.run(_main())
    except (ReplicaError, OSError, ValueError, GraphDimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _load_graph_file(path: str, fmt: str):
    from repro.graph.io import load_gspan, load_json

    return load_gspan(path) if fmt == "gspan" else load_json(path)


def _print_index_status(mapping) -> None:
    """The shared post-mutation status line of the index verbs."""
    print(
        f"journal entries: {mapping.journal_seq}; "
        f"support drift: {mapping.support_drift:.3f}"
        + ("  [STALE - re-selection recommended]" if mapping.stale else "")
    )


def _cmd_index_add(args: argparse.Namespace) -> int:
    """Add graphs to a saved index without rebuilding it."""
    from repro.index import load_index, save_index
    from repro.utils.errors import GraphDimensionError

    try:
        mapping = load_index(args.index)
        graphs = _load_graph_file(args.graphs, args.format)
        engine = mapping.query_engine()
        before_n, before_calls = mapping.space.n, engine.stats.vf2_calls
        mapping.add_graphs(graphs)
        save_index(
            mapping, args.index, auto_compact_ratio=args.auto_compact_ratio
        )
    except (ValueError, OSError, GraphDimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"added {len(graphs)} graphs: database {before_n} -> "
        f"{mapping.space.n} ({engine.stats.vf2_calls - before_calls} "
        f"lattice-pruned VF2 calls)"
    )
    _print_index_status(mapping)
    return 0


def _cmd_index_remove(args: argparse.Namespace) -> int:
    """Remove database graphs (by index) from a saved index."""
    from repro.index import load_index, save_index
    from repro.utils.errors import GraphDimensionError

    try:
        mapping = load_index(args.index)
        before_n = mapping.space.n
        mapping.remove_graphs(args.ids)
        save_index(
            mapping, args.index, auto_compact_ratio=args.auto_compact_ratio
        )
    except (ValueError, OSError, GraphDimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"removed {len(set(args.ids))} graphs: database {before_n} -> "
        f"{mapping.space.n} (VF2-free)"
    )
    _print_index_status(mapping)
    return 0


def _cmd_index_compact(args: argparse.Namespace) -> int:
    """Fold an index's delta journal into a fresh binary base."""
    from pathlib import Path

    from repro.index import load_index, payload_path, save_index
    from repro.utils.errors import GraphDimensionError

    try:
        mapping = load_index(args.index)
        # What the load replayed: a torn tail is no entry.
        entries = mapping.journal_seq
        save_index(mapping, args.index, compact=True)
    except (ValueError, OSError, GraphDimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = payload_path(args.index)
    print(
        f"compacted {entries} journal entries into a fresh base "
        f"({mapping.space.n} graphs, {mapping.dimensionality} dimensions)"
    )
    print(
        f"manifest {Path(args.index).stat().st_size / 1024:.1f} KiB, "
        f"payload {payload.stat().st_size / 1024:.1f} KiB, journal empty"
    )
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    """Build a mapping from a dataset and save the artifact, one shot."""
    from pathlib import Path

    from repro.core.mapping import (
        build_mapping,
        mapping_from_selection,
        variance_selection,
    )
    from repro.datasets import synthetic_database
    from repro.features.binary_matrix import FeatureSpace
    from repro.index import payload_path, save_index
    from repro.mining import mine_frequent_subgraphs
    from repro.utils.errors import GraphDimensionError, SelectionError

    try:
        if args.graphs:
            db = _load_graph_file(args.graphs, args.format)
            source = args.graphs
        else:
            db = synthetic_database(args.db_size, seed=args.seed)
            source = f"synthetic (n={args.db_size}, seed={args.seed})"
        start = time.perf_counter()
        if args.selection == "dspm":
            mapping = build_mapping(
                db,
                num_features=args.num_features,
                min_support=args.min_support,
                max_pattern_edges=args.max_pattern_edges,
            )
        else:
            features = mine_frequent_subgraphs(
                db,
                min_support=args.min_support,
                max_edges=args.max_pattern_edges,
            )
            if not features:
                raise SelectionError(
                    "no frequent subgraphs at this support; "
                    "lower --min-support"
                )
            space = FeatureSpace(features, len(db))
            mapping = mapping_from_selection(
                space, variance_selection(space, args.num_features)
            )
        build_seconds = time.perf_counter() - start
        save_index(mapping, args.index)
    except (ValueError, OSError, GraphDimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"built index from {source}: {mapping.space.n} graphs, "
        f"{mapping.dimensionality} dimensions "
        f"({args.selection} selection, {build_seconds:.1f}s)"
    )
    print(
        f"saved {args.index}: manifest "
        f"{Path(args.index).stat().st_size / 1024:.1f} KiB, payload "
        f"{payload_path(args.index).stat().st_size / 1024:.1f} KiB"
    )
    return 0


def _nprobe_arg(value: str):
    """``--nprobe`` accepts an integer or the literal ``auto``."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        )


def _add_serving_options(
    parser: argparse.ArgumentParser, index_help: str
) -> None:
    """What ``serve`` and ``serve-router`` share: the index to serve (or
    the demo index to build) and where to listen."""
    parser.add_argument("--index", default=None, help=index_help)
    parser.add_argument("--db-size", type=int, default=60,
                        help="demo-index database size (no --index)")
    parser.add_argument("--num-features", type=int, default=40,
                        help="demo-index dimensionality (no --index)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="also listen for NDJSON clients over TCP (port 0 = ephemeral)",
    )
    parser.add_argument(
        "--no-stdio", action="store_true",
        help="do not speak NDJSON on stdin/stdout (requires --tcp)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-graphdim",
        description=(
            "Reproduction of 'Leveraging Graph Dimensions in Online Graph "
            "Search' (PVLDB 8(1), 2014)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (fig1..fig9, ablation, all)")
    run.add_argument("--scale", choices=("small", "full"), default="small")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default="results", help="report output directory")
    run.set_defaults(func=_cmd_run)

    demo = sub.add_parser("demo", help="index + query demo on generated data")
    demo.add_argument("--db-size", type=int, default=60)
    demo.add_argument("--num-features", type=int, default=20)
    demo.add_argument("--k", type=int, default=5)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_cmd_demo)

    serve_cmd = sub.add_parser(
        "serve",
        help="long-running NDJSON serving loop (stdin/stdout and/or TCP)",
    )
    _add_serving_options(
        serve_cmd,
        "index manifest to serve (default: build a synthetic demo)",
    )
    serve_cmd.add_argument("--shards", type=int, default=4)
    serve_cmd.add_argument("--cache-size", type=int, default=1024)
    serve_cmd.add_argument("--queue", type=int, default=256,
                           help="admission queue bound, in queries")
    serve_cmd.add_argument("--batch-size", type=int, default=16,
                           help="coalescing target batch size")
    serve_cmd.add_argument(
        "--batch-window", type=float, default=0.002,
        help="longest a batch may wait for company, seconds",
    )
    serve_cmd.add_argument(
        "--quota-rate", type=float, default=None,
        help="per-tenant sustained queries/sec (default: no quotas)",
    )
    serve_cmd.add_argument(
        "--quota-burst", type=float, default=None,
        help="per-tenant burst allowance (default: max(rate, batch size))",
    )
    serve_cmd.add_argument(
        "--maintenance-interval", type=float, default=None, metavar="SECONDS",
        help="run background maintenance (staleness healing) "
             "every SECONDS (default: off; the 'maintain' op still works "
             "on demand)",
    )
    serve_cmd.add_argument(
        "--max-drift", type=float, default=0.25,
        help="support drift past which the index is flagged stale "
             "(with --reselect, maintenance then re-selects)",
    )
    serve_cmd.add_argument(
        "--reselect", action="store_true",
        help="heal a stale index by re-running DSPM feature selection "
             "over the mutated database during maintenance",
    )
    serve_cmd.add_argument(
        "--search-mode", choices=("exact", "approx", "graph"), default=None,
        help="shard-search policy: exact (bit-identical, skips only "
             "provably irrelevant shards), approx (route each query "
             "to its --nprobe closest shards only), or graph "
             "(best-first beam over the navigable proximity graph)",
    )
    serve_cmd.add_argument(
        "--nprobe", type=_nprobe_arg, default=None,
        help="shards each query visits in approx mode, or 'auto' to "
             "stop per query once the remaining shards' lower bounds "
             "clear its running k-th-best",
    )
    serve_cmd.add_argument(
        "--ef", type=int, default=None,
        help="beam width in graph mode (default: max(4k, 32))",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    rserve = sub.add_parser(
        "serve-router",
        help="NDJSON router coordinating N serving replicas",
    )
    rserve.add_argument(
        "--replicas", nargs="+", default=None, metavar="HOST:PORT",
        help="addresses of already-running `serve --tcp` replicas",
    )
    rserve.add_argument(
        "--spawn", type=int, default=None, metavar="N",
        help="spawn N replica subprocesses instead of --replicas",
    )
    _add_serving_options(
        rserve,
        "index manifest replicas serve and placement reads "
        "(default with --spawn: build a synthetic demo)",
    )
    rserve.add_argument("--shards", type=int, default=4,
                        help="shards per spawned replica")
    rserve.add_argument("--max-inflight", type=int, default=1024,
                        help="cluster-wide admission bound, in queries")
    rserve.add_argument(
        "--quota-rate", type=float, default=None,
        help="cluster-wide per-tenant queries/sec (default: no quotas)",
    )
    rserve.add_argument(
        "--quota-burst", type=float, default=None,
        help="per-tenant burst allowance (default: max(rate, 1))",
    )
    rserve.add_argument("--max-tenants", type=int, default=10_000,
                        help="resident quota buckets before folding")
    rserve.add_argument("--health-interval", type=float, default=1.0,
                        help="replica ping/re-admit period, seconds")
    rserve.set_defaults(func=_cmd_serve_router)

    add = sub.add_parser(
        "index-add",
        help="add database graphs to a saved index (delta-journaled)",
    )
    add.add_argument("index", help="path to the index manifest")
    add.add_argument("--graphs", required=True,
                     help="graph file to add (gSpan or JSON format)")
    add.add_argument("--format", choices=("gspan", "json"), default="gspan")
    add.add_argument(
        "--auto-compact-ratio", type=float, default=None,
        help="fold the journal into a fresh base once it exceeds this "
             "fraction of the binary payload (e.g. 0.5; default: never)",
    )
    add.set_defaults(func=_cmd_index_add)

    remove = sub.add_parser(
        "index-remove",
        help="remove database graphs from a saved index (delta-journaled)",
    )
    remove.add_argument("index", help="path to the index manifest")
    remove.add_argument("--ids", type=int, nargs="+", required=True,
                        help="database indices to remove (current numbering)")
    remove.add_argument(
        "--auto-compact-ratio", type=float, default=None,
        help="fold the journal into a fresh base once it exceeds this "
             "fraction of the binary payload (e.g. 0.5; default: never)",
    )
    remove.set_defaults(func=_cmd_index_remove)

    compact = sub.add_parser(
        "index-compact",
        help="fold an index's delta journal into a fresh binary base",
    )
    compact.add_argument("index", help="path to the index manifest")
    compact.set_defaults(func=_cmd_index_compact)

    build = sub.add_parser(
        "index-build",
        help="mine + select + embed a dataset and save the index artifact",
    )
    build.add_argument("index", help="output path for the index manifest")
    build.add_argument(
        "--graphs", default=None,
        help="graph file to index (default: generate a synthetic database)",
    )
    build.add_argument("--format", choices=("gspan", "json"), default="gspan")
    build.add_argument("--db-size", type=int, default=60,
                       help="synthetic database size (no --graphs)")
    build.add_argument("--num-features", type=int, default=40)
    build.add_argument("--min-support", type=float, default=0.1)
    build.add_argument("--max-pattern-edges", type=int, default=6)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--selection", choices=("variance", "dspm"), default="variance",
        help="feature selection: fast max-variance (default) or the "
             "paper's full DSPM (needs the NP-hard dissimilarity matrix)",
    )
    build.set_defaults(func=_cmd_index_build)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
