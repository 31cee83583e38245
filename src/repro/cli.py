"""Command-line interface: rewrite queries from the shell.

Examples::

    python -m repro rewrite --query 'a.(b.a+c)*' \
        --view e1=a --view 'e2=a.c*.b' --view e3=c

    python -m repro rewrite --query 'a.(b+c)' --view q1=a --view q2=b \
        --partial

    python -m repro rewrite --batch queries.txt --view e1=a --view e2=b

    python -m repro rewrite --query 'a.b' --query '(a.b)*' --view e=a.b

    python -m repro check --query 'a*' --view 'e=a.a'     # non-emptiness

    python -m repro eval --graph edges.tsv --query 'a.b*'  # RPQ answers

    python -m repro eval --graph edges.tsv --query 'a.b*' --source x

    python -m repro eval --graph edges.tsv --query 'a.b*' --pair x y

    python -m repro answer --query 'a.b' --view q1=a --view q2=b \
        --extensions tuples.tsv --plan-cache .plans   # view-based answering

    python -m repro answer --query 'a.b' --view q1=a --view q2=b \
        --extensions tuples.tsv --shards 8 --workers 4   # sharded evaluation

    python -m repro answer --query 'a.b' --view q1=a --view q2=b \
        --extensions tuples.tsv --stats   # serving counters as JSON on stderr

    python -m repro workload --family grid --seed 7 --edges 2000 \
        --graph-out grid.tsv --num-queries 5 --queries-out queries.txt

    python -m repro serve --port 8322 \
        --workload-tenant alpha=grid:7:300 \
        --workload-tenant beta=chain:11:200   # multi-tenant HTTP server

    python -m repro serve --port 8322 --data-dir ./state --fsync batch \
        --workload-tenant alpha=grid:7:300   # crash-safe durable serving

    python -m repro recover --data-dir ./state --checkpoint  # offline recovery

    python -m repro serve-bench --nodes 300           # warm vs cold serving

``edges.tsv`` holds one ``source<TAB>label<TAB>target`` triple per line;
``tuples.tsv`` holds materialized ``view<TAB>source<TAB>target`` tuples.
All regular expressions use the library's concrete syntax (``.``
concatenation, ``+`` union, postfix ``*``; multi-character names are
single symbols).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core import (
    ViewSet,
    exactness_counterexample,
    find_partial_rewritings,
    has_nonempty_rewriting,
    maximal_rewriting,
    nonempty_rewriting_witness,
    rewrite_many,
)
from .regex.printer import to_string

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="View-based rewriting of regular expressions and "
        "regular path queries (Calvanese et al., PODS'99).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rewrite = sub.add_parser(
        "rewrite", help="compute the maximal rewriting of one or many queries"
    )
    rewrite.add_argument(
        "--query",
        action="append",
        help="a query E0; repeatable (two or more run as a batch)",
    )
    rewrite.add_argument(
        "--batch",
        metavar="FILE",
        help="read queries from FILE (one per line, '#' comments, '-' for "
        "stdin) and rewrite them all against the shared view set",
    )
    rewrite.add_argument(
        "--view",
        action="append",
        required=True,
        metavar="NAME=REGEX",
        help="a view definition; repeatable",
    )
    rewrite.add_argument(
        "--partial",
        action="store_true",
        help="if not exact, search for minimal elementary-view extensions",
    )
    rewrite.add_argument(
        "--dot", action="store_true", help="also print the automaton in DOT"
    )

    check = sub.add_parser(
        "check", help="decide non-emptiness of the maximal rewriting"
    )
    check.add_argument("--query", required=True)
    check.add_argument("--view", action="append", required=True)

    evaluate = sub.add_parser("eval", help="evaluate an RPQ over a graph")
    evaluate.add_argument("--query", required=True)
    evaluate.add_argument(
        "--graph",
        required=True,
        help="TSV file with source<TAB>label<TAB>target lines",
    )
    mode = evaluate.add_mutually_exclusive_group()
    mode.add_argument(
        "--source",
        help="only report targets reachable from this node",
    )
    mode.add_argument(
        "--pair",
        nargs=2,
        metavar=("SOURCE", "TARGET"),
        help="decide one pair with the bidirectional search "
        "(exit code 0 if it is an answer, 1 if not, 2 on errors)",
    )
    evaluate.add_argument(
        "--naive",
        action="store_true",
        help="use the per-source reference evaluator instead of the "
        "compiled engine, in any mode (differential debugging)",
    )

    answer = sub.add_parser(
        "answer",
        help="answer queries from materialized view extensions alone "
        "(the data-integration scenario; no base database)",
    )
    answer.add_argument(
        "--query",
        action="append",
        required=True,
        help="a query over the base alphabet; repeatable",
    )
    answer.add_argument(
        "--view",
        action="append",
        required=True,
        metavar="NAME=REGEX",
        help="a view definition; repeatable",
    )
    answer.add_argument(
        "--extensions",
        required=True,
        metavar="FILE",
        help="TSV file of materialized tuples: view<TAB>source<TAB>target",
    )
    answer.add_argument(
        "--plan-cache",
        metavar="DIR",
        help="persist compiled rewrite plans under DIR and reuse them "
        "across invocations (skips re-determinization when warm)",
    )
    answer_mode = answer.add_mutually_exclusive_group()
    answer_mode.add_argument(
        "--source", help="only report targets reachable from this node"
    )
    answer_mode.add_argument(
        "--pair",
        nargs=2,
        metavar=("SOURCE", "TARGET"),
        help="decide one pair (exit code 0 if it is an answer, 1 if not)",
    )
    answer.add_argument(
        "--shards",
        type=int,
        metavar="K",
        help="cut the view graph's nodes into K node-range shards and run "
        "the all-pairs sweep once per shard of sources (answers are "
        "identical to the default engine; needs K >= 2 to take effect)",
    )
    answer.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="W",
        help="evaluate up to W shards in parallel worker processes "
        "(default 1: the sequential per-shard fallback)",
    )
    answer.add_argument(
        "--stats",
        action="store_true",
        help="after answering, print per-query session stats plus the "
        "engine's compile-cache and plan-cache counters as one JSON "
        "object on stderr (operational visibility; stdout stays "
        "machine-parseable answers)",
    )

    workload = sub.add_parser(
        "workload",
        help="generate a seeded workload graph (plus query mix) from a "
        "named family; the TSV output feeds `repro eval --graph` and the "
        "query list feeds `repro rewrite --batch`",
    )
    workload.add_argument(
        "--family",
        required=True,
        help="graph family: chain, grid, scale_free, or layered_dag",
    )
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument(
        "--edges",
        type=int,
        default=1000,
        help="minimum edge count of the generated graph (default 1000)",
    )
    workload.add_argument(
        "--graph-out",
        default="-",
        metavar="FILE",
        help="write source<TAB>label<TAB>target triples here ('-' = stdout)",
    )
    workload.add_argument(
        "--num-queries",
        type=int,
        default=0,
        metavar="N",
        help="also emit a seeded N-query mix for the family",
    )
    workload.add_argument(
        "--queries-out",
        metavar="FILE",
        help="where to write the query mix (default: stdout, after the "
        "graph, as '# query:' comment lines)",
    )
    workload.add_argument(
        "--signature",
        action="store_true",
        help="print the graph's canonical sha256 signature to stderr "
        "(equal signatures == byte-identical graphs)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the async multi-tenant HTTP/JSON answering server",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8322,
        help="listen port (0 picks an ephemeral port; default 8322)",
    )
    serve.add_argument(
        "--workload-tenant",
        action="append",
        required=True,
        metavar="NAME=FAMILY:SEED:EDGES",
        help="a tenant seeded from a workload family (views materialized "
        "over the family's seeded graph become its extensions); repeatable",
    )
    serve.add_argument(
        "--plan-cache",
        metavar="DIR",
        help="persist every tenant's compiled rewrite plans under DIR",
    )
    serve.add_argument(
        "--shards",
        type=int,
        metavar="K",
        help="evaluate each tenant on K node-range shards (needs K >= 2)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="W",
        help="worker processes per tenant's sharded evaluator (default 1)",
    )
    serve.add_argument(
        "--backend",
        default="auto",
        help="sweep kernel backend: auto, bigint, or numpy (default auto)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="per-tenant admission bound: requests queued or in flight "
        "beyond this are rejected with HTTP 429 (default 64)",
    )
    serve.add_argument(
        "--data-dir",
        metavar="DIR",
        help="make every tenant durable under DIR/<tenant>: writes are "
        "WAL-logged before acknowledgement, checkpoints roll as the log "
        "grows, and startup recovers acknowledged state after a crash "
        "(a fresh DIR is seeded from the workload extensions)",
    )
    serve.add_argument(
        "--fsync",
        choices=("always", "batch", "off"),
        default="batch",
        help="WAL durability policy with --data-dir: 'always' syncs every "
        "record, 'batch' group-commits once per acknowledged write "
        "request (default), 'off' flushes but never syncs",
    )
    serve.add_argument(
        "--checkpoint-bytes",
        type=int,
        default=1 << 20,
        metavar="N",
        help="with --data-dir, roll a new checkpoint once the WAL grows "
        "N bytes past the last one (bounds replay work; default 1 MiB)",
    )

    recover = sub.add_parser(
        "recover",
        help="recover tenant stores from a --data-dir offline and report "
        "what recovery would serve (checkpoint used, WAL records "
        "replayed, corrupt checkpoints quarantined)",
    )
    recover.add_argument(
        "--data-dir",
        required=True,
        metavar="DIR",
        help="the serve --data-dir to recover (every subdirectory with a "
        "WAL or checkpoints is treated as one tenant)",
    )
    recover.add_argument(
        "--tenant",
        action="append",
        metavar="NAME",
        help="only recover this tenant (repeatable; default: all found)",
    )
    recover.add_argument(
        "--checkpoint",
        action="store_true",
        help="after recovering, write a fresh checkpoint of the recovered "
        "state (re-anchors the durable floor, shrinking future replays)",
    )

    serve_bench = sub.add_parser(
        "serve-bench",
        help="run the warm-session vs cold-loop serving benchmark",
    )
    serve_bench.add_argument("--nodes", type=int, default=300)
    serve_bench.add_argument("--edges", type=int, default=1500)
    serve_bench.add_argument(
        "--queries", type=int, default=None, help="how many workload queries"
    )
    serve_bench.add_argument("--seed", type=int, default=20260730)
    serve_bench.add_argument(
        "--plan-cache", metavar="DIR", help="persist plans under DIR"
    )
    return parser


def _parse_views(definitions: Sequence[str]) -> ViewSet:
    views = {}
    for definition in definitions:
        name, sep, expr = definition.partition("=")
        if not sep or not name or not expr:
            raise SystemExit(f"bad --view {definition!r}; expected NAME=REGEX")
        views[name] = expr
    return ViewSet(views)


def _read_batch_queries(path: str) -> list[str]:
    if path == "-":
        handle = sys.stdin
    else:
        try:
            handle = open(path, encoding="utf-8")
        except OSError as exc:
            raise SystemExit(f"cannot read --batch file: {exc}") from None
    try:
        return [
            stripped
            for line in handle
            if (stripped := line.strip()) and not stripped.startswith("#")
        ]
    finally:
        if handle is not sys.stdin:
            handle.close()


def _cmd_rewrite(args: argparse.Namespace) -> int:
    views = _parse_views(args.view)
    queries = list(args.query or [])
    if args.batch is not None:
        queries.extend(_read_batch_queries(args.batch))
    if not queries:
        raise SystemExit("rewrite needs at least one --query or a --batch file")
    if len(queries) > 1:
        if args.partial or args.dot:
            raise SystemExit("--partial/--dot apply to single-query rewrites only")
        return _cmd_rewrite_batch(queries, views)
    result = maximal_rewriting(queries[0], views)
    print("rewriting:", to_string(result.regex()))
    print("empty:", result.is_empty())
    witness = exactness_counterexample(result)
    print("exact:", witness is None)
    if witness is not None:
        print("missed query word:", ".".join(map(str, witness)) or "(empty)")
        if args.partial:
            solutions = find_partial_rewritings(queries[0], views)
            if solutions:
                best = solutions[0]
                print(
                    "partial rewriting: add elementary views for",
                    ", ".join(map(str, best.added)) or "(nothing)",
                )
                print("  ->", to_string(best.result.regex()))
            else:
                print("partial rewriting: none found")
    if args.dot:
        from .automata import to_dot

        print(to_dot(result.automaton.trimmed(), name="rewriting"))
    return 0


def _cmd_rewrite_batch(queries: Sequence[str], views: ViewSet) -> int:
    """Rewrite many queries against one view set, sharing compiled views."""
    results = rewrite_many(queries, views)
    nonempty = 0
    for query, result in zip(queries, results):
        empty = result.is_empty()
        nonempty += not empty
        print(f"query: {query}")
        print("  rewriting:", to_string(result.regex()))
        print("  empty:", empty)
        print("  exact:", result.is_exact())
    print(f"# {len(queries)} queries, {nonempty} nonempty rewritings", file=sys.stderr)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    views = _parse_views(args.view)
    if has_nonempty_rewriting(args.query, views):
        witness = nonempty_rewriting_witness(args.query, views)
        print("nonempty:", ".".join(map(str, witness)) or "(empty word)")
        return 0
    print("empty")
    return 1


def _cmd_eval(args: argparse.Namespace) -> int:
    from .rpq import evaluate, evaluate_from, evaluate_pair, naive_evaluate
    from .rpq.graphdb import GraphDB

    db = GraphDB()
    with open(args.graph, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SystemExit(
                    f"{args.graph}:{line_no}: expected 3 tab-separated fields"
                )
            source, label, target = parts
            db.add_edge(source, label, target)
    def _node_error(exc: KeyError) -> SystemExit:
        print(f"{args.graph}: {exc.args[0]}", file=sys.stderr)
        return SystemExit(2)

    if args.pair is not None:
        source, target = args.pair
        try:
            db.node_id(source)
            db.node_id(target)
            if args.naive:
                found = (source, target) in naive_evaluate(db, args.query)
            else:
                found = evaluate_pair(db, source, target, args.query)
        except KeyError as exc:
            raise _node_error(exc) from None
        print("answer" if found else "no answer")
        return 0 if found else 1
    if args.source is not None:
        try:
            db.node_id(args.source)
            if args.naive:
                targets = frozenset(
                    y
                    for x, y in naive_evaluate(db, args.query)
                    if x == args.source
                )
            else:
                targets = evaluate_from(db, args.source, args.query)
        except KeyError as exc:
            raise _node_error(exc) from None
        answers = sorted((args.source, y) for y in targets)
    else:
        evaluator = naive_evaluate if args.naive else evaluate
        answers = sorted(evaluator(db, args.query))
    for x, y in answers:
        print(f"{x}\t{y}")
    print(f"# {len(answers)} answers", file=sys.stderr)
    return 0


def _read_extensions(path: str) -> dict[str, set[tuple[str, str]]]:
    """Parse a view<TAB>source<TAB>target TSV into per-view pair sets."""
    extensions: dict[str, set[tuple[str, str]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SystemExit(
                    f"{path}:{line_no}: expected 3 tab-separated fields "
                    "(view, source, target)"
                )
            view, source, target = parts
            extensions.setdefault(view, set()).add((source, target))
    return extensions


def _cmd_answer(args: argparse.Namespace) -> int:
    from .rpq import RPQ, RPQViews, Theory
    from .service import MaterializedViewStore, QuerySession, RewritePlanCache

    view_specs = {}
    for definition in args.view:
        name, sep, expr = definition.partition("=")
        if not sep or not name or not expr:
            raise SystemExit(f"bad --view {definition!r}; expected NAME=REGEX")
        view_specs[name] = expr
    views = RPQViews(view_specs)
    # The CLI speaks plain-label regexes; the domain D for each query is
    # what that query and the views mention.  Deliberately per-query (not
    # the union over all --query flags): the plan-cache key includes the
    # theory, so a domain depending on *which other* queries ride along
    # would defeat cross-invocation plan reuse.
    views_alphabet: set[str] = set()
    for symbol in views.symbols:
        views_alphabet |= set(views.rpq(symbol).alphabet())

    extensions = _read_extensions(args.extensions)
    unknown = set(extensions) - set(views.symbols)
    if unknown:
        raise SystemExit(
            f"{args.extensions}: tuples for undefined views: "
            f"{', '.join(sorted(unknown))}"
        )
    store = MaterializedViewStore(extensions)
    plans = RewritePlanCache(args.plan_cache)

    if args.shards is not None and args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")

    exit_code = 0
    session_stats = []
    for query in args.query:
        domain = views_alphabet | set(RPQ(query).alphabet())
        if not domain:
            raise SystemExit(f"query {query!r} and views mention no symbols")
        with QuerySession(
            store,
            views,
            Theory.trivial(domain),
            plans=plans,
            parallelism=args.shards,
            workers=args.workers,
        ) as session:
            plan = session.plan(query)
            print(f"query: {query}")
            print("  exact:", plan.is_exact())
            if args.pair is not None:
                source, target = args.pair
                found = session.answer_pair(query, source, target)
                print("  answer" if found else "  no answer")
                exit_code = max(exit_code, 0 if found else 1)
                answers = None
            elif args.source is not None:
                answers = sorted(
                    (args.source, y)
                    for y in session.answer_from(query, args.source)
                )
            else:
                answers = sorted(session.answer(query))
            if answers is not None:
                for x, y in answers:
                    print(f"  {x}\t{y}")
                print(f"  # {len(answers)} answers", file=sys.stderr)
            session_stats.append({"query": query, "stats": dict(session.stats)})
    if args.stats:
        import json

        from .rpq import compile_cache_info

        print(
            json.dumps(
                {
                    "store": {
                        "version": store.version,
                        "tuples": store.num_tuples,
                        "log_size": store.log_size,
                    },
                    "sessions": session_stats,
                    "compile_cache": compile_cache_info(),
                    "plan_cache": dict(plans.stats),
                },
                sort_keys=True,
            ),
            file=sys.stderr,
        )
    return exit_code


def _cmd_workload(args: argparse.Namespace) -> int:
    from .rpq.workload import (
        FAMILIES,
        graph_signature,
        graph_triples,
        make_graph,
        make_queries,
    )

    if args.family not in FAMILIES:
        raise SystemExit(
            f"unknown --family {args.family!r}; choose one of "
            f"{', '.join(FAMILIES)}"
        )
    if args.edges < 1:
        raise SystemExit(f"--edges must be >= 1, got {args.edges}")
    if args.queries_out and args.num_queries < 1:
        raise SystemExit(
            "--queries-out needs --num-queries >= 1 (nothing to write)"
        )
    db = make_graph(args.family, args.seed, edges=args.edges)
    queries = (
        make_queries(args.family, args.seed, count=args.num_queries)
        if args.num_queries > 0
        else ()
    )

    if args.graph_out == "-":
        handle = sys.stdout
    else:
        handle = open(args.graph_out, "w", encoding="utf-8")
    try:
        for source, label, target in graph_triples(db):
            handle.write(f"{source}\t{label}\t{target}\n")
    finally:
        if handle is not sys.stdout:
            handle.close()

    if queries:
        if args.queries_out:
            with open(args.queries_out, "w", encoding="utf-8") as qhandle:
                qhandle.writelines(f"{query}\n" for query in queries)
        else:
            for query in queries:
                print(f"# query: {query}")
    if args.signature:
        print(f"# signature: {graph_signature(db)}", file=sys.stderr)
    print(
        f"# {args.family} seed={args.seed}: {db.num_nodes} nodes, "
        f"{db.num_edges} edges, {len(queries)} queries",
        file=sys.stderr,
    )
    return 0


def _parse_workload_tenant(spec: str) -> tuple[str, str, int, int]:
    name, sep, rest = spec.partition("=")
    parts = rest.split(":")
    if not sep or not name or len(parts) != 3:
        raise SystemExit(
            f"bad --workload-tenant {spec!r}; expected NAME=FAMILY:SEED:EDGES"
        )
    family, seed_text, edges_text = parts
    try:
        seed, edges = int(seed_text), int(edges_text)
    except ValueError:
        raise SystemExit(
            f"bad --workload-tenant {spec!r}; SEED and EDGES must be integers"
        ) from None
    return name, family, seed, edges


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .rpq.workload import FAMILIES
    from .service.loadgen import make_tenant_config
    from .service.server import RPQServer

    tenants = {}
    for spec in args.workload_tenant:
        name, family, seed, edges = _parse_workload_tenant(spec)
        if family not in FAMILIES:
            raise SystemExit(
                f"--workload-tenant {spec!r}: unknown family {family!r}; "
                f"choose one of {', '.join(FAMILIES)}"
            )
        if name in tenants:
            raise SystemExit(f"duplicate tenant name {name!r}")
        tenants[name] = make_tenant_config(
            family,
            seed,
            edges=edges,
            plan_dir=args.plan_cache,
            parallelism=args.shards,
            workers=args.workers,
            backend=args.backend,
            max_queue=args.max_queue,
        )
    server = RPQServer(
        tenants,
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        fsync=args.fsync,
        checkpoint_every_bytes=args.checkpoint_bytes,
    )

    async def _serve() -> None:
        await server.start()
        print(
            f"serving {len(server.tenants)} tenant(s) on "
            f"http://{server.host}:{server.port}",
            flush=True,
        )
        await server.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import json
    import os

    from .service.recovery import list_checkpoints, recover_store, write_checkpoint

    data_dir = args.data_dir
    if not os.path.isdir(data_dir):
        raise SystemExit(f"--data-dir {data_dir!r} is not a directory")
    names = sorted(
        name
        for name in os.listdir(data_dir)
        if os.path.isdir(os.path.join(data_dir, name))
        and (
            os.path.exists(os.path.join(data_dir, name, "wal.log"))
            or list_checkpoints(os.path.join(data_dir, name))
        )
    )
    if args.tenant:
        missing = sorted(set(args.tenant) - set(names))
        if missing:
            raise SystemExit(
                f"no durable state under {data_dir!r} for tenant(s): "
                f"{', '.join(missing)}"
            )
        names = sorted(set(args.tenant))
    if not names:
        raise SystemExit(f"no durable tenants found under {data_dir!r}")
    exit_code = 0
    for name in names:
        tenant_dir = os.path.join(data_dir, name)
        result = recover_store(tenant_dir)
        report = {
            "tenant": name,
            "version": result.store.version,
            "tuples": result.store.num_tuples,
            "checkpoint": (
                os.path.basename(result.checkpoint)
                if result.checkpoint
                else None
            ),
            "checkpoint_version": result.checkpoint_version,
            "replayed": result.replayed,
            "quarantined": [
                os.path.basename(path) for path in result.quarantined
            ],
            "wal_error": result.wal_error,
        }
        if args.checkpoint:
            report["new_checkpoint"] = os.path.basename(
                write_checkpoint(result.store, tenant_dir)
            )
        print(json.dumps(report, sort_keys=True))
        # Quarantined checkpoints or a cut WAL tail mean recovery had to
        # repair; surface that in the exit code for scripting, while the
        # recovered state itself is consistent and serveable.
        if result.quarantined or result.wal_error:
            exit_code = 1
    return exit_code


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .service.bench import QUERIES, run_service_benchmark

    report = run_service_benchmark(
        num_nodes=args.nodes,
        num_edges=args.edges,
        num_queries=args.queries if args.queries is not None else len(QUERIES),
        seed=args.seed,
        plan_dir=args.plan_cache,
    )
    for line in report.lines():
        print(line)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "rewrite": _cmd_rewrite,
        "check": _cmd_check,
        "eval": _cmd_eval,
        "answer": _cmd_answer,
        "workload": _cmd_workload,
        "serve": _cmd_serve,
        "recover": _cmd_recover,
        "serve-bench": _cmd_serve_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
