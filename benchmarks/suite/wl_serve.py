"""``serve_mix``: the whole stack under an HTTP request stream.

One op is one HTTP request against an ``RPQServer`` with a data
directory, on real sockets: a query in ``all`` / ``single_source`` / ``pair`` shape, or an
update batch of two tuple changes (20% of requests).  One tenant over a
2 000-edge grid whose view graph stays on the big-int side of the
backend threshold, so sweep kernels do little here: ``service/server.py``
(parse, admission, JSON encode, executor hop), the session memo, small
big-int sweeps, incremental patches and the WAL commit on the ack path
share the time.

Load shape: closed loop, two connections — one reader, one writer.  The
generator walks the seeded traffic in order and keeps at most one
request in flight per connection, so the 80/20 mix holds over any
prefix.  The server runs on its own event loop thread in this process
(``run_in_thread``), which is what lets the tracer see the tenant thread.
``fsync`` is ``"off"`` for the reason given in ``wl_wal.py``: every write
is still framed, appended and handed to the OS before its 200.

Every pass runs pinned to one CPU (the harness picks the quieter one,
for every workload).  Here that matters twice: generator, server loop and
tenant thread share the interpreter lock anyway, and on this sandbox a
wake-up that crosses virtual CPUs is slow and erratic — unpinned, the same
run gave 373 to 421 requests a second and a read median of 2.5 to 3.1 ms,
pinned 519 to 548 and 1.9 to 2.1 ms.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
import zlib

from repro.rpq import RPQViews, Theory, make_graph
from repro.rpq.workload import make_traffic_mix
from repro.service.loadgen import TenantWorkload, replay_oracle
from repro.service.server import RPQServer, TenantConfig, run_in_thread

from harness import Failure, PassLog, Workload, percentile, share, sum_counts
from tracing import CLIENT_SPAN
from wl_sweep import BOUNDED_TEMPLATES, fill_templates
from wl_trickle import count_session, session_counters
from wl_wal import FSYNC

FAMILY = "grid"
TENANT = "t0"
# The oracle replays every write of every pass and re-answers a share of
# the reads — every third one of a four-pass run, proportionally fewer of
# a longer one: the full replay costs more than serving did, and the
# driver's time budget holds 92 runs.
ORACLE_READ_STRIDE = 3
ORACLE_FULL_PASSES = 4


class _Client:
    """A keep-alive HTTP/1.1 JSON client on asyncio streams.

    Like ``repro.service.loadgen``'s (private) one, but it hands back the
    body undecoded: decoding thousands of all-pairs answers is the
    oracle's job, after the timed section.
    """

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def request(self, path: str, payload: dict) -> tuple[int, bytes]:
        """POST ``payload``; returns the status and the undecoded body."""
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        body = json.dumps(payload).encode()
        head = (
            f"POST {path} HTTP/1.1\r\nHost: suite\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, (await self.reader.readexactly(length) if length else b"")

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            await self.writer.wait_closed()
            self.reader = self.writer = None


def _payload(op) -> tuple[str, dict]:
    if op.kind == "update":
        return f"/tenants/{TENANT}/update", {
            "ops": [dataclasses.asdict(update) for update in op.updates]
        }
    payload = {"query": op.query}
    if op.source is not None:
        payload["source"] = op.source
    if op.target is not None:
        payload["target"] = op.target
    return f"/tenants/{TENANT}/query", payload


class ServeMix(Workload):
    name = "serve_mix"
    why = (
        "HTTP query/update mix against a durable RPQServer on real sockets: parse, admission, "
        "session memo, small big-int sweeps, patches, WAL commit on the ack path."
    )
    primary = "query"
    # A request repeats once a pass: twice as many passes, half as long.
    pass_seconds = 1.25

    def build(self) -> None:
        edges = 300 if self.ctx.smoke else 2_000
        # A fixed length (the mix's bytes depend on it): about three times the
        # requests a pass of the default run completes on the seed code.
        self.requests = 400 if self.ctx.smoke else 4_000
        db = make_graph(FAMILY, self.ctx.seed, edges=edges)
        labels = sorted(db.domain())
        x, y = labels[-1], labels[0]
        views = RPQViews(
            {**{f"v_{label}": label for label in labels}, f"v_{x}{y}": f"{x}.{y}"}
        )
        theory = Theory.trivial(set(labels))
        self.config = TenantConfig(
            views=views,
            theory=theory,
            extensions={
                symbol: sorted(pairs)
                for symbol, pairs in views.materialize(db, theory).items()
            },
        )
        self.queries = fill_templates(BOUNDED_TEMPLATES, labels)
        self.traffic = make_traffic_mix(
            FAMILY,
            self.ctx.seed,
            count=self.requests,
            base=self.config.extensions,
            queries=self.queries,
            write_fraction=0.2,
            batch_size=2,
        )
        # Every write and every ``read_stride``-th read keeps its body for the oracle.
        self.read_stride = ORACLE_READ_STRIDE * max(
            1, round(len(self.plan()) / ORACLE_FULL_PASSES)
        )
        self.records: dict[int, list[tuple[int, str, bytes | None]]] = {}
        self.sizes = {
            "family": FAMILY,
            "base_edges": db.num_edges,
            "view_tuples": sum(len(p) for p in self.config.extensions.values()),
            "views": {str(s): str(views.rpq(s)) for s in views.symbols},
            "queries": self.queries,
            "write_fraction": 0.2,
            "batch_size": 2,
            "connections": 2,
            "cpus": 1,
            "fsync": FSYNC,
            "max_requests_per_pass": self.requests,
        }

    def open_pass(self, log: PassLog):
        server = RPQServer(
            {TENANT: self.config},
            data_dir=self.ctx.workdir / f"serve-{log.index}",
            fsync=FSYNC,
        )
        handle = run_in_thread(server)

        async def warm() -> None:
            client = _Client(server.host, server.port)
            for query in self.queries:
                status, body = await client.request(
                    f"/tenants/{TENANT}/query", {"query": query}
                )
                if status != 200:
                    raise RuntimeError(f"warm-up query {query!r}: HTTP {status} {body[:200]!r}")
            await client.close()

        asyncio.run(warm())
        return server, handle

    def run_pass(self, state, log: PassLog, budget_s: float) -> None:
        server, _handle = state
        records = self.records[log.index] = []
        tracer = log.tracer

        async def send(client: _Client, index: int, op) -> None:
            path, payload = _payload(op)
            span = tracer.open_root(CLIENT_SPAN, index, op.kind) if tracer else None
            start = time.perf_counter()
            try:
                status, body = await client.request(path, payload)
            except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
                log.errors.append((index, op.kind, f"{type(exc).__name__}: {exc}"))
                return
            finally:
                elapsed = time.perf_counter() - start
                if span is not None:
                    tracer.close_root(span)
            if status != 200:
                # 429 included: the closed loop never fills the queue.
                log.errors.append((index, op.kind, f"HTTP {status}: {body[:200]!r}"))
                return
            log.samples.append((index, op.kind, elapsed))
            # Held compressed and decoded only by the oracle: thousands of
            # decoded all-pairs answers would dwarf the server's own memory.
            # Another residue each pass, so the passes together cover every read.
            checked = op.kind == "update" or (index - log.index) % self.read_stride == 0
            records.append((index, op.kind, zlib.compress(body, 1) if checked else None))

        async def drive() -> None:
            lanes = {kind: _Client(server.host, server.port) for kind in ("query", "update")}
            in_flight: dict[str, asyncio.Task | None] = {"query": None, "update": None}
            start = time.perf_counter()
            for index, op in enumerate(self.traffic):
                if in_flight[op.kind] is not None:
                    await in_flight[op.kind]
                if time.perf_counter() - start >= budget_s:
                    break
                in_flight[op.kind] = asyncio.create_task(send(lanes[op.kind], index, op))
            for task in in_flight.values():
                if task is not None:
                    await task
            log.busy_s = time.perf_counter() - start
            for client in lanes.values():
                await client.close()

        asyncio.run(drive())

    def close_pass(self, state, log: PassLog) -> None:
        server, handle = state
        tenant = server.tenants[TENANT]
        counts = log.counts
        count_session(log, tenant.session)
        counts["server.requests"] += server.stats["requests"]
        counts["server.rejected"] += server.stats["rejected"]
        counts["server.max_pending"] = max(
            counts["server.max_pending"], tenant.served["max_pending"]
        )
        wal = tenant.durability.wal
        counts["wal.appends"] += wal.stats["appends"]
        counts["wal.syncs"] += wal.stats["syncs"]
        counts["wal.bytes"] += wal.offset
        counts["recovery.checkpoints"] += tenant.durability.stats["checkpoints"]
        handle.stop()

    def verify(self, logs: list[PassLog]) -> list[Failure]:
        """``replay_oracle`` over every accepted write and a fixed share of
        the served answers, byte for byte at their pinned versions."""
        failures: list[Failure] = []
        for log in logs:
            packed = self.records[log.index]
            sent = {index for index, _kind, _body in packed}
            workload = TenantWorkload(
                name=TENANT,
                config=self.config,
                traffic=tuple(op for index, op in enumerate(self.traffic) if index in sent),
            )
            records = [
                {"tenant": TENANT, "kind": kind, "op_index": index, "status": 200,
                 "response": json.loads(zlib.decompress(body))}
                for index, kind, body in packed
                if body is not None
            ]
            try:
                replay_oracle(workload, records)
            except AssertionError as exc:
                failures.append(Failure(log.index, -1, f"replay oracle: {exc}"))
        return failures

    def counters(self, logs: list[PassLog]) -> dict[str, float]:
        counts = sum_counts(logs)
        return {
            **session_counters(counts),
            "server.rejected_share": share(
                counts["server.rejected"], counts["server.requests"]
            ),
            "server.max_pending": max(log.counts["server.max_pending"] for log in logs),
            "wal.appends": counts["wal.appends"],
            "wal.syncs": counts["wal.syncs"],
            "wal.bytes_per_write": share(counts["wal.bytes"], counts["wal.appends"]),
            "recovery.checkpoints": counts["recovery.checkpoints"],
        }

    def extras(self, logs: list[PassLog]) -> dict[str, float]:
        writes = [s for log in logs for _i, kind, s in log.samples if kind == "update"]
        reads = [s for log in logs for _i, kind, s in log.samples if kind == "query"]
        extras = {}
        if writes:
            extras["write_p50_ms"] = percentile(writes, 0.50) * 1e3
            extras["write_p95_ms"] = percentile(writes, 0.95) * 1e3
        if reads:
            extras["latency_p99_ms"] = percentile(reads, 0.99) * 1e3
        return extras
