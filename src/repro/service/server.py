"""The async multi-tenant serving front end (ROADMAP open item 2).

:class:`RPQServer` multiplexes many tenants — each one a
:class:`~repro.service.store.MaterializedViewStore` plus a
:class:`~repro.service.session.QuerySession` over its own view set —
behind one asyncio HTTP/JSON listener.  The concurrency design is
*executor confinement*: every tenant owns a single-thread executor, and
every admitted request (query or update batch) runs on that one thread
in admission order.  That one decision buys the two properties the
serving regime needs:

**Snapshot isolation by version pinning.**  A read admitted after k
write batches executes after exactly those k batches — nothing else can
run on the tenant thread in between — so the store version it observes
is the version current at admission, captured on the tenant thread
immediately before answering and echoed in the response.  A response
carrying ``version: v`` therefore means *exactly* "the answers of a
store that has absorbed the first writes up to version v", which is
what lets the load generator's single-threaded oracle replay
(:func:`repro.service.loadgen.replay_oracle`) check every served answer
byte for byte.

**A non-blocking event loop.**  Sweeps — full, sharded, or incremental
— run on tenant threads via ``run_in_executor``; the loop only parses,
validates, routes, and serializes small payloads.  The one large body,
an all-pairs answer, leaves :meth:`Tenant.run_query` already encoded:
the tenant keeps, per query, the body at the version it was built for
and each answer pair's bytes, so a repeat at that version writes the
stored body and a read after an update joins the previous pairs' bytes
with the few new ones — no ``json.dumps`` of an answer anywhere (the
source and pair modes return small dicts the loop encodes).  A tenant
grinding through an expensive all-pairs sweep delays its own queue,
never another tenant's health checks.

Admission control is a bounded per-tenant pending counter: a request
arriving while ``max_queue`` requests are queued or in flight is
rejected with HTTP 429 before it touches the tenant thread, so overload
sheds load instead of growing an unbounded backlog.  The counter lives
on the event loop and is checked and bumped with no ``await`` in
between, so admission is atomic without locks.

Writes funnel through the store's tuple-level mutations and hence
through the bounded change log, keeping every tenant on the session's
incremental fast path (semi-naive insert resume + delete-rederive);
only a compacted-away log falls back to a full recompute, and a worker
failure inside a sharded sweep degrades that tenant to sequential
evaluation — both are service-level non-events, not errors.

**Durability** is opt-in via ``data_dir``: each tenant then owns a
subdirectory with a write-ahead log and rolling checkpoints
(:mod:`repro.service.wal` / :mod:`repro.service.recovery`).  Every
mutation is framed into the WAL by the store itself, and the update
handler commits the batch — per the ``fsync`` policy — *on the tenant
thread, before the executor future resolves*, so an HTTP 200 for a
write means the batch is recoverable.  Startup recovers every tenant
from its directory (config extensions seed only a fresh directory);
``/shutdown`` drains in-flight requests, rolls a final checkpoint per
tenant, and joins the executors without cancelling queued writes.
Request parsing is bounded too: bodies beyond ``max_request_bytes``
draw a 413 and malformed Content-Length a 400, before any buffering.

The HTTP surface (all bodies JSON)::

    GET  /health                     liveness + per-tenant versions
    GET  /stats                      server + per-tenant counters
    GET  /tenants/<name>/stats       one tenant's counters; under "served",
                                     "encoded_hits" counts all-pairs reads
                                     answered with the stored body
    POST /tenants/<name>/query       {"query": E0[, "source": x[, "target": y]]}
    POST /tenants/<name>/update      {"ops": [{"op": "insert"|"delete",
                                               "symbol": v, "source": x,
                                               "target": y}, ...]}
    POST /shutdown                   graceful stop

Run it inside an event loop (:meth:`RPQServer.start` /
:meth:`RPQServer.serve_until_shutdown`), or from synchronous code via
:func:`run_in_thread`, which returns a :class:`ServerHandle` with the
URL and a blocking ``stop()``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping

from ..rpq.query import QuerySpec, RPQ
from ..rpq.theory import Theory
from ..rpq.views import RPQViews
from .plancache import RewritePlanCache
from .recovery import TenantDurability
from .session import QuerySession
from .store import MaterializedViewStore
from .wal import FSYNC_POLICIES

__all__ = ["RPQServer", "ServerHandle", "Tenant", "TenantConfig", "run_in_thread"]

Pair = tuple[Hashable, Hashable]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


@dataclass(frozen=True)
class _BadRequest:
    """A request the parser rejects before routing (400/413).

    Unlike a clean EOF (``None`` from ``_read_request``), the client is
    owed an error response; the connection is closed after sending it,
    since the unread remainder of an oversized or malformed request
    would otherwise be parsed as the next request's head.
    """

    status: int
    error: str


@dataclass
class TenantConfig:
    """Everything needed to stand up one tenant's serving state.

    ``views``/``theory`` fix the tenant's mediated schema;
    ``extensions`` seeds its store.  The remaining knobs mirror
    :class:`~repro.service.session.QuerySession` (``parallelism``,
    ``workers``, ``incremental``, ``backend``, ``plan_dir``) and the
    store (``log_limit``), plus ``max_queue`` — the admission bound:
    how many requests may be queued or in flight on the tenant's
    executor before new ones are rejected with 429.
    """

    views: RPQViews | Mapping[Hashable, QuerySpec]
    theory: Theory
    extensions: Mapping[Hashable, Iterable[Pair]] | None = None
    plan_dir: Any = None
    parallelism: int | None = None
    workers: int = 1
    incremental: bool = True
    backend: str = "auto"
    max_queue: int = 64
    log_limit: int = 100_000

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")


class _NodeBytes(dict):
    """node -> ``json.dumps(str(node))`` as bytes, encoded on first sight."""

    def __missing__(self, node: Hashable) -> bytes:
        encoded = self[node] = json.dumps(str(node)).encode()
        return encoded


class _PairBytes(dict):
    """The pairs of one served answer -> their wire form ``["x","y"]``; a
    pair it lacks is composed from the tenant's node table."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: _NodeBytes, items: Iterable = ()):
        super().__init__(items)
        self.nodes = nodes

    def __missing__(self, pair: Pair) -> bytes:
        nodes = self.nodes
        return b"[%b,%b]" % (nodes[pair[0]], nodes[pair[1]])


class Tenant:
    """One tenant's serving state: store + session + its executor thread.

    All query evaluation and all store mutation happen on the tenant's
    single executor thread, in submission order — the confinement that
    makes version pinning exact (see the module docstring).  The event
    loop only reads ``pending``/``served`` counters and the store's
    version property, both safe to observe racily for stats.
    """

    def __init__(
        self,
        name: str,
        config: TenantConfig,
        durability: TenantDurability | None = None,
    ):
        self.name = name
        self.config = config
        self.durability = durability
        if durability is not None:
            # Durable tenant: the data directory is the source of truth.
            # A fresh directory is seeded from config.extensions and
            # checkpointed; an existing one recovers the acknowledged
            # state and ignores config.extensions entirely.
            self.store = durability.open_or_recover(
                config.extensions or {}, log_limit=config.log_limit
            )
        else:
            self.store = MaterializedViewStore(
                config.extensions or {}, log_limit=config.log_limit
            )
        plans = (
            RewritePlanCache(config.plan_dir)
            if config.plan_dir is not None
            else None
        )
        self.session = QuerySession(
            self.store,
            config.views,
            config.theory,
            plans=plans,
            parallelism=config.parallelism,
            workers=config.workers,
            incremental=config.incremental,
            backend=config.backend,
        )
        self.symbols = frozenset(self.session.views.symbols)
        # The alphabet queries may range over: the union of the view
        # definitions' alphabets (the paper's Sigma).  Queries are posed
        # over the database alphabet and rewritten against the views;
        # the compile alphabet is pinned to the view symbols, so a query
        # mentioning anything outside Sigma can never be answered and is
        # rejected up front rather than surfacing as a 500.
        self.query_symbols = frozenset(
            symbol
            for view in self.session.views.symbols
            for symbol in self.session.views.rpq(view).alphabet()
        )
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"tenant-{name}"
        )
        self.pending = 0
        self.write_seq = 0
        self.served = {
            "queries": 0,
            "updates": 0,
            "rejected": 0,
            "errors": 0,
            "max_pending": 0,
            "encoded_hits": 0,
        }
        # query -> (version, all-pairs body as last served, its pairs'
        # bytes); read and written on the tenant thread only.
        self._wire: dict[str, tuple[int, bytes, _PairBytes]] = {}
        self._node_bytes = _NodeBytes()

    # -- executed on the tenant's executor thread ----------------------
    def run_query(
        self,
        query: str,
        mode: str,
        source: str | None,
        target: str | None,
    ) -> dict | bytes:
        # The pinned version: writes share this thread, so the version
        # cannot move between this read and the evaluation below.
        version = self.store.version
        if mode == "all":
            return self._all_pairs_body(query, version)
        result: dict = {"version": version, "query": query, "mode": mode}
        if mode == "single_source":
            result["source"] = source
            result["targets"] = sorted(
                str(y) for y in self.session.answer_from(query, source)
            )
        else:
            result["source"] = source
            result["target"] = target
            result["found"] = self.session.answer_pair(query, source, target)
        return result

    def _all_pairs_body(self, query: str, version: int) -> bytes:
        """The all-pairs response body at ``version``: byte for byte what
        :func:`_encode_response` makes of ``{"answers": [[str(x), str(y)]
        ...], "mode": "all", "query": query, "version": version}``.

        A repeat at the stored version returns the stored body.  After
        an update nearly every pair's bytes are ones the previous body
        carried, so the answer is mapped through that entry's pairs and
        only new pairs are composed; the new entry keeps the current
        answer's pairs and nothing else, so it never outgrows it.
        """
        entry = self._wire.get(query)
        if entry is not None and entry[0] == version:
            self.served["encoded_hits"] += 1
            return entry[1]
        pairs = self.session.answer_sorted(query)
        known = entry[2] if entry is not None else _PairBytes(self._node_bytes)
        parts = list(map(known.__getitem__, pairs))
        body = b'{"answers":[%b],"mode":"all","query":%b,"version":%d}' % (
            b",".join(parts),
            json.dumps(query).encode(),
            version,
        )
        fresh = _PairBytes(self._node_bytes, zip(pairs, parts))
        self._wire[query] = (version, body, fresh)
        return body

    def run_update(
        self, changes: list[tuple[str, str, str, str]], seq: int
    ) -> dict:
        applied = 0
        for action, symbol, source, target in changes:
            if action == "insert":
                applied += self.store.add(symbol, source, target)
            else:
                applied += self.store.remove(symbol, source, target)
        if self.durability is not None:
            # The ack barrier: the store framed each effective mutation
            # into the WAL above; commit makes the batch as durable as
            # the fsync policy promises *before* the 200 is written.
            # Running here — on the tenant thread, before the executor
            # future resolves — is what makes "acknowledged" imply
            # "recoverable".  Checkpoint rolling shares the thread too,
            # so it serializes with mutations for free.
            self.durability.wal.commit()
            self.durability.note_commit()
            self.durability.maybe_checkpoint(self.store)
        return {
            "seq": seq,
            "applied": applied,
            "requested": len(changes),
            "version": self.store.version,
        }

    def checkpoint_now(self) -> None:
        """Roll a checkpoint unconditionally (shutdown runs this on the
        tenant thread so it lands after every drained write)."""
        if self.durability is not None:
            self.durability.checkpoint(self.store)

    # -- event-loop side -----------------------------------------------
    def stats_payload(self) -> dict:
        payload = {
            "name": self.name,
            "version": self.store.version,
            "tuples": self.store.num_tuples,
            "log_size": self.store.log_size,
            "pending": self.pending,
            "writes": self.write_seq,
            "served": dict(self.served),
            "session": dict(self.session.stats),
            "plan_cache": dict(self.session.plans.stats),
        }
        if self.durability is not None:
            durability = dict(self.durability.stats)
            durability["fsync"] = self.durability.fsync
            if self.durability.wal is not None:
                durability["wal"] = dict(self.durability.wal.stats)
            payload["durability"] = durability
        return payload

    def close(self) -> None:
        # wait=True *without* cancel_futures: every admitted write that
        # reached the queue is applied (and WAL-committed) before the
        # executor dies — cancelling queued futures here is exactly the
        # clean-shutdown write loss this server promises not to have.
        self.executor.shutdown(wait=True)
        if self.durability is not None:
            self.durability.close()
        self.session.close()
        self._wire.clear()
        self._node_bytes.clear()


def _parse_body(body: bytes) -> tuple[dict | None, str | None]:
    if not body:
        return None, "request body must be a JSON object"
    try:
        payload = json.loads(body)
    except ValueError as exc:
        return None, f"request body is not valid JSON: {exc}"
    if not isinstance(payload, dict):
        return None, "request body must be a JSON object"
    return payload, None


def _encode_response(
    status: int, body: dict | bytes, keep_alive: bool
) -> bytes:
    if not isinstance(body, bytes):  # bytes: an all-pairs body, encoded
        body = json.dumps(body, separators=(",", ":"), sort_keys=True).encode()
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


class RPQServer:
    """The asyncio HTTP/JSON front end over a set of tenants.

    Construct with ``{name: TenantConfig}``, then either ``await
    server.start()`` (binds; ``server.port`` is the resolved port) and
    later ``await server.serve_until_shutdown()``, or hand the server to
    :func:`run_in_thread` from synchronous code.  ``port=0`` (the
    default) binds an ephemeral port — the right choice for tests and
    benchmarks, which must not collide on a fixed port.
    """

    def __init__(
        self,
        tenants: Mapping[str, TenantConfig],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        data_dir: str | os.PathLike | None = None,
        fsync: str = "batch",
        checkpoint_every_bytes: int = 1 << 20,
        max_request_bytes: int = 1 << 20,
    ):
        if not tenants:
            raise ValueError("a server needs at least one tenant")
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        if max_request_bytes < 1:
            raise ValueError(
                f"max_request_bytes must be >= 1, got {max_request_bytes}"
            )
        self.data_dir = os.fspath(data_dir) if data_dir is not None else None
        self.fsync = fsync
        self.max_request_bytes = max_request_bytes
        self.tenants = {}
        for name, config in tenants.items():
            name = str(name)
            durability = None
            if self.data_dir is not None:
                durability = TenantDurability(
                    os.path.join(self.data_dir, name),
                    fsync=fsync,
                    checkpoint_every_bytes=checkpoint_every_bytes,
                )
            self.tenants[name] = Tenant(name, config, durability=durability)
        self.host = host
        self.port = port
        self.stats = {
            "requests": 0,
            "rejected": 0,
            "errors": 0,
            "bad_requests": 0,
            "connections": 0,
        }
        self._server: asyncio.AbstractServer | None = None
        self._shutdown: asyncio.Event | None = None
        # Requests between head-read and response-drain.  aclose() waits
        # for this to hit zero before joining tenant executors, so a
        # clean shutdown never tears the loop down under a response that
        # acknowledges an applied write.
        self._inflight = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "RPQServer":
        """Bind the listener; resolves ``self.port`` when it was 0."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` or :meth:`request_shutdown`."""
        if self._server is None:
            await self.start()
        assert self._shutdown is not None
        await self._shutdown.wait()
        await self.aclose()

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (callable from the loop's thread;
        from other threads go through ``call_soon_threadsafe``)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def aclose(self) -> None:
        """Stop accepting, drain, checkpoint, then release tenants.

        The clean-shutdown ordering contract (the one ``/shutdown``
        relies on): (1) close the listener so no new connection lands;
        (2) wait for every in-flight request — admitted writes included
        — to finish executing *and* drain its response; (3) roll a final
        checkpoint per durable tenant, on the tenant's own executor so
        it serializes after every drained write; (4) join the executors
        without cancelling queued work.  Only then may the caller's
        event loop die: no accepted write is dropped, and restart
        recovers instantly from the shutdown checkpoint.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while self._inflight:
            await asyncio.sleep(0.005)
        loop = asyncio.get_running_loop()
        for tenant in self.tenants.values():
            if tenant.durability is not None:
                await loop.run_in_executor(
                    tenant.executor, tenant.checkpoint_now
                )
        for tenant in self.tenants.values():
            tenant.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats["connections"] += 1
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                if isinstance(request, _BadRequest):
                    # Parse-level rejection (oversized or malformed):
                    # answer, then close — the unread bytes cannot be
                    # trusted as a frame boundary for the next request.
                    self.stats["bad_requests"] += 1
                    writer.write(
                        _encode_response(
                            request.status, {"error": request.error}, False
                        )
                    )
                    await writer.drain()
                    # Discard (a bounded amount of) whatever the client is
                    # still sending before closing.  Closing with unread
                    # bytes in the kernel buffer turns the FIN into an
                    # RST, which can wipe out the error response we just
                    # wrote before the client reads it.
                    with contextlib.suppress(Exception):
                        for _ in range(64):
                            chunk = await asyncio.wait_for(
                                reader.read(65536), timeout=0.25
                            )
                            if not chunk:
                                break
                    break
                method, path, headers, body = request
                self._inflight += 1
                try:
                    try:
                        status, payload = await self._dispatch(
                            method, path, body
                        )
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:  # route bugs must not kill the loop
                        self.stats["errors"] += 1
                        status = 500
                        payload = {"error": f"{type(exc).__name__}: {exc}"}
                    keep_alive = (
                        headers.get("connection", "keep-alive").lower()
                        != "close"
                    )
                    writer.write(_encode_response(status, payload, keep_alive))
                    await writer.drain()
                finally:
                    self._inflight -= 1
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(
        self,
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, dict, bytes] | _BadRequest | None:
        """Parse one bounded request; ``None`` on EOF, a sentinel on junk.

        The parser never buffers more than the stream's head limit plus
        ``max_request_bytes`` of body: an oversized or lie-length body
        is rejected with 413 *before* it is read, and a Content-Length
        that is not a non-negative integer gets a 400 — both as
        :class:`_BadRequest` sentinels so the connection handler can
        answer and close instead of silently dropping the connection.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            # Headers longer than the StreamReader's limit (64 KiB by
            # default): the bytes are still buffered, unconsumed; do
            # not try to resynchronise, just reject and close.
            return _BadRequest(413, "request head too large")
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = request_line.split(" ", 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            return _BadRequest(
                400, f"malformed Content-Length {raw_length!r}"
            )
        if length < 0:
            return _BadRequest(
                400, f"malformed Content-Length {raw_length!r}"
            )
        if length > self.max_request_bytes:
            return _BadRequest(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.max_request_bytes}-byte limit",
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        return method.upper(), path, headers, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict | bytes]:
        self.stats["requests"] += 1
        parts = [part for part in path.partition("?")[0].split("/") if part]
        if method == "GET" and parts == ["health"]:
            return 200, self._health_payload()
        if method == "GET" and parts == ["stats"]:
            return 200, self._stats_payload()
        if method == "POST" and parts == ["shutdown"]:
            self.request_shutdown()
            return 200, {"status": "shutting-down"}
        if len(parts) == 3 and parts[0] == "tenants":
            tenant = self.tenants.get(parts[1])
            if tenant is None:
                return 404, {"error": f"unknown tenant {parts[1]!r}"}
            if method == "GET" and parts[2] == "stats":
                return 200, tenant.stats_payload()
            if method == "POST" and parts[2] == "query":
                return await self._query(tenant, body)
            if method == "POST" and parts[2] == "update":
                return await self._update(tenant, body)
        return 404, {"error": f"no route for {method} {path}"}

    def _health_payload(self) -> dict:
        return {
            "status": "ok",
            "tenants": {
                name: {"version": tenant.store.version, "pending": tenant.pending}
                for name, tenant in self.tenants.items()
            },
        }

    def _stats_payload(self) -> dict:
        return {
            "server": dict(self.stats),
            "tenants": {
                name: tenant.stats_payload()
                for name, tenant in self.tenants.items()
            },
        }

    # ------------------------------------------------------------------
    # Tenant requests: validate on the loop, evaluate on the tenant thread
    # ------------------------------------------------------------------
    async def _admit(
        self,
        tenant: Tenant,
        kind: str,
        make_op: Callable[[], Callable[[], dict | bytes]],
    ) -> tuple[int, dict | bytes]:
        """Bounded admission, then executor confinement.

        The pending check and increment run with no ``await`` between
        them, so admission is atomic on the event loop; ``make_op`` is
        also called before the executor submit, so anything it assigns
        (the write sequence number) is ordered exactly like execution.
        """
        if tenant.pending >= tenant.config.max_queue:
            tenant.served["rejected"] += 1
            self.stats["rejected"] += 1
            return 429, {
                "error": f"tenant {tenant.name!r} queue full",
                "pending": tenant.pending,
                "max_queue": tenant.config.max_queue,
            }
        tenant.pending += 1
        tenant.served["max_pending"] = max(
            tenant.served["max_pending"], tenant.pending
        )
        op = make_op()
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(tenant.executor, op)
        except Exception as exc:
            tenant.served["errors"] += 1
            self.stats["errors"] += 1
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            tenant.pending -= 1
        tenant.served["queries" if kind == "query" else "updates"] += 1
        return 200, result

    async def _query(
        self, tenant: Tenant, body: bytes
    ) -> tuple[int, dict | bytes]:
        payload, error = _parse_body(body)
        if error is not None:
            return 400, {"error": error}
        assert payload is not None
        query = payload.get("query")
        if not isinstance(query, str) or not query:
            return 400, {"error": "body must carry a non-empty string 'query'"}
        source = payload.get("source")
        target = payload.get("target")
        for name, value in (("source", source), ("target", target)):
            if value is not None and not isinstance(value, str):
                return 400, {"error": f"'{name}' must be a string"}
        if target is not None and source is None:
            return 400, {"error": "'target' requires a 'source' (pair mode)"}
        try:
            parsed = RPQ(query)
        except Exception as exc:
            return 400, {"error": f"bad query {query!r}: {exc}"}
        unknown = sorted(
            str(symbol)
            for symbol in parsed.alphabet()
            if symbol not in tenant.query_symbols
        )
        if unknown:
            return 400, {
                "error": (
                    "query uses symbols outside this tenant's "
                    f"database alphabet: {unknown}"
                ),
                "symbols": sorted(map(str, tenant.query_symbols)),
            }
        if target is not None:
            mode = "pair"
        elif source is not None:
            mode = "single_source"
        else:
            mode = "all"
        return await self._admit(
            tenant,
            "query",
            lambda: lambda: tenant.run_query(query, mode, source, target),
        )

    async def _update(self, tenant: Tenant, body: bytes) -> tuple[int, dict]:
        payload, error = _parse_body(body)
        if error is not None:
            return 400, {"error": error}
        assert payload is not None
        ops = payload.get("ops")
        if not isinstance(ops, list) or not ops:
            return 400, {"error": "body must carry a non-empty list 'ops'"}
        changes: list[tuple[str, str, str, str]] = []
        for index, op in enumerate(ops):
            if not isinstance(op, dict):
                return 400, {"error": f"ops[{index}] must be an object"}
            action = op.get("op")
            if action not in ("insert", "delete"):
                return 400, {
                    "error": f"ops[{index}].op must be 'insert' or 'delete'"
                }
            symbol = op.get("symbol")
            if symbol not in tenant.symbols:
                return 400, {
                    "error": f"ops[{index}]: unknown view symbol {symbol!r}",
                    "symbols": sorted(map(str, tenant.symbols)),
                }
            source, target = op.get("source"), op.get("target")
            if not isinstance(source, str) or not isinstance(target, str):
                return 400, {
                    "error": f"ops[{index}] needs string 'source' and 'target'"
                }
            changes.append((action, symbol, source, target))

        def make_op() -> Callable[[], dict]:
            tenant.write_seq += 1
            seq = tenant.write_seq
            return lambda: tenant.run_update(changes, seq)

        return await self._admit(tenant, "update", make_op)


class ServerHandle:
    """A running :class:`RPQServer` on a background thread.

    ``url`` is the base address; :meth:`stop` requests shutdown and
    joins the thread.  Usable as a context manager.
    """

    def __init__(
        self, server: RPQServer, thread: threading.Thread, loop: asyncio.AbstractEventLoop
    ):
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_in_thread(server: RPQServer, *, timeout: float = 30.0) -> ServerHandle:
    """Start ``server`` on a daemon thread; block until it is listening.

    The synchronous entry point for tests, the quickstart, and anything
    else that wants an HTTP endpoint without owning an event loop.
    """
    started = threading.Event()
    box: dict[str, Any] = {}

    async def main() -> None:
        await server.start()
        box["loop"] = asyncio.get_running_loop()
        started.set()
        await server.serve_until_shutdown()

    def runner() -> None:
        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced to the starting thread
            box.setdefault("error", exc)
        finally:
            started.set()

    thread = threading.Thread(target=runner, name="rpq-server", daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError(f"server did not start within {timeout}s")
    if "error" in box:
        raise box["error"]
    return ServerHandle(server, thread, box["loop"])
