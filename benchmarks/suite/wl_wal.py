"""``wal_recover``: the storage path, with no HTTP and no sweeps.

One op is a burst of 16 single-tuple writes, each as the server's ack path
does it: ``store.add`` / ``store.remove`` (which frames the change into the
WAL), ``wal.commit()``, ``maybe_checkpoint``.  (A single write takes about
10 microseconds with ``fsync="off"``: timed one by one, the clock calls
would be a tenth of the measurement and the p95 would sit on the boundary
between insert and delete.)  ``checkpoint_every_bytes`` is 256 KiB, so
checkpoints roll every few thousand writes and a WAL suffix remains at
every close.

Every pass works on a fresh tenant directory that was first seeded and
given a 5 000-write pre-roll (untimed), then closed.  The pass's set-up is
``TenantDurability.open_or_recover`` on that directory — restart from the
newest checkpoint plus WAL replay — so restart time lands in ``setup_s``
(and in ``recovery_s``), on a directory of the same size every time.  The
timed writes continue the stream from there.

``fsync`` is ``"off"``: the sandbox's fsync latency moved tenfold between
runs of one commit (0.24 to 3 ms median write), which would drown any code
change.  ``wal.commit`` still hands every write to the OS and checkpoints
still fsync their files.  Write cost, space and restart time trade against
each other, so ``write_p50_ms`` / ``write_p95_ms``, ``recovery_s`` and
``disk_bytes_per_tuple`` are reported together.
"""

from __future__ import annotations

import os
import random
import time

from repro.rpq import make_graph
from repro.rpq.workload import UpdateOp
from repro.service import recovery
from repro.service.recovery import TenantDurability

from harness import Failure, PassLog, Workload, percentile, share, sum_counts
from tracing import COUNTED
from wl_trickle import apply_update, elementary_extensions

FAMILY = "grid"
FSYNC = "off"
CHECKPOINT_EVERY_BYTES = 256 * 1024
DELETE_FRACTION = 0.2
FRESH_NODE_FRACTION = 0.02
BURST = 16


def directory_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def write_stream(seed: int, extensions, count: int) -> list[UpdateOp]:
    """A seeded insert/delete stream over ``extensions``, every op effective.

    The same contract as ``make_update_stream`` (consistent by
    construction, a share of fresh nodes), in O(1) per op: that
    generator's list scans took 8 s for the 54 000 ops a run needs here.
    """
    rng = random.Random(f"{seed}/wal_recover/stream")
    symbols = sorted(extensions)
    present = [(s, x, y) for s in symbols for x, y in extensions[s]]
    members = set(present)
    nodes = sorted({node for _s, x, y in present for node in (x, y)})
    ops = []

    def endpoint() -> str:
        if rng.random() < FRESH_NODE_FRACTION:
            nodes.append(f"u{len(nodes)}")
            return nodes[-1]
        return nodes[rng.randrange(len(nodes))]

    while len(ops) < count:
        if present and rng.random() < DELETE_FRACTION:
            at = rng.randrange(len(present))
            present[at], present[-1] = present[-1], present[at]
            victim = present.pop()
            members.discard(victim)
            ops.append(UpdateOp("delete", *victim))
            continue
        candidate = (symbols[rng.randrange(len(symbols))], endpoint(), endpoint())
        if candidate not in members:
            members.add(candidate)
            present.append(candidate)
            ops.append(UpdateOp("insert", *candidate))
    return ops


class WalRecover(Workload):
    name = "wal_recover"
    why = (
        "Single-tuple writes on the ack path (WAL append, commit, rolling checkpoints) and "
        "restart by recover_store: the storage path with no HTTP and no sweeps."
    )
    # A write takes ~12 microseconds and a span costs ~0.8: with three spans
    # a write the traced pass ran a fifth slower.  The two inner spans go
    # (their time stays inside store.add / store.remove's self time); the
    # roots, nearest the blocking path, stay.  serve_mix keeps all three.
    trace_skip = frozenset({"wal.append", "wal.commit"})

    def build(self) -> None:
        smoke = self.ctx.smoke
        edges = 3_000 if smoke else 30_000
        self.preroll = 500 if smoke else 5_000
        writes = 20_000 if smoke else 160_000
        db = make_graph(FAMILY, self.ctx.seed, edges=edges)
        self.extensions = elementary_extensions(db)
        self.stream = write_stream(self.ctx.seed, self.extensions, writes)
        self.recoveries: list[float] = []
        self.problems: list[str] = []
        self.disk_bytes_per_tuple = 0.0
        self.sizes = {
            "family": FAMILY,
            "seed_tuples": db.num_edges,
            "preroll_writes": self.preroll,
            "stream_writes": writes,
            "writes_per_op": BURST,
            "delete_fraction": DELETE_FRACTION,
            "fresh_node_fraction": FRESH_NODE_FRACTION,
            "fsync": FSYNC,
            "checkpoint_every_bytes": CHECKPOINT_EVERY_BYTES,
        }

    def _durability(self, log: PassLog) -> TenantDurability:
        return TenantDurability(
            self.ctx.workdir / f"tenant-{log.index}",
            fsync=FSYNC,
            checkpoint_every_bytes=CHECKPOINT_EVERY_BYTES,
        )

    @staticmethod
    def _write(durability, store, ops) -> int:
        applied = 0
        for op in ops:
            applied += apply_update(store, op)
            durability.wal.commit()
            durability.maybe_checkpoint(store)
        return applied

    def prepare_pass(self, log: PassLog) -> None:
        durability = self._durability(log)
        store = durability.open_or_recover(self.extensions)
        self._write(durability, store, self.stream[: self.preroll])
        self.before_restart = store.snapshot()
        durability.close()

    def open_pass(self, log: PassLog):
        durability = self._durability(log)
        if log.tracer is not None:
            # Restart is what this workload measures: its spans count.
            log.tracer.op_index = COUNTED
        started = time.perf_counter()
        store = durability.open_or_recover()
        self.recoveries.append(time.perf_counter() - started)
        log.counts["recovery.replayed"] += durability.stats["replayed"]
        if durability.stats["quarantined"] or durability.stats["wal_truncated_bytes"]:
            self.problems.append(f"pass {log.index}: recovery reported {durability.stats}")
        return durability, store, durability.wal.offset

    def run_pass(self, state, log: PassLog, budget_s: float) -> None:
        durability, store, _wal_start = state
        if store.snapshot() != self.before_restart:
            self.problems.append(
                f"pass {log.index}: re-opened snapshot differs from the one before close"
            )
        for op_id, at in enumerate(range(self.preroll, len(self.stream) - BURST, BURST)):
            if log.busy_s >= budget_s:
                break
            burst = self.stream[at : at + BURST]
            applied = log.time(op_id, "burst", self._write, durability, store, burst)
            if applied is not None and applied != BURST:
                log.errors.append((op_id, "burst", f"only {applied} of {BURST} writes took effect"))
                log.samples.pop()

    def close_pass(self, state, log: PassLog) -> None:
        durability, store, wal_start = state
        self.closed_at = store.snapshot()
        self.closed_directory = durability.directory
        wal = durability.wal
        log.counts["wal.appends"] += wal.stats["appends"]
        log.counts["wal.syncs"] += wal.stats["syncs"]
        log.counts["wal.bytes"] += wal.offset - wal_start
        log.counts["recovery.checkpoints"] += durability.stats["checkpoints"]
        durability.close()
        self.disk_bytes_per_tuple = share(
            directory_bytes(durability.directory), store.num_tuples
        )

    def verify(self, logs: list[PassLog]) -> list[Failure]:
        """Beside the restart checks made at every pass's opening: the
        directory the last pass closed must recover to what it held."""
        failures = [Failure(None, -1, problem) for problem in self.problems]
        result = recovery.recover_store(self.closed_directory)
        if result.wal_error is not None or result.quarantined:
            failures.append(
                Failure(None, -1, f"recovery: wal_error={result.wal_error!r} "
                        f"quarantined={result.quarantined}")
            )
        if result.store.snapshot() != self.closed_at:
            failures.append(
                Failure(None, -1, "recovered snapshot differs from the one before close")
            )
        return failures

    def counters(self, logs: list[PassLog]) -> dict[str, float]:
        counts = sum_counts(logs)
        return {
            "wal.appends": counts["wal.appends"],
            "wal.syncs": counts["wal.syncs"],
            "wal.bytes_per_write": share(counts["wal.bytes"], counts["wal.appends"]),
            "recovery.checkpoints": counts["recovery.checkpoints"],
            "recovery.replayed": counts["recovery.replayed"],
        }

    def extras(self, logs: list[PassLog]) -> dict[str, float]:
        writes = [seconds for log in logs for _i, _kind, seconds in log.samples]
        extras = {"disk_bytes_per_tuple": self.disk_bytes_per_tuple}
        if self.recoveries:
            extras["recovery_s"] = percentile(self.recoveries, 0.50)
        if writes:
            extras["write_p50_ms"] = percentile(writes, 0.50) * 1e3
            extras["write_p95_ms"] = percentile(writes, 0.95) * 1e3
        return extras
