"""Sharded, parallel RPQ evaluation (the scale-out layer over the engine).

:mod:`repro.rpq.engine` answers all-pairs queries in one macro-frontier
sweep whose source sets are packed into ``num_nodes``-bit masks.  That
is the fastest *single* sweep this repo knows, but it leaves two axes on
the table: multiple cores, and the width of those masks.
:class:`ParallelEvaluator` takes both with one mechanism — **source
windows**.  The node ids are cut into ``k`` contiguous ranges
(:func:`shard_bounds`), and task ``i`` runs the very same sweep seeded
only with the sources in ``[lo, hi)``: it computes every answer pair
``(x, y)`` whose ``x`` lies in its range, over the *whole* graph.
Because a window's source sets pack into ``(hi - lo)``-bit masks instead
of ``num_nodes``-bit ones, the mask work per product-edge crossing drops
by a factor of ``k`` — and the tasks share nothing, so they run
unchanged in a process pool.  Nothing is partitioned but the sources:
every task reads one frozen :class:`~repro.rpq.csr.CSRSnapshot` (mmapped
from a single file in pool workers), the big-int backend through
``engine._sweep_to_fixpoint`` and the numpy backend through
``kernel.sweep_window``.

Exactness and determinism are non-negotiable: for every shard count,
worker count, backend and entry point, results are **bit-identical** to
the single-window engine (and to ``naive_evaluate``) — the pool path
returns per-window masks merged in window order, and the sequential
fallback (used when ``workers <= 1`` or when process pools are
unavailable in the host environment) runs the very same
:func:`_sweep_window` in a plain loop.  The randomized differential
harness in ``tests/rpq/test_sharded_differential`` holds all three entry
points to that contract on every workload family.

Ordering guarantee: :meth:`ParallelEvaluator.evaluate_all_sorted` (like
:func:`repro.rpq.engine.evaluate_all_sorted`) returns answers sorted by
``(node_id(x), node_id(y))`` — the *interning order* of the database,
which is independent of shard count, worker count, process, and
``PYTHONHASHSEED`` — so differential tests compare lists, not just sets.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from bisect import bisect_right
from typing import Hashable, Iterable

from ..sweep import window_masks
from ..sweep.kernel import decode_masks
from . import engine as _engine
from .engine import CompiledAutomaton
from .graphdb import GraphDB

__all__ = [
    "ParallelEvaluator",
    "ShardedEvaluationError",
]

Pair = tuple[Hashable, Hashable]


class ShardedEvaluationError(RuntimeError):
    """A shard worker failed mid-sweep.

    Raised by :class:`ParallelEvaluator` after the pool has been shut
    down (``cancel_futures=True``), so callers never inherit a hung or
    half-broken pool.  :class:`~repro.service.session.QuerySession`
    catches this and falls back to the sequential engine, keeping the
    session usable.
    """


def shard_bounds(num_nodes: int, num_shards: int) -> list[int]:
    """The contiguous node-range partition: window ``i`` is
    ``[bounds[i], bounds[i + 1])``.  With ``num_shards > num_nodes`` some
    windows are empty; with one shard the window is the whole graph."""
    if num_shards < 1:
        raise ValueError(f"need at least one shard, got {num_shards}")
    return [(i * num_nodes) // num_shards for i in range(num_shards + 1)]


def _sweep_window(
    snapshot,
    compiled: CompiledAutomaton,
    lo: int,
    hi: int,
    backend: str,
    fail: bool = False,
) -> dict[int, int]:
    """:func:`repro.sweep.window_masks` for the sources in ``[lo, hi)`` on
    ``backend``'s rows: ``{target_id: mask}`` re-based to the window, which
    is where the factor-``k`` saving over the monolithic sweep comes from.

    ``fail`` is fault injection for the crash-recovery tests: the sweep
    raises before touching any state, as a crashing worker would.
    """
    if fail:
        raise RuntimeError(
            f"injected fault: worker died sweeping sources [{lo}, {hi})"
        )
    return window_masks(snapshot, compiled, lo, hi, backend == "numpy")


# The snapshot a worker process last mapped, as ``(path, snapshot)``.
# Tasks carry only the path of the evaluator's current snapshot file (it
# names the generation, so it changes on every effective refresh); a
# worker maps the file **zero-copy** on first sight and keeps it — with
# the gather plans and adjacency views the sweeps memoize on it — until
# a task names another.  That is what lets one long-lived pool serve
# every query and every refresh: a refresh costs one file write in the
# parent and one ``mmap`` per worker, never a process spawn.
_WORKER_SNAPSHOT: tuple = (None, None)


def _pool_sweep(
    path: str,
    compiled: CompiledAutomaton,
    lo: int,
    hi: int,
    backend: str,
    fail: bool,
) -> dict[int, int]:
    """The pool task: :func:`_sweep_window` over the snapshot at ``path``."""
    global _WORKER_SNAPSHOT
    if _WORKER_SNAPSHOT[0] != path:
        from ..sweep.csr import CSRSnapshot

        _WORKER_SNAPSHOT = (path, CSRSnapshot.load(path, mmap=True))
    return _sweep_window(_WORKER_SNAPSHOT[1], compiled, lo, hi, backend, fail)


class ParallelEvaluator:
    """Shard-parallel evaluation of a compiled automaton over one graph.

    ``num_shards`` fixes the source windows (and with them the all-pairs
    work/mask decomposition); ``workers`` caps the process pool.  With
    ``workers <= 1`` — or when the host cannot spawn process pools — the
    same per-window sweeps run sequentially in window order, producing
    **bit-identical** results (the differential harness asserts this for
    every entry point).  A worker that *raises* mid-sweep is surfaced as
    :class:`ShardedEvaluationError` after the pool is torn down; see
    :class:`~repro.service.session.QuerySession` for the fallback policy.

    The graph is frozen into a :class:`~repro.rpq.csr.CSRSnapshot` at
    construction time: all-pairs answers are for the graph as it was
    when built.  When the underlying graph changes, call :meth:`refresh`
    to freeze the live graph again **without** discarding the worker
    pool — long-lived callers like ``QuerySession`` refresh on every
    store version bump, and respawning processes per one-tuple update
    would cost more than the update itself.

    The worker pool is built once, on the first pooled call, and reused
    across refreshes: the current snapshot is written to one file (only
    when a pool is used — sequential evaluation never touches disk),
    each task carries the small compiled automaton plus that file's
    path, and workers map it lazily (see :func:`_pool_sweep`).  Call
    :meth:`close` (or use the evaluator as a context manager) to release
    the workers and the snapshot file; a failed sweep tears both down
    automatically, and so does garbage collection of an evaluator that
    was never closed.
    """

    def __init__(
        self,
        db: GraphDB,
        num_shards: int = 4,
        workers: int = 1,
        *,
        backend: str = "bigint",
        pool_timeout: float | None = 300.0,
        _fail_shards: Iterable[int] = (),
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.db = db
        self._num_shards = num_shards
        self.backend = _engine.resolve_backend(db, backend)
        self.workers = workers
        self.pool_timeout = pool_timeout
        self._fail_shards = frozenset(_fail_shards)
        self._pool = None
        self._generation = 0
        # The on-disk copy of the snapshot that pool workers mmap:
        # written lazily into a private temp directory whose removal is
        # registered the moment it is created.
        self._snapshot_dir: str | None = None
        self._snapshot_file: str | None = None
        self._remove_snapshot_dir = None
        self._freeze()

    def _freeze(self) -> None:
        """Take the evaluator's frozen view of ``self.db``."""
        self._snapshot = self.db.to_csr()
        self._bounds = shard_bounds(self.db.num_nodes, self._num_shards)
        self._snapshot_file = None
        self._db_mutations = self.db.mutation_count

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def generation(self) -> int:
        """How many times :meth:`refresh` has taken a new snapshot."""
        return self._generation

    def refresh(self) -> None:
        """Re-freeze the *live* graph, keeping the worker pool.

        The evaluator answers for the graph as of this call — the same
        work construction does — but already-spawned workers are reused:
        the next pooled sweep names the new snapshot file (tagged with a
        bumped generation) instead of paying a process-pool spawn.
        Sequential evaluation just picks up the new snapshot.

        A refresh against an *unchanged* graph (checked via
        :attr:`GraphDB.mutation_count`, which only moves on effective
        mutations) is a no-op: the snapshot, the generation, and the
        file workers already mapped all survive, so callers can refresh
        unconditionally on every store-version bump without forcing the
        next pooled sweep to re-ship an identical snapshot.
        """
        if self.db.mutation_count == self._db_mutations:
            return
        self._freeze()
        self._generation += 1

    # ------------------------------------------------------------------
    # Entry points (same trio as the engine)
    # ------------------------------------------------------------------
    def evaluate_all_sorted(self, compiled: CompiledAutomaton) -> list[Pair]:
        """All answer pairs, sorted by ``(node_id(x), node_id(y))``.

        The order is the database's interning order — identical for
        every shard count, worker count, and process — so two runs can
        be compared byte for byte.
        """
        bounds = self._bounds
        pairs: list[Pair] = []
        for lo, hi, masks in zip(bounds, bounds[1:], self._sweep_all(compiled)):
            pairs += self.db.pairs_at(*decode_masks(masks.items(), hi - lo, lo))
        return pairs

    def evaluate_all(self, compiled: CompiledAutomaton) -> frozenset[Pair]:
        """All pairs ``(x, y)`` with a matching path (engine-equivalent)."""
        return frozenset(self.evaluate_all_sorted(compiled))

    def evaluate_single_source(
        self, compiled: CompiledAutomaton, source: Hashable
    ) -> frozenset[Hashable]:
        """All ``y`` with a matching path from ``source``.

        One source leaves nothing to window, so this is the engine's
        set-based forward sweep over ``self.db``.  Raises ``KeyError``
        on unknown nodes, like the engine; any failure *inside* the
        sweep surfaces as :class:`ShardedEvaluationError` (the same
        degradation contract as the all-pairs entry point).
        """
        source_id = self.db.node_id(source)
        return self._on_engine(
            "single-source", source_id,
            _engine.evaluate_single_source, compiled, source,
        )

    def evaluate_pair(
        self, compiled: CompiledAutomaton, source: Hashable, target: Hashable
    ) -> bool:
        """Is ``(source, target)`` an answer?  The engine's bidirectional
        search over ``self.db``.

        ``KeyError`` on unknown endpoints; sweep failures become
        :class:`ShardedEvaluationError`, like every other entry point.
        """
        source_id = self.db.node_id(source)
        self.db.node_id(target)
        return self._on_engine(
            "single-pair", source_id,
            _engine.evaluate_pair, compiled, source, target,
        )

    def _on_engine(self, what, source_id, evaluate, compiled, *endpoints):
        """Run one of the engine's per-source entry points under this
        evaluator's error contract.  Fault injection mirrors the windowed
        sweep's: it dies when the shard *owning the source* is marked."""
        try:
            if self._fail_shards:
                owner = bisect_right(self._bounds, source_id) - 1
                if owner in self._fail_shards:
                    raise RuntimeError(
                        f"injected fault: sweep died in shard {owner}"
                    )
            return evaluate(self.db, compiled, *endpoints)
        except Exception as exc:
            raise ShardedEvaluationError(
                f"{what} sweep failed: {exc!r}"
            ) from exc

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def _sweep_all(self, compiled: CompiledAutomaton) -> list[dict[int, int]]:
        """Per-window answer masks, in window order."""
        bounds = self._bounds
        windows = [
            (bounds[i], bounds[i + 1], i in self._fail_shards)
            for i in range(self._num_shards)
        ]
        workers = min(self.workers, self._num_shards)
        if workers > 1:
            pool = self._ensure_pool(workers)
            if pool is not None:
                return self._run_pool(pool, compiled, windows)
        # Sequential fallback: the same sweeps, in window order.  Failures
        # get the same typed error as the pool path, so callers have one
        # degradation contract regardless of worker count.
        results = []
        for lo, hi, fail in windows:
            try:
                results.append(
                    _sweep_window(
                        self._snapshot, compiled, lo, hi, self.backend, fail
                    )
                )
            except Exception as exc:
                raise ShardedEvaluationError(
                    f"sweep of sources [{lo}, {hi}) failed: {exc!r}"
                ) from exc
        return results

    def _snapshot_path(self) -> str:
        """The on-disk mmap file for the current snapshot generation.

        Regenerated per refresh; stale generations are removed eagerly
        so a long-lived evaluator holds at most one file.
        """
        if self._snapshot_file is None:
            if self._snapshot_dir is None:
                self._snapshot_dir = tempfile.mkdtemp(prefix="rpq-csr-")
                self._remove_snapshot_dir = weakref.finalize(
                    self, shutil.rmtree, self._snapshot_dir, ignore_errors=True
                )
            else:
                for name in os.listdir(self._snapshot_dir):
                    try:
                        os.remove(os.path.join(self._snapshot_dir, name))
                    except OSError:
                        pass
            path = os.path.join(
                self._snapshot_dir, f"gen{self._generation}.csr"
            )
            self._snapshot.save(path)
            self._snapshot_file = path
        return self._snapshot_file

    def _ensure_pool(self, workers: int):
        """The evaluator's long-lived pool, spawned on first use, or
        ``None`` when the host cannot run process pools (restricted
        sandboxes, missing semaphore support) — the documented cue for
        the bit-identical sequential fallback."""
        if self._pool is None:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=workers)
            except (ImportError, NotImplementedError, OSError, PermissionError):
                return None
        return self._pool

    def _run_pool(self, pool, compiled, windows) -> list[dict[int, int]]:
        try:
            path = self._snapshot_path()
            futures = [
                pool.submit(
                    _pool_sweep, path, compiled, lo, hi, self.backend, fail
                )
                for lo, hi, fail in windows
            ]
            return [
                future.result(timeout=self.pool_timeout) for future in futures
            ]
        except BaseException as exc:
            # Tear the pool down without waiting on wedged workers, then
            # surface one clean, typed error.
            self.close(wait=False)
            raise ShardedEvaluationError(
                f"shard sweep failed in the worker pool: {exc!r}"
            ) from exc

    def close(self, wait: bool = True) -> None:
        """Release the worker pool and the snapshot file (idempotent).

        Sequential evaluation keeps working after ``close``; the next
        pooled call simply re-spawns and re-writes.  ``wait=False`` skips
        joining the workers — used on the failure path, where a worker
        may be wedged (a worker that has the file mapped keeps its
        mapping; one that has not fails its already-cancelled task).
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)
        if self._remove_snapshot_dir is not None:
            self._remove_snapshot_dir()
            self._remove_snapshot_dir = None
            self._snapshot_dir = None
            self._snapshot_file = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ParallelEvaluator(shards={self._num_shards}, "
            f"workers={self.workers}, nodes={self._snapshot.num_nodes}, "
            f"backend={self.backend!r})"
        )
