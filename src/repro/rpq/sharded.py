"""Sharded RPQ evaluation (the scale-out layer over the engine).

:mod:`repro.rpq.engine` answers all-pairs queries in one macro-frontier
sweep whose source sets are packed into ``num_nodes``-bit masks.
:class:`ParallelEvaluator` cuts that sweep by **source windows**: the
node ids are cut into ``k`` contiguous ranges (:func:`shard_bounds`),
and window ``i`` runs the very same sweep seeded only with the sources
in ``[lo, hi)``: it computes every answer pair ``(x, y)`` whose ``x``
lies in its range, over the *whole* graph.  Because a window's source
sets pack into ``(hi - lo)``-bit masks instead of ``num_nodes``-bit
ones, the mask work per product-edge crossing drops by a factor of
``k``, and the windows share nothing but what they read, so they run
unchanged on a thread pool.  Nothing is partitioned but the sources:
every window reads the evaluator's one in-memory
:class:`~repro.sweep.csr.CSRSnapshot`, the big-int backend through
``engine._sweep_to_fixpoint`` and the numpy backend through
``kernel.sweep_window``.

Exactness and determinism are non-negotiable: for every shard count,
worker count and backend, results are **bit-identical** to the
single-window engine (and to ``naive_evaluate``): the per-window masks
are merged in window order whichever thread swept them.  The randomized
differential harness in ``tests/rpq/test_sharded_differential`` holds
the all-pairs entry points to that contract on every workload family.

Ordering guarantee: :meth:`ParallelEvaluator.evaluate_all_sorted` (like
:func:`repro.rpq.engine.evaluate_all_sorted`) returns answers sorted by
``(node_id(x), node_id(y))`` — the *interning order* of the database,
which is independent of shard count, worker count, process, and
``PYTHONHASHSEED`` — so differential tests compare lists, not just sets.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
    """A window's sweep failed; the message names its source range.

    No partial answer is returned, and the evaluator stays usable: the
    next call runs every window again on the same thread pool.
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

    ``fail`` is fault injection for the fault-contract tests: the sweep
    raises before touching any state.
    """
    if fail:
        raise RuntimeError(f"injected fault sweeping sources [{lo}, {hi})")
    return window_masks(snapshot, compiled, lo, hi, backend == "numpy")


class ParallelEvaluator:
    """Window-parallel evaluation of a compiled automaton over one graph.

    ``num_shards`` fixes the source windows (and with them the all-pairs
    work/mask decomposition); ``workers`` caps the threads that sweep
    them.  Every worker count runs the same per-window sweeps and merges
    them in window order, so results are **bit-identical** (the
    differential harness asserts this).  A window that *raises*
    mid-sweep surfaces as :class:`ShardedEvaluationError`.

    The graph is frozen into a :class:`~repro.sweep.csr.CSRSnapshot` at
    construction time: all-pairs answers are for the graph as it was
    when built.  When the underlying graph changes, call :meth:`refresh`
    to freeze the live graph again; the thread pool is kept.

    The pool is built once, on the first call, with
    ``min(workers, num_shards)`` threads, and reused across calls and
    refreshes.  All threads read the one snapshot, so the gather plans,
    adjacency bitmaps and label indexes it memoizes are built once and
    shared.  Call :meth:`close` (or use the evaluator as a context
    manager) to release the threads.
    """

    def __init__(
        self,
        db: GraphDB,
        num_shards: int = 4,
        workers: int = 1,
        *,
        backend: str = "bigint",
        _fail_shards: Iterable[int] = (),
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.db = db
        self._num_shards = num_shards
        self.backend = _engine.resolve_backend(db, backend)
        self.workers = workers
        self._fail_shards = frozenset(_fail_shards)
        self._pool = None
        self._generation = 0
        self._freeze()

    def _freeze(self) -> None:
        """Take the evaluator's frozen view of ``self.db``."""
        self._snapshot = self.db.to_csr()
        self._bounds = shard_bounds(self.db.num_nodes, self._num_shards)
        self._db_mutations = self.db.mutation_count

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def generation(self) -> int:
        """How many times :meth:`refresh` has taken a new snapshot."""
        return self._generation

    def refresh(self) -> None:
        """Re-freeze the *live* graph (the same work construction does),
        keeping the thread pool.

        A refresh against an *unchanged* graph (checked via
        :attr:`GraphDB.mutation_count`, which only moves on effective
        mutations) is a no-op: the snapshot, with everything memoized on
        it, and the generation both survive, so callers can refresh
        unconditionally on every store-version bump.
        """
        if self.db.mutation_count == self._db_mutations:
            return
        self._freeze()
        self._generation += 1

    # ------------------------------------------------------------------
    # Entry points
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

    # ------------------------------------------------------------------
    # Window execution
    # ------------------------------------------------------------------
    def _sweep_all(self, compiled: CompiledAutomaton) -> list[dict[int, int]]:
        """Per-window answer masks, in window order."""
        snapshot, bounds, backend = self._snapshot, self._bounds, self.backend

        def sweep(i: int) -> dict[int, int]:
            lo, hi = bounds[i], bounds[i + 1]
            try:
                return _sweep_window(
                    snapshot, compiled, lo, hi, backend, i in self._fail_shards
                )
            except Exception as exc:
                raise ShardedEvaluationError(
                    f"sweep of sources [{lo}, {hi}) failed: {exc!r}"
                ) from exc

        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=min(self.workers, self._num_shards)
            )
        return list(self._pool.map(sweep, range(self._num_shards)))

    def close(self) -> None:
        """Release the thread pool (idempotent).

        The evaluator keeps working after ``close``: the next call
        builds a new pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(cancel_futures=True)

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
