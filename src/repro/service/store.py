"""Materialized view storage for the answering service (Section 4's scenario).

In the paper's data-integration regime the answering engine never touches
the base database: it only sees the *extensions* of the materialized views
``Q1..Qk`` — sets of node pairs, one per view symbol of ``Sigma_Q`` — and
evaluates rewritings over the graph those extensions induce.

:class:`MaterializedViewStore` is the long-lived home of that data.  It
wraps a single :class:`~repro.rpq.graphdb.GraphDB` whose edge labels are
the view symbols, so the engine's label-first indexes double as per-view
indexes (one bulk set union expands a whole frontier through one view),
and keeps the per-view pair sets alongside for exact membership and
round-tripping.  Every successful mutation bumps a version counter and
appends the tuple-level changes to a bounded change log
(:meth:`MaterializedViewStore.delta_since`), which is what lets
:class:`~repro.service.session.QuerySession` treat data changes
precisely: compiled rewrite plans are never touched (they depend only on
the query, the views, and the theory — not on the data), and replayable
deltas *patch* retained evaluation state forward
(:class:`~repro.rpq.incremental.DeltaSweepState` absorbs insertions by
resuming the semi-naive sweep and deletions by delete-rederive); only
compacted-away history drops that state for a full recompute.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from ..rpq.graphdb import GraphDB
from ..rpq.views import answer_on_extensions

__all__ = ["MaterializedViewStore", "StoreDelta", "answer_on_extensions"]

Pair = tuple[Hashable, Hashable]
Change = tuple[Hashable, Hashable, Hashable]  # (symbol, source, target)


@dataclass(frozen=True)
class StoreDelta:
    """The tuple-level changes between two store versions.

    Returned by :meth:`MaterializedViewStore.delta_since`.  Each list is
    in application order, but the interleaving *between* the two lists
    is not preserved — a mixed delta is not a replayable script.  It is
    still patchable: consumers apply the insertions first and then
    absorb the deletions with delete-rederive
    (:meth:`~repro.rpq.incremental.DeltaSweepState.apply_deletions`),
    which reads the live graph and therefore tolerates the lost
    ordering.  A tuple inserted and later deleted inside the window
    appears in both lists; the lists are not netted against each other.
    An empty delta (both tuples empty) means the store has not changed
    since ``base_version``.
    """

    base_version: int
    version: int
    insertions: tuple[Change, ...]
    deletions: tuple[Change, ...]

    @property
    def num_changes(self) -> int:
        return len(self.insertions) + len(self.deletions)

    @property
    def pure_insertions(self) -> bool:
        """Can evaluation state be patched forward (no deletions)?"""
        return not self.deletions


class MaterializedViewStore:
    """Versioned, incrementally updatable materialized view extensions.

    The store accepts tuples one at a time (:meth:`add` / :meth:`remove`),
    in bulk (:meth:`add_many` / :meth:`remove_many` / :meth:`replace`), or
    wholesale from a database via :meth:`load`.  Reads
    (:attr:`graph`, :meth:`extension`, :meth:`snapshot`) always reflect
    the current :attr:`version`.

    Every effective tuple change is also appended to a bounded change
    log (at most ``log_limit`` entries; compaction drops the oldest),
    so a consumer that remembers the version it last saw can ask
    :meth:`delta_since` for exactly what changed instead of diffing
    snapshots — the feed behind incremental answer maintenance.

    With a :class:`~repro.service.wal.WriteAheadLog` attached
    (:meth:`attach_wal`, or the ``wal`` constructor argument), every
    version bump additionally frames its effective changes into one WAL
    record *before the mutation returns* — the durability feed behind
    crash recovery (:mod:`repro.service.recovery`).  The record's
    durability depends on the log's fsync policy; a caller that must
    acknowledge the write calls ``wal.commit()`` (the serving front end
    does this once per write request).
    """

    def __init__(
        self,
        extensions: Mapping[Hashable, Iterable[Pair]] | None = None,
        *,
        log_limit: int = 100_000,
        wal=None,
    ):
        if log_limit < 0:
            raise ValueError(f"log_limit must be >= 0, got {log_limit}")
        self._graph = GraphDB()
        self._pairs: dict[Hashable, set[Pair]] = {}
        self._version = 0
        # Change log: (version-after-change, is_insert, symbol, source,
        # target), oldest first, trimmed to log_limit entries.  The log
        # is complete for base versions >= _log_start; older baselines
        # can no longer be replayed (delta_since returns None).
        self._log: deque[tuple[int, bool, Hashable, Hashable, Hashable]] = (
            deque()
        )
        self._log_limit = log_limit
        self._log_start = 0
        self._wal = None
        if extensions:
            for symbol, pairs in extensions.items():
                self.add_many(symbol, pairs)
        # Attached after the seed load on purpose: the initial
        # extensions belong in the recovery checkpoint, not the WAL
        # (recovery re-seeds from the checkpoint and replays only what
        # changed after it).
        self._wal = wal

    # ------------------------------------------------------------------
    # Mutation (every effective change bumps the version)
    # ------------------------------------------------------------------
    def _record(
        self,
        is_insert: bool,
        symbol: Hashable,
        source: Hashable,
        target: Hashable,
    ) -> None:
        """Append one change (tagged with the already-bumped version) and
        compact: dropping an entry of version ``w`` means deltas can only
        be replayed from baselines ``>= w`` from now on."""
        self._log.append((self._version, is_insert, symbol, source, target))
        while len(self._log) > self._log_limit:
            dropped_version = self._log.popleft()[0]
            if dropped_version > self._log_start:
                self._log_start = dropped_version

    def _append_wal(self, changes: list[tuple[bool, Hashable, Hashable, Hashable]]) -> None:
        """Frame one version bump's effective changes as one WAL record.

        Called after the in-memory mutation and the change-log append,
        so the record describes exactly what this bump did; durability
        of the frame follows the log's fsync policy (the caller commits
        before acknowledging).  Symbols and endpoints must be strings
        for the JSON frame — the serving stack's contract (the same one
        plan persistence imposes).
        """
        if self._wal is None:
            return
        self._wal.append(
            (
                ("insert" if is_insert else "delete", symbol, source, target)
                for is_insert, symbol, source, target in changes
            ),
            self._version,
        )

    def add(self, symbol: Hashable, source: Hashable, target: Hashable) -> bool:
        """Add one tuple to the extension of ``symbol``; ``True`` if new."""
        pairs = self._pairs.setdefault(symbol, set())
        if (source, target) in pairs:
            return False
        pairs.add((source, target))
        self._graph.add_edge(source, symbol, target)
        self._version += 1
        self._record(True, symbol, source, target)
        self._append_wal([(True, symbol, source, target)])
        return True

    def remove(
        self, symbol: Hashable, source: Hashable, target: Hashable
    ) -> bool:
        """Remove one tuple from the extension of ``symbol``, if present.

        The node universe is append-only (mirroring ``GraphDB``'s dense
        interning): a node whose last tuple is removed stays a node of
        :attr:`graph`, so rewritings accepting the empty word keep
        reporting its reflexive pair, exactly as the paper's ``ans``
        does for isolated database nodes.
        """
        pairs = self._pairs.get(symbol)
        if pairs is None or (source, target) not in pairs:
            return False
        pairs.discard((source, target))
        if not pairs:
            del self._pairs[symbol]
        self._graph.remove_edge(source, symbol, target)
        self._version += 1
        self._record(False, symbol, source, target)
        self._append_wal([(False, symbol, source, target)])
        return True

    @staticmethod
    def _as_pairs(pairs: Iterable[Pair]) -> list[Pair]:
        """Materialize and shape-check bulk input before any mutation.

        A generator that raises mid-iteration, an element that is not a
        2-tuple, or an unhashable endpoint must leave the store untouched
        at an unchanged version — "equal versions imply equal contents"
        holds even across failed bulk calls.  Unpacking checks the shape;
        the throwaway set checks hashability.
        """
        materialized = [(source, target) for source, target in pairs]
        set(materialized)
        return materialized

    def add_many(self, symbol: Hashable, pairs: Iterable[Pair]) -> int:
        """Add tuples in bulk; returns how many were actually new.

        Bumps the version at most once, so a batch load invalidates
        downstream evaluation caches a single time.  The input is
        materialized and validated up front (:meth:`_as_pairs`): a bad
        batch raises without touching the store.
        """
        pairs = self._as_pairs(pairs)
        existing = self._pairs.setdefault(symbol, set())
        added: list[Pair] = []
        for source, target in pairs:
            if (source, target) in existing:
                continue
            existing.add((source, target))
            self._graph.add_edge(source, symbol, target)
            added.append((source, target))
        if not existing:
            del self._pairs[symbol]
        if added:
            self._version += 1
            for source, target in added:
                self._record(True, symbol, source, target)
            self._append_wal(
                [(True, symbol, source, target) for source, target in added]
            )
        return len(added)

    def remove_many(self, symbol: Hashable, pairs: Iterable[Pair]) -> int:
        """Remove tuples in bulk; returns how many were actually removed.

        Like :meth:`add_many`, the input is materialized and validated
        before any mutation (a poisoned batch raises with the store
        untouched)."""
        pairs = self._as_pairs(pairs)
        existing = self._pairs.get(symbol)
        if not existing:
            return 0
        removed: list[Pair] = []
        for source, target in pairs:
            if (source, target) not in existing:
                continue
            existing.discard((source, target))
            self._graph.remove_edge(source, symbol, target)
            removed.append((source, target))
        if not existing:
            del self._pairs[symbol]
        if removed:
            self._version += 1
            for source, target in removed:
                self._record(False, symbol, source, target)
            self._append_wal(
                [(False, symbol, source, target) for source, target in removed]
            )
        return len(removed)

    def replace(self, symbol: Hashable, pairs: Iterable[Pair]) -> None:
        """Swap the whole extension of ``symbol`` (a view refresh).

        The new extension is materialized and validated before the old
        one is touched, so a failing input leaves the view as it was."""
        new_pairs = set(self._as_pairs(pairs))
        old_pairs = self._pairs.get(symbol, set())
        if new_pairs == old_pairs:
            return
        dropped = old_pairs - new_pairs
        gained = new_pairs - old_pairs
        for source, target in dropped:
            self._graph.remove_edge(source, symbol, target)
        for source, target in gained:
            self._graph.add_edge(source, symbol, target)
        if new_pairs:
            self._pairs[symbol] = new_pairs
        else:
            self._pairs.pop(symbol, None)
        self._version += 1
        changes = [(False, symbol, source, target) for source, target in dropped]
        changes += [(True, symbol, source, target) for source, target in gained]
        for is_insert, _symbol, source, target in changes:
            self._record(is_insert, symbol, source, target)
        self._append_wal(changes)

    def load(self, views, db: GraphDB, theory=None) -> None:
        """Materialize every view of ``views`` over ``db`` into the store.

        The warehouse-refresh path: each view extension is replaced by its
        answer on the base database (``views`` is an
        :class:`~repro.rpq.views.RPQViews`; ``theory`` is required when
        the views use formulae).
        """
        for symbol, pairs in views.materialize(db, theory).items():
            self.replace(symbol, pairs)

    # ------------------------------------------------------------------
    # Durability (checkpoint restore + WAL replay; repro.service.recovery)
    # ------------------------------------------------------------------
    @property
    def wal(self):
        """The attached :class:`~repro.service.wal.WriteAheadLog`, or
        ``None`` for a purely in-memory store."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Start framing every future version bump into ``wal``.

        The store's current contents are *not* written to the log —
        they are the checkpoint's job.  Attach right after construction
        (or after :meth:`restore`) and before the first served write.
        """
        self._wal = wal

    @classmethod
    def restore(
        cls,
        nodes: Iterable[Hashable],
        extensions: Mapping[Hashable, Iterable[Pair]],
        version: int,
        *,
        log_limit: int = 100_000,
    ) -> "MaterializedViewStore":
        """Rebuild a store from checkpointed state, byte-exactly.

        ``nodes`` must be the checkpointed interning table *in order*:
        the node universe is re-interned before any tuple is added, so
        the dense ids — and with them the engine's documented answer
        order — are identical to the process that wrote the checkpoint.
        The version counter is pinned to the checkpointed ``version``
        and the change log starts empty with its replay horizon there
        (consumers holding older versions correctly see "too stale").
        No WAL records are produced; attach a log afterwards.
        """
        if version < 0:
            raise ValueError(f"version must be >= 0, got {version}")
        store = cls(log_limit=log_limit)
        for node in nodes:
            store._graph.add_node(node)
        for symbol, pairs in extensions.items():
            materialized = store._as_pairs(pairs)
            if not materialized:
                continue
            existing = store._pairs.setdefault(symbol, set())
            for source, target in materialized:
                if (source, target) in existing:
                    continue
                existing.add((source, target))
                store._graph.add_edge(source, symbol, target)
        store._version = version
        store._log_start = version
        return store

    def apply_wal_changes(
        self, ops: Iterable[tuple[str, Hashable, Hashable, Hashable]], version: int
    ) -> int:
        """Replay one WAL record: apply its changes under one version bump.

        The recovery path.  Unlike :meth:`add`/:meth:`remove` (which
        bump the version once per call) a WAL record is *one* version
        bump covering all its changes — exactly how the original
        mutation logged it — so the replayed store's version counter
        retraces the pre-crash counter step for step, and every version
        a pre-crash response pinned is a version the replay passes
        through.  Changes must be effective (an insert of a present
        tuple or a delete of an absent one means the record does not
        follow from this state) and ``version`` must move forward; a
        violation raises ``ValueError`` with the store untouched, which
        recovery treats like a torn tail.  No WAL echo is produced.
        Returns the number of changes applied.
        """
        if version <= self._version:
            raise ValueError(
                f"replayed version {version} does not advance the store "
                f"(at {self._version})"
            )
        staged = [(op, symbol, source, target) for op, symbol, source, target in ops]
        for op, symbol, source, target in staged:
            pairs = self._pairs.get(symbol, set())
            present = (source, target) in pairs
            if op == "insert" and present:
                raise ValueError(
                    f"replayed insert of present tuple {(symbol, source, target)!r}"
                )
            if op == "delete" and not present:
                raise ValueError(
                    f"replayed delete of absent tuple {(symbol, source, target)!r}"
                )
            if op not in ("insert", "delete"):
                raise ValueError(f"unknown replay op {op!r}")
        for op, symbol, source, target in staged:
            if op == "insert":
                self._pairs.setdefault(symbol, set()).add((source, target))
                self._graph.add_edge(source, symbol, target)
            else:
                pairs = self._pairs[symbol]
                pairs.discard((source, target))
                if not pairs:
                    del self._pairs[symbol]
                self._graph.remove_edge(source, symbol, target)
        self._version = version
        for op, symbol, source, target in staged:
            self._record(op == "insert", symbol, source, target)
        return len(staged)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone change counter; equal versions imply equal contents."""
        return self._version

    @property
    def graph(self) -> GraphDB:
        """The live view graph (labels = view symbols).  Do not mutate."""
        return self._graph

    @property
    def symbols(self) -> frozenset[Hashable]:
        """View symbols with a non-empty extension."""
        return frozenset(self._pairs)

    @property
    def num_tuples(self) -> int:
        return sum(len(pairs) for pairs in self._pairs.values())

    def extension(self, symbol: Hashable) -> frozenset[Pair]:
        """The current extension of ``symbol`` (empty if unknown)."""
        return frozenset(self._pairs.get(symbol, ()))

    def snapshot(self) -> tuple[int, dict[Hashable, frozenset[Pair]]]:
        """An immutable ``(version, extensions)`` copy of the store."""
        return (
            self._version,
            {symbol: frozenset(pairs) for symbol, pairs in self._pairs.items()},
        )

    # ------------------------------------------------------------------
    # Change log (what lets evaluation state be patched, not rebuilt)
    # ------------------------------------------------------------------
    @property
    def log_size(self) -> int:
        """How many change entries the bounded log currently holds."""
        return len(self._log)

    @property
    def oldest_replayable_version(self) -> int:
        """The smallest base version :meth:`delta_since` still accepts.

        Starts at 0 and moves forward as compaction trims the log; a
        consumer whose last-seen version fell behind it must do a full
        recompute."""
        return self._log_start

    def delta_since(self, version: int) -> StoreDelta | None:
        """The tuple-level changes from ``version`` to :attr:`version`.

        Returns ``None`` — the *too stale, recompute from scratch*
        signal — when ``version`` is from the future (a different store,
        or a rolled-back one) or predates the log's compaction horizon
        (:attr:`oldest_replayable_version`).  A returned
        :attr:`StoreDelta.pure_insertions` delta replays exactly:
        applying its insertions to the contents at ``version`` yields
        the current contents.  A delta containing deletions does not
        preserve the interleaving of inserts and deletes, so it cannot
        be replayed as a script — consumers patch it instead (insertions
        first, then delete-rederive over the live graph; see
        :class:`StoreDelta`).
        """
        if version > self._version or version < self._log_start:
            return None
        # Scan newest-first and stop at the consumer's version: entries
        # are version-ordered, so the cost is O(|delta|), not O(log) —
        # a store carrying a large history answers a one-tuple delta in
        # constant time.
        changes: list[tuple[bool, Change]] = []
        for entry_version, is_insert, symbol, source, target in reversed(
            self._log
        ):
            if entry_version <= version:
                break
            changes.append((is_insert, (symbol, source, target)))
        changes.reverse()
        return StoreDelta(
            base_version=version,
            version=self._version,
            insertions=tuple(
                change for is_insert, change in changes if is_insert
            ),
            deletions=tuple(
                change for is_insert, change in changes if not is_insert
            ),
        )

    def __contains__(self, symbol: Hashable) -> bool:
        return symbol in self._pairs

    def __repr__(self) -> str:
        return (
            f"MaterializedViewStore(views={len(self._pairs)}, "
            f"tuples={self.num_tuples}, version={self._version})"
        )
