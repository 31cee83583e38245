"""Incremental all-pairs answer maintenance (delta-driven semi-naive).

One maintenance algorithm — semi-naive insert resume plus delete-rederive,
written once in :class:`DeltaSweepState` — over two storage layouts of the
retained sweep: Python-int rows (the class itself) and uint64 block
matrices (:class:`NumpyDeltaSweepState`).  :func:`make_delta_state` picks
the layout from the edge count, as :func:`repro.rpq.engine.resolve_backend`
picks the batch sweep.

The engine's all-pairs sweep (:func:`repro.rpq.engine.evaluate_all`) is
a semi-naive fixpoint: per automaton state it saturates a per-node
bitmask of *source* ids, pushing only newly added sources across
label-indexed edges until nothing changes.  That computation is monotone
in the edge set — adding an edge can only *add* bits — so its final
state is worth keeping: when an edge ``(u, label, v)`` is inserted, the
answers of the updated graph are the least fixpoint *containing* the old
one, and it can be reached by seeding a new frontier from the inserted
edge alone instead of re-sweeping the whole graph.  This is the classic
semi-naive delta-evaluation discipline of Datalog-style RPQ engines
(arXiv:1511.00938) combined with reuse of previously computed
reachability (arXiv:2111.06918), applied to this repo's bitmask product
sweep.

:class:`DeltaSweepState` retains, for one (graph, compiled automaton)
pair, the sweep's ``reached`` matrices and per-target answer masks.
:meth:`DeltaSweepState.apply_insertions` absorbs a batch of inserted
edges: for each new edge and each automaton state whose row matches the
edge's label, the settled source mask at ``(state, u)`` is pushed into
the successors at ``v`` (plus ``u``'s own seed bit when the state is
initial and ``u`` just gained its first matching out-edge), and the
resulting deltas resume the engine's own fixpoint loop
(:func:`repro.rpq.engine._sweep_to_fixpoint`).  Because the loop reads
the *live* adjacency, deltas produced later in the same run flow through
the new edges automatically; only already-settled masks need the manual
re-push.  The result is **bit-identical** to rebuilding the state from
scratch on the updated graph — ``tests/rpq/test_incremental.py`` asserts
mask-level equality after every insertion, not just equal answer sets.

Deletions are absorbed by **delete-rederive** (DRed), the standard
companion of semi-naive maintenance in the same Datalog lineage
(arXiv:1511.00938): removing an edge can invalidate bits, but only bits
whose *some* derivation crossed the deleted edge.
:meth:`DeltaSweepState.apply_deletions` first **over-deletes** — for
each deleted edge ``(u, label, v)`` and each matching transition
``s --label--> t``, every source bit settled at both ``(s, u)`` and
``(t, v)`` is a removal candidate, and candidates propagate forward
through the live adjacency (a bit cleared at ``(s, n)`` endangers the
same bit at every product successor of ``(s, n)``) — then **re-derives**
survivors: each over-deleted bit still supported one step back (a live
in-edge from a cell that kept the bit, or the initial-state seed rule
for a node that still has a matching out-edge) is restored and the
restorations resume the engine's own fixpoint loop, exactly like an
insertion delta.  The result is again bit-identical to a from-scratch
rebuild on the updated graph; because answers can now *disappear*, the
decoded pair set tracks cleared bits as well as gained ones.

Callers (:class:`repro.service.session.QuerySession`) therefore patch
mixed insert/delete deltas in place — insertions first, then deletions —
and only rebuild on a state too stale to replay
(:meth:`repro.service.store.MaterializedViewStore.delta_since` returning
``None``) or a changed compiled automaton.

**One decoded answer.**  Beside the masks the state retains the answers
in one decoded form: the node pairs in ``(source_id, target_id)`` order
(:func:`repro.rpq.engine.evaluate_all_sorted`'s) with each pair's order
key packed into an int64 next to it, both cut from the decoder's id arrays
(``kernel.decode_matrix``, ``GraphDB.pairs_at``).  A
patch writes exactly the answer rows that change, so for its length
``answer_masks`` is a :class:`_RecordingRows`, which notes what a row held
before its first write since the last read; the next read folds ``mask ^
before`` of just those rows into the lists by bisect — no snapshot of the
masks, no scan, no re-sort (a diff of thousands of pairs is decoded
afresh: ``_REFILL_ABOVE``).  The bookkeeping is O(delta); the read itself
then copies the list, or hashes it into a frozenset, for the caller.  The
fold also keeps its **edit script** — the inserts and deletes it applied,
by list position — so a reader holding an older copy of the list can patch
it in O(delta) too (:meth:`DeltaSweepState.edits_since`; the server's
all-pairs wire bodies do).

**One algorithm, two layouts.**  The block matrices exist because
:func:`repro.sweep.kernel.sweep_window` builds them 5–20x faster than the
big-int sweep above the ``auto`` threshold and ``decode_matrix`` reads
them; nothing about *patching* favours them.  A one-tuple delta touches a
handful of rows, and on one row an int's ``&`` / ``|`` / ``~`` / truth
test is one C call where a numpy op on a ``(B,)`` vector pays ~0.7 µs of
dispatch first.  So rows reach the algorithm as ints (:class:`_IntRows`)
and every line of it, counters and resumed fixpoint included, runs
unchanged on both layouts.  Measured on the suite's ``trickle`` shape
(9 000-edge grid, 200 single-tuple ops, three standing queries; totals
over the stream, best of five): int rows patch the inserts in 13 ms and
the deletes in 5.5 ms, the block layout in 40 ms and 12 ms (the bytes⇄int
conversion per touched row, plus one re-allocation at the first interned
node); the per-row numpy re-implementation this replaced took 190–205 ms
(165–175 ms of it re-allocating every matrix per interned node) and
15–17 ms.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from ..sweep import kernel as _kernel
from ..sweep.csr import blocks_for
from . import engine as _engine
from .engine import CompiledAutomaton
from .graphdb import GraphDB

__all__ = ["DeltaSweepState", "NumpyDeltaSweepState", "make_delta_state"]

Pair = tuple[Hashable, Hashable]
Edge = tuple[Hashable, Hashable, Hashable]  # (source, label, target)

# Changed pairs per read above which the decode is refilled, not folded: a
# folded pair shifts the tail of both retained lists (up to ~0.7 ns a slot),
# a refilled one is decoded once (~1 µs).  Both grow with the list, so they
# cross at a count (900 to 2 400, on lists of 20k and 245k), not a share.
_REFILL_ABOVE = 2048


@dataclass(slots=True)
class _RecordingRows:
    """``answer_masks`` for the length of a patch: the first write to a row
    since the last read records in ``before`` what the row held.  ``len`` and
    int indexing are all that the patch code and the fixpoint loop use."""

    rows: "list[int] | _IntRows"
    before: dict[int, int]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, node: int) -> int:
        return self.rows[node]

    def __setitem__(self, node: int, mask: int) -> None:
        if node not in self.before:
            self.before[node] = self.rows[node]
        self.rows[node] = mask


class DeltaSweepState:
    """Retained all-pairs sweep state, resumable from inserted edges.

    Construction runs one full sweep of ``compiled`` over ``db``, keeps
    its fixpoint alive and decodes the answers once; :meth:`apply_insertions`
    then advances the fixpoint in time proportional to the *consequences*
    of the inserted edges, not the size of the graph, and a read updates
    the decode from the answer rows the patches wrote.  The state is
    valid exactly as long as

    * ``db`` is the same live graph object (node interning order is the
      bit layout of every mask), and
    * ``compiled`` is the same compiled automaton (its label table is
      the product relation being saturated) — a label-domain change
      recompiles the automaton, so callers compare identities;

    and as long as every edge mutation is reported: insertions through
    :meth:`apply_insertions`, deletions through :meth:`apply_deletions`
    (delete-rederive; see the module docstring).  For a mixed batch,
    apply the insertions first — over-delete reads the live graph, so it
    also cleans up after edges that were inserted and deleted within the
    same batch.

    Readers that keep their own copy of the sorted answers (or anything
    aligned with it) hold :attr:`token`, read after an answer read, and
    later ask :meth:`edits_since` for the script that turns that list into
    the current one: the latest non-empty fold's inserts and deletes by
    position, or ``None`` when the token is older than that fold or from
    another decode (a refill, another state), so the reader maps afresh.
    """

    __slots__ = (
        "db",
        "compiled",
        "num_nodes",
        "reached",
        "answer_masks",
        "edges_applied",
        "edges_deleted",
        "overdeleted_bits",
        "rederived_bits",
        "_keys",
        "_pairs",
        "_before",
        "_epoch",
        "_folds",
        "_edits",
    )

    def __init__(self, db: GraphDB, compiled: CompiledAutomaton):
        self.db = db
        self.compiled = compiled
        self.num_nodes = db.num_nodes
        self._build()
        self.edges_applied = 0
        self.edges_deleted = 0
        self.overdeleted_bits = 0
        self.rederived_bits = 0
        # {target id: answer mask before the first write since the last
        # read}: what a patch wrote is all the next read has to decode.
        self._before: dict[int, int] = {}
        self._fill()

    def _build(self) -> None:
        """Run the full sweep and retain it in this class's row layout:
        ``reached`` and ``answer_masks``."""
        db, compiled = self.db, self.compiled
        reached, frontier, answer_masks = _engine._seed_all_pairs(db, compiled)
        _engine._sweep_to_fixpoint(db, compiled, reached, frontier, answer_masks)
        self.reached = reached
        self.answer_masks = answer_masks

    # ------------------------------------------------------------------
    # Delta absorption
    # ------------------------------------------------------------------
    def apply_insertions(self, edges: Iterable[Edge]) -> int:
        """Absorb inserted edges, resuming the sweep to the new fixpoint.

        ``edges`` are ``(source, label, target)`` triples that have
        **already been added** to the graph (the sweep reads the live
        adjacency, so the new edges must be indexed before the frontier
        runs).  Triples are deduplication-tolerant: re-applying an edge
        the state has already absorbed is a no-op.  Returns the number
        of edge triples processed and accumulates it in
        :attr:`edges_applied`.
        """
        db = self.db
        compiled = self.compiled
        if db.num_nodes > self.num_nodes:
            self._grow(db.num_nodes)
        num_nodes = self.num_nodes
        table = compiled.table
        initials = compiled.initials
        finals = compiled.finals
        reached = self.reached
        answer_masks = _RecordingRows(self.answer_masks, self._before)
        node_id = db.node_id
        frontier: dict[int, dict[int, int]] = {}
        applied = 0
        for source, label, target in edges:
            applied += 1
            u = node_id(source)
            v = node_id(target)
            for state, row in table.items():
                next_states = row.get(label)
                if next_states is None:
                    continue
                state_reached = reached.get(state)
                if state_reached is None:
                    state_reached = reached[state] = [0] * num_nodes
                if state in initials:
                    # u now has an out-edge matching this initial row, so
                    # it becomes a seed source if it wasn't one already;
                    # the frontier pushes the seed through u's *other*
                    # matching edges too (there are none on first seeding,
                    # but re-applied edges keep this idempotent).
                    bit = 1 << u
                    if not state_reached[u] & bit:
                        state_reached[u] |= bit
                        bucket = frontier.get(state)
                        if bucket is None:
                            bucket = frontier[state] = {}
                        bucket[u] = bucket.get(u, 0) | bit
                sources = state_reached[u]
                if not sources:
                    continue
                # Push the settled sources at (state, u) across the new
                # edge; future deltas arriving at (state, u) cross it via
                # the live adjacency inside the fixpoint loop.
                for next_state in next_states:
                    next_reached = reached.get(next_state)
                    if next_reached is None:
                        next_reached = reached[next_state] = [0] * num_nodes
                    delta = sources & ~next_reached[v]
                    if not delta:
                        continue
                    next_reached[v] |= delta
                    bucket = frontier.get(next_state)
                    if bucket is None:
                        bucket = frontier[next_state] = {}
                    bucket[v] = bucket.get(v, 0) | delta
                    if next_state in finals:
                        answer_masks[v] |= delta
        if frontier:
            _engine._sweep_to_fixpoint(
                db, compiled, reached, frontier, answer_masks
            )
        self.edges_applied += applied
        return applied

    def apply_deletions(self, edges: Iterable[Edge]) -> int:
        """Absorb deleted edges by delete-rederive, back to the fixpoint.

        ``edges`` are ``(source, label, target)`` triples that have
        **already been removed** from the graph (the over-delete walk and
        the rederivation both read the live adjacency).  The three DRed
        phases:

        1. *Collect.*  For every deleted edge and every matching
           transition ``s --label--> t``, the source bits settled at both
           ``(s, u)`` and ``(t, v)`` are removal candidates — as is
           ``u``'s own seed bit at ``(s, u)`` when ``s`` is initial,
           since the deleted edge may have been its last matching
           out-edge.  Candidates from *all* edges of the batch are
           gathered against the intact masks before anything is cleared:
           clearing eagerly would hide the bits a later deleted edge of
           the same batch needs to see.
        2. *Over-delete.*  A worklist clears candidate bits and forwards
           each cleared bit to every live product successor; bits already
           absent terminate the walk, so the region visited is the
           consequence cone of the deleted edges, not the graph.
        3. *Re-derive.*  Every over-deleted bit with one-step support —
           the seed rule for initial states, or a live in-edge from a
           cell that (still) holds the bit — is restored, and the
           restorations resume :func:`repro.rpq.engine._sweep_to_fixpoint`
           exactly like insertion deltas; restoration cascades re-prove
           chains of over-deleted bits in derivation order.  Answer masks
           of targets that lost final-state bits are then recomputed from
           the settled final-state rows (plus the epsilon diagonal).

        Idempotent per batch in the same sense as insertions: re-applying
        a deletion whose edge is already gone finds no candidates.
        Returns the number of edge triples processed and accumulates it
        in :attr:`edges_deleted`; :attr:`overdeleted_bits` /
        :attr:`rederived_bits` count phase-2's pessimism and how much of
        it phase 3 undid.
        """
        db = self.db
        compiled = self.compiled
        if db.num_nodes > self.num_nodes:
            self._grow(db.num_nodes)
        table = compiled.table
        rtable = compiled.rtable
        initials = compiled.initials
        finals = compiled.finals
        reached = self.reached
        answer_masks = _RecordingRows(self.answer_masks, self._before)
        node_id = db.node_id
        label_out = db.label_out_index
        label_in = db.label_in_index

        # Phase 1: direct removal candidates, against the intact masks.
        candidates: dict[tuple[int, int], int] = {}
        deleted = 0
        for source, label, target in edges:
            deleted += 1
            u = node_id(source)
            v = node_id(target)
            for state, row in table.items():
                next_states = row.get(label)
                if next_states is None:
                    continue
                state_reached = reached.get(state)
                if state_reached is None:
                    continue
                sources = state_reached[u]
                if not sources:
                    continue
                if state in initials and sources & (1 << u):
                    key = (state, u)
                    candidates[key] = candidates.get(key, 0) | (1 << u)
                for next_state in next_states:
                    next_reached = reached.get(next_state)
                    if next_reached is None:
                        continue
                    endangered = sources & next_reached[v]
                    if endangered:
                        key = (next_state, v)
                        candidates[key] = candidates.get(key, 0) | endangered
        self.edges_deleted += deleted
        if not candidates:
            return deleted

        # Phase 2: over-delete, forwarding cleared bits through the live
        # product adjacency.
        overdeleted: dict[tuple[int, int], int] = {}
        worklist = list(candidates.items())
        while worklist:
            (state, node), bits = worklist.pop()
            state_reached = reached.get(state)
            if state_reached is None:
                continue
            clearing = bits & state_reached[node]
            if not clearing:
                continue
            state_reached[node] &= ~clearing
            key = (state, node)
            overdeleted[key] = overdeleted.get(key, 0) | clearing
            row = table.get(state)
            if not row:
                continue
            for label, next_states in row.items():
                targets = label_out(label).get(node)
                if not targets:
                    continue
                for next_state in next_states:
                    for w in targets:
                        worklist.append(((next_state, w), clearing))

        # Phase 3: boundary rederivation.  Support is read from the
        # post-over-delete masks — the *kept* facts — plus restorations
        # made earlier in this very loop; whatever one step cannot prove,
        # the resumed fixpoint cascade can.
        frontier: dict[int, dict[int, int]] = {}
        for (state, node), bits in overdeleted.items():
            state_reached = reached[state]
            restore = 0
            if state in initials and bits & (1 << node):
                row = table.get(state)
                if row:
                    for label in row:
                        if label_out(label).get(node):
                            restore = 1 << node
                            break
            remaining = bits & ~restore
            if remaining:
                rrow = rtable.get(state)
                if rrow:
                    support = 0
                    for label, prev_states in rrow.items():
                        preds = label_in(label).get(node)
                        if not preds:
                            continue
                        for prev_state in prev_states:
                            prev_reached = reached.get(prev_state)
                            if prev_reached is None:
                                continue
                            for p in preds:
                                support |= prev_reached[p]
                    restore |= remaining & support
            delta = restore & ~state_reached[node]
            if delta:
                state_reached[node] |= delta
                bucket = frontier.get(state)
                if bucket is None:
                    bucket = frontier[state] = {}
                bucket[node] = bucket.get(node, 0) | delta
                if state in finals:
                    answer_masks[node] |= delta
        if frontier:
            _engine._sweep_to_fixpoint(
                db, compiled, reached, frontier, answer_masks
            )

        # Settle the answer masks of targets whose final-state bits were
        # touched: base (epsilon diagonal) plus whatever the final states
        # still reach.  Unaffected targets kept exact masks throughout.
        affected_targets = {
            node for state, node in overdeleted if state in finals
        }
        if affected_targets:
            final_rows = [
                reached[state] for state in finals if state in reached
            ]
            eps = compiled.accepts_epsilon
            for v in affected_targets:
                mask = 1 << v if eps else 0
                for state_reached in final_rows:
                    mask |= state_reached[v]
                answer_masks[v] = mask

        over = rederived = 0
        for (state, node), bits in overdeleted.items():
            over += bits.bit_count()
            rederived += (bits & reached[state][node]).bit_count()
        self.overdeleted_bits += over
        self.rederived_bits += rederived
        return deleted

    def _grow(self, num_nodes: int) -> None:
        """Widen the per-node arrays after the graph interned new nodes.

        New ids extend every mask row with zero bits (:meth:`_widen`, the
        layout's part); under an epsilon-accepting automaton each new node
        also contributes its reflexive answer, as a full sweep would seed it.
        """
        old_nodes = self.num_nodes
        self._widen(num_nodes)
        self.num_nodes = num_nodes
        if self.compiled.accepts_epsilon:
            answer_masks = _RecordingRows(self.answer_masks, self._before)
            for v in range(old_nodes, num_nodes):
                answer_masks[v] = 1 << v

    def _widen(self, num_nodes: int) -> None:
        extra = [0] * (num_nodes - self.num_nodes)
        for state_reached in self.reached.values():
            state_reached.extend(extra)
        self.answer_masks.extend(extra)

    # ------------------------------------------------------------------
    # Answers (one sorted decode, kept in order by the rows a patch wrote)
    # ------------------------------------------------------------------
    def answer_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """The current answers as ``(sources, targets)`` dense-id arrays in
        ``(source, target)`` order, decoded in full from the masks."""
        return _kernel.decode_masks(enumerate(self.answer_masks), self.num_nodes)

    def _fill(self) -> None:
        """Decode every answer to node pairs in ``(source_id, target_id)``
        order, each pair's packed order key beside it — both straight from
        the decoder's id arrays, no per-pair Python step."""
        sources, targets = self.answer_ids()
        self._pairs = self.db.pairs_at(sources, targets)
        self._keys = array("q", (sources << 32 | targets).tobytes())
        # A fresh epoch per decode: its identity is what a token from
        # another decode, or another state, fails to match.
        self._epoch, self._folds, self._edits = object(), 0, []

    def _fold(self) -> list[Pair]:
        """The decoded answers, brought up to date: per answer row written
        since the last read, the bits of ``mask ^ before`` enter (gained:
        insertions, rederivations) or leave (lost: deletions) at the place
        bisect finds for their key.

        A fold that changes the list keeps its edit script in order
        applied: ``(index, pair)`` for a pair inserted at ``index``,
        ``(index, None)`` for the pair deleted from ``index``."""
        before, masks = self._before, self.answer_masks
        changed = [(row, masks[row], old) for row, old in before.items()]
        before.clear()
        if sum((mask ^ old).bit_count() for _, mask, old in changed) > _REFILL_ABOVE:
            self._fill()
            return self._pairs
        node_at, pairs, keys = self.db.node_at, self._pairs, self._keys
        edits: list[tuple[int, Pair | None]] = []
        for target_id, mask, old in changed:
            target, bits = node_at(target_id), mask ^ old
            while bits:
                low_bit = bits & -bits
                source_id = low_bit.bit_length() - 1
                key = source_id << 32 | target_id
                at = bisect_left(keys, key)
                if mask & low_bit:
                    pair = (node_at(source_id), target)
                    keys.insert(at, key)
                    pairs.insert(at, pair)
                    edits.append((at, pair))
                else:
                    del keys[at], pairs[at]
                    edits.append((at, None))
                bits ^= low_bit
        if edits:
            self._folds += 1
            self._edits = edits
        return pairs

    @property
    def token(self) -> tuple[object, int]:
        """``(epoch, fold)``: names the sorted answer list as of the last
        read, for :meth:`edits_since`."""
        return self._epoch, self._folds

    def edits_since(self, token) -> list[tuple[int, Pair | None]] | None:
        """The edit script from the list ``token`` named to the list of the
        last read (``[]`` if they are one), or ``None`` when this state
        cannot tell: a token from another decode or state, or older than
        the latest fold that changed the list."""
        if token == (self._epoch, self._folds):
            return []
        if token == (self._epoch, self._folds - 1):
            return self._edits
        return None

    def answers(self) -> frozenset[Pair]:
        """The current answer set, decoded to node objects."""
        return frozenset(self._fold())

    def answers_sorted(self) -> list[Pair]:
        """Answers sorted by ``(node_id(x), node_id(y))`` — byte-identical
        to :func:`repro.rpq.engine.evaluate_all_sorted` on the same graph.
        The list is the caller's own."""
        return list(self._fold())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"states={len(self.reached)}, "
            f"edges_applied={self.edges_applied}, "
            f"edges_deleted={self.edges_deleted})"
        )


class _IntRows(np.ndarray):
    """An ``(n, B)`` uint64 block matrix whose rows index as Python ints.

    ``rows[node]`` reads row ``node`` as one little-endian integer (bit
    ``j`` = column ``j``, the big-int sweep's mask for that node) and
    ``rows[node] = mask`` writes one back — with ``len`` that is all of
    ``list[int]`` the maintenance code uses, so it runs on a block matrix
    as it does on a list.  Only a plain ``int`` index is reinterpreted;
    every other index form, and every ufunc, is ndarray's own.
    """

    __slots__ = ()

    def __getitem__(self, node):
        row = np.ndarray.__getitem__(self, node)
        if type(node) is int:
            return int.from_bytes(row.tobytes(), "little")
        return row

    def __setitem__(self, node, mask):
        if type(node) is int:
            mask = np.frombuffer(
                mask.to_bytes(self.shape[1] << 3, "little"), dtype=np.uint64
            )
        # Through a base-class view: ndarray.__setitem__ on a subclass
        # fetches its target with the subclass's own __getitem__.
        self.view(np.ndarray)[node] = mask


class NumpyDeltaSweepState(DeltaSweepState):
    """:class:`DeltaSweepState` stored as uint64 block matrices.

    A storage layout, not a second algorithm: ``reached[state]`` and
    :attr:`answers_matrix` are ``(num_nodes, B)`` uint64 matrices (``B =
    ceil(num_nodes / 64)`` = :attr:`num_blocks`), the form the vectorized
    :func:`repro.sweep.kernel.sweep_window` builds over the store's cached
    CSR snapshot and :func:`repro.sweep.kernel.decode_matrix` reads.  The
    class overrides only what the layout decides:

    * the build — the kernel sweep, with a matrix for *every* automaton
      state up front, so no row list is ever created lazily;
    * :meth:`_widen` — row slots come 64 at a time, like the columns;
    * :meth:`answer_ids` — ``decode_matrix``.

    Everything else — insert resume, the three DRed phases, the answer
    settle, the counters, the resumed fixpoint, the recorded rows and the
    fold that keeps the decode in order — is inherited: ``reached`` and
    ``answer_masks`` are :class:`_IntRows` views of the matrices, so each
    row the algorithm touches crosses the boundary as one Python int (why:
    the module docstring).  ``answers_matrix`` is ``answer_masks``' memory
    as a plain array.  Validity contract, idempotence and bit-identity to a
    from-scratch rebuild are :class:`DeltaSweepState`'s, held to the same
    oracle by ``tests/rpq/test_incremental.py`` and the differential harness.
    """

    __slots__ = ("num_blocks", "answers_matrix", "_store")

    def _build(self) -> None:
        self.num_blocks = blocks_for(self.num_nodes)
        self._store = None
        matrices: dict[int, np.ndarray] = {}
        answers = _kernel.sweep_window(
            self.db.to_csr(), self.compiled, reached_out=matrices
        )
        self._adopt(matrices, answers)

    def _adopt(self, matrices, answers) -> None:
        """Retain exact ``(num_nodes, B)`` matrices: ``reached`` and
        ``answer_masks``, which the inherited code reads, as their
        :class:`_IntRows` views; ``answers_matrix``, which only this class
        reads, as a plain array."""
        self.reached = {
            state: matrix.view(_IntRows) for state, matrix in matrices.items()
        }
        self.answers_matrix = answers
        self.answer_masks = answers.view(_IntRows)

    def _widen(self, num_nodes: int) -> None:
        """Row slots are allocated as the columns are, a block of 64 at a
        time: all retained matrices live in one zeroed ``(states + 1,
        64 * B, B)`` store, re-allocated only when ``B`` itself grows (or
        on the first growth, out of the kernel's exact-size build), and
        ``reached`` / ``answers_matrix`` are re-cut as its exact
        ``(num_nodes, B)`` views — a fresh node otherwise costs a few
        slices, not a copy of every matrix."""
        old_nodes, old_blocks = self.num_nodes, self.num_blocks
        self.num_blocks = num_blocks = blocks_for(num_nodes)
        store = self._store
        if store is None or num_nodes > store.shape[1]:
            matrices = [self.answers_matrix, *self.reached.values()]
            store = self._store = np.zeros(
                (len(matrices), num_blocks << 6, num_blocks), dtype=np.uint64
            )
            for slot, matrix in zip(store, matrices):
                slot[:old_nodes, :old_blocks] = matrix
        answers, *rows = store[:, :num_nodes]
        self._adopt(dict(zip(self.reached, rows)), answers)

    def answer_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """``kernel.decode_matrix`` of the answer matrix: its order contract
        is the one the retained decode relies on without a second sort."""
        return _kernel.decode_matrix(self.answers_matrix, self.num_nodes)

    # benchmarks/suite/tracing.py wraps these four by looking them up in
    # *each* class's own ``__dict__`` (tests/test_benchmark_contract.py),
    # so inheriting them is not enough.
    apply_insertions = DeltaSweepState.apply_insertions
    apply_deletions = DeltaSweepState.apply_deletions
    answers = DeltaSweepState.answers
    answers_sorted = DeltaSweepState.answers_sorted


def make_delta_state(
    db: GraphDB, compiled: CompiledAutomaton, backend: str = "auto"
):
    """The delta-sweep state for ``db`` under the resolved ``backend``.

    ``"auto"`` picks the numpy state at the same edge-count threshold as
    :func:`repro.rpq.engine.resolve_backend`, so a session's incremental
    path upgrades in lockstep with its batch path.
    """
    if _engine.resolve_backend(db, backend) == "numpy":
        return NumpyDeltaSweepState(db, compiled)
    return DeltaSweepState(db, compiled)
