"""Incremental all-pairs answer maintenance (delta-driven semi-naive).

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
"""

from __future__ import annotations

from typing import Hashable, Iterable

from . import engine as _engine
from .engine import CompiledAutomaton
from .graphdb import GraphDB

__all__ = ["DeltaSweepState", "NumpyDeltaSweepState", "make_delta_state"]

Pair = tuple[Hashable, Hashable]
Edge = tuple[Hashable, Hashable, Hashable]  # (source, label, target)


class DeltaSweepState:
    """Retained all-pairs sweep state, resumable from inserted edges.

    Construction runs one full sweep of ``compiled`` over ``db`` and
    keeps its fixpoint alive; :meth:`apply_insertions` then advances the
    fixpoint from edge deltas in time proportional to the *consequences*
    of the inserted edges, not the size of the graph.  The state is
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
        "_pairs",
        "_masks_snapshot",
    )

    def __init__(self, db: GraphDB, compiled: CompiledAutomaton):
        self.db = db
        self.compiled = compiled
        self.num_nodes = db.num_nodes
        reached, frontier, answer_masks = _engine._seed_all_pairs(db, compiled)
        _engine._sweep_to_fixpoint(db, compiled, reached, frontier, answer_masks)
        self.reached = reached
        self.answer_masks = answer_masks
        self.edges_applied = 0
        self.edges_deleted = 0
        self.overdeleted_bits = 0
        self.rederived_bits = 0
        # The decoded answer set is maintained incrementally as well:
        # masks only ever gain bits, so answers() decodes the per-target
        # xor against this snapshot instead of re-unpacking every mask —
        # on a store with tens of thousands of answers, decode would
        # otherwise dominate the cost of absorbing a one-tuple delta.
        self._pairs: set[Pair] = set()
        self._masks_snapshot: list[int] = [0] * self.num_nodes
        self._sync_pairs()

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
        answer_masks = self.answer_masks
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
        answer_masks = self.answer_masks
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

        New ids extend every mask row with zero bits; under an
        epsilon-accepting automaton each new node also contributes its
        reflexive answer, exactly as a full sweep would seed it.
        """
        extra = num_nodes - self.num_nodes
        for state_reached in self.reached.values():
            state_reached.extend([0] * extra)
        if self.compiled.accepts_epsilon:
            self.answer_masks.extend(
                1 << v for v in range(self.num_nodes, num_nodes)
            )
        else:
            self.answer_masks.extend([0] * extra)
        self._masks_snapshot.extend([0] * extra)
        self.num_nodes = num_nodes

    # ------------------------------------------------------------------
    # Answers (decoded from the retained masks)
    # ------------------------------------------------------------------
    def _sync_pairs(self) -> None:
        """Fold changed answer bits into the decoded pair set.

        Per target, the diff against the snapshot splits into gained bits
        (insertions, rederivations) and lost bits (deletions absorbed by
        :meth:`apply_deletions`); unchanged targets (the overwhelming
        majority after a small delta) cost one int comparison each.
        """
        node_at = self.db.node_at
        pairs = self._pairs
        snapshot = self._masks_snapshot
        for target_id, (mask, seen) in enumerate(
            zip(self.answer_masks, snapshot)
        ):
            if mask == seen:
                continue
            target = node_at(target_id)
            new_bits = mask & ~seen
            while new_bits:
                low_bit = new_bits & -new_bits
                pairs.add((node_at(low_bit.bit_length() - 1), target))
                new_bits ^= low_bit
            lost_bits = seen & ~mask
            while lost_bits:
                low_bit = lost_bits & -lost_bits
                pairs.discard((node_at(low_bit.bit_length() - 1), target))
                lost_bits ^= low_bit
            snapshot[target_id] = mask

    def answer_ids(self) -> list[tuple[int, int]]:
        """The current answers as dense-id pairs (unordered)."""
        return _engine._decode_answer_masks(enumerate(self.answer_masks))

    def answers(self) -> frozenset[Pair]:
        """The current answer set, decoded to node objects."""
        self._sync_pairs()
        return frozenset(self._pairs)

    def answers_sorted(self) -> list[Pair]:
        """Answers sorted by ``(node_id(x), node_id(y))`` — byte-identical
        to :func:`repro.rpq.engine.evaluate_all_sorted` on the same graph."""
        id_pairs = self.answer_ids()
        id_pairs.sort()
        node_at = self.db.node_at
        return [
            (node_at(source_id), node_at(target_id))
            for source_id, target_id in id_pairs
        ]

    def __repr__(self) -> str:
        return (
            f"DeltaSweepState(nodes={self.num_nodes}, "
            f"states={len(self.reached)}, "
            f"edges_applied={self.edges_applied}, "
            f"edges_deleted={self.edges_deleted})"
        )


class NumpyDeltaSweepState:
    """The block-bitmatrix twin of :class:`DeltaSweepState`.

    Same maintenance discipline — semi-naive insertion resume plus DRed
    for deletions — but the per-state masks live as ``(num_nodes, B)``
    uint64 block matrices (``B = ceil(num_nodes / 64)``), so the initial
    build is the vectorized :func:`repro.rpq.kernel.sweep_window` over
    the store's cached CSR snapshot rather than the big-int engine sweep.
    Delta absorption works on individual *block rows* (``(B,)`` uint64
    vectors): a consequence cone of a one-tuple update touches a handful
    of rows, so the per-row numpy ops replace big-int AND/OR at the same
    asymptotic cost while keeping the settled matrices in the layout the
    kernel produced — no bigint⇄matrix conversion at the build/maintain
    boundary.

    Validity contract, idempotence, and bit-identity to a from-scratch
    rebuild are exactly :class:`DeltaSweepState`'s; the differential
    harness holds both classes to the same oracle.
    """

    __slots__ = (
        "db",
        "compiled",
        "num_nodes",
        "num_blocks",
        "reached",
        "answers_matrix",
        "edges_applied",
        "edges_deleted",
        "overdeleted_bits",
        "rederived_bits",
        "_pairs",
        "_masks_snapshot",
    )

    def __init__(self, db: GraphDB, compiled: CompiledAutomaton):
        import numpy as np

        from ..sweep import kernel as _kernel
        from ..sweep.csr import blocks_for

        self.db = db
        self.compiled = compiled
        self.num_nodes = db.num_nodes
        self.num_blocks = blocks_for(self.num_nodes)
        reached: dict[int, "np.ndarray"] = {}
        self.answers_matrix = _kernel.sweep_window(
            db.to_csr(), compiled, reached_out=reached
        )
        self.reached = reached
        self.edges_applied = 0
        self.edges_deleted = 0
        self.overdeleted_bits = 0
        self.rederived_bits = 0
        self._pairs: set[Pair] = set()
        self._masks_snapshot = np.zeros_like(self.answers_matrix)
        self._sync_pairs()

    # ------------------------------------------------------------------
    # Block-row helpers
    # ------------------------------------------------------------------
    def _state_rows(self, state: int):
        import numpy as np

        rows = self.reached.get(state)
        if rows is None:
            rows = self.reached[state] = np.zeros(
                (self.num_nodes, self.num_blocks), dtype=np.uint64
            )
        return rows

    @staticmethod
    def _has_bit(row, node: int) -> bool:
        import numpy as np

        return bool(row[node >> 6] & (np.uint64(1) << np.uint64(node & 63)))

    @staticmethod
    def _set_bit(row, node: int) -> None:
        import numpy as np

        row[node >> 6] |= np.uint64(1) << np.uint64(node & 63)

    def _bit_row(self, node: int):
        import numpy as np

        row = np.zeros(self.num_blocks, dtype=np.uint64)
        self._set_bit(row, node)
        return row

    def _sweep_rows_to_fixpoint(self, frontier) -> None:
        """Resume the product fixpoint from per-row deltas.

        The block-row analogue of :func:`repro.rpq.engine._sweep_to_fixpoint`:
        frontier buckets map node → ``(B,)`` delta vector, expansion reads
        the **live** adjacency (so edges inserted mid-batch participate),
        and final-state deltas are OR-ed into the answers matrix.
        """
        db = self.db
        compiled = self.compiled
        table = compiled.table
        finals = compiled.finals
        answers = self.answers_matrix
        while frontier:
            next_frontier: dict[int, dict[int, object]] = {}
            for state, bucket in frontier.items():
                row = table.get(state)
                if not row:
                    continue
                for label, next_states in row.items():
                    adjacency = db.label_out_index(label)
                    if not adjacency:
                        continue
                    for node, delta in bucket.items():
                        targets = adjacency.get(node)
                        if not targets:
                            continue
                        for next_state in next_states:
                            next_rows = self._state_rows(next_state)
                            is_final = next_state in finals
                            for w in targets:
                                new = delta & ~next_rows[w]
                                if not new.any():
                                    continue
                                next_rows[w] |= new
                                dest = next_frontier.setdefault(next_state, {})
                                if w in dest:
                                    dest[w] |= new
                                else:
                                    dest[w] = new.copy()
                                if is_final:
                                    answers[w] |= new
            frontier = next_frontier

    # ------------------------------------------------------------------
    # Delta absorption (same contracts as DeltaSweepState)
    # ------------------------------------------------------------------
    def apply_insertions(self, edges: Iterable[Edge]) -> int:
        """Block-row :meth:`DeltaSweepState.apply_insertions`."""
        db = self.db
        compiled = self.compiled
        if db.num_nodes > self.num_nodes:
            self._grow(db.num_nodes)
        table = compiled.table
        initials = compiled.initials
        finals = compiled.finals
        answers = self.answers_matrix
        node_id = db.node_id
        frontier: dict[int, dict[int, object]] = {}
        applied = 0
        for source, label, target in edges:
            applied += 1
            u = node_id(source)
            v = node_id(target)
            for state, row in table.items():
                next_states = row.get(label)
                if next_states is None:
                    continue
                state_rows = self._state_rows(state)
                if state in initials and not self._has_bit(state_rows[u], u):
                    self._set_bit(state_rows[u], u)
                    bucket = frontier.setdefault(state, {})
                    if u in bucket:
                        self._set_bit(bucket[u], u)
                    else:
                        bucket[u] = self._bit_row(u)
                sources = state_rows[u]
                if not sources.any():
                    continue
                for next_state in next_states:
                    next_rows = self._state_rows(next_state)
                    delta = sources & ~next_rows[v]
                    if not delta.any():
                        continue
                    next_rows[v] |= delta
                    bucket = frontier.setdefault(next_state, {})
                    if v in bucket:
                        bucket[v] |= delta
                    else:
                        bucket[v] = delta.copy()
                    if next_state in finals:
                        answers[v] |= delta
        if frontier:
            self._sweep_rows_to_fixpoint(frontier)
        self.edges_applied += applied
        return applied

    def apply_deletions(self, edges: Iterable[Edge]) -> int:
        """Block-row :meth:`DeltaSweepState.apply_deletions` (DRed)."""
        import numpy as np

        db = self.db
        compiled = self.compiled
        if db.num_nodes > self.num_nodes:
            self._grow(db.num_nodes)
        table = compiled.table
        rtable = compiled.rtable
        initials = compiled.initials
        finals = compiled.finals
        reached = self.reached
        answers = self.answers_matrix
        node_id = db.node_id
        label_out = db.label_out_index
        label_in = db.label_in_index

        # Phase 1: direct removal candidates, against the intact rows.
        candidates: dict[tuple[int, int], object] = {}

        def _accumulate(key, bits) -> None:
            if key in candidates:
                candidates[key] |= bits
            else:
                candidates[key] = bits.copy()

        deleted = 0
        for source, label, target in edges:
            deleted += 1
            u = node_id(source)
            v = node_id(target)
            for state, row in table.items():
                next_states = row.get(label)
                if next_states is None:
                    continue
                state_rows = reached.get(state)
                if state_rows is None:
                    continue
                sources = state_rows[u]
                if not sources.any():
                    continue
                if state in initials and self._has_bit(sources, u):
                    _accumulate((state, u), self._bit_row(u))
                for next_state in next_states:
                    next_rows = reached.get(next_state)
                    if next_rows is None:
                        continue
                    endangered = sources & next_rows[v]
                    if endangered.any():
                        _accumulate((next_state, v), endangered)
        self.edges_deleted += deleted
        if not candidates:
            return deleted

        # Phase 2: over-delete through the live product adjacency.
        overdeleted: dict[tuple[int, int], object] = {}
        worklist = list(candidates.items())
        while worklist:
            (state, node), bits = worklist.pop()
            state_rows = reached.get(state)
            if state_rows is None:
                continue
            clearing = bits & state_rows[node]
            if not clearing.any():
                continue
            state_rows[node] &= ~clearing
            key = (state, node)
            if key in overdeleted:
                overdeleted[key] |= clearing
            else:
                overdeleted[key] = clearing.copy()
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

        # Phase 3: boundary rederivation, then resumed fixpoint.
        frontier: dict[int, dict[int, object]] = {}
        zero = np.zeros(self.num_blocks, dtype=np.uint64)
        for (state, node), bits in overdeleted.items():
            state_rows = reached[state]
            restore = zero
            if state in initials and self._has_bit(bits, node):
                row = table.get(state)
                if row:
                    for label in row:
                        if label_out(label).get(node):
                            restore = self._bit_row(node)
                            break
            remaining = bits & ~restore
            if remaining.any():
                rrow = rtable.get(state)
                if rrow:
                    support = np.zeros(self.num_blocks, dtype=np.uint64)
                    for label, prev_states in rrow.items():
                        preds = label_in(label).get(node)
                        if not preds:
                            continue
                        for prev_state in prev_states:
                            prev_rows = reached.get(prev_state)
                            if prev_rows is None:
                                continue
                            for p in preds:
                                support |= prev_rows[p]
                    restore = restore | (remaining & support)
            delta = restore & ~state_rows[node]
            if delta.any():
                state_rows[node] |= delta
                bucket = frontier.setdefault(state, {})
                if node in bucket:
                    bucket[node] |= delta
                else:
                    bucket[node] = delta.copy()
                if state in finals:
                    answers[node] |= delta
        if frontier:
            self._sweep_rows_to_fixpoint(frontier)

        # Settle answer rows whose final-state bits were touched.
        affected_targets = {
            node for state, node in overdeleted if state in finals
        }
        if affected_targets:
            final_rows = [
                reached[state] for state in finals if state in reached
            ]
            eps = compiled.accepts_epsilon
            for v in affected_targets:
                mask = self._bit_row(v) if eps else zero.copy()
                for state_rows in final_rows:
                    mask |= state_rows[v]
                answers[v] = mask

        over = rederived = 0
        for (state, node), bits in overdeleted.items():
            lost = int.from_bytes(bits.tobytes(), "little")
            kept = int.from_bytes(
                (bits & reached[state][node]).tobytes(), "little"
            )
            over += lost.bit_count()
            rederived += kept.bit_count()
        self.overdeleted_bits += over
        self.rederived_bits += rederived
        return deleted

    def _grow(self, num_nodes: int) -> None:
        """Widen matrices after the graph interned new nodes.

        New ids append zero block rows *and* possibly new source-bit
        columns (a new 64-wide block every 64 nodes); the epsilon
        diagonal of each new node is seeded exactly as a full sweep
        would.
        """
        import numpy as np

        from ..sweep.csr import blocks_for

        old_nodes = self.num_nodes
        num_blocks = blocks_for(num_nodes)

        def widen(matrix):
            grown = np.zeros((num_nodes, num_blocks), dtype=np.uint64)
            grown[:old_nodes, : self.num_blocks] = matrix
            return grown

        self.reached = {
            state: widen(rows) for state, rows in self.reached.items()
        }
        self.answers_matrix = widen(self.answers_matrix)
        self._masks_snapshot = widen(self._masks_snapshot)
        self.num_nodes = num_nodes
        self.num_blocks = num_blocks
        if self.compiled.accepts_epsilon:
            for v in range(old_nodes, num_nodes):
                self._set_bit(self.answers_matrix[v], v)

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def _sync_pairs(self) -> None:
        """Fold changed answer rows into the decoded pair set."""
        import numpy as np

        node_at = self.db.node_at
        pairs = self._pairs
        answers = self.answers_matrix
        snapshot = self._masks_snapshot
        changed = np.flatnonzero((answers != snapshot).any(axis=1))
        for target_id in changed.tolist():
            target = node_at(target_id)
            mask = int.from_bytes(answers[target_id].tobytes(), "little")
            seen = int.from_bytes(snapshot[target_id].tobytes(), "little")
            new_bits = mask & ~seen
            while new_bits:
                low_bit = new_bits & -new_bits
                pairs.add((node_at(low_bit.bit_length() - 1), target))
                new_bits ^= low_bit
            lost_bits = seen & ~mask
            while lost_bits:
                low_bit = lost_bits & -lost_bits
                pairs.discard((node_at(low_bit.bit_length() - 1), target))
                lost_bits ^= low_bit
            snapshot[target_id] = answers[target_id]

    def answer_ids(self) -> list[tuple[int, int]]:
        """The current answers as dense-id pairs, sorted by ``(source,
        target)`` — ``kernel.decode_matrix``'s order contract, relied on
        here and in :meth:`answers_sorted` without a second sort."""
        from ..sweep import kernel as _kernel

        sources, targets = _kernel.decode_matrix(
            self.answers_matrix, self.num_nodes
        )
        return list(zip(sources.tolist(), targets.tolist()))

    def answers(self) -> frozenset[Pair]:
        """The current answer set, decoded to node objects."""
        self._sync_pairs()
        return frozenset(self._pairs)

    def answers_sorted(self) -> list[Pair]:
        """Answers sorted by ``(node_id(x), node_id(y))`` — byte-identical
        to :func:`repro.rpq.engine.evaluate_all_sorted` on the same graph."""
        node_at = self.db.node_at
        return [
            (node_at(source_id), node_at(target_id))
            for source_id, target_id in self.answer_ids()
        ]

    def __repr__(self) -> str:
        return (
            f"NumpyDeltaSweepState(nodes={self.num_nodes}, "
            f"blocks={self.num_blocks}, "
            f"states={len(self.reached)}, "
            f"edges_applied={self.edges_applied}, "
            f"edges_deleted={self.edges_deleted})"
        )


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
