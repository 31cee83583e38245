"""Vectorized all-pairs product sweep over uint64 block bitmatrices.

This is the numpy twin of the big-int sweep in :mod:`repro.sweep.bigint`.
Both compute the same semi-naive fixpoint — per automaton state, the set
of *source* nodes known to reach each (state, node) product point — but
where the engine packs a node's source set into one Python integer, this
kernel keeps the whole per-state relation as the set bits of a
``(num_nodes, ceil(W / 64))`` uint64 block matrix (``W`` = the width of
the source window: the full graph, or one shard's node range).  A round
takes one of two forms, so that it costs what its frontier costs:

* **Pair-list round** (sparse frontier).  A state's delta is one sorted
  int64 array of *bit keys* ``node * 64B + window column`` — ``key >> 6``
  is the flat word index into a block matrix, ``key & 63`` the bit.  The
  round expands the delta through the label's forward CSR
  (``indptr[nodes]``, ``repeat``, one gather) and dedups the products
  with one sort.  The state's *settled* set is a sorted key array too
  (:class:`_Settled`): one ``searchsorted`` drops the keys it holds and
  the fresh ones are merged in, so no ``(n, B)`` matrix is allocated,
  zeroed or scanned.  A merge rewrites the whole array, so a starred
  query on a sparse graph would pay ``O(settled)`` every round: once one
  state has *written* more than ``n * B / 8`` keys (its array size summed
  over the rounds that grew it, :func:`_keys_fit`), every settled set
  becomes a block matrix cut from one allocation, fresh keys are those
  whose bit is clear, and they are folded in per word with one
  ``reduceat`` (:func:`repro.sweep.csr.pack_keys`).  Measured on the
  9 000-edge grid (2-vCPU Xeon VM): with no bound ``r*.d`` took 50 ms and
  ``(r+d)*`` 2.9 s (+34 MiB), against 23-28 ms and 0.76 s with it; a
  bound on the array *size* instead left ``b.a*.b`` on the layered DAG
  1.2x slower than all-matrix sweeps (``BENCH_25.json``).
* **Block round** (dense frontier).  Deltas are ``(num_nodes + 1, B)``
  matrices; per label the round *gathers* the delta rows of every
  target's in-neighbours through the padded reverse-CSR schedule
  (:class:`repro.sweep.csr._GatherPlan`; short rows padded with a pinned
  all-zero sentinel row), *reduces* the ``(m, w, B)`` cube with one
  regular ``bitwise_or.reduce``, and *accumulates* into the successor
  states, turning the accumulation into the next delta with two in-place
  ops (``new = acc & ~reached``; ``reached |= new``).  That is
  ``O(states * n * B)`` per round whatever the frontier, with every
  large buffer allocated once and reused — on the target hardware a cold
  allocation runs an order of magnitude slower than a warm in-place OR.

**Hand-over rule.**  The number of pairs a round will produce is the sum
of out-degrees over its deltas, known *before* expanding.  While that is
at most ``n * B`` — the words one pass over one block matrix touches —
the round runs as pair lists (:func:`_pair_round_pays`); the first round
that exceeds it scatters the pair deltas into delta matrices and the
block loop finishes the sweep on the settled matrices (made there, if the
key bound did not make them first).  The switch is one-way: a saturating
frontier stays dense until its last round or two, and re-deriving pair
lists from matrices costs the ``n * B`` scan the pair form exists to
avoid.  Delta matrices, gather plans and adjacency bitmaps are only
built at the hand-over, so a sweep that stays sparse never pays for
them.

**Columns.**  Only a *live* source — one with an out-edge matching an
initial state's row, the set the sweep seeds from — can own a set bit, so
:func:`all_pairs_ids` hands :func:`sweep_window` the ascending array of
live ids in place of a ``[lo, hi)`` window (which is ``arange(lo, hi)``)
whenever they fill at most half the blocks, ``2 * blocks_for(live) <=
blocks_for(n)``: every matrix of the sweep, the hand-over threshold and
the decode shrink by that factor and the block loop's peak stays under
the full layout's.  ``live[column]`` is the source and ``live`` ascends,
so the decode order holds with no spread back.  Callers that keep the
matrix — :func:`repro.sweep.window_masks`, the sharded windows,
``NumpyDeltaSweepState`` (a later insert makes new sources live) — are
not narrowed: spreading bits back to ``(n, B)`` measured 1.0 ms a view
on the 129-state ``Ad`` of the k = 7 blow-up query, more than the
narrower sweep saved there (2.4 -> 0.9 ms).

**Decode.**  The answer is the epsilon diagonal plus the final states'
settled bits.  A sweep that ends with keyed sets decodes those keys: one
sort of the transposed ``column * n + target`` and a dedup (two final
states may settle one key), no matrix.  Otherwise :func:`decode_matrix`
is where answer bits become ids, for both row forms (big-int rows reach
it as a matrix of their non-zero masks, :func:`decode_masks`), and what
it returns stays a pair of int64 arrays until ``GraphDB.pairs_at`` maps
them to nodes.  A sparse
answer sets about one bit per non-zero word, so the unpack goes down two
levels — the non-zero words, then their non-zero *bytes* — and hands
``unpackbits`` only those: an eighth of a ``(words, 64)`` cube.  Each
level is found by ``flatnonzero(x != 0)``: on an integer array
``flatnonzero`` converts element by element (0.9 ms on a 4 624 x 73
matrix), on the boolean compare it is a byte scan (0.4 ms).  The keys
come out in (target, column) order; the transpose is one unstable sort of
``column * n + target`` — unique, so stability buys nothing — and one
``divmod``, in place of a stable argsort and two gathers.

Exactness contract: for every graph and compiled automaton,
:func:`all_pairs_ids` returns exactly the id arrays of
``engine._all_pairs_ids`` on the big-int sweep (the differential harness
in ``tests/rpq/test_kernel_differential.py`` asserts list equality, order
included, and bit equality of the matrices across both round forms;
``tests/rpq/test_decode_properties.py`` holds the decoder to an
unpack-everything reference), including the epsilon diagonal over *all*
interned nodes — drained nodes included — and with the padding bits of
the last block provably never set (seeds and expansions only ever touch
valid columns).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from .csr import CSRSnapshot, blocks_for, pack_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import CompiledAutomaton

__all__ = [
    "all_pairs_ids",
    "sweep_window",
    "decode_matrix",
    "decode_masks",
    "matrix_to_masks",
]

# Cap on the number of uint64 words gathered per chunk (~4 MiB): keeps
# the gather cube and its reduction inside the cache tier where this
# machine's fancy-indexing throughput is ~8x its streaming-DRAM rate.
_CHUNK_WORDS = 1 << 19


def _pair_round_pays(expansion_pairs: int, matrix_words: int) -> bool:
    """The round-form decision, taken before the round's work is done.

    ``expansion_pairs`` is the sum of out-degrees over the round's pair
    deltas; ``matrix_words`` is ``n * B``, what one pass over one block
    matrix touches (a block round makes several per state).
    """
    return expansion_pairs <= matrix_words


def _keys_fit(written_keys: int, matrix_words: int) -> bool:
    """Whether settled sets stay key arrays once one has written
    ``written_keys`` keys: at most an eighth of the words of an ``(n, B)``
    matrix (module docstring, *Pair-list round*)."""
    return written_keys << 3 <= matrix_words


def _zero_matrices(states, rows: int, num_blocks: int) -> dict[int, np.ndarray]:
    """One zeroed ``(rows, num_blocks)`` matrix per state, cut from a
    single allocation: numpy asks for huge pages from 4 MiB up, and first
    touches of one huge-page block measured ~10x cheaper here than of as
    many separate 2-3 MiB arrays."""
    block = np.zeros((len(states), rows, num_blocks), dtype=np.uint64)
    return dict(zip(states, block))


class _Settled:
    """The settled bits of every automaton state over a ``(rows, B)``
    layout: sorted int64 bit-key arrays until one state has written more
    keys than :func:`_keys_fit` allows, then, all at once and for good,
    block matrices cut from one allocation (:func:`_zero_matrices`)."""

    def __init__(self, states, rows: int, num_blocks: int) -> None:
        self.states, self.shape = list(states), (rows, num_blocks)
        self.keys: dict[int, np.ndarray] = {}
        self.written: dict[int, int] = {}
        self.matrices: dict[int, np.ndarray] | None = None

    def add(self, state: int, keys: np.ndarray) -> np.ndarray:
        """Settle ascending, unique, non-empty ``keys``; return the new ones."""
        if self.matrices is not None:
            matrix = self.matrices[state]
            bits = np.uint64(1) << (keys & 63).astype(np.uint64)
            keys = keys[(matrix.reshape(-1)[keys >> 6] & bits) == 0]
            if keys.size:
                _or_keys(matrix, keys)
            return keys
        held = self.keys.get(state)
        if held is not None:
            keys = keys[held.take(np.searchsorted(held, keys), mode="clip") != keys]
            if not keys.size:
                return keys
            held = np.concatenate((held, keys))
            held.sort(kind="stable")  # two ascending runs: one merge
        self.keys[state] = held = keys if held is None else held
        self.written[state] = self.written.get(state, 0) + held.size
        if not _keys_fit(self.written[state], self.shape[0] * self.shape[1]):
            self.to_matrices()
        return keys

    def to_matrices(self) -> dict[int, np.ndarray]:
        """Every state's settled bits as a matrix, from now on."""
        if self.matrices is None:
            self.matrices = _zero_matrices(self.states, *self.shape)
            for state, keys in self.keys.items():
                _or_keys(self.matrices[state], keys)
            self.keys = {}
        return self.matrices


_NO_KEYS = np.empty(0, dtype=np.int64)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` by sort and neighbour mask (numpy >= 2.3 hashes
    first, measured 10x slower on these 5k-300k key arrays)."""
    if values.size == 0:
        return values
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _or_keys(matrix: np.ndarray, keys: np.ndarray) -> None:
    """Set the bits named by ascending, non-empty bit ``keys``."""
    words, values = pack_keys(keys)
    matrix.reshape(-1)[words] |= values


def _unpack_keys(matrix: np.ndarray) -> np.ndarray:
    """The ascending bit keys of ``matrix``'s set bits; only the non-zero
    bytes of its non-zero words are unpacked (module docstring, *Decode*)."""
    flat = matrix.reshape(-1)
    words = np.flatnonzero(flat != 0)
    octets = flat[words].view(np.uint8)  # little-endian: byte k holds bits 8k..8k+7
    hot = np.flatnonzero(octets != 0)
    bits = np.flatnonzero(np.unpackbits(octets[hot], bitorder="little").view(np.bool_))
    byte_keys = (words[hot >> 3] << 6) + ((hot & 7) << 3)
    return byte_keys[bits >> 3] + (bits & 7)


def _seed_columns(snapshot, labels, sources: np.ndarray) -> np.ndarray:
    """The positions in ascending ``sources`` of the ids with an out-edge
    under one of ``labels`` (a state's row) — the only sources that can
    start a path from that state.  Ascending and unique."""
    hit = np.zeros(sources.size, dtype=bool)
    after = sources + 1
    for label in labels:
        if (label_csr := snapshot.label_csr(label)) is not None:
            hit |= label_csr.out_indptr[after] != label_csr.out_indptr[sources]
    return np.flatnonzero(hit)


def sweep_window(
    snapshot: CSRSnapshot,
    compiled: "CompiledAutomaton",
    lo: int = 0,
    hi: int | None = None,
    *,
    reached_out: dict | None = None,
    sources: np.ndarray | None = None,
    live: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Sweep sources in ``[lo, hi)``; return the answer block matrix.

    Row ``t`` of the result holds one bit per window source: bit ``j``
    set means ``(lo + j, t)`` is an answer pair.  ``lo``/``hi`` default
    to the whole graph; :class:`repro.rpq.sharded.ParallelEvaluator`
    passes one shard's range per task, which keeps each task's matrices
    a factor ``k`` narrower (the same mask-width saving the big-int
    sweep gets from ``engine._seed_all_pairs(lo, hi)``).

    ``sources`` (kernel-internal, :func:`all_pairs_ids` only) replaces the
    window by an ascending array of source ids: column ``j`` is then
    ``sources[j]``, ``lo``/``hi`` are ignored, and the adjacency-bitmap
    shortcut — laid out for contiguous windows — is not taken.  Every other
    caller gets the contiguous layout documented above, unchanged.
    ``live`` (kernel-internal, :func:`all_pairs_ids` only: the ids it
    scanned for an out-edge matching an initial state's row) seeds a lone
    initial state without a rescan and asks for the answer as
    :func:`decode_matrix`'s ``(sources, targets)`` arrays instead.

    Settled sets are key arrays until the key bound or the hand-over
    (module docstring); the matrices a caller gets are built when the
    sweep ends.  With ``reached_out`` (a dict), the settled per-state
    ``(num_nodes, B)`` matrices, one per automaton state, are handed back
    after the fixpoint — :class:`repro.rpq.incremental.NumpyDeltaSweepState`
    retains them as its storage.
    """
    num_nodes = snapshot.num_nodes
    if hi is None:
        hi = num_nodes
    contiguous = sources is None
    if contiguous:
        sources = np.arange(lo, max(lo, hi), dtype=np.int64)
    width = sources.size
    num_blocks = blocks_for(width)
    stride = num_blocks << 6  # bit key = node * stride + window column
    table = compiled.table
    reached = _Settled(table.keys() | compiled.rtable.keys(), num_nodes, num_blocks)

    # Seed each initial state with the window sources that have an
    # out-edge matching its row (any other source contributes nothing
    # beyond the epsilon answer): the diagonal ``(sources[j], j)``.
    pairs: dict[int, np.ndarray] = {}
    for state in compiled.initials:
        if live is not None and len(compiled.initials) == 1:
            columns = np.searchsorted(sources, live)
        else:
            columns = _seed_columns(snapshot, table.get(state, ()), sources)
        if columns.size:
            pairs[state] = reached.add(state, sources[columns] * stride + columns)

    # The deltas are still exactly the seed diagonals of ``[lo, hi)``.
    seeded = contiguous
    while pairs:
        expansions = []
        expansion_pairs = 0
        for state, keys in pairs.items():
            nodes, columns = np.divmod(keys, stride)
            for label, next_states in table.get(state, {}).items():
                label_csr = snapshot.label_csr(label)
                if label_csr is None:
                    continue
                starts = label_csr.out_indptr[nodes]
                counts = label_csr.out_indptr[nodes + 1] - starts
                if counts.any():
                    expansion_pairs += int(counts.sum())
                    expansions.append(
                        (label_csr.out_indices, starts, counts, columns, next_states)
                    )
        if not _pair_round_pays(expansion_pairs, num_nodes * num_blocks):
            _block_rounds(snapshot, table, lo, hi, reached.to_matrices(), pairs, seeded)
            break
        pairs = _pair_round(expansions, stride, reached)
        seeded = False
    if reached_out is not None:
        reached_out.update(reached.to_matrices())
    epsilon = compiled.accepts_epsilon
    diagonal = sources * stride + np.arange(width) if epsilon else _NO_KEYS
    answers = _answer(reached, compiled.finals, diagonal, live is None)
    del reached  # the decode runs without the settled matrices
    if live is None:
        return answers
    if answers.ndim == 2:
        columns, targets = decode_matrix(answers, width)
    else:  # sort the transposed keys; a dedup drops keys two final states settled
        targets, columns = np.divmod(answers, stride)
        columns, targets = np.divmod(
            _sorted_unique(columns * num_nodes + targets), num_nodes
        )
    return sources[columns], targets


def _answer(reached: _Settled, finals, diagonal: np.ndarray, as_matrix: bool):
    """The answer bits, the epsilon ``diagonal`` keys and the final states'
    settled bits: one unsorted key array while the states are keyed and
    ``as_matrix`` is false, else a fresh matrix."""
    if reached.matrices is None:
        parts = [diagonal, *(reached.keys[s] for s in finals if s in reached.keys)]
        if not as_matrix:
            return np.concatenate(parts)
        dense = []
    else:
        parts = [diagonal]
        dense = [reached.matrices[s] for s in finals if s in reached.matrices]
    answers = dense.pop().copy() if dense else np.zeros(reached.shape, np.uint64)
    for matrix in dense:
        answers |= matrix
    for keys in parts:
        if keys.size:
            _or_keys(answers, keys)
    return answers


def _pair_round(expansions, stride, reached) -> dict[int, np.ndarray]:
    """One pair-list round: expand, dedup, settle the fresh keys; returns
    the next pair deltas."""
    produced: dict[int, list[np.ndarray]] = {}
    for out_indices, starts, counts, columns, next_states in expansions:
        ends = np.cumsum(counts)
        # Edge slot of every product: each node's CSR run, laid end to end.
        edges = np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1])
        keys = out_indices[edges] * stride + np.repeat(columns, counts)
        for next_state in next_states:
            produced.setdefault(next_state, []).append(keys)
    pairs: dict[int, np.ndarray] = {}
    for state, parts in produced.items():
        keys = reached.add(state, _sorted_unique(np.concatenate(parts)))
        if keys.size:
            pairs[state] = keys
    return pairs


def _block_rounds(snapshot, table, lo, hi, reached, pairs, seeded) -> None:
    """Finish the sweep with block rounds from the pair deltas ``pairs``."""
    num_nodes, num_blocks = next(iter(reached.values())).shape
    # Per state: the current delta (one sentinel row pinned to zero for
    # padded gathers) and the accumulator that becomes the next delta.
    # Allocated once at the hand-over, reused every round.
    delta = _zero_matrices(reached, num_nodes + 1, num_blocks)
    acc = _zero_matrices(reached, num_nodes + 1, num_blocks)
    scratch = np.empty((num_nodes, num_blocks), dtype=np.uint64)
    for state, keys in pairs.items():
        _or_keys(delta[state], keys)
    active = {s: s in pairs for s in reached}
    # A freshly seeded initial state's delta is exactly the seed
    # diagonal, and every in-neighbour of a label is one of that label's
    # seeds — so the state's first-round contribution per label is the
    # label's precomputed adjacency bitmap, no gather needed.  The flag
    # drops as soon as the diagonal delta has been consumed.
    diagonal = {s: seeded and s in pairs for s in reached}

    while any(active.values()):
        for state_acc in acc.values():
            state_acc.fill(0)
        touched: set[int] = set()
        for state, row in table.items():
            if not active[state]:
                continue
            if diagonal[state]:
                for label, next_states in row.items():
                    bitmap = snapshot.adjacency_bitmap(label, lo, hi)
                    if bitmap is None:
                        continue
                    for next_state in next_states:
                        acc[next_state][:num_nodes] |= bitmap
                        touched.add(next_state)
                continue
            state_delta = delta[state]
            for label, next_states in row.items():
                plan = snapshot.gather_plan(label)
                if plan is None:
                    continue
                if plan.function is not None:
                    pushed = np.take(state_delta, plan.function, axis=0, out=scratch)
                    for next_state in next_states:
                        acc[next_state][:num_nodes] |= pushed
                        touched.add(next_state)
                    continue
                for dsts, idx in plan.spans:
                    rows_total, bucket_width = idx.shape
                    rows_per_chunk = max(
                        1, _CHUNK_WORDS // (bucket_width * num_blocks)
                    )
                    for start in range(0, rows_total, rows_per_chunk):
                        stop = min(start + rows_per_chunk, rows_total)
                        gathered = state_delta[idx[start:stop]]
                        reduced = np.bitwise_or.reduce(gathered, axis=1)
                        chunk_dsts = dsts[start:stop]
                        for next_state in next_states:
                            acc[next_state][chunk_dsts] |= reduced
                            touched.add(next_state)
        for state in reached:
            active[state] = False
            diagonal[state] = False
        for state in touched:
            new = acc[state][:num_nodes]
            np.invert(reached[state], out=scratch)
            np.bitwise_and(new, scratch, out=new)
            if not new.any():
                continue
            np.bitwise_or(reached[state], new, out=reached[state])
            # The accumulator (now holding exactly the new bits) becomes
            # the next round's delta; the old delta becomes the next
            # accumulator.  Sentinel rows stay zero on both.
            delta[state], acc[state] = acc[state], delta[state]
            active[state] = True


def decode_matrix(
    answers: np.ndarray, width: int, lo: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Unpack an answer matrix into sorted ``(sources, targets)`` arrays.

    Sorted by ``(source_id, target_id)`` — the engine's documented
    deterministic order, which callers rely on without re-sorting.
    ``width`` is the number of valid source columns (bits beyond it are
    discarded); ``lo`` re-bases window columns to absolute ids.  Reads
    only the non-zero words, so the cost follows the answer, not ``n²``.
    """
    num_rows, num_blocks = answers.shape
    targets, columns = np.divmod(_unpack_keys(answers), num_blocks << 6)
    if width < num_blocks << 6:
        valid = columns < width
        targets, columns = targets[valid], columns[valid]
    # Keys ascend by (target, column); the transposed key is unique, so one
    # unstable sort of it yields (source, target) order.
    columns, targets = np.divmod(np.sort(columns * num_rows + targets), num_rows)
    return columns + lo, targets


def matrix_to_masks(answers: np.ndarray) -> dict[int, int]:
    """Collapse an answer matrix to ``{target_id: int mask}`` (nonzero
    rows only) — the result shape of the windowed big-int sweep, so the
    sharded merge path is backend-agnostic."""
    masks: dict[int, int] = {}
    for target in np.flatnonzero(answers.any(axis=1)):
        masks[int(target)] = int.from_bytes(
            answers[target].tobytes(), "little"
        )
    return masks


def decode_masks(
    target_masks: Iterable[tuple[int, int]], width: int, lo: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`decode_matrix` for big-int rows: ``(target_id, source mask)``
    items in ascending target order, bit ``j`` of a mask being source
    ``lo + j`` of a ``width``-wide window.  The non-zero masks become the
    rows of one uint64 matrix; its row numbers map back to target ids."""
    kept = [(target, mask) for target, mask in target_masks if mask]
    num_blocks = blocks_for(width)
    matrix = np.frombuffer(
        b"".join(mask.to_bytes(num_blocks << 3, "little") for _, mask in kept),
        dtype=np.uint64,
    ).reshape(len(kept), num_blocks)
    sources, rows = decode_matrix(matrix, width, lo)
    return sources, np.array([target for target, _ in kept], dtype=np.int64)[rows]


def all_pairs_ids(
    snapshot: CSRSnapshot, compiled: "CompiledAutomaton"
) -> tuple[np.ndarray, np.ndarray]:
    """The full all-pairs sweep, decoded to ``(sources, targets)`` dense-id
    arrays in ``(source, target)`` order.

    Columns go to the *live* sources only — the ids with an out-edge
    matching an initial state's row — when they fill at most half the
    blocks of the whole graph (module docstring, *Columns*); ``live``
    ascends, so ``live[column]`` keeps :func:`decode_matrix`'s order.
    An automaton that accepts the empty word is not narrowed: its answer
    holds the diagonal of *every* node, live or not.
    """
    num_nodes = snapshot.num_nodes
    first_labels = {
        label for state in compiled.initials for label in compiled.table.get(state, ())
    }
    live = _seed_columns(
        snapshot, first_labels, np.arange(num_nodes, dtype=np.int64)
    )
    wide = compiled.accepts_epsilon or 2 * blocks_for(live.size) > blocks_for(num_nodes)
    return sweep_window(snapshot, compiled, sources=None if wide else live, live=live)
