"""Frozen CSR snapshots of a :class:`~repro.rpq.graphdb.GraphDB`.

The live graph stores its edges label-first in Python dict-of-set
indexes — ideal for single-edge mutation, hostile to vectorized sweeps.
A :class:`CSRSnapshot` freezes one version of the graph into per-label
compressed-sparse-row arrays over the dense node ids:

* ``out_indptr``/``out_indices`` — forward CSR: the targets of node
  ``v``'s ``label``-edges are ``out_indices[out_indptr[v]:out_indptr[v+1]]``,
  sorted ascending.  The numpy kernel (:mod:`repro.sweep.kernel`) expands
  a sparse frontier's ``(node, column)`` pairs through this orientation.
* ``in_indptr``/``in_indices`` — reverse CSR: the *sources* of the
  ``label``-edges entering ``v``.  This is the orientation the kernel's
  block rounds consume: one frontier-expansion round OR-gathers, for
  every target node, the mask rows of its in-neighbours.
  :meth:`CSRSnapshot.reversed` swaps the two, no copy: the kernel's
  backward sweeps run on the edge-reversed graph's snapshot.

Snapshots serialize to a single file (:meth:`CSRSnapshot.save` /
:meth:`CSRSnapshot.load`): a small pickled header (labels, shapes,
offsets) followed by 64-byte-aligned raw array data.  Checkpoints
(:mod:`repro.service.recovery`) are its one user; ``load`` reads the
file into memory and returns a snapshot whose arrays are read-only
views into that one buffer.

Node ids beyond the last edge-bearing node are representable by
construction: ``num_nodes`` is the graph's interning count, not the
count of currently-connected nodes, so a store that has drained to
empty still round-trips with every interned id addressable (their CSR
rows are simply empty).  See ``GraphDB.remove_edge`` for why ids never
shrink.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import weakref
from typing import Hashable, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - this layer sits below rpq/
    from ..rpq.graphdb import GraphDB

__all__ = ["CSRSnapshot", "blocks_for", "pack_keys"]

_MAGIC = b"RPQCSR\x01\n"
_ALIGN = 64

# Scratch-file serial for atomic saves (unique per process + call, like
# the plan cache's): a crash mid-write leaves only an orphaned *.tmp,
# never a truncated snapshot at the published path that a checkpoint
# would then name.
_TMP_SERIAL = itertools.count()


def blocks_for(num_columns: int) -> int:
    """How many uint64 blocks hold ``num_columns`` mask bits (min 1)."""
    return max(1, (num_columns + 63) >> 6)


def pack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold ascending *bit keys* into ``(flat word indices, uint64 words)``.

    A bit key addresses one bit of a ``(rows, B)`` block matrix as
    ``row * 64 * B + column``: ``key >> 6`` is the flat word index and
    ``key & 63`` the bit.  Ascending keys make runs of equal words
    contiguous, so one ``reduceat`` ORs each run's bits together and the
    returned word indices are unique.  ``keys`` must be non-empty.
    """
    words = keys >> 6
    values = np.uint64(1) << (keys & 63).astype(np.uint64)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(words)) + 1))
    return words[starts], np.bitwise_or.reduceat(values, starts)


def _label_sort_key(label: Hashable) -> tuple[str, str]:
    # Labels are arbitrary hashables, so order by (type, repr): total,
    # deterministic across processes, and stable for the common str case.
    return (type(label).__name__, repr(label))


class _LabelCSR:
    """The four CSR arrays of one label (see module docstring)."""

    __slots__ = ("out_indptr", "out_indices", "in_indptr", "in_indices")

    def __init__(self, out_indptr, out_indices, in_indptr, in_indices):
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.in_indptr = in_indptr
        self.in_indices = in_indices


# How many degree-sorted destinations share one padded index matrix.
# Adjacent destinations in sorted order have near-equal in-degrees, so
# padding within a span is a few percent (vs ~35% for power-of-two
# degree buckets on dense graphs).
_SPAN_ROWS = 256


class _GatherPlan:
    """Padded gather/reduce schedule for one label's reverse CSR.

    ``bitwise_or.reduceat`` over ragged destination groups is the obvious
    reduction but measures ~3x slower than a *regular* one on this class
    of hardware, so the kernel regularizes the groups instead:
    destinations are sorted by in-degree and cut into spans of up to
    ``_SPAN_ROWS``; each span holds ``dsts`` (the target ids) and
    ``idx`` (an ``(m, w)`` source-id matrix, ``w`` the span's exact
    maximum degree, short rows padded with the sentinel id
    ``num_nodes``, whose mask row is pinned to zero).  A round then
    gathers ``delta[idx]`` — a dense ``(m, w, B)`` cube — and ORs it
    down axis 1 with a plain vectorized reduce.

    A label under which *every* node has exactly one in-neighbour (one of
    ``Ad``'s transition functions, reversed) needs no spans: ``function``
    is that in-neighbour per node, a round one row gather.
    """

    __slots__ = ("spans", "function")

    def __init__(self, label_csr: _LabelCSR, num_nodes: int):
        in_indptr = label_csr.in_indptr
        in_indices = label_csr.in_indices
        degrees = np.diff(in_indptr)
        self.spans: list[tuple[np.ndarray, np.ndarray]] = []
        self.function: np.ndarray | None = None
        if (degrees == 1).all():
            self.function = in_indices
            return
        nonzero = np.flatnonzero(degrees)
        if nonzero.size == 0:
            return
        by_degree = nonzero[np.argsort(degrees[nonzero], kind="stable")]
        for start in range(0, by_degree.size, _SPAN_ROWS):
            selected = by_degree[start : start + _SPAN_ROWS]
            span_degrees = degrees[selected]
            width = int(span_degrees[-1])
            member = np.arange(width, dtype=np.int64)
            valid = member[None, :] < span_degrees[:, None]
            idx = np.full((selected.size, width), num_nodes, dtype=np.intp)
            flat = (in_indptr[selected][:, None] + member[None, :])[valid]
            idx[valid] = in_indices[flat]
            self.spans.append((selected.astype(np.intp), idx))


class CSRSnapshot:
    """A frozen, vectorization-ready copy of one graph version."""

    __slots__ = (
        "num_nodes",
        "num_edges",
        "labels",
        "_by_label",
        "_plans",
        "_bitmaps",
        "_out_index",
        "_flip",
        "__weakref__",
    )

    def __init__(
        self,
        num_nodes: int,
        num_edges: int,
        labels: tuple,
        by_label: dict[Hashable, _LabelCSR],
    ):
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.labels = labels
        self._by_label = by_label
        self._plans: dict[Hashable, _GatherPlan] = {}
        self._bitmaps: dict[tuple, np.ndarray] = {}
        self._out_index: dict[Hashable, dict[int, list[int]]] = {}
        self._flip: "CSRSnapshot | weakref.ref | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, db: "GraphDB") -> "CSRSnapshot":
        """Freeze the current contents of ``db``."""
        num_nodes = db.num_nodes
        labels = tuple(sorted(db.domain(), key=_label_sort_key))
        by_label: dict[Hashable, _LabelCSR] = {}
        for label in labels:
            adjacency = db.label_out_index(label)
            source_ids = np.fromiter(
                adjacency.keys(), dtype=np.int64, count=len(adjacency)
            )
            counts = np.fromiter(
                map(len, adjacency.values()),
                dtype=np.int64,
                count=len(adjacency),
            )
            src = np.repeat(source_ids, counts)
            dst = np.fromiter(
                itertools.chain.from_iterable(adjacency.values()),
                dtype=np.int64,
                count=int(counts.sum()),
            )
            forward = np.lexsort((dst, src))
            out_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(src, minlength=num_nodes), out=out_indptr[1:]
            )
            out_indices = dst[forward]
            backward = np.lexsort((src, dst))
            in_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(dst, minlength=num_nodes), out=in_indptr[1:]
            )
            in_indices = src[backward]
            by_label[label] = _LabelCSR(
                out_indptr, out_indices, in_indptr, in_indices
            )
        return cls(num_nodes, db.num_edges, labels, by_label)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def label_csr(self, label: Hashable) -> _LabelCSR | None:
        return self._by_label.get(label)

    def gather_plan(self, label: Hashable) -> _GatherPlan | None:
        """The (memoized) padded gather schedule for ``label``."""
        plan = self._plans.get(label)
        if plan is None:
            label_csr = self._by_label.get(label)
            if label_csr is None:
                return None
            plan = _GatherPlan(label_csr, self.num_nodes)
            self._plans[label] = plan
        return plan

    def adjacency_bitmap(
        self, label: Hashable, lo: int = 0, hi: int | None = None
    ) -> np.ndarray | None:
        """The label's adjacency as a block bitmatrix, memoized.

        Row ``w``, bit ``j`` set iff the edge ``(lo + j) --label--> w``
        exists.  This is exactly the first-round frontier contribution
        of a freshly seeded sweep (every in-neighbour of any target has
        an out-edge of the label, hence is itself a seed), which lets
        the kernel replace its first full gather pass per initial state
        with one precomputed OR.  ``None`` when the label has no edges.
        """
        if hi is None:
            hi = self.num_nodes
        key = (label, lo, hi)
        bitmap = self._bitmaps.get(key)
        if bitmap is not None:
            return bitmap
        label_csr = self._by_label.get(label)
        if label_csr is None:
            return None
        width = hi - lo
        num_blocks = blocks_for(width)
        src = label_csr.in_indices
        dst = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64),
            np.diff(label_csr.in_indptr),
        )
        selected = (src >= lo) & (src < hi)
        src = src[selected]
        dst = dst[selected]
        bitmap = np.zeros((self.num_nodes, num_blocks), dtype=np.uint64)
        if src.size:
            # Edges are sorted by (dst, src), so their bit keys ascend.
            words, values = pack_keys(dst * (num_blocks << 6) + (src - lo))
            bitmap.reshape(-1)[words] = values
        self._bitmaps[key] = bitmap
        return bitmap

    def reversed(self) -> "CSRSnapshot":
        """The edge-reversed graph's snapshot, memoized: out and in arrays
        swap roles, shared, and the view memoizes its own plans and
        bitmaps.  ``reversed()`` of the view is ``self``, held weakly so
        the pair is no reference cycle outliving its graph version."""
        flip = self._flip() if isinstance(self._flip, weakref.ref) else self._flip
        if flip is None:
            by_label = {
                label: _LabelCSR(c.in_indptr, c.in_indices, c.out_indptr, c.out_indices)
                for label, c in self._by_label.items()
            }
            flip = CSRSnapshot(self.num_nodes, self.num_edges, self.labels, by_label)
            flip._flip, self._flip = weakref.ref(self), flip
        return flip

    def label_out_index(self, label: Hashable) -> dict[int, list[int]]:
        """``source_id -> target ids`` for one label, memoized.

        The read-only twin of :meth:`GraphDB.label_out_index` — all the
        big-int sweep reads of a graph — so
        ``engine._sweep_to_fixpoint`` runs over a frozen snapshot exactly
        as it does over the live graph.
        """
        index = self._out_index.get(label)
        if index is None:
            label_csr = self._by_label.get(label)
            if label_csr is None:
                return {}
            indptr = label_csr.out_indptr
            sources = np.flatnonzero(np.diff(indptr))
            targets = label_csr.out_indices.tolist()
            index = self._out_index[label] = {
                v: targets[start:stop]
                for v, start, stop in zip(
                    sources.tolist(),
                    indptr[sources].tolist(),
                    indptr[sources + 1].tolist(),
                )
            }
        return index

    def out_neighbors(self, label: Hashable, node_id: int) -> np.ndarray:
        label_csr = self._by_label.get(label)
        if label_csr is None:
            return np.empty(0, dtype=np.int64)
        indptr = label_csr.out_indptr
        return label_csr.out_indices[indptr[node_id] : indptr[node_id + 1]]

    # ------------------------------------------------------------------
    # Serialization (single file)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the snapshot as ``magic | header | aligned raw arrays``.

        Atomic: the payload is staged in a uniquely-named scratch file
        next to ``path`` and published with one ``os.replace``.  Readers
        (recovery loading a checkpoint) only ever see either the previous
        complete file or the new complete file — a crash mid-write leaves
        the destination untouched and at worst orphans a ``*.tmp``.
        """
        tmp = os.fspath(path) + f".{os.getpid()}.{next(_TMP_SERIAL)}.tmp"
        try:
            with open(tmp, "wb") as handle:
                self._write_payload(handle)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _write_payload(self, handle) -> None:
        """Serialize into an open binary ``handle`` (see :meth:`save`)."""
        manifest = []
        arrays: list[np.ndarray] = []
        offset = 0
        for index, label in enumerate(self.labels):
            label_csr = self._by_label[label]
            for name in _LabelCSR.__slots__:
                array = np.ascontiguousarray(getattr(label_csr, name))
                padded = -(-array.nbytes // _ALIGN) * _ALIGN
                manifest.append(
                    (index, name, array.dtype.str, array.shape, offset)
                )
                arrays.append(array)
                offset += padded
        header = pickle.dumps(
            {
                "num_nodes": self.num_nodes,
                "num_edges": self.num_edges,
                "labels": self.labels,
                "manifest": manifest,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        handle.write(_MAGIC)
        handle.write(len(header).to_bytes(8, "little"))
        handle.write(header)
        base = handle.tell()
        pad = -base % _ALIGN
        handle.write(b"\0" * pad)
        base += pad
        for (_, _, _, _, data_offset), array in zip(manifest, arrays):
            handle.seek(base + data_offset)
            handle.write(array.tobytes())
        end = base + offset
        handle.seek(0, 2)
        if handle.tell() < end:
            handle.truncate(end)

    @classmethod
    def load(cls, path) -> "CSRSnapshot":
        """Read a saved snapshot into memory.

        The file is validated up front — magic bytes, a complete header,
        and enough bytes for every array the manifest promises — so a
        truncated or corrupt file fails here with a clear ``ValueError``
        instead of handing short read-only views to the kernel (which
        would surface as an index crash deep inside a sweep).
        """
        with open(path, "rb") as handle:
            magic = handle.read(len(_MAGIC))
            if magic != _MAGIC:
                raise ValueError(f"{path!r} is not a CSR snapshot file")
            length_bytes = handle.read(8)
            if len(length_bytes) != 8:
                raise ValueError(
                    f"truncated CSR snapshot {path!r}: incomplete header length"
                )
            header_len = int.from_bytes(length_bytes, "little")
            header_bytes = handle.read(header_len)
            if len(header_bytes) != header_len:
                raise ValueError(
                    f"truncated CSR snapshot {path!r}: header cut short "
                    f"({len(header_bytes)} of {header_len} bytes)"
                )
            try:
                header = pickle.loads(header_bytes)
            except Exception as exc:
                raise ValueError(
                    f"corrupt CSR snapshot header in {path!r}: {exc}"
                ) from exc
            base = handle.tell()
            base += -base % _ALIGN
            handle.seek(0, 2)
            actual_size = handle.tell()
        required = base
        for _index, _name, dtype_str, shape, data_offset in header["manifest"]:
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            required = max(
                required, base + data_offset + count * np.dtype(dtype_str).itemsize
            )
        if actual_size < required:
            raise ValueError(
                f"truncated CSR snapshot {path!r}: need {required} bytes "
                f"for the arrays in its manifest, file has {actual_size}"
            )
        with open(path, "rb") as handle:
            raw = np.frombuffer(handle.read(), dtype=np.uint8)
        fields: dict[int, dict[str, np.ndarray]] = {}
        for index, name, dtype_str, shape, data_offset in header["manifest"]:
            dtype = np.dtype(dtype_str)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            start = base + data_offset
            view = (
                raw[start : start + count * dtype.itemsize]
                .view(dtype)
                .reshape(shape)
            )
            fields.setdefault(index, {})[name] = view
        labels = header["labels"]
        by_label = {
            label: _LabelCSR(**fields.get(index, {}))
            for index, label in enumerate(labels)
        }
        return cls(
            header["num_nodes"], header["num_edges"], labels, by_label
        )

    def __repr__(self) -> str:
        return (
            f"CSRSnapshot(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"labels={len(self.labels)})"
        )
