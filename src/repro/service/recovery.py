"""Checkpoint and crash recovery for durable serving tenants.

The durability contract (with :mod:`repro.service.wal` as the other
half): a tenant's acknowledged state is always reconstructible as

    newest valid checkpoint  +  the WAL suffix past its version.

A **checkpoint** is an atomically-published directory holding a frozen
:class:`~repro.rpq.csr.CSRSnapshot` of the tenant's view graph plus a
``meta.json`` with everything the snapshot alone cannot carry: the
node-interning table *in order* (dense ids decide the engine's answer
order, so byte-identical recovered answers require re-interning in the
original order), the store version, the WAL offset/seq at checkpoint
time, and a SHA-256 of the snapshot payload (the snapshot loader
validates structure; the digest catches flipped bits in array data).
The directory is staged under a scratch name, fsynced, and published
with one ``os.replace`` — a crash mid-checkpoint leaves only a ``*.tmp``
orphan, never a half-visible checkpoint.

**Recovery** walks checkpoints newest-first.  A checkpoint that fails
any validation (unreadable/ill-formed meta, digest mismatch, truncated
snapshot, inconsistent node table) is *quarantined* — renamed with a
``.corrupt`` suffix so it is never retried — and the previous one is
tried instead; with none left, recovery restarts from the empty store
and relies on the WAL alone.  The WAL is then replayed through
:meth:`~repro.service.store.MaterializedViewStore.apply_wal_changes`,
one record per original version bump, skipping records at or below the
checkpoint version and stopping at the first record that does not
follow from the reconstructed state (treated exactly like a torn tail:
the consistent prefix wins, the unusable suffix is cut).  Recovery
therefore *always* terminates in a consistent state, whatever a crash
or a fuzzer did to the files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from ..sweep.csr import CSRSnapshot
from .store import MaterializedViewStore
from .wal import WriteAheadLog, decode_record, WalError

__all__ = [
    "CHECKPOINT_FORMAT",
    "RecoveryError",
    "RecoveryResult",
    "TenantDurability",
    "list_checkpoints",
    "load_checkpoint",
    "recover_store",
    "write_checkpoint",
]

CHECKPOINT_FORMAT = "repro-tenant-checkpoint-v1"

_CKPT_PREFIX = "ckpt-"
_WAL_NAME = "wal.log"
_TMP_SERIAL = itertools.count()


class RecoveryError(ValueError):
    """A checkpoint failed validation and cannot seed recovery.

    Raised by :func:`load_checkpoint` for every defect class — missing
    or ill-formed ``meta.json``, snapshot digest mismatch, truncated
    arrays, an interning table inconsistent with the snapshot — and
    caught by :func:`recover_store`, which quarantines the checkpoint
    and falls back to the previous one.
    """


def _checkpoint_name(version: int) -> str:
    return f"{_CKPT_PREFIX}{version:016d}"


def _fsync_path(path: str) -> None:
    """fsync a file or directory so renames/contents survive power loss."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def list_checkpoints(directory: str | os.PathLike) -> list[tuple[int, str]]:
    """Valid-named checkpoint directories as (version, path), newest first.

    Quarantined (``*.corrupt``) and scratch (``*.tmp``) entries are
    skipped; so is anything whose name does not parse as a checkpoint.
    """
    directory = os.fspath(directory)
    found: list[tuple[int, str]] = []
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in entries:
        if not name.startswith(_CKPT_PREFIX):
            continue
        suffix = name[len(_CKPT_PREFIX) :]
        # Digits-only filters out quarantined ("….corrupt") and scratch
        # ("….tmp") entries along with anything else that is not ours.
        if not suffix.isdigit():
            continue
        path = os.path.join(directory, name)
        if os.path.isdir(path):
            found.append((int(suffix), path))
    found.sort(reverse=True)
    return found


def write_checkpoint(
    store: MaterializedViewStore,
    directory: str | os.PathLike,
    *,
    wal: WriteAheadLog | None = None,
    keep: int = 2,
) -> str:
    """Atomically publish a checkpoint of ``store``; returns its path.

    When a ``wal`` is given it is hard-synced first, so the recorded
    ``wal_offset``/``wal_seq`` name a durable boundary: every WAL byte
    before the offset is on disk before the checkpoint that cites it.
    The newest ``keep`` checkpoints are retained (a corrupt newest must
    leave a previous one to fall back to); older ones are pruned.
    Checkpointing an already-checkpointed version is a no-op returning
    the existing path.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    if wal is not None:
        wal.sync()
    final = os.path.join(directory, _checkpoint_name(store.version))
    if os.path.isdir(final):
        return final
    graph = store.graph
    nodes = graph.node_array().tolist()
    tmp = f"{final}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp"
    os.makedirs(tmp)
    try:
        snapshot_path = os.path.join(tmp, "graph.csr")
        graph.to_csr().save(snapshot_path)
        meta = {
            "format": CHECKPOINT_FORMAT,
            "version": store.version,
            "wal_offset": wal.offset if wal is not None else 0,
            "wal_seq": wal.last_seq if wal is not None else 0,
            "nodes": nodes,
            "symbols": sorted(store.symbols),
            "num_tuples": store.num_tuples,
            "graph_sha256": _sha256_file(snapshot_path),
        }
        meta_path = os.path.join(tmp, "meta.json")
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        _fsync_path(snapshot_path)
        _fsync_path(tmp)
        os.replace(tmp, final)
    except BaseException:
        for name in ("graph.csr", "meta.json"):
            try:
                os.unlink(os.path.join(tmp, name))
            except OSError:
                pass
        try:
            os.rmdir(tmp)
        except OSError:
            pass
        raise
    _fsync_path(directory)
    for _version, path in list_checkpoints(directory)[max(keep, 1) :]:
        _remove_tree(path)
    return final


def _remove_tree(path: str) -> None:
    """Best-effort removal of a (flat) checkpoint directory."""
    try:
        for name in os.listdir(path):
            try:
                os.unlink(os.path.join(path, name))
            except OSError:
                pass
        os.rmdir(path)
    except OSError:
        pass


def load_checkpoint(
    path: str | os.PathLike,
) -> tuple[list[Hashable], dict[Hashable, list[tuple[Hashable, Hashable]]], dict]:
    """Validate and decode one checkpoint into restorable pieces.

    Returns ``(nodes, extensions, meta)`` where ``nodes`` is the
    interning table in original order and ``extensions`` maps each view
    symbol to its tuple list, reconstructed from the snapshot's
    per-label CSR adjacency.  Raises :class:`RecoveryError` on *any*
    defect — unreadable or ill-formed ``meta.json``, wrong format tag,
    digest mismatch, truncated or corrupt snapshot, or a node table
    inconsistent with the snapshot — so callers can quarantine the
    checkpoint and fall back.
    """
    path = os.fspath(path)
    meta_path = os.path.join(path, "meta.json")
    snapshot_path = os.path.join(path, "graph.csr")
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except (OSError, ValueError) as exc:
        raise RecoveryError(f"unreadable checkpoint meta {meta_path}: {exc}")
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise RecoveryError(
            f"checkpoint {path} has format "
            f"{meta.get('format') if isinstance(meta, dict) else meta!r}, "
            f"expected {CHECKPOINT_FORMAT}"
        )
    nodes = meta.get("nodes")
    version = meta.get("version")
    if not isinstance(nodes, list) or not isinstance(version, int) or version < 0:
        raise RecoveryError(f"checkpoint {path} meta is missing nodes/version")
    try:
        digest = _sha256_file(snapshot_path)
    except OSError as exc:
        raise RecoveryError(f"unreadable snapshot {snapshot_path}: {exc}")
    if digest != meta.get("graph_sha256"):
        raise RecoveryError(
            f"checkpoint {path} snapshot digest mismatch "
            f"({digest} != {meta.get('graph_sha256')})"
        )
    try:
        # mmap=False: recovery reads the arrays once to rebuild the
        # store, then the snapshot is garbage — no reason to hold a map.
        snapshot = CSRSnapshot.load(snapshot_path, mmap=False)
    except (ValueError, OSError) as exc:
        raise RecoveryError(f"corrupt snapshot {snapshot_path}: {exc}")
    if snapshot.num_nodes != len(nodes):
        raise RecoveryError(
            f"checkpoint {path} interning table has {len(nodes)} nodes, "
            f"snapshot has {snapshot.num_nodes}"
        )
    extensions: dict[Hashable, list[tuple[Hashable, Hashable]]] = {}
    for label in snapshot.labels:
        label_csr = snapshot.label_csr(label)
        indptr = label_csr.out_indptr
        indices = label_csr.out_indices
        pairs: list[tuple[Hashable, Hashable]] = []
        try:
            for source_id in range(snapshot.num_nodes):
                source = nodes[source_id]
                for slot in range(int(indptr[source_id]), int(indptr[source_id + 1])):
                    pairs.append((source, nodes[int(indices[slot])]))
        except IndexError as exc:
            raise RecoveryError(
                f"checkpoint {path} snapshot indexes past its node table: {exc}"
            )
        if pairs:
            extensions[label] = pairs
    return nodes, extensions, meta


@dataclass
class RecoveryResult:
    """What :func:`recover_store` did: the store plus an audit trail.

    ``checkpoint`` is the path that seeded the store (``None`` when no
    valid checkpoint survived and recovery restarted from empty);
    ``quarantined`` the corrupt checkpoints renamed aside; ``replayed``
    how many WAL records were applied on top; ``wal_valid_bytes`` the
    byte length of the WAL prefix the recovered state accounts for
    (everything past it — torn, corrupt, or inconsistent with the
    state — should be truncated before new writes are appended);
    ``wal_error`` why replay stopped early, or ``None``.
    """

    store: MaterializedViewStore
    checkpoint: str | None
    checkpoint_version: int
    replayed: int
    wal_valid_bytes: int
    wal_error: str | None
    quarantined: list[str] = field(default_factory=list)


def _quarantine(path: str) -> str:
    """Rename a corrupt checkpoint aside so it is never retried."""
    target = path + ".corrupt"
    serial = 0
    while os.path.exists(target):
        serial += 1
        target = f"{path}.corrupt{serial}"
    os.replace(path, target)
    return target


def recover_store(
    directory: str | os.PathLike,
    *,
    log_limit: int = 100_000,
) -> RecoveryResult:
    """Rebuild a tenant store from its data directory (see module doc).

    Tries checkpoints newest-first, quarantining each one that fails
    validation; seeds the store from the first valid one (or from empty
    at version 0 if none survive) and replays the WAL suffix on top,
    stopping at the first record that is torn, corrupt, non-monotone,
    or does not follow from the reconstructed state.  Never raises on
    corrupt input: the result is always a consistent store plus an
    audit trail of what was skipped, cut, or quarantined.
    """
    directory = os.fspath(directory)
    quarantined: list[str] = []
    store: MaterializedViewStore | None = None
    checkpoint: str | None = None
    checkpoint_version = 0
    for version, path in list_checkpoints(directory):
        try:
            nodes, extensions, meta = load_checkpoint(path)
        except RecoveryError:
            quarantined.append(_quarantine(path))
            continue
        store = MaterializedViewStore.restore(
            nodes, extensions, meta["version"], log_limit=log_limit
        )
        checkpoint = path
        checkpoint_version = meta["version"]
        break
    if store is None:
        store = MaterializedViewStore(log_limit=log_limit)
    replayed = 0
    wal_error: str | None = None
    wal_path = os.path.join(directory, _WAL_NAME)
    try:
        with open(wal_path, "rb") as handle:
            buffer = handle.read()
    except FileNotFoundError:
        buffer = b""
    # Replay with our own frame walk (not scan_wal) because recovery
    # needs the byte offset of each boundary: the valid prefix ends
    # where the last *applied* record ends, and a record that decodes
    # but does not follow from the state still cuts the prefix there.
    offset = 0
    last_seq = 0
    while offset < len(buffer):
        try:
            record, end = decode_record(buffer, offset)
        except WalError as exc:
            wal_error = f"offset {offset}: {exc}"
            break
        if record.seq <= last_seq:
            wal_error = (
                f"offset {offset}: non-monotone seq {record.seq} "
                f"after {last_seq}"
            )
            break
        if record.version <= store.version:
            # At or below the checkpoint: already folded in.  Valid
            # prefix still advances — these bytes are accounted for.
            last_seq = record.seq
            offset = end
            continue
        try:
            store.apply_wal_changes(record.ops, record.version)
        except ValueError as exc:
            wal_error = f"offset {offset}: record does not apply: {exc}"
            break
        replayed += 1
        last_seq = record.seq
        offset = end
    return RecoveryResult(
        store=store,
        checkpoint=checkpoint,
        checkpoint_version=checkpoint_version,
        replayed=replayed,
        wal_valid_bytes=offset,
        wal_error=wal_error,
        quarantined=quarantined,
    )


class TenantDurability:
    """One tenant's durable home: its WAL, checkpoints, and counters.

    :meth:`open_or_recover` is the single entry point the serving stack
    uses at startup: a fresh directory seeds the store from the tenant
    config's initial extensions and writes an *initial checkpoint*
    (those extensions never enter the WAL, so without it they would be
    unrecoverable); an existing directory ignores the config's
    extensions entirely and reconstructs the acknowledged state via
    :func:`recover_store`, truncating whatever WAL suffix the recovered
    state does not account for.  Either way the store comes back with
    the WAL attached and every future version bump framed into it.

    :meth:`maybe_checkpoint` rolls a new checkpoint once the WAL has
    grown ``checkpoint_every_bytes`` past the last one — bounding
    replay work after a crash — and :attr:`stats` feeds the per-tenant
    ``/stats`` payload (wal_bytes, checkpoints, recoveries, replayed,
    quarantined, truncated bytes).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: str = "batch",
        checkpoint_every_bytes: int = 1 << 20,
        keep_checkpoints: int = 2,
    ):
        if checkpoint_every_bytes <= 0:
            raise ValueError(
                "checkpoint_every_bytes must be positive, got "
                f"{checkpoint_every_bytes}"
            )
        self.directory = os.fspath(directory)
        self.fsync = fsync
        self.checkpoint_every_bytes = checkpoint_every_bytes
        self.keep_checkpoints = keep_checkpoints
        self.wal: WriteAheadLog | None = None
        self._checkpoint_offset = 0
        self.stats = {
            "wal_bytes": 0,
            "checkpoints": 0,
            "recoveries": 0,
            "replayed": 0,
            "quarantined": 0,
            "wal_truncated_bytes": 0,
        }

    @property
    def wal_path(self) -> str:
        """Where this tenant's write-ahead log lives."""
        return os.path.join(self.directory, _WAL_NAME)

    def open_or_recover(
        self,
        extensions=None,
        *,
        log_limit: int = 100_000,
    ) -> MaterializedViewStore:
        """Open the durable store: fresh-seed or crash-recover, then log.

        ``extensions`` (the tenant config's initial view extensions) are
        only consulted when the directory holds no durable state yet;
        an existing WAL or checkpoint always wins, because the durable
        state is the acknowledged one.
        """
        os.makedirs(self.directory, exist_ok=True)
        existing = bool(list_checkpoints(self.directory)) or os.path.exists(
            self.wal_path
        )
        if existing:
            result = recover_store(self.directory, log_limit=log_limit)
            store = result.store
            self.stats["recoveries"] += 1
            self.stats["replayed"] += result.replayed
            self.stats["quarantined"] += len(result.quarantined)
            # Cut the WAL suffix the recovered state cannot account for
            # (torn tail, corrupt frame, or a record that no longer
            # follows after falling back to an older checkpoint): the
            # next append must land on a valid record boundary, and the
            # log's seq/version counters must match the store's.
            try:
                total = os.path.getsize(self.wal_path)
            except OSError:
                total = 0
            if total > result.wal_valid_bytes:
                self.stats["wal_truncated_bytes"] += total - result.wal_valid_bytes
                with open(self.wal_path, "rb+") as handle:
                    handle.truncate(result.wal_valid_bytes)
                    os.fsync(handle.fileno())
            if result.checkpoint is None:
                # Every checkpoint was quarantined (or never existed):
                # re-anchor the durable floor at the recovered state so
                # the next crash does not depend on replaying the whole
                # log from empty again.
                self.checkpoint(store)
        else:
            store = MaterializedViewStore(extensions, log_limit=log_limit)
            # The initial extensions are never WAL-logged (the WAL is
            # attached below, after the seed); this first checkpoint is
            # what makes them durable.
            self.checkpoint(store)
        self.wal = WriteAheadLog(self.wal_path, fsync=self.fsync)
        self._checkpoint_offset = self.wal.offset
        self.stats["wal_bytes"] = self.wal.offset
        store.attach_wal(self.wal)
        return store

    def checkpoint(self, store: MaterializedViewStore) -> str:
        """Write a checkpoint of ``store`` now; returns its path."""
        path = write_checkpoint(
            store,
            self.directory,
            wal=self.wal,
            keep=self.keep_checkpoints,
        )
        self.stats["checkpoints"] += 1
        if self.wal is not None:
            self._checkpoint_offset = self.wal.offset
        return path

    def maybe_checkpoint(self, store: MaterializedViewStore) -> str | None:
        """Roll a checkpoint if the WAL grew enough since the last one.

        Called on the tenant's executor after acknowledged writes, so
        checkpointing serializes with mutations for free.  Returns the
        new checkpoint's path, or ``None`` when the WAL is still under
        ``checkpoint_every_bytes`` of un-checkpointed records.
        """
        if self.wal is None:
            return None
        self.stats["wal_bytes"] = self.wal.offset
        if self.wal.offset - self._checkpoint_offset < self.checkpoint_every_bytes:
            return None
        return self.checkpoint(store)

    def note_commit(self) -> None:
        """Refresh the wal_bytes stat after a committed write batch."""
        if self.wal is not None:
            self.stats["wal_bytes"] = self.wal.offset

    def close(self) -> None:
        """Release the WAL file handle (syncing per its policy)."""
        if self.wal is not None:
            self.wal.close()

    def __repr__(self) -> str:
        return (
            f"TenantDurability({self.directory!r}, fsync={self.fsync!r}, "
            f"checkpoints={self.stats['checkpoints']}, "
            f"wal_bytes={self.stats['wal_bytes']})"
        )
