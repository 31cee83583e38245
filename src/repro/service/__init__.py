"""The view-based answering service (the paper's Section 4 put to work).

Everything below Section 4's algorithms exists to support one serving
regime: a mediator that is given view *definitions* once, receives view
*extensions* as data arrives, and answers a stream of queries using the
views alone.  This package is that layer, assembled from the compiled
halves built underneath it:

* :class:`MaterializedViewStore` — versioned, incrementally updatable
  storage of view extensions on top of the label-indexed
  :class:`~repro.rpq.graphdb.GraphDB`, with a bounded change log
  (:class:`StoreDelta`) feeding incremental answer maintenance;
* :class:`RewritePlanCache` — compiled rewrite plans (rewriting DFA +
  ``Ad`` + ``A'``) keyed by canonical serialization and persisted to
  disk, so no process ever repeats a subset construction another process
  already paid for;
* :class:`QuerySession` — the front end: all-pairs / single-source /
  single-pair answering against the current store version, with plan
  state immune to data changes and evaluation state invalidated by them;
* :func:`answer_on_extensions` — the shared one-shot helper turning raw
  extensions into answers (defined in :mod:`repro.rpq.views`);
* :class:`RPQServer` / :class:`TenantConfig` / :func:`run_in_thread` —
  the async multi-tenant HTTP/JSON front end: executor-confined tenants
  with version-pinned reads, bounded admission (429 on overflow), and
  per-tenant stats (:mod:`repro.service.server`; its closed-loop load
  generator and differential oracle live in
  :mod:`repro.service.loadgen`);
* :class:`WriteAheadLog` / :class:`TenantDurability` — crash safety for
  the serving stack: every acknowledged mutation is CRC-framed into a
  per-tenant write-ahead log before the HTTP 200, checkpoints roll as
  the log grows, and startup reconstructs the exact acknowledged state
  — torn tails truncated, corrupt checkpoints quarantined with fallback
  (:mod:`repro.service.wal`, :mod:`repro.service.recovery`).

See ``docs/architecture.md`` for the layer diagram and
``docs/quickstart.md`` for an executable end-to-end walkthrough.
"""

from .plancache import RewritePlanCache, plan_from_dict, plan_key, plan_to_dict
from .recovery import (
    RecoveryError,
    RecoveryResult,
    TenantDurability,
    list_checkpoints,
    load_checkpoint,
    recover_store,
    write_checkpoint,
)
from .server import RPQServer, ServerHandle, TenantConfig, run_in_thread
from .session import QuerySession
from .store import MaterializedViewStore, StoreDelta, answer_on_extensions
from .wal import WalRecord, WalScan, WriteAheadLog, scan_wal

__all__ = [
    "MaterializedViewStore",
    "StoreDelta",
    "answer_on_extensions",
    "RewritePlanCache",
    "plan_key",
    "plan_to_dict",
    "plan_from_dict",
    "QuerySession",
    "RPQServer",
    "ServerHandle",
    "TenantConfig",
    "run_in_thread",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "scan_wal",
    "RecoveryError",
    "RecoveryResult",
    "TenantDurability",
    "list_checkpoints",
    "load_checkpoint",
    "recover_store",
    "write_checkpoint",
]
