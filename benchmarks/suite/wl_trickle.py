"""``trickle``: a stream of single-tuple updates, each followed by answers.

One op (a *step*) is one tuple mutation on a ``MaterializedViewStore``
(80% ``add``, 20% ``remove``, from ``make_update_stream``) followed by
``QuerySession.answer_sorted`` for three standing bounded queries.  The
same sweep layer as ``sweep_*`` used differently — patched, not swept:
``rpq/incremental.py`` (insert-resume vs delete-rederive), the store's
change log and the answer decode dominate; full sweeps happen only in
each pass's warm-up.

Each pass opens a fresh store and session over the same seeded grid and
follows the same seeded update stream from its start, so every step has
one latency per pass.
"""

from __future__ import annotations

from repro.rpq import RPQViews, Theory, make_graph, make_update_stream
from repro.service import MaterializedViewStore, QuerySession

from harness import Failure, PassLog, Workload, answer_bytes, digest, share, sum_counts
from wl_sweep import BOUNDED_TEMPLATES, fill_templates

FAMILY = "grid"
ORACLE_EVERY = 20


def elementary_extensions(db) -> dict[str, list[tuple[str, str]]]:
    """One view per edge label, its extension the label's edge set (sorted,
    so every store built from it interns nodes in the same order)."""
    extensions: dict[str, list[tuple[str, str]]] = {}
    for source, label, target in db.edges():
        extensions.setdefault(f"v_{label}", []).append((source, target))
    return {symbol: sorted(pairs) for symbol, pairs in sorted(extensions.items())}


SESSION_STATS = (
    "requests", "answer_memo_hits", "incremental_updates", "full_recomputes",
    "rederived_bits", "delta_edges_applied",
)


def count_session(log: PassLog, session) -> None:
    """Add a closing session's own counters to the pass's counts."""
    for key in SESSION_STATS:
        log.counts[f"session.{key}"] += session.stats[key]


def session_counters(counts) -> dict[str, float]:
    """The per-layer session metrics from summed :func:`count_session` counts."""
    patched = counts["session.incremental_updates"]
    return {
        "session.memo_hit_share": share(
            counts["session.answer_memo_hits"], counts["session.requests"]
        ),
        "session.incremental_share": share(
            patched, patched + counts["session.full_recomputes"]
        ),
        "session.full_recomputes": counts["session.full_recomputes"],
        "session.rederived_bits": counts["session.rederived_bits"],
        "incremental.edges_applied": counts["session.delta_edges_applied"],
    }


def apply_update(store, op) -> bool:
    if op.op == "insert":
        return store.add(op.symbol, op.source, op.target)
    return store.remove(op.symbol, op.source, op.target)


class Trickle(Workload):
    name = "trickle"
    why = (
        "Single-tuple store mutations each followed by three standing answers: the sweep "
        "state is patched (insert-resume, DRed), not swept; writes beside reads."
    )

    def build(self) -> None:
        edges = 1_000 if self.ctx.smoke else 9_000
        # A fixed length (the stream's bytes depend on it): about three times
        # the steps a pass of the default run completes on the seed code.
        self.max_steps = 60 if self.ctx.smoke else 800
        db = make_graph(FAMILY, self.ctx.seed, edges=edges)
        labels = sorted(db.domain())
        self.extensions = elementary_extensions(db)
        self.theory = Theory.trivial(set(labels))
        self.views = RPQViews({f"v_{label}": label for label in labels})
        # Three standing queries: the two- and three-step shapes and a union.
        self.queries = fill_templates(BOUNDED_TEMPLATES[1:4], labels)
        self.stream = make_update_stream(
            FAMILY, self.ctx.seed, count=self.max_steps, base=self.extensions,
            delete_fraction=0.2,
        )
        self.sizes = {
            "family": FAMILY,
            "nodes": db.num_nodes,
            "edges": db.num_edges,
            "queries": self.queries,
            "delete_fraction": 0.2,
            "max_steps_per_pass": self.max_steps,
        }

    def _session(self, **knobs):
        store = MaterializedViewStore(self.extensions)
        return store, QuerySession(store, self.views, self.theory, **knobs)

    def open_pass(self, log: PassLog):
        store, session = self._session(backend="auto", incremental=True)
        session.warm(self.queries)
        for query in self.queries:
            session.answer_sorted(query)
        return store, session

    def _step(self, store, session, op) -> list:
        apply_update(store, op)
        return [session.answer_sorted(query) for query in self.queries]

    def run_pass(self, state, log: PassLog, budget_s: float) -> None:
        store, session = state
        for step, op in enumerate(self.stream):
            if log.busy_s >= budget_s:
                break
            answers = log.time(step, op.op, self._step, store, session, op)
            if answers is not None:
                log.record(
                    f"step/{step}",
                    b"\x00".join(answer_bytes(pairs) for pairs in answers),
                )

    def close_pass(self, state, log: PassLog) -> None:
        _store, session = state
        count_session(log, session)
        session.close()

    def verify(self, logs: list[PassLog]) -> list[Failure]:
        """Every 20th step and each pass's last one against a
        non-incremental, big-int session fed the same stream."""
        failures: list[Failure] = []
        last = {len(log.samples) + len(log.errors) - 1 for log in logs}
        store, session = self._session(backend="bigint", incremental=False)
        for step, op in enumerate(self.stream[: max(last) + 1]):
            apply_update(store, op)
            if step % ORACLE_EVERY and step not in last:
                continue
            expected = digest(
                b"\x00".join(
                    answer_bytes(session.answer_sorted(query)) for query in self.queries
                )
            )
            for log in logs:
                if log.digests.get(f"step/{step}", expected) != expected:
                    failures.append(
                        Failure(log.index, step, "answers differ from the full-recompute oracle")
                    )
        return failures

    def counters(self, logs: list[PassLog]) -> dict[str, float]:
        return session_counters(sum_counts(logs))
