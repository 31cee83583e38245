"""The answering front end: compile once, answer many, over evolving data.

:class:`QuerySession` ties the two fast halves of the repo together into
the regime the ROADMAP targets — a long-lived mediator that owns

* a :class:`~repro.service.store.MaterializedViewStore` (the data),
* a :class:`~repro.service.plancache.RewritePlanCache` (the compiled
  rewrite plans, shared across sessions and process restarts), and
* the RPQ engine's compiled evaluation state (transition tables of each
  rewriting specialized to the store's current label domain, plus
  memoized answers).

The cache-invalidation contract is the point: **data changes invalidate
only evaluation state, never plans — and replayable data changes don't
even invalidate evaluation state, they patch it.**  A plan depends on
(query, views, theory) alone; the per-plan compiled tables depend
additionally on the session's label domain, which is pinned to the view
alphabet at construction — *not* to the labels currently present in the
store, which would shrink whenever a view's last tuple is deleted and
needlessly recompile every plan (and orphan every retained sweep state)
on a delete-then-reinsert; the answer memo depends on the exact store
version and is dropped on any update.  It holds, per (plan, version),
the answer list in the engine's ``(node_id(x), node_id(y))`` order as the
evaluation path produced it — the session never sorts: ``answer_sorted``
returns a copy (all a memo hit costs), ``answer`` the frozenset beside it.
Underneath the memo, each plan's all-pairs sweep state is *retained*
across versions (:class:`~repro.rpq.incremental.DeltaSweepState`):
whatever the store's change log shows since the state's version, the next
all-pairs request patches it in place — insertions resume the semi-naive
sweep, deletions run delete-rederive (DRed) — and reads its sorted decode,
brought up to date from the answer rows the patch wrote: maintenance is
O(delta), a miss adds one copy of the list and one frozenset of it; only
a compacted-away log falls back to the full sweep (sequential or
sharded), bit-identical either way.  Requests come in the three shapes of
the engine:
:meth:`QuerySession.answer` / :meth:`answer_sorted` (all pairs),
:meth:`answer_from` (single source), and :meth:`answer_pair` (one pair,
decided by the bidirectional search without computing the full answer set).

Crash recovery composes with this contract for free.  A store rebuilt
by :mod:`repro.service.recovery` comes back at its pre-crash version
with an *empty* change log whose replay horizon sits at that version
(``delta_since`` answers ``None`` for anything older), so a session
constructed over it — retained sweep state is in-memory and dies with
the process — pays one full sweep per plan on first touch and is then
back on the incremental path; plans themselves never needed recovering,
because the plan cache's persisted entries are data-independent and a
corrupt entry is skipped and recomputed, not fatal.
"""

from __future__ import annotations

import threading
from typing import Hashable, Iterable, Mapping

from ..automata.nfa import NFA
from ..rpq import engine as _engine
from ..rpq.incremental import DeltaSweepState, make_delta_state
from ..rpq.query import QuerySpec
from ..rpq.rewriting import RPQRewritingResult
from ..rpq.sharded import ParallelEvaluator, ShardedEvaluationError
from ..rpq.theory import Theory
from ..rpq.views import RPQViews
from .plancache import RewritePlanCache
from .store import MaterializedViewStore

__all__ = ["QuerySession"]

Pair = tuple[Hashable, Hashable]


class QuerySession:
    """Serves view-based RPQ answers against one store and one view set.

    ``views``/``theory`` fix the mediated schema; ``plans`` may be shared
    between sessions (and, when it has a directory, between processes).
    All answering goes through the current contents of ``store`` — the
    session re-validates its memoized evaluation state against
    ``store.version`` on every request, so interleaved updates and reads
    are always consistent.

    ``parallelism`` (the shard count) switches evaluation onto
    :class:`~repro.rpq.sharded.ParallelEvaluator` when >= 2: the view
    graph's node ids are cut into that many source windows and the
    all-pairs sweep runs per window, on up to ``workers`` processes
    (``workers=1`` runs the same sweeps sequentially — bit-identical
    answers either way).  The evaluator's frozen snapshot is evaluation
    state like any other — it is retaken when ``store.version`` moves and
    never outlives the data it was taken from — but the worker *pool* is
    not: :meth:`~repro.rpq.sharded.ParallelEvaluator.refresh` reuses the
    processes across versions, so a trickle of single-tuple updates does
    not pay a pool spawn per tuple.  If a worker ever fails
    mid-sweep the session logs ``stats["parallel_failures"]``, answers
    the request on the sequential engine, and disables the pool for its
    remaining lifetime — a degraded session stays correct and usable.

    **Thread safety.**  Every public request method runs under one
    re-entrant per-session lock (:attr:`lock`), so concurrent ``answer``
    calls from server handler threads serialize instead of interleaving
    ``_sync_version``, evaluator refresh, and sweep-state patching
    (PR 7's memo-write guard narrowed one such race; the lock closes the
    class).  The lock is re-entrant, so a re-entrant request issued from
    instrumentation inside an answer still works.  The *store* is not
    locked by the session — a writer thread that shares a store with
    live reader threads must mutate it under the same lock::

        with session.lock:
            store.add("v", "x", "y")

    (The serving front end gets this for free by confining each tenant's
    session and store to one executor thread; see
    :mod:`repro.service.server`.)
    """

    def __init__(
        self,
        store: MaterializedViewStore,
        views: RPQViews | Mapping[Hashable, QuerySpec],
        theory: Theory,
        plans: RewritePlanCache | None = None,
        parallelism: int | None = None,
        workers: int = 1,
        incremental: bool = True,
        backend: str = "auto",
    ):
        self.store = store
        self.views = views if isinstance(views, RPQViews) else RPQViews(views)
        self.theory = theory
        self.plans = plans if plans is not None else RewritePlanCache()
        self.parallelism = parallelism
        self.workers = workers
        self.incremental = incremental
        # "auto" | "bigint" | "numpy": which sweep kernel backs all-pairs
        # evaluation (batch, sharded, and incremental alike).  "auto"
        # re-resolves against the store's current size on every state
        # build, so a growing store upgrades to the vectorized kernel at
        # the engine's documented threshold.  Validated eagerly so a
        # typo'd backend fails at construction, not on the first query.
        _engine.resolve_backend(store.graph, backend)
        self.backend = backend
        # The compile domain is the view alphabet, fixed for the session:
        # keying on the *store's* current domain would shrink it when a
        # view's last tuple is deleted, recompiling every plan and
        # orphaning every retained sweep state over a transient blip.
        # Labels outside the rewriting's alphabet never enter a compiled
        # table, and view symbols with momentarily empty extensions just
        # compile to transitions with no matching edges — evaluation
        # results are identical, only cache identity is at stake.
        self._label_domain = frozenset(self.views.symbols)
        # One re-entrant lock serializes all public requests (and any
        # store mutation a co-located writer wraps in it): interleaved
        # answer/update calls from different threads can no longer tear
        # _sync_version / evaluator refresh / sweep-state patching.
        self._lock = threading.RLock()
        self._evaluator: ParallelEvaluator | None = None
        self._evaluator_version = -1
        self._parallel_disabled = False
        # key -> (plan, rewriting-as-NFA); the NFA object is cached so the
        # engine's compilation LRU (keyed on automaton identity) hits on
        # every request instead of recompiling per call.
        self._compiled_plans: dict[str, tuple[RPQRewritingResult, NFA]] = {}
        # query spec -> plan key: views and theory are fixed per session,
        # so the canonical key (fingerprints + sha256) is computed once
        # per distinct query, keeping repeated requests at dict lookups.
        self._plan_keys: dict[Hashable, str] = {}
        # plan key -> (sorted answer list, the same answers as a frozenset)
        self._answers: dict[str, tuple[list[Pair], frozenset[Pair]]] = {}
        self._answers_version = -1
        # plan key -> (retained sweep state, store version it reflects);
        # unlike the answer memo this survives version bumps — that is
        # the whole point: a pure-insert delta advances the state to the
        # new version instead of recomputing it.  The state's storage
        # layout (int rows or block matrices) follows the session backend.
        self._delta_states: dict[str, tuple[DeltaSweepState, int]] = {}
        self.stats = {
            "requests": 0,
            "answer_memo_hits": 0,
            "invalidations": 0,
            "parallel_sweeps": 0,
            "parallel_failures": 0,
            "incremental_updates": 0,
            "incremental_deletes": 0,
            "rederived_bits": 0,
            "full_recomputes": 0,
            "delta_edges_applied": 0,
        }

    @property
    def lock(self) -> threading.RLock:
        """The per-session re-entrant lock.  All request methods take it;
        a thread mutating this session's store while other threads read
        through the session should hold it around the mutation."""
        return self._lock

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def plan(self, query: QuerySpec) -> RPQRewritingResult:
        """The compiled rewrite plan for ``query`` (built at most once)."""
        with self._lock:
            return self._plan_entry(query)[1][0]

    def is_exact(self, query: QuerySpec) -> bool:
        """Is the plan's rewriting exact (answers complete, Thm 4.1)?"""
        return self.plan(query).is_exact()

    def warm(self, queries: Iterable[QuerySpec]) -> None:
        """Pre-build plans for ``queries`` (e.g. at service startup)."""
        with self._lock:
            for query in queries:
                self._plan_entry(query)

    def _plan_entry(
        self, query: QuerySpec
    ) -> tuple[str, tuple[RPQRewritingResult, NFA]]:
        # Every QuerySpec shape (str, Regex, NFA, RPQ) is hashable; an
        # out-of-contract spec fails loudly here rather than being keyed
        # by a recyclable id().
        key = self._plan_keys.get(query)
        if key is None:
            key = self.plans.key(query, self.views, self.theory)
            self._plan_keys[query] = key
        entry = self._compiled_plans.get(key)
        if entry is None:
            plan = self.plans.get_or_build(query, self.views, self.theory, key=key)
            entry = (plan, plan.automaton.to_nfa())
            self._compiled_plans[key] = entry
        return key, entry

    def _compiled(self, nfa: NFA) -> _engine.CompiledAutomaton:
        # plain_symbols: the rewriting is a language over Sigma_Q and view
        # symbols on the store's graph are matched by equality (``ans``).
        return _engine.compile_automaton(
            nfa, None, self._label_domain, plain_symbols=True
        )

    def _known_node(self, node: Hashable) -> bool:
        """Is ``node`` part of the store's view graph?  Checked up front
        so unknown-endpoint requests return empty/false by contract,
        while genuine evaluation errors still propagate (the engine's
        own ``KeyError`` is not blanket-caught)."""
        try:
            self.store.graph.node_id(node)
        except KeyError:
            return False
        return True

    def _sync_version(self) -> int:
        """Align the answer memo with the store's current version.

        Returns the version synced against, so callers that evaluate
        *after* syncing can tell whether the store (or a re-entrant
        request that re-synced the memo) moved underneath them before
        they memoize — see :meth:`_memoized`'s write guard.
        """
        version = self.store.version
        if version != self._answers_version:
            if self._answers:
                self.stats["invalidations"] += 1
            self._answers.clear()
            self._answers_version = version
        return version

    # ------------------------------------------------------------------
    # Sharded evaluation (the ``parallelism`` knob)
    # ------------------------------------------------------------------
    def _parallel(self) -> ParallelEvaluator | None:
        """The shard evaluator for the store's *current* version, or
        ``None`` when parallel evaluation is off (no knob, shard count
        < 2, or disabled after a worker failure).  Its snapshot is
        evaluation state and follows the same invalidation contract as
        memoized answers — retaken whenever the store's version moves —
        but the evaluator object (and its worker pool) is kept:
        :meth:`~repro.rpq.sharded.ParallelEvaluator.refresh` ships the
        new snapshot to the existing workers instead of respawning
        processes per version bump."""
        if self._parallel_disabled or not self.parallelism or self.parallelism < 2:
            return None
        version = self.store.version
        if self._evaluator is None:
            self._evaluator = ParallelEvaluator(
                self.store.graph,
                num_shards=self.parallelism,
                workers=self.workers,
                backend=self.backend,
            )
            self._evaluator_version = version
        elif self._evaluator_version != version:
            self._evaluator.refresh()
            self._evaluator_version = version
        return self._evaluator

    def _evaluate(self, parallel_call, sequential_call):
        """Run on the shard evaluator when enabled; on any mid-sweep
        worker failure fall back to the sequential engine for this and
        all future requests (the session stays usable, just undegraded
        to single-process evaluation)."""
        evaluator = self._parallel()
        if evaluator is not None:
            try:
                result = parallel_call(evaluator)
                self.stats["parallel_sweeps"] += 1
                return result
            except ShardedEvaluationError:
                self.stats["parallel_failures"] += 1
                self._parallel_disabled = True
                evaluator.close()
                self._evaluator = None
        return sequential_call()

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def _memoized(self, query: QuerySpec) -> tuple[list[Pair], frozenset[Pair]]:
        """The memo entry ``(sorted answer list, the same answers as a
        frozenset)`` for ``query`` at the store's current version, evaluated
        on a miss: between updates a repeated request is a dictionary lookup."""
        self.stats["requests"] += 1
        synced = self._sync_version()
        key, (_plan, nfa) = self._plan_entry(query)
        entry = self._answers.get(key)
        if entry is not None:
            self.stats["answer_memo_hits"] += 1
            return entry
        compiled = self._compiled(nfa)

        def read_state() -> tuple[list[Pair], frozenset[Pair]]:
            # The set could wait for the first answer(); it is read with the
            # list because the benchmark suite pins the span
            # incremental.answers under session.answer_sorted
            # (REACHED["trickle"], frozen): one frozenset per miss.
            state = self._sequential_all_pairs(key, compiled)
            return state.answers_sorted(), state.answers()

        entry = self._evaluate(
            lambda evaluator: self._parallel_all_pairs(evaluator, compiled),
            read_state,
        )
        # Memoize only when neither the store nor the memo's version
        # tag moved while we were evaluating.  The lock serializes
        # *threads*, but a same-thread re-entrant request (this is an
        # RLock) or a mutation issued from instrumentation inside
        # _evaluate can still move the store mid-call: without the
        # guard such a call would file answers computed against the
        # *old* graph under the *new* version — and every later call
        # at that version would serve the stale answers.
        if self.store.version == synced and self._answers_version == synced:
            self._answers[key] = entry
        return entry

    def answer(self, query: QuerySpec) -> frozenset[Pair]:
        """All pairs in ``ans(rewriting, store)`` at the current version:
        :meth:`answer_sorted`'s answers as a frozenset."""
        with self._lock:
            return self._memoized(query)[1]

    def answer_sorted(self, query: QuerySpec) -> list[Pair]:
        """All answer pairs sorted by ``(node_id(x), node_id(y))``.

        The engine's documented deterministic order (the store graph's
        interning order), so two sessions over equal stores — incremental
        or not, sharded or not — can be compared byte for byte.  The list
        is a copy of the memoized one: the caller may keep or mutate it.
        """
        with self._lock:
            return list(self._memoized(query)[0])

    def _parallel_all_pairs(
        self, evaluator: ParallelEvaluator, compiled: _engine.CompiledAutomaton
    ) -> tuple[list[Pair], frozenset[Pair]]:
        """All pairs on the sharded tier.  Deltas are *not* absorbed
        here: the snapshot is retaken per store version anyway, so
        every parallel answer is a full (windowed) sweep."""
        answers = evaluator.evaluate_all_sorted(compiled)
        self.stats["full_recomputes"] += 1
        return answers, frozenset(answers)

    def _sequential_all_pairs(
        self, key: str, compiled: _engine.CompiledAutomaton
    ) -> DeltaSweepState:
        """The delta-maintained sweep state for ``key``, advanced to the
        store's current version.

        Any replayable delta is absorbed in place: insertions resume the
        fixpoint from the inserted tuples
        (:meth:`~repro.rpq.incremental.DeltaSweepState.apply_insertions`),
        deletions run delete-rederive
        (:meth:`~repro.rpq.incremental.DeltaSweepState.apply_deletions`)
        — insertions first, since over-delete reads the live graph and
        then also cleans up after tuples inserted and deleted within the
        same delta window.  Only a log too stale to replay
        (``delta_since`` returning ``None``) or a changed compiled
        automaton drops the state and rebuilds it with a full sweep.
        With ``incremental=False`` every call is a full rebuild and
        nothing is retained.
        """
        version = self.store.version
        graph = self.store.graph
        entry = self._delta_states.get(key) if self.incremental else None
        if entry is not None:
            state, state_version = entry
            if state.compiled is compiled and state.db is graph:
                if state_version == version:
                    return state
                delta = self.store.delta_since(state_version)
                if delta is not None:
                    if delta.insertions:
                        state.apply_insertions(
                            (source, symbol, target)
                            for symbol, source, target in delta.insertions
                        )
                    if delta.deletions:
                        rederived_before = state.rederived_bits
                        state.apply_deletions(
                            (source, symbol, target)
                            for symbol, source, target in delta.deletions
                        )
                        self.stats["incremental_deletes"] += len(
                            delta.deletions
                        )
                        self.stats["rederived_bits"] += (
                            state.rederived_bits - rederived_before
                        )
                    self.stats["incremental_updates"] += 1
                    self.stats["delta_edges_applied"] += delta.num_changes
                    self._delta_states[key] = (state, version)
                    return state
        state = make_delta_state(graph, compiled, self.backend)
        self.stats["full_recomputes"] += 1
        if self.incremental:
            self._delta_states[key] = (state, version)
        return state

    def answer_from(self, query: QuerySpec, source: Hashable) -> frozenset[Hashable]:
        """All ``y`` with ``(source, y)`` in the answer (single-source sweep).

        A node the store has never seen is not part of the view graph, so
        it contributes no answers (matching :meth:`answer`, whose pairs
        only ever mention stored nodes) — unlike the raw engine, the
        session does not raise on unknown nodes.
        """
        with self._lock:
            self.stats["requests"] += 1
            self._sync_version()
            _key, (_plan, nfa) = self._plan_entry(query)
            if not self._known_node(source):
                return frozenset()
            compiled = self._compiled(nfa)
            return self._evaluate(
                lambda evaluator: evaluator.evaluate_single_source(
                    compiled, source
                ),
                lambda: _engine.evaluate_single_source(
                    self.store.graph, compiled, source
                ),
            )

    def answer_pair(
        self, query: QuerySpec, source: Hashable, target: Hashable
    ) -> bool:
        """Is ``(source, target)`` in the answer?  Bidirectional search."""
        with self._lock:
            self.stats["requests"] += 1
            self._sync_version()
            _key, (_plan, nfa) = self._plan_entry(query)
            if not (self._known_node(source) and self._known_node(target)):
                return False
            compiled = self._compiled(nfa)
            return self._evaluate(
                lambda evaluator: evaluator.evaluate_pair(
                    compiled, source, target
                ),
                lambda: _engine.evaluate_pair(
                    self.store.graph, compiled, source, target
                ),
            )

    def close(self) -> None:
        """Release evaluation state: the shard evaluator's worker pool
        (when parallelism is on), every retained sweep state and the
        answer memo; plans are kept.  Idempotent, and the session stays
        usable: the next request per plan is one full recompute."""
        with self._lock:
            if self._evaluator is not None:
                self._evaluator.close()
                self._evaluator = None
                self._evaluator_version = -1
            self._delta_states.clear()
            self._answers.clear()
            self._answers_version = -1

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def answer_many(
        self, queries: Iterable[QuerySpec]
    ) -> list[frozenset[Pair]]:
        """Answer a batch of queries; the i-th result matches ``queries[i]``.

        Plans, compiled tables, and (between updates) answer sets are all
        shared, so a batch retains exactly one construction per distinct
        query across the session's lifetime.
        """
        with self._lock:
            return [self.answer(query) for query in queries]

    def __repr__(self) -> str:
        parallel = ""
        if self.parallelism and self.parallelism >= 2:
            state = "off" if self._parallel_disabled else "on"
            parallel = (
                f", parallel={state}(shards={self.parallelism}, "
                f"workers={self.workers})"
            )
        return (
            f"QuerySession(views={list(self.views.symbols)}, "
            f"plans={len(self._compiled_plans)}, "
            f"store_version={self.store.version}{parallel})"
        )
