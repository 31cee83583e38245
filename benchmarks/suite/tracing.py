"""Outside-in span tracing for the benchmark suite.

The suite measures the program without editing it: :class:`Tracer`
replaces each public callable named in :data:`SPAN_TARGETS` with a
wrapper that records one span per call — in the callable's defining
module (or class) *and* in every loaded ``repro.*`` namespace that
imported it by name — and puts the originals back on
:meth:`Tracer.uninstall`.  Spans stay in memory until the run ends.

A span is ``(name, start, end, parent, thread, op_index)``: ``parent``
is the index of the enclosing span on the same thread (``-1`` for a
root), ``op_index`` the benchmark op the harness had announced when the
span opened.  :meth:`Tracer.finish` afterwards hangs the tenant thread's
``server.run_*`` roots under the ``client.request`` span that caused
them, so one request is one tree.

The span names are the vocabulary later in-program spans
(``repro/obs.py``, ROADMAP item 1) must reuse unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# span name -> (module, owner, attribute); owner is None for a module-level
# function, a class name, or a tuple of class names sharing the span.
SPAN_TARGETS: dict[str, tuple] = {
    "parser.parse": ("repro.regex.parser", None, "parse"),
    "rewriter.maximal_rewriting": ("repro.core.rewriter", None, "maximal_rewriting"),
    "rewriter.build_ad": ("repro.core.rewriter", None, "build_ad"),
    "rewriter.build_a_prime": ("repro.core.rewriter", None, "build_a_prime"),
    "compiled.determinize_dense": ("repro.automata.compiled", None, "determinize_dense"),
    "compiled.minimize_dense": ("repro.automata.compiled", None, "minimize_dense"),
    "compiled.view_transition_masks": (
        "repro.automata.compiled", None, "view_transition_masks",
    ),
    "compiled.rewrite_sweep": ("repro.automata.compiled", None, "rewrite_sweep"),
    "rewriting.rewrite_rpq": ("repro.rpq.rewriting", None, "rewrite_rpq"),
    "plancache.get": ("repro.service.plancache", "RewritePlanCache", "get"),
    "plancache.get_or_build": (
        "repro.service.plancache", "RewritePlanCache", "get_or_build",
    ),
    "engine.compile_automaton": ("repro.rpq.engine", None, "compile_automaton"),
    "engine.evaluate_all_sorted": ("repro.rpq.engine", None, "evaluate_all_sorted"),
    "engine.evaluate_single_source": (
        "repro.rpq.engine", None, "evaluate_single_source",
    ),
    "engine.evaluate_pair": ("repro.rpq.engine", None, "evaluate_pair"),
    "csr.from_graph": ("repro.rpq.csr", "CSRSnapshot", "from_graph"),
    "csr.gather_plan": ("repro.rpq.csr", "CSRSnapshot", "gather_plan"),
    "csr.adjacency_bitmap": ("repro.rpq.csr", "CSRSnapshot", "adjacency_bitmap"),
    "csr.save": ("repro.rpq.csr", "CSRSnapshot", "save"),
    "csr.load": ("repro.rpq.csr", "CSRSnapshot", "load"),
    "kernel.sweep_window": ("repro.rpq.kernel", None, "sweep_window"),
    "kernel.decode_matrix": ("repro.rpq.kernel", None, "decode_matrix"),
    "kernel.all_pairs_ids": ("repro.rpq.kernel", None, "all_pairs_ids"),
    "incremental.make_delta_state": ("repro.rpq.incremental", None, "make_delta_state"),
    "incremental.apply_insertions": (
        "repro.rpq.incremental", ("DeltaSweepState", "NumpyDeltaSweepState"),
        "apply_insertions",
    ),
    "incremental.apply_deletions": (
        "repro.rpq.incremental", ("DeltaSweepState", "NumpyDeltaSweepState"),
        "apply_deletions",
    ),
    "incremental.answers": (
        "repro.rpq.incremental", ("DeltaSweepState", "NumpyDeltaSweepState"),
        "answers",
    ),
    "incremental.answers_sorted": (
        "repro.rpq.incremental", ("DeltaSweepState", "NumpyDeltaSweepState"),
        "answers_sorted",
    ),
    "sharded.refresh": ("repro.rpq.sharded", "ParallelEvaluator", "refresh"),
    "sharded.evaluate_all_sorted": (
        "repro.rpq.sharded", "ParallelEvaluator", "evaluate_all_sorted",
    ),
    "store.add": ("repro.service.store", "MaterializedViewStore", "add"),
    "store.remove": ("repro.service.store", "MaterializedViewStore", "remove"),
    "store.delta_since": ("repro.service.store", "MaterializedViewStore", "delta_since"),
    "session.warm": ("repro.service.session", "QuerySession", "warm"),
    "session.answer_sorted": ("repro.service.session", "QuerySession", "answer_sorted"),
    "session.answer_from": ("repro.service.session", "QuerySession", "answer_from"),
    "session.answer_pair": ("repro.service.session", "QuerySession", "answer_pair"),
    "server.run_query": ("repro.service.server", "Tenant", "run_query"),
    "server.run_update": ("repro.service.server", "Tenant", "run_update"),
    "wal.append": ("repro.service.wal", "WriteAheadLog", "append"),
    "wal.commit": ("repro.service.wal", "WriteAheadLog", "commit"),
    "recovery.write_checkpoint": ("repro.service.recovery", None, "write_checkpoint"),
    "recovery.load_checkpoint": ("repro.service.recovery", None, "load_checkpoint"),
    "recovery.recover_store": ("repro.service.recovery", None, "recover_store"),
}

# Values of a span's op index that are not a timed op's number.
SETUP = -1  # a pass's set-up and warm-up: recorded, not counted
EXTRA = -2  # a traced run's extra measurements: only sharded.* counted
COUNTED = -3  # counted in the layer metrics, outside the timed ops

# The load generator's own root span; opened by the suite, not wrapped.
CLIENT_SPAN = "client.request"
SPAN_NAMES = tuple(SPAN_TARGETS) + (CLIENT_SPAN,)


# Fields of one recorded span (a list, mutated when the span closes).
NAME, START, END, PARENT, THREAD, OP, KIND = range(7)


class Tracer:
    """Records spans around the wrapped callables while installed."""

    def __init__(self) -> None:
        # One list per span, in opening order; ``PARENT`` holds the parent
        # span itself (threads append concurrently, so an index taken at
        # opening time could be off by one) until :meth:`finish` numbers them.
        self.spans: list[list] = []
        self.op_index = SETUP
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, local, clock, tracer = self.spans, self._local, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack, thread = local.state
            except AttributeError:
                stack, thread = local.state = ([], threading.get_ident())
            span = [name, 0.0, 0.0, stack[-1] if stack else None, thread,
                    tracer.op_index, None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def open_root(self, name: str, op_index: int, kind: str) -> list:
        """Open a root span owned by the suite (the client's request).

        Kept off the per-thread stack: the load generator's two lanes
        are coroutines on one thread, so their spans overlap without
        nesting.  ``kind`` is ``"query"`` or ``"update"``.
        """
        span = [name, 0.0, 0.0, None, threading.get_ident(), op_index, kind]
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    @staticmethod
    def close_root(span: list) -> None:
        span[END] = time.perf_counter()

    # -- patching ------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, skip: frozenset[str] = frozenset()) -> None:
        """Wrap every target in :data:`SPAN_TARGETS` not named in ``skip``."""
        for name, (module_name, owners, attr) in SPAN_TARGETS.items():
            if name in skip:
                continue
            module = importlib.import_module(module_name)
            if owners is None:
                original = module.__dict__[attr]
                wrapped = self._wrap(name, original)
                # Every repro namespace that did ``from x import attr``
                # holds its own reference; patch them all.
                for other in list(sys.modules.values()):
                    if (
                        other is not None
                        and getattr(other, "__name__", "").startswith("repro")
                        and other.__dict__.get(attr) is original
                    ):
                        self._set(other, attr, wrapped)
                continue
            for owner_name in (owners,) if isinstance(owners, str) else owners:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                self._set(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def finish(self) -> None:
        """Number the spans, hang each ``server.run_*`` root under its
        ``client.request``, and give every span its root's op index.

        The writer connection sends only updates and the reader only
        queries, one request at a time each, so the client span of the
        matching kind whose interval contains the server span is unique.
        Call once, after the last span closed.
        """
        spans = self.spans
        number = {id(span): index for index, span in enumerate(spans)}
        lanes: dict[str, list[list]] = {"query": [], "update": []}
        for span in spans:
            if span[KIND] is not None:
                lanes[span[KIND]].append(span)
        cursor = {"query": 0, "update": 0}
        for span in spans:
            if span[PARENT] is None and span[NAME].startswith("server.run_"):
                kind = "update" if span[NAME].endswith("update") else "query"
                lane, at = lanes[kind], cursor[kind]
                # Both lists are in start order: skip requests that ended
                # before this server span began.
                while at < len(lane) and lane[at][END] < span[START]:
                    at += 1
                cursor[kind] = at
                if at < len(lane) and lane[at][START] <= span[START]:
                    span[PARENT] = lane[at]
            if span[PARENT] is not None:
                span[OP] = span[PARENT][OP]
        for span in spans:
            span[PARENT] = -1 if span[PARENT] is None else number[id(span[PARENT])]

    def _counted(self, span: list) -> bool:
        """Spans of timed ops count; of the traced run's extra
        measurements only the sharded evaluator's own."""
        op = span[OP]
        return (
            op >= 0
            or op == COUNTED
            or (op == EXTRA and span[NAME].startswith("sharded."))
        )

    def self_times(self) -> list[float]:
        """Per span: duration minus the part its child spans cover."""
        selfs = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] != -1:
                selfs[span[PARENT]] -= span[END] - span[START]
        return selfs

    def layer_metrics(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` for every span name."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            if self._counted(span):
                calls[span[NAME]] += 1
                self_s[span[NAME]] += own
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
        return metrics

    def seconds(self, name: str | None = None) -> float:
        """Total duration of the timed ops' spans called ``name``
        (``None``: of their root spans)."""
        return sum(
            span[END] - span[START]
            for span in self.spans
            if span[OP] >= 0
            and (span[PARENT] == -1 if name is None else span[NAME] == name)
        )

    def span_cost_seconds(self, calls: int = 20_000) -> float:
        """What one span costs the traced program: a wrapped no-op against
        the bare one, fastest of five timings each.  The spans pile up
        as they do in a traced pass, so list growth and the collector's
        work on them are in the figure."""

        def noop() -> None:
            pass

        scratch = Tracer()
        wrapped = scratch._wrap("noop", noop)
        bare_s = traced_s = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            middle = time.perf_counter()
            for _ in range(calls):
                wrapped()
            bare_s = min(bare_s, middle - start)
            traced_s = min(traced_s, time.perf_counter() - middle)
        return max(traced_s - bare_s, 0.0) / calls

    def op_spans(self) -> int:
        """How many spans the timed ops opened."""
        return sum(1 for span in self.spans if span[OP] >= 0)

    def write_jsonl(self, path, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "thread": span[THREAD],
                            "workload": workload,
                            "op_index": span[OP],
                        }
                    )
                )
                handle.write("\n")
