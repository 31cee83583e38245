"""Compiled RPQ evaluation engine (Definition 4.2, the fast path).

The naive evaluator (:func:`repro.rpq.evaluation.naive_evaluate`) runs one
BFS of the (node, automaton-state) product per source node and decides
symbol-vs-label matching with a Python closure on every (edge, symbol)
pair.  This module replaces that hot path with three ideas drawn from the
RPQ-at-scale literature (shared reachability computation, label-indexed
adjacency, frontier batching):

1. **Compile once.**  :class:`CompiledAutomaton` precomputes, per NFA
   state, a ``label -> next-states`` table restricted to the labels that
   occur in the database, formula symbols resolved against the theory at
   compile time, useless states trimmed, results memoized.  This and the
   all-pairs sweep live in :mod:`repro.sweep` (the rewriting construction
   runs them over ``Ad``) and are re-exported here.

2. **Index by label.**  :class:`~repro.rpq.graphdb.GraphDB` stores its
   edges label-first over dense integer node ids with a mirrored reverse
   index, so a whole frontier is pushed through one label with a few bulk
   set unions (``successors_bulk`` / ``predecessors_bulk``).

3. **Macro-frontier sweeps.**  :func:`evaluate_all` answers the full
   all-pairs query in *one* semi-naive sweep shared across all |V|
   sources (:mod:`repro.sweep.bigint`, or the block kernel);
   :func:`evaluate_single_source` is the single-source variant
   (frontiers are plain node sets) and :func:`evaluate_pair` decides a
   single pair with a bidirectional search that alternately grows the
   smaller of a forward frontier (from the source, via the transition
   table) and a backward frontier (from the target, via the reversed
   table and the graph's reverse-edge index).

The naive evaluator remains available as the reference oracle for
differential testing; both must agree on every (database, query, theory)
triple.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import numpy as np

from ..sweep import kernel as _kernel
from ..sweep.bigint import _seed_all_pairs, _sweep_to_fixpoint
from ..sweep.table import (
    CompiledAutomaton,
    compile_automaton,
    compile_cache_clear,
    compile_cache_info,
)
from .graphdb import GraphDB

__all__ = [
    "CompiledAutomaton",
    "compile_automaton",
    "compile_cache_info",
    "compile_cache_clear",
    "evaluate_all",
    "evaluate_all_sorted",
    "evaluate_single_source",
    "evaluate_pair",
    "resolve_backend",
    "NUMPY_BACKEND_MIN_EDGES",
]

Pair = tuple[Hashable, Hashable]

# Auto backend selection: below this edge count the big-int sweep's tiny
# constant factors win; at or above it the vectorized numpy kernel
# (:mod:`repro.sweep.kernel`) amortizes its setup and pulls ahead.
# ``benchmarks/bench_vectorized_sweep.py`` gates both ends of that claim:
# a sparse cell right at the threshold (9 000-edge grid and scale-free
# graphs, numpy 4-12x, gated >= 2.7x) and the dense 1.5M-edge cell (>= 7x).
NUMPY_BACKEND_MIN_EDGES = 8192

_BACKENDS = ("auto", "bigint", "numpy")


def resolve_backend(db: GraphDB, backend: str = "auto") -> str:
    """Pick the concrete all-pairs sweep backend for ``db``.

    ``"bigint"`` and ``"numpy"`` are honoured as given (the big-int
    sweep stays available as the differential oracle for the kernel);
    ``"auto"`` selects numpy once the graph is large enough for the
    vectorized sweep to win (``NUMPY_BACKEND_MIN_EDGES``).
    """
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {_BACKENDS}"
        )
    if backend != "auto":
        return backend
    return "numpy" if db.num_edges >= NUMPY_BACKEND_MIN_EDGES else "bigint"


# ----------------------------------------------------------------------
# Evaluation sweeps
# ----------------------------------------------------------------------


def evaluate_all(
    db: GraphDB, compiled: CompiledAutomaton, *, backend: str = "auto"
) -> frozenset[Pair]:
    """All pairs ``(x, y)`` with a matching path, in one shared sweep.

    Semi-naive evaluation of the product reachability relation: for each
    automaton state we keep, per node id, the set of *source* ids known to
    reach that (state, node) product point, and the frontier carries only
    the newly added sources, so each source crosses each product edge at
    most once.  Source sets are packed into Python integers used as
    bitmasks — union, difference, and emptiness checks on whole source
    sets are then single C-level big-int operations, which is what lets
    one sweep genuinely outrun |V| independent BFS runs.

    See :func:`evaluate_all_sorted` for the deterministically ordered
    variant of the same answer set.
    """
    return frozenset(evaluate_all_sorted(db, compiled, backend=backend))


def evaluate_all_sorted(
    db: GraphDB, compiled: CompiledAutomaton, *, backend: str = "auto"
) -> list[Pair]:
    """All answer pairs, sorted by ``(node_id(x), node_id(y))``.

    **Ordering guarantee:** the sort key is the database's dense node id
    — its *interning order* — never the nodes' own comparison or hash
    order.  The resulting list is therefore identical across processes
    (no ``PYTHONHASHSEED`` dependence), across shard and worker counts
    (:class:`repro.rpq.sharded.ParallelEvaluator` honours the same
    contract), and for the naive oracle once its answers are sorted with
    the same key — which is what lets differential harnesses compare
    whole lists byte for byte instead of set-compare only.
    """
    return db.pairs_at(*_all_pairs_ids(db, compiled, backend))


def _all_pairs_ids(
    db: GraphDB,
    compiled: CompiledAutomaton,
    backend: str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """The all-pairs sweep, decoded to ``(sources, targets)`` dense-id
    arrays in ``(source_id, target_id)`` order by ``kernel.decode_matrix``
    on either backend (the big-int rows reach it through
    ``kernel.decode_masks``).  The *pair sets* are bit-identical by the
    kernel's exactness contract.
    """
    if resolve_backend(db, backend) == "numpy":
        return _kernel.all_pairs_ids(db.to_csr(), compiled)
    reached, frontier, answer_masks = _seed_all_pairs(db, compiled)
    _sweep_to_fixpoint(db, compiled, reached, frontier, answer_masks)
    return _kernel.decode_masks(enumerate(answer_masks), db.num_nodes)


def evaluate_single_source(
    db: GraphDB, compiled: CompiledAutomaton, source: Hashable
) -> frozenset[Hashable]:
    """All ``y`` with a matching path from ``source`` (forward sweep).

    Raises ``KeyError`` if ``source`` is not a node of ``db``.
    """
    source_id = db.node_id(source)
    reached: dict[int, set[int]] = {
        state: {source_id} for state in compiled.initials
    }
    frontier: dict[int, set[int]] = {
        state: {source_id} for state in compiled.initials
    }
    result: set[int] = set()
    if compiled.accepts_epsilon:
        result.add(source_id)
    finals = compiled.finals
    while frontier:
        frontier = _expand_step(
            compiled.table, db.successors_bulk, frontier, reached, result, finals
        )
    return frozenset(db.node_at(v) for v in result)


def _expand_step(
    table: Mapping[int, Mapping[Hashable, frozenset[int]]],
    expand_bulk,
    frontier: Mapping[int, set[int]],
    reached: dict[int, set[int]],
    hits: set[int] | None = None,
    hit_states: frozenset[int] = frozenset(),
) -> dict[int, set[int]]:
    """One macro-frontier expansion in either direction.

    Forward passes ``(compiled.table, db.successors_bulk)``, backward
    ``(compiled.rtable, db.predecessors_bulk)`` — the delta/seen
    bookkeeping is direction-agnostic.  Nodes newly reaching a state in
    ``hit_states`` are accumulated into ``hits`` when given.
    """
    next_frontier: dict[int, set[int]] = {}
    for state, nodes in frontier.items():
        row = table.get(state)
        if not row:
            continue
        for label, adjacent_states in row.items():
            targets = expand_bulk(nodes, label)
            if not targets:
                continue
            for next_state in adjacent_states:
                seen = reached.get(next_state)
                if seen is None:
                    delta = set(targets)
                    reached[next_state] = set(targets)
                else:
                    delta = targets - seen
                    if not delta:
                        continue
                    seen |= delta
                bucket = next_frontier.get(next_state)
                if bucket is None:
                    next_frontier[next_state] = delta
                else:
                    bucket |= delta
                if hits is not None and next_state in hit_states:
                    hits |= delta
    return next_frontier


def _meets(
    left: Mapping[int, set[int]], right: Mapping[int, set[int]]
) -> bool:
    if len(left) > len(right):
        left, right = right, left
    for state, nodes in left.items():
        other = right.get(state)
        if other and not nodes.isdisjoint(other):
            return True
    return False


def evaluate_pair(
    db: GraphDB,
    compiled: CompiledAutomaton,
    source: Hashable,
    target: Hashable,
) -> bool:
    """Is ``(source, target)`` in the answer?  Bidirectional search.

    Grows the cheaper of two frontiers each round — forward from
    ``source`` through ``table``/``successors_bulk``, backward from
    ``target`` through ``rtable``/``predecessors_bulk`` — and succeeds as
    soon as they share a (state, node) product point.  Raises ``KeyError``
    on unknown endpoints.
    """
    source_id = db.node_id(source)
    target_id = db.node_id(target)
    forward: dict[int, set[int]] = {s: {source_id} for s in compiled.initials}
    backward: dict[int, set[int]] = {s: {target_id} for s in compiled.finals}
    if _meets(forward, backward):
        return True
    forward_frontier = {s: set(ns) for s, ns in forward.items()}
    backward_frontier = {s: set(ns) for s, ns in backward.items()}
    while forward_frontier and backward_frontier:
        forward_size = sum(len(ns) for ns in forward_frontier.values())
        backward_size = sum(len(ns) for ns in backward_frontier.values())
        if forward_size <= backward_size:
            forward_frontier = _expand_step(
                compiled.table, db.successors_bulk, forward_frontier, forward
            )
            if _meets(forward_frontier, backward):
                return True
        else:
            backward_frontier = _expand_step(
                compiled.rtable, db.predecessors_bulk, backward_frontier, backward
            )
            if _meets(backward_frontier, forward):
                return True
    return False
