"""Compiled RPQ evaluation engine (Definition 4.2, the fast path).

The naive evaluator (:func:`repro.rpq.evaluation.naive_evaluate`) runs one
BFS of the (node, automaton-state) product per source node and decides
symbol-vs-label matching with a Python closure on every (edge, symbol)
pair.  This module replaces that hot path with three ideas drawn from the
RPQ-at-scale literature (shared reachability computation, label-indexed
adjacency, frontier batching):

1. **Compile once.**  :class:`CompiledAutomaton` precomputes, per NFA
   state, a ``label -> next-states`` table restricted to the labels that
   actually occur in the database.  :class:`~repro.rpq.formulas.Formula`
   symbols are resolved against the :class:`~repro.rpq.theory.Theory`
   exactly once, at compile time, so the inner loop never evaluates a
   formula.  States that cannot lie on an accepting run are trimmed
   (:func:`_trim_useless_states` — complete rewriting DFAs carry a dead
   sink that would otherwise make the product sweep quadratic in the
   graph).  Compilation results are memoized in a small LRU cache keyed
   on (automaton, theory, label domain).

2. **Index by label.**  :class:`~repro.rpq.graphdb.GraphDB` stores its
   edges label-first over dense integer node ids with a mirrored reverse
   index, so a whole frontier is pushed through one label with a few bulk
   set unions (``successors_bulk`` / ``predecessors_bulk``).

3. **Macro-frontier sweeps.**  :func:`evaluate_all` answers the full
   all-pairs query in *one* semi-naive sweep: the BFS frontier maps each
   (state, node) to the *set of source nodes* newly known to reach it, and
   each round pushes those source sets across label-indexed edges in bulk.
   Every source is added to a given (state, node) cell at most once, so
   the work is shared across all |V| sources instead of being redone per
   source.  :func:`evaluate_single_source` is the single-source variant
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

from collections import OrderedDict
from typing import Hashable, Iterable, Mapping

from ..automata.nfa import NFA
from .formulas import Formula
from .graphdb import GraphDB
from .theory import Theory

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
# (:mod:`repro.rpq.kernel`) amortizes its setup and pulls ahead.
# ``benchmarks/bench_vectorized_sweep.py`` gates both ends of that claim:
# a sparse cell right at the threshold (9 000-edge grid and scale-free
# graphs, numpy >= 1.5x) and the dense 1.5M-edge cell (>= 10x).
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


class CompiledAutomaton:
    """An epsilon-free NFA specialized to a database's label domain.

    ``table[state][label]`` is the frozenset of successor states reached by
    reading an edge with that concrete label — formula symbols have already
    been expanded to the satisfying labels, and labels absent from the
    database have been dropped.  ``rtable`` is the same relation reversed
    (``rtable[state][label]`` = predecessor states), used by the backward
    half of the bidirectional search.
    """

    __slots__ = (
        "table",
        "rtable",
        "initials",
        "finals",
        "accepts_epsilon",
        "num_states",
    )

    def __init__(
        self,
        table: dict[int, dict[Hashable, frozenset[int]]],
        initials: frozenset[int],
        finals: frozenset[int],
    ):
        self.table = table
        self.initials = initials
        self.finals = finals
        self.accepts_epsilon = bool(initials & finals)
        rtable: dict[int, dict[Hashable, set[int]]] = {}
        states = set(initials) | set(finals)
        for state, row in table.items():
            states.add(state)
            for label, next_states in row.items():
                states |= next_states
                for next_state in next_states:
                    rtable.setdefault(next_state, {}).setdefault(
                        label, set()
                    ).add(state)
        self.num_states = len(states)
        self.rtable: dict[int, dict[Hashable, frozenset[int]]] = {
            state: {label: frozenset(srcs) for label, srcs in row.items()}
            for state, row in rtable.items()
        }

    def __repr__(self) -> str:
        return (
            f"CompiledAutomaton(states={self.num_states}, "
            f"labels={sorted(map(repr, {l for r in self.table.values() for l in r}))})"
        )


# ----------------------------------------------------------------------
# Compilation + LRU cache
# ----------------------------------------------------------------------

_CACHE_MAXSIZE = 128
_cache: OrderedDict[tuple, CompiledAutomaton] = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def compile_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the compilation cache (for tests/ops)."""
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "size": len(_cache),
        "maxsize": _CACHE_MAXSIZE,
    }


def compile_cache_clear() -> None:
    """Empty the compilation cache and reset its hit/miss counters —
    used by tests and benchmarks that must measure or assert cold-path
    behaviour (a serving process never needs to call this)."""
    _cache.clear()
    global _cache_hits, _cache_misses
    _cache_hits = 0
    _cache_misses = 0


def compile_automaton(
    nfa: NFA,
    theory: Theory | None,
    labels: Iterable[Hashable],
    plain_symbols: bool = False,
) -> CompiledAutomaton:
    """Specialize ``nfa`` to the concrete edge-label domain ``labels``.

    Formula symbols are resolved through ``theory`` (required if any are
    present, unless ``plain_symbols`` forces the paper's ``ans`` semantics
    where every symbol — formula-valued or not — is matched by equality).
    Results are memoized per (automaton identity, theory identity, label
    domain, symbol discipline); ``NFA`` and ``Theory`` instances are
    immutable, so identity keying is sound.
    """
    global _cache_hits, _cache_misses
    label_domain = labels if isinstance(labels, frozenset) else frozenset(labels)
    key = (nfa, theory, label_domain, plain_symbols)
    cached = _cache.get(key)
    if cached is not None:
        _cache_hits += 1
        _cache.move_to_end(key)
        return cached
    _cache_misses += 1

    if not plain_symbols:
        formula_symbols = [s for s in nfa.alphabet if isinstance(s, Formula)]
        if formula_symbols and theory is None:
            raise ValueError(
                "query uses formulae; a Theory is required to evaluate it"
            )
    if nfa.has_epsilon_moves():
        nfa = nfa.without_epsilon()

    satisfying: dict[Formula, frozenset[Hashable]] = {}
    table: dict[int, dict[Hashable, frozenset[int]]] = {}
    for state, row in nfa.compiled_rows().items():
        compiled_row: dict[Hashable, set[int]] = {}
        for symbol, next_states in row.items():
            if not plain_symbols and isinstance(symbol, Formula):
                matched = satisfying.get(symbol)
                if matched is None:
                    matched = theory.satisfying(symbol) & label_domain
                    satisfying[symbol] = matched
            else:
                matched = (symbol,) if symbol in label_domain else ()
            for label in matched:
                targets = compiled_row.get(label)
                if targets is None:
                    compiled_row[label] = set(next_states)
                else:
                    targets |= next_states
        if compiled_row:
            table[state] = {
                label: frozenset(targets)
                for label, targets in compiled_row.items()
            }
    table, initials, finals = _trim_useless_states(
        table, nfa.initials, nfa.finals
    )
    compiled = CompiledAutomaton(table, initials, finals)
    _cache[key] = compiled
    if len(_cache) > _CACHE_MAXSIZE:
        _cache.popitem(last=False)
    return compiled


def _trim_useless_states(
    table: dict[int, dict[Hashable, frozenset[int]]],
    initials: frozenset[int],
    finals: frozenset[int],
) -> tuple[
    dict[int, dict[Hashable, frozenset[int]]], frozenset[int], frozenset[int]
]:
    """Drop states that cannot lie on any accepting run.

    Rewriting DFAs arrive *complete* (the Theorem 2.2 complementation
    needs totality), so they carry a dead sink looping on every symbol.
    Left in the table, the sink turns the product sweep quadratic: every
    source saturates ``reached[sink]`` across the whole graph for
    answers that can never materialize.  Keeping only states both
    reachable from an initial state and co-reachable to a final one
    leaves the answer set untouched while the sweep's work drops to the
    useful product — the difference between seconds and minutes on a
    50k-edge store.  Initial-and-final states are always useful, so the
    epsilon-acceptance bit survives trimming unchanged.
    """
    forward = set(initials)
    stack = list(initials)
    while stack:
        state = stack.pop()
        for next_states in table.get(state, {}).values():
            for next_state in next_states:
                if next_state not in forward:
                    forward.add(next_state)
                    stack.append(next_state)
    predecessors: dict[int, set[int]] = {}
    for state, row in table.items():
        for next_states in row.values():
            for next_state in next_states:
                predecessors.setdefault(next_state, set()).add(state)
    backward = set(finals)
    stack = list(finals)
    while stack:
        state = stack.pop()
        for prev_state in predecessors.get(state, ()):
            if prev_state not in backward:
                backward.add(prev_state)
                stack.append(prev_state)
    useful = forward & backward
    trimmed: dict[int, dict[Hashable, frozenset[int]]] = {}
    for state, row in table.items():
        if state not in useful:
            continue
        trimmed_row = {
            label: kept
            for label, next_states in row.items()
            if (kept := next_states & useful)
        }
        if trimmed_row:
            trimmed[state] = trimmed_row
    return trimmed, initials & useful, finals & useful


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
    node_at = db.node_at
    return frozenset(
        (node_at(source_id), node_at(target_id))
        for source_id, target_id in _all_pairs_ids(db, compiled, backend)
    )


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
    id_pairs = _all_pairs_ids(db, compiled, backend, ordered=True)
    node_at = db.node_at
    return [
        (node_at(source_id), node_at(target_id))
        for source_id, target_id in id_pairs
    ]


def _seed_all_pairs(
    db, compiled: CompiledAutomaton, lo: int = 0, hi: int | None = None
) -> tuple[dict[int, list[int]], dict[int, dict[int, int]], list[int]]:
    """Fresh ``(reached, frontier, answer_masks)`` for sources in ``[lo, hi)``.

    ``reached[state][node_id]`` is the bitmask of source ids known to
    reach the ``(state, node)`` product point, re-based to the window
    (bit ``j`` is source ``lo + j``, so masks are ``hi - lo`` bits wide
    however large the graph); the frontier carries the seed deltas of
    the first round; ``answer_masks[node]`` starts at the epsilon answers
    (the window's diagonal) when the automaton accepts the empty word.
    The default window is the whole graph — the monolithic sweep of
    :func:`_all_pairs_ids` and of
    :class:`repro.rpq.incremental.DeltaSweepState`, whose retained state
    is exactly this triple after :func:`_sweep_to_fixpoint` drained the
    frontier; :class:`repro.rpq.sharded.ParallelEvaluator` passes one
    shard's range.  ``db`` is anything with ``num_nodes`` and
    ``label_out_index`` (a :class:`GraphDB` or a frozen
    :class:`~repro.rpq.csr.CSRSnapshot`).
    """
    num_nodes = db.num_nodes
    if hi is None:
        hi = num_nodes
    reached: dict[int, list[int]] = {}
    frontier: dict[int, dict[int, int]] = {}
    for state in compiled.initials:
        # Seed only sources with an out-edge matching this state's row:
        # any other source can contribute nothing beyond the epsilon answer.
        state_reached = [0] * num_nodes
        bucket: dict[int, int] = {}
        for label in compiled.table.get(state, ()):
            sources = db.label_out_index(label)
            if hi - lo < len(sources):  # scan the smaller side
                seeds = [v for v in range(lo, hi) if v in sources]
            else:
                seeds = [v for v in sources if lo <= v < hi]
            for v in seeds:
                state_reached[v] = bucket[v] = 1 << (v - lo)
        reached[state] = state_reached
        if bucket:
            frontier[state] = bucket
    answer_masks = [0] * num_nodes
    if compiled.accepts_epsilon:
        for v in range(lo, hi):
            answer_masks[v] = 1 << (v - lo)
    return reached, frontier, answer_masks


def _sweep_to_fixpoint(
    db,
    compiled: CompiledAutomaton,
    reached: dict[int, list[int]],
    frontier: dict[int, dict[int, int]],
    answer_masks: list[int],
) -> None:
    """Run the macro-frontier loop until the frontier drains.

    Mutates ``reached`` and ``answer_masks`` in place.  The loop is
    *resumable*: it only requires that every frontier delta is already
    recorded in ``reached`` — whether the frontier came from a fresh
    :func:`_seed_all_pairs` or from the inserted-edge deltas of an
    incremental update, the masks saturate to the same least fixpoint
    (semi-naive evaluation is confluent), which is what makes
    delta-driven re-evaluation bit-identical to a full recompute.  Of
    ``db`` only ``label_out_index`` is read, so a frozen snapshot sweeps
    exactly like the live graph it was taken from.
    """
    finals = compiled.finals
    while frontier:
        next_frontier: dict[int, dict[int, int]] = {}
        for state, node_sources in frontier.items():
            row = compiled.table.get(state)
            if not row:
                continue
            for label, next_states in row.items():
                adjacency = db.label_out_index(label)
                if not adjacency:
                    continue
                if len(adjacency) < len(node_sources):
                    hot = [
                        (adjacency[v], node_sources[v])
                        for v in adjacency
                        if v in node_sources
                    ]
                else:
                    hot = [
                        (adjacency[v], sources)
                        for v, sources in node_sources.items()
                        if v in adjacency
                    ]
                for next_state in next_states:
                    state_reached = reached.get(next_state)
                    if state_reached is None:
                        state_reached = reached[next_state] = [0] * len(
                            answer_masks
                        )
                    bucket = next_frontier.get(next_state)
                    if bucket is None:
                        bucket = next_frontier[next_state] = {}
                    is_final = next_state in finals
                    for targets, sources in hot:
                        for w in targets:
                            delta = sources & ~state_reached[w]
                            if not delta:
                                continue
                            state_reached[w] |= delta
                            if w in bucket:
                                bucket[w] |= delta
                            else:
                                bucket[w] = delta
                            if is_final:
                                answer_masks[w] |= delta
        frontier = {
            state: bucket for state, bucket in next_frontier.items() if bucket
        }


def _decode_answer_masks(
    target_masks: Iterable[tuple[int, int]], lo: int = 0
) -> list[tuple[int, int]]:
    """Unpack ``(target_id, source bitmask)`` items into dense-id pairs
    (unordered); bit ``j`` of a mask is source ``lo + j``."""
    id_pairs: list[tuple[int, int]] = []
    for target_id, mask in target_masks:
        while mask:
            low_bit = mask & -mask
            id_pairs.append((low_bit.bit_length() - 1 + lo, target_id))
            mask ^= low_bit
    return id_pairs


def _all_pairs_ids(
    db: GraphDB,
    compiled: CompiledAutomaton,
    backend: str = "auto",
    *,
    ordered: bool = False,
) -> list[tuple[int, int]]:
    """The all-pairs sweep, decoded to dense-id pairs.

    Order contract: the numpy path *always* returns the pairs sorted by
    ``(source_id, target_id)`` — ``kernel.decode_matrix`` produces them
    that way and nobody re-sorts them; the big-int path returns them in
    mask-decode order unless ``ordered`` asks for the same sort.  The
    *pair sets* are bit-identical by the kernel's exactness contract.
    """
    if db.num_nodes == 0 or not compiled.initials:
        return []
    if resolve_backend(db, backend) == "numpy":
        from . import kernel as _kernel

        return _kernel.all_pairs_ids(db.to_csr(), compiled)
    reached, frontier, answer_masks = _seed_all_pairs(db, compiled)
    _sweep_to_fixpoint(db, compiled, reached, frontier, answer_masks)
    id_pairs = _decode_answer_masks(enumerate(answer_masks))
    if ordered:
        id_pairs.sort()
    return id_pairs


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
