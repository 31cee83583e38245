"""The all-pairs product sweep over Python-integer bit rows (the twin of
:mod:`repro.sweep.kernel`): a whole source set is one int, so union,
difference and emptiness are single C-level operations."""

from __future__ import annotations

from .table import CompiledAutomaton


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
    :mod:`repro.rpq.engine` and of
    :class:`repro.rpq.incremental.DeltaSweepState`, whose retained state
    is exactly this triple after :func:`_sweep_to_fixpoint` drained the
    frontier; :class:`repro.rpq.sharded.ParallelEvaluator` passes one
    shard's range.  ``db`` is anything with ``num_nodes`` and
    ``label_out_index`` (a :class:`~repro.rpq.graphdb.GraphDB` or a
    frozen :class:`~repro.sweep.csr.CSRSnapshot`).
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
