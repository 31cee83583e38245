"""Window invariants, the thread pool, and the fault contract.

The differential harness (``test_sharded_differential``) pins answer
equality; this file pins the machinery around it: that the source
windows are a true partition of the all-pairs answer (each window
answers exactly the pairs whose source it owns), that threads sweeping
windows concurrently over one in-memory snapshot answer exactly, and
that a window failing mid-sweep surfaces one clean
:class:`ShardedEvaluationError` naming its source range — rather than a
hang or a half answer — and leaves the evaluator and its pool usable.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpq import (
    RPQ,
    ParallelEvaluator,
    ShardedEvaluationError,
    make_graph,
    make_queries,
)
from repro.rpq import engine as engine_mod
from repro.rpq.kernel import decode_masks
from repro.rpq.sharded import _sweep_window, shard_bounds

from ..conftest import id_pairs


def compiled_for(db, query, labels=None):
    return engine_mod.compile_automaton(
        RPQ(query).eps_free_nfa(), None, db.domain() if labels is None else labels
    )


def answer_bytes(pairs):
    return "\n".join(f"{x}\t{y}" for x, y in pairs).encode()


# ----------------------------------------------------------------------
# The windows partition the answer
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    edges=st.integers(min_value=4, max_value=60),
    # None: more shards than nodes, so some windows are empty.
    num_shards=st.sampled_from((1, 2, 3, 7, None)),
    family=st.sampled_from(("chain", "grid", "scale_free", "layered_dag")),
    backend=st.sampled_from(("bigint", "numpy")),
    query_index=st.integers(min_value=0, max_value=4),
    drain=st.sampled_from((0, 2, 1)),
)
def test_windows_conserve_the_answer(
    seed, edges, num_shards, family, backend, query_index, drain
):
    """Window ``[lo, hi)`` answers exactly the pairs with a source in
    it, so the windows' answers concatenated in window order *are* the
    engine's sorted answer list, byte for byte."""
    db = make_graph(family, seed, edges=edges)
    labels = sorted(db.domain())
    # Index 4 is epsilon-accepting: the diagonal must be windowed too.
    query = (*make_queries(family, seed, count=4), f"({'+'.join(labels)})*")[
        query_index
    ]
    if drain:
        # A drained store: interned ids outlive their edges (every
        # ``drain``-th edge goes; drain=1 empties the graph), and the
        # windows still have to span all of them.
        for edge in sorted(db.to_triples())[::drain]:
            db.remove_edge(*edge)
    compiled = compiled_for(db, query, labels=frozenset(labels))
    if num_shards is None:
        num_shards = db.num_nodes + 3
    bounds = shard_bounds(db.num_nodes, num_shards)
    assert bounds[0] == 0 and bounds[-1] == db.num_nodes
    snapshot = db.to_csr()
    concatenated_ids = []
    for lo, hi in zip(bounds, bounds[1:]):
        assert 0 <= hi - lo <= -(-db.num_nodes // num_shards)
        masks = _sweep_window(snapshot, compiled, lo, hi, backend)
        assert all(0 < mask < 1 << (hi - lo) for mask in masks.values())
        window_pairs = id_pairs(decode_masks(masks.items(), hi - lo, lo))
        assert all(lo <= source_id < hi for source_id, _ in window_pairs)
        concatenated_ids += window_pairs
    node_at = db.node_at
    concatenated = [(node_at(x), node_at(y)) for x, y in concatenated_ids]
    expected = engine_mod.evaluate_all_sorted(db, compiled, backend="bigint")
    assert answer_bytes(concatenated) == answer_bytes(expected)
    assert concatenated == expected
    with ParallelEvaluator(db, num_shards, backend=backend) as evaluator:
        assert evaluator.evaluate_all_sorted(compiled) == expected


def test_single_window_is_the_monolithic_sweep():
    db = make_graph("scale_free", seed=3, edges=80)
    compiled = compiled_for(db, make_queries("scale_free", seed=3, count=1)[0])
    assert shard_bounds(db.num_nodes, 1) == [0, db.num_nodes]
    masks = _sweep_window(db.to_csr(), compiled, 0, db.num_nodes, "bigint")
    assert id_pairs(decode_masks(masks.items(), db.num_nodes)) == id_pairs(
        engine_mod._all_pairs_ids(db, compiled, "bigint")
    )


def test_invalid_shard_and_worker_counts_rejected():
    db = make_graph("chain", seed=0, edges=4)
    with pytest.raises(ValueError):
        shard_bounds(db.num_nodes, 0)
    with pytest.raises(ValueError):
        ParallelEvaluator(db, num_shards=0)
    with pytest.raises(ValueError):
        ParallelEvaluator(db, num_shards=2, workers=0)


# ----------------------------------------------------------------------
# The thread pool
# ----------------------------------------------------------------------


def test_pool_matches_sequential_on_every_family():
    for family in ("chain", "grid", "scale_free", "layered_dag"):
        db = make_graph(family, seed=6, edges=120)
        query = make_queries(family, seed=6, count=1)[0]
        compiled = compiled_for(db, query)
        sequential = ParallelEvaluator(db, num_shards=4, workers=1)
        pooled = ParallelEvaluator(db, num_shards=4, workers=3)
        assert pooled.evaluate_all_sorted(
            compiled
        ) == sequential.evaluate_all_sorted(compiled)


def test_workers_capped_by_shard_count_single_shard_stays_sequential():
    """workers > shards never starts more threads than shards: one
    shard runs on one thread."""
    db = make_graph("grid", seed=2, edges=40)
    compiled = compiled_for(db, "r.d")
    evaluator = ParallelEvaluator(db, num_shards=1, workers=8)
    assert evaluator.evaluate_all_sorted(
        compiled
    ) == engine_mod.evaluate_all_sorted(db, compiled)


# ----------------------------------------------------------------------
# The fault contract
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2], ids=["sequential", "pool"])
def test_worker_fault_surfaces_clean_typed_error(workers):
    """A window raising mid-sweep becomes ShardedEvaluationError for one
    thread and for several — no hang, no partial answer."""
    db = make_graph("layered_dag", seed=8, edges=60)
    compiled = compiled_for(db, "a.b")
    evaluator = ParallelEvaluator(
        db, num_shards=4, workers=workers, _fail_shards=[2]
    )
    with pytest.raises(ShardedEvaluationError) as excinfo:
        evaluator.evaluate_all(compiled)
    assert "fault" in str(excinfo.value)


def test_pool_is_reused_across_calls_and_released_by_close():
    """One evaluator = one pool: repeated queries must not start new
    threads, and close() must release them (the next call builds a new
    pool)."""
    db = make_graph("grid", seed=4, edges=80)
    first = compiled_for(db, "r.d")
    second = compiled_for(db, "d.d")
    with ParallelEvaluator(db, num_shards=4, workers=2) as evaluator:
        evaluator.evaluate_all(first)
        pool = evaluator._pool
        assert pool is not None
        evaluator.evaluate_all(second)
        assert evaluator._pool is pool  # same pool, no re-spawn
    assert evaluator._pool is None  # context exit closed it
    # Still answers correctly after close, on a new pool.
    assert evaluator.evaluate_all_sorted(
        first
    ) == engine_mod.evaluate_all_sorted(db, first)


def test_fresh_evaluator_recovers_after_a_fault():
    db = make_graph("grid", seed=5, edges=60)
    compiled = compiled_for(db, "r.r.d")
    faulty = ParallelEvaluator(db, num_shards=3, workers=2, _fail_shards=[0])
    with pytest.raises(ShardedEvaluationError):
        faulty.evaluate_all(compiled)
    healthy = ParallelEvaluator(db, num_shards=3, workers=2)
    assert healthy.evaluate_all_sorted(
        compiled
    ) == engine_mod.evaluate_all_sorted(db, compiled)


@pytest.fixture
def short_switch_interval():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.mark.parametrize("backend", ["bigint", "numpy"])
@pytest.mark.parametrize("family", ["grid", "scale_free"])
def test_threads_share_one_snapshot(family, backend, short_switch_interval):
    """Four threads sweep seven windows over one fresh snapshot, so they
    fill its gather plans, adjacency bitmaps and ``label_out_index``
    memos concurrently (with a short switch interval, so they interleave
    often); answers stay byte-identical to the engine's, before and
    after a refresh.  A failing window then raises without costing the
    evaluator its pool."""
    db = make_graph(family, seed=12, edges=300)
    query = make_queries(family, seed=12, count=1)[0]
    compiled = compiled_for(db, query)
    nodes = sorted(db.nodes, key=db.node_id)
    label = sorted(db.domain())[0]

    def expected():
        return answer_bytes(engine_mod.evaluate_all_sorted(db, compiled))

    with ParallelEvaluator(db, num_shards=7, workers=4, backend=backend) as ev:
        snapshot = ev._snapshot
        assert not (snapshot._plans or snapshot._bitmaps or snapshot._out_index)
        assert answer_bytes(ev.evaluate_all_sorted(compiled)) == expected()
        assert ev._pool._max_workers == 4
        db.add_edge(nodes[-1], label, nodes[0])
        ev.refresh()
        assert ev.generation == 1 and ev._snapshot is not snapshot
        assert answer_bytes(ev.evaluate_all_sorted(compiled)) == expected()

    bounds = shard_bounds(db.num_nodes, 7)
    with ParallelEvaluator(
        db, num_shards=7, workers=4, backend=backend, _fail_shards=[1]
    ) as faulty:
        with pytest.raises(ShardedEvaluationError) as excinfo:
            faulty.evaluate_all_sorted(compiled)
        assert f"sources [{bounds[1]}, {bounds[2]})" in str(excinfo.value)
        pool = faulty._pool
        faulty._fail_shards = frozenset()
        assert answer_bytes(faulty.evaluate_all_sorted(compiled)) == expected()
        assert faulty._pool is pool
