"""Window invariants, the worker-pool path, and crash recovery.

The differential harness (``test_sharded_differential``) pins answer
equality; this file pins the machinery around it: that the source
windows are a true partition of the all-pairs answer (each window
answers exactly the pairs whose source it owns), that the process-pool
path is exercised end to end, that a worker dying mid-sweep surfaces one
clean :class:`ShardedEvaluationError` — promptly, with the pool torn
down — rather than a hang or a half answer, and that no evaluator leaves
its snapshot file behind.
"""

import gc
import tempfile

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
# The worker-pool path
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
    """workers > shards never spawns more processes than shards; one
    shard runs inline (the pool would be pure overhead)."""
    db = make_graph("grid", seed=2, edges=40)
    compiled = compiled_for(db, "r.d")
    evaluator = ParallelEvaluator(db, num_shards=1, workers=8)
    assert evaluator.evaluate_all_sorted(
        compiled
    ) == engine_mod.evaluate_all_sorted(db, compiled)


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2], ids=["sequential", "pool"])
def test_worker_fault_surfaces_clean_typed_error(workers):
    """A worker raising mid-sweep becomes ShardedEvaluationError on both
    execution paths — no hang, no partial answer, pool torn down."""
    db = make_graph("layered_dag", seed=8, edges=60)
    compiled = compiled_for(db, "a.b")
    evaluator = ParallelEvaluator(
        db, num_shards=4, workers=workers, _fail_shards=[2]
    )
    with pytest.raises(ShardedEvaluationError) as excinfo:
        evaluator.evaluate_all(compiled)
    assert "fault" in str(excinfo.value)


def test_pool_is_reused_across_calls_and_released_by_close():
    """One evaluator = one pool: repeated queries must not re-spawn
    workers, and close() must release them (sequential still works)."""
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
    # Still answers correctly after close (sequential, then re-spawned).
    assert evaluator.evaluate_all_sorted(
        first
    ) == engine_mod.evaluate_all_sorted(db, first)


def test_single_source_and_pair_faults_use_the_same_contract():
    """Kernel failures on the single-source/single-pair entry points
    surface as ShardedEvaluationError too (QuerySession's fallback
    depends on it) — while unknown-node KeyErrors stay KeyErrors."""
    db = make_graph("chain", seed=2, edges=10)
    compiled = compiled_for(db, "a.b")
    all_shards = range(4)
    evaluator = ParallelEvaluator(
        db, num_shards=4, workers=1, _fail_shards=all_shards
    )
    with pytest.raises(ShardedEvaluationError):
        evaluator.evaluate_single_source(compiled, "n0")
    with pytest.raises(ShardedEvaluationError):
        evaluator.evaluate_pair(compiled, "n0", "n2")
    with pytest.raises(KeyError):
        evaluator.evaluate_single_source(compiled, "ghost")


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


# ----------------------------------------------------------------------
# Snapshot files never outlive their evaluator
# ----------------------------------------------------------------------


def test_snapshot_dir_removed_on_drop_and_on_worker_fault(tmp_path, monkeypatch):
    """Regression: a pooled evaluator dropped without ``close()`` used to
    leave its ``rpq-csr-*`` directory (and ``gen<N>.csr``) behind, and a
    worker fault kept them until a later explicit ``close()``."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def leftovers():
        return sorted(path.name for path in tmp_path.glob("rpq-csr-*"))

    db = make_graph("grid", seed=9, edges=60)
    compiled = compiled_for(db, "r.d")
    evaluator = ParallelEvaluator(db, num_shards=4, workers=2)
    evaluator.evaluate_all(compiled)
    if evaluator._pool is None:
        pytest.skip("host cannot spawn process pools: no snapshot file is written")
    (snapshot_dir,) = leftovers()
    assert [path.name for path in (tmp_path / snapshot_dir).iterdir()] == ["gen0.csr"]
    db.add_edge("n0", "r", "n5")
    evaluator.refresh()
    evaluator.evaluate_all(compiled)
    # One file per evaluator: the stale generation went when the new one
    # was written.
    assert [path.name for path in (tmp_path / snapshot_dir).iterdir()] == ["gen1.csr"]
    del evaluator
    gc.collect()
    assert leftovers() == []

    faulty = ParallelEvaluator(db, num_shards=4, workers=2, _fail_shards=[1])
    with pytest.raises(ShardedEvaluationError):
        faulty.evaluate_all(compiled)
    assert leftovers() == []  # no close() needed after a failed sweep

    with ParallelEvaluator(db, num_shards=4, workers=2) as closed:
        closed.evaluate_all(compiled)
        assert len(leftovers()) == 1
    assert leftovers() == []
