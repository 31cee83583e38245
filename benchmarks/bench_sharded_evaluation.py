"""SHARDED: ParallelEvaluator vs the single-process engine (ISSUE 4 gate).

The headline gate: on a workload-generated graph with >= 50k edges, the
sharded evaluator — sweeping its k windows one after another on a
single thread — must answer a bounded query mix at
least 2x faster than the monolithic **big-int** sweep
(:func:`repro.rpq.engine.evaluate_all_sorted` with ``backend="bigint"``),
with **byte-identical sorted answer sets**.  Both sides run the same
``engine._sweep_to_fixpoint`` loop; the speedup is mask narrowing and
nothing else: window ``i`` packs its source sets into ``(hi - lo)``-bit
masks instead of ``num_nodes``-bit masks, so every big-int delta/merge in
the product sweep costs ~1/k of the monolithic sweep's.  More worker
threads are reported here, not gated (CI boxes may expose a single
core).

The baseline is pinned to ``backend="bigint"`` on purpose: at 50k edges
the engine's default ``"auto"`` resolves to the numpy block kernel, which
measures a different algorithm (and is far slower on these sparse
graphs), so the gate would pass without exercising mask narrowing at all.

Measured locally (single core, grid family, 50k edges, k=8): ~3.1x end
to end on the three-query mix (engine 1.20 s, sharded 0.38 s, the first
query paying the snapshot's lazily built adjacency views), 2.1-3.7x per
query; the whole test runs in ~3 s.
"""

import time

# Imported up front so its one-time ~0.1 s import is process start-up:
# the evaluator's snapshot freeze would otherwise be the first numpy user
# in this process and be billed for it in ``build_seconds``.
import numpy  # noqa: F401
import pytest

from repro.rpq import RPQ, ParallelEvaluator, make_graph, make_queries
from repro.rpq import engine as engine_mod

SEED = 20260730
NUM_SHARDS = 8


def _compiled(db, query):
    return engine_mod.compile_automaton(
        RPQ(query).eps_free_nfa(), None, db.domain()
    )


def _answer_bytes(pairs):
    return "\n".join(f"{x}\t{y}" for x, y in pairs).encode()


def _bounded_queries(family, count=3):
    # Dedupe while keeping seeded order; single-label queries stay in
    # (they are the common case in real mixes and the engine's best case,
    # so they make the gate harder, not easier).
    queries = []
    for query in make_queries(family, SEED, count=12, include_starred=False):
        if query not in queries:
            queries.append(query)
    return queries[:count]


def test_sharded_speedup_on_50k_edge_grid():
    """The acceptance gate: >= 2x on >= 50k edges, answers byte-identical."""
    db = make_graph("grid", seed=SEED, edges=50_000)
    assert db.num_edges >= 50_000
    queries = _bounded_queries("grid")
    compiled = {query: _compiled(db, query) for query in queries}

    build_start = time.perf_counter()
    evaluator = ParallelEvaluator(db, num_shards=NUM_SHARDS, workers=1)
    build_seconds = time.perf_counter() - build_start

    mono_seconds = sharded_seconds = 0.0
    print()
    print(
        f"grid: {db.num_nodes} nodes, {db.num_edges} edges, "
        f"k={NUM_SHARDS} shards (snapshot frozen in {build_seconds:.3f}s)"
    )
    for query in queries:
        start = time.perf_counter()
        mono = engine_mod.evaluate_all_sorted(
            db, compiled[query], backend="bigint"
        )
        mono_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        sharded = evaluator.evaluate_all_sorted(compiled[query])
        sharded_elapsed = time.perf_counter() - start
        assert _answer_bytes(sharded) == _answer_bytes(mono)
        mono_seconds += mono_elapsed
        sharded_seconds += sharded_elapsed
        print(
            f"  {query!r}: engine {mono_elapsed:.3f}s, "
            f"sharded {sharded_elapsed:.3f}s "
            f"({mono_elapsed / sharded_elapsed:.2f}x), "
            f"{len(mono)} answers identical"
        )

    speedup = mono_seconds / sharded_seconds
    end_to_end = mono_seconds / (sharded_seconds + build_seconds)
    print(
        f"  total: engine {mono_seconds:.3f}s, sharded {sharded_seconds:.3f}s "
        f"-> {speedup:.2f}x sweep, {end_to_end:.2f}x incl. snapshot freeze"
    )
    assert speedup >= 2.0, (
        f"sharded sweep only {speedup:.2f}x over the single-process engine "
        f"(engine {mono_seconds:.3f}s, sharded {sharded_seconds:.3f}s)"
    )
    assert end_to_end >= 2.0, (
        f"with the one-time snapshot freeze amortized over "
        f"{len(queries)} queries, speedup fell to {end_to_end:.2f}x"
    )


def test_pool_workers_agree_and_are_reported():
    """Four threads over one in-memory snapshot on the same 50k-edge
    workload: answers must be identical; wall-clock is reported, not
    gated (single-core CI boxes cannot promise a thread speedup)."""
    db = make_graph("grid", seed=SEED, edges=50_000)
    query = _bounded_queries("grid", count=1)[0]
    compiled = _compiled(db, query)
    sequential = ParallelEvaluator(db, num_shards=NUM_SHARDS, workers=1)
    pooled = ParallelEvaluator(db, num_shards=NUM_SHARDS, workers=4)

    start = time.perf_counter()
    expected = sequential.evaluate_all_sorted(compiled)
    sequential_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    got = pooled.evaluate_all_sorted(compiled)
    pooled_elapsed = time.perf_counter() - start
    assert _answer_bytes(got) == _answer_bytes(expected)
    print(
        f"\npool: sequential {sequential_elapsed:.3f}s, "
        f"4 workers {pooled_elapsed:.3f}s on {query!r} "
        f"({len(expected)} answers identical)"
    )


@pytest.mark.slow
@pytest.mark.parametrize("family", ["chain", "scale_free", "layered_dag"])
def test_sharded_speedup_across_families(family):
    """The same gate on every other workload family (chain is the
    extreme case: 50k+1 nodes means 50k-bit monolithic masks)."""
    db = make_graph(family, seed=SEED, edges=50_000)
    assert db.num_edges >= 50_000
    query = _bounded_queries(family, count=1)[0]
    compiled = _compiled(db, query)
    evaluator = ParallelEvaluator(db, num_shards=NUM_SHARDS, workers=1)

    start = time.perf_counter()
    mono = engine_mod.evaluate_all_sorted(db, compiled, backend="bigint")
    mono_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    sharded = evaluator.evaluate_all_sorted(compiled)
    sharded_elapsed = time.perf_counter() - start
    assert _answer_bytes(sharded) == _answer_bytes(mono)
    speedup = mono_elapsed / sharded_elapsed
    print(
        f"\n{family}: {db.num_nodes} nodes, engine {mono_elapsed:.3f}s, "
        f"sharded {sharded_elapsed:.3f}s ({speedup:.2f}x) on {query!r}"
    )
    assert speedup >= 2.0, f"{family}: only {speedup:.2f}x"
