"""VECTORIZED: numpy block-bitmatrix kernel vs the big-int engine (gate).

The headline gate: on a graph with >= 1M edges, the vectorized kernel
(``backend="numpy"`` — uint64 block matrices, padded CSR gather/reduce,
adjacency-bitmap seeding) must answer ``evaluate_all_sorted`` at least
**7x faster** than the big-int sweep, **byte-identical** answers.  The
snapshot/plan warm-up is excluded from the timed run (a serving session
pays it once per store version, not per query; ``GraphDB.to_csr`` is
cached until the next effective mutation).

The companion matrix test pins byte-identity where it is cheap to be
exhaustive: bigint/numpy x sequential/sharded x incremental all decode
to the same sorted answer list on a mid-size workload graph.

The sparse cell holds the other end of ``NUMPY_BACKEND_MIN_EDGES``:
right at the threshold, on path-like data (9 000-edge ``grid`` and
``scale_free`` workload graphs, a few edges per node), ``auto`` picks
numpy, so numpy must win there too — at least **2.7x** over big-int on
bounded three-step queries, byte-identical.  That is the regime the
kernel's pair-list rounds, key-form settled sets and key decode exist for.

Both gates were 10x and 1.5x until ``compile_automaton`` began merging
twin states: *the baseline got faster*.  The big-int sweep pays per
transition (``a.a.b``: 8 -> 3), the block kernel per (state, label)
gather (2 -> 1), so both sides sped up and the ratio between them fell.
Each constant is two thirds of the ratio measured after that change,
rounded down; both absolute times are printed.  The sparse gate then
rose from 1.4x to 2.7x when pair rounds stopped allocating ``(n, B)``
matrices (two thirds of the lower family's 4.1x).

Measured locally (single core, 1500 nodes, ~1.54M edges, query
``a.a.b``, 24k answers), before -> after the merge: big-int 2.17 ->
0.82-0.90s, numpy 0.153 -> 0.078-0.093s, **14.2x -> 9.1-11.0x**; sparse
cell: grid big-int 0.155 -> 0.038s, numpy 0.027 -> 0.017s (5.6x ->
1.8-2.3x), scale_free 0.044 -> 0.016s, 0.013 -> 0.008s (3.5x -> 2.0-2.2x).
With key-form settled sets (same machine, big-int 0.042-0.065s and
0.012-0.017s): grid numpy 0.010-0.011 -> 0.004-0.006s (3.8-5.6x ->
10.2-11.7x), scale_free 0.006-0.007 -> 0.003-0.004s (1.9-2.5x -> 4.1-5.0x).
Since the kernel picks a sweep direction, the gate query runs backward:
the reversed ``a.a.b`` seeds the 16 ``b`` targets, one block column,
instead of all 1500 sources in 24.  Two alternated runs a side (2-vCPU
Xeon VM): numpy 0.096-0.097 -> 0.016-0.020s, big-int 0.93-1.61s, so
9.7-9.8x -> 61.7-79.0x.  ``GATE_RATIO`` stays 7x.
"""

import random
import time

from repro.rpq import RPQ, ParallelEvaluator, make_graph, make_queries
from repro.rpq import engine as engine_mod
from repro.rpq.graphdb import GraphDB
from repro.rpq.incremental import DeltaSweepState, NumpyDeltaSweepState

SEED = 20260808
GATE_RATIO = 7.0
SPARSE_GATE_RATIO = 2.7


def _compiled(db, query):
    return engine_mod.compile_automaton(
        RPQ(query).eps_free_nfa(), None, db.domain()
    )


def _answer_bytes(pairs):
    return "\n".join(f"{x}\t{y}" for x, y in pairs).encode()


def _dense_graph(num_nodes=1500, draws=2_600_000):
    """A dense two-label graph: ~1.5M deduplicated ``a`` edges plus a
    sparse ``b`` fringe, so ``a.a.b`` sweeps the dense relation twice
    and projects through the fringe."""
    rng = random.Random(SEED)
    db = GraphDB()
    names = [f"n{i}" for i in range(num_nodes)]
    for name in names:
        db.add_node(name)
    choice = rng.choice
    for _ in range(draws):
        db.add_edge(choice(names), "a", choice(names))
    for i in range(16):
        db.add_edge(names[(i * 131) % num_nodes], "b", names[(i * 37) % num_nodes])
    return db


def _best_of_three(db, compiled, backend):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        answers = engine_mod.evaluate_all_sorted(db, compiled, backend=backend)
        best = min(best, time.perf_counter() - start)
    return best, answers


def test_vectorized_sweep_gate_on_million_edge_graph():
    """The acceptance gate: >= 7x at >= 1M edges, byte-identical."""
    build_start = time.perf_counter()
    db = _dense_graph()
    build_seconds = time.perf_counter() - build_start
    assert db.num_edges >= 1_000_000
    compiled = _compiled(db, "a.a.b")

    # Warm the frozen snapshot, gather plans, and adjacency bitmaps —
    # per-version state, amortized across every query at that version.
    warm_start = time.perf_counter()
    warm = engine_mod.evaluate_all_sorted(db, compiled, backend="numpy")
    warm_seconds = time.perf_counter() - warm_start

    # Best-of-three for the sub-second side: at this scale a single
    # numpy run is within scheduler-noise range, while the big-int run
    # is seconds long and steady, so one sample suffices there.
    vec_seconds, vec = _best_of_three(db, compiled, "numpy")

    start = time.perf_counter()
    big = engine_mod.evaluate_all_sorted(db, compiled, backend="bigint")
    big_seconds = time.perf_counter() - start

    assert _answer_bytes(vec) == _answer_bytes(big)
    assert _answer_bytes(warm) == _answer_bytes(big)
    ratio = big_seconds / vec_seconds
    print()
    print(
        f"dense: {db.num_nodes} nodes, {db.num_edges} edges "
        f"(built in {build_seconds:.1f}s), query 'a.a.b', "
        f"{len(vec)} answers"
    )
    print(
        f"  big-int {big_seconds:.3f}s, numpy {vec_seconds:.3f}s "
        f"(cold {warm_seconds:.3f}s) -> {ratio:.1f}x"
    )
    assert ratio >= GATE_RATIO, (
        f"vectorized sweep only {ratio:.1f}x over big-int "
        f"({vec_seconds:.3f}s vs {big_seconds:.3f}s); gate is "
        f"{GATE_RATIO:.0f}x"
    )

    # The other consumers of the same snapshot must agree byte for byte
    # on the gate graph too: the sharded tier and the incremental state.
    with ParallelEvaluator(db, num_shards=4, backend="numpy") as evaluator:
        assert _answer_bytes(evaluator.evaluate_all_sorted(compiled)) == (
            _answer_bytes(big)
        )
    state = NumpyDeltaSweepState(db, compiled)
    assert _answer_bytes(state.answers_sorted()) == _answer_bytes(big)


def test_sparse_cell_at_the_auto_threshold():
    """Where ``auto`` starts picking numpy, numpy must be the faster one."""
    print()
    for family in ("grid", "scale_free"):
        db = make_graph(family, seed=SEED, edges=9_000)
        assert engine_mod.resolve_backend(db, "auto") == "numpy"
        x, y, z = (sorted(db.domain(), reverse=True) * 3)[:3]
        queries = [f"{x}.{y}.{z}", f"({x}+{y}).({y}+{z}).{x}"]
        vec_seconds = big_seconds = 0.0
        for query in queries:
            compiled = _compiled(db, query)
            # Warm the snapshot (per-version state, as in the dense gate).
            engine_mod.evaluate_all_sorted(db, compiled, backend="numpy")
            vec_best, vec = _best_of_three(db, compiled, "numpy")
            big_best, big = _best_of_three(db, compiled, "bigint")
            assert _answer_bytes(vec) == _answer_bytes(big)
            vec_seconds += vec_best
            big_seconds += big_best
        ratio = big_seconds / vec_seconds
        print(
            f"sparse {family}: {db.num_nodes} nodes, {db.num_edges} edges, "
            f"{queries}: big-int {big_seconds:.3f}s, numpy "
            f"{vec_seconds:.3f}s -> {ratio:.1f}x"
        )
        assert ratio >= SPARSE_GATE_RATIO, (
            f"{family}: numpy only {ratio:.1f}x over big-int at the auto "
            f"threshold; gate is {SPARSE_GATE_RATIO}x"
        )


def test_backend_matrix_byte_identity():
    """bigint/numpy x sequential/sharded x incremental, one answer set."""
    db = make_graph("grid", seed=SEED, edges=20_000)
    query = make_queries("grid", SEED, count=1, include_starred=False)[0]
    compiled = _compiled(db, query)
    reference = _answer_bytes(
        engine_mod.evaluate_all_sorted(db, compiled, backend="bigint")
    )
    variants = {
        "engine/numpy": lambda: engine_mod.evaluate_all_sorted(
            db, compiled, backend="numpy"
        ),
        "incremental/bigint": lambda: DeltaSweepState(
            db, compiled
        ).answers_sorted(),
        "incremental/numpy": lambda: NumpyDeltaSweepState(
            db, compiled
        ).answers_sorted(),
    }
    for backend in ("bigint", "numpy"):
        for shards in (1, 3):
            def sharded(backend=backend, shards=shards):
                with ParallelEvaluator(db, shards, backend=backend) as ev:
                    return ev.evaluate_all_sorted(compiled)

            variants[f"sharded/{backend}/k={shards}"] = sharded
    print()
    for name, run in variants.items():
        start = time.perf_counter()
        answers = run()
        elapsed = time.perf_counter() - start
        print(f"  {name}: {elapsed:.3f}s, {len(answers)} answers")
        assert _answer_bytes(answers) == reference, f"{name} diverged"
