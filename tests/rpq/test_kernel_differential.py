"""Randomized differential harness: numpy kernel vs big-int vs naive.

The vectorized block-bitmatrix kernel (:mod:`repro.rpq.kernel`) must be
indistinguishable from the big-int engine on every graph — same pairs,
same documented sort order, bit for bit — and both must agree with the
literal Definition 4.2 oracle (:func:`repro.rpq.evaluation.naive_evaluate`).
Hypothesis draws workload family x seed x edge budget through the seeded
generator, so failures replay from their seed; deterministic tests pin
the boundary geometry the block layout is most likely to get wrong
(empty graphs, single nodes, widths straddling the 64-bit word size) and
sweep the parallel tier across shard and worker counts on both backends.

The incremental twin (:class:`repro.rpq.incremental.NumpyDeltaSweepState`)
is held to the same standard under seeded insert/delete streams: after
every operation its answers must equal the big-int delta state's *and* a
from-scratch sweep of the mutated graph.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpq import (
    FAMILIES,
    RPQ,
    GraphDB,
    ParallelEvaluator,
    make_graph,
    make_queries,
    naive_evaluate,
    sort_pairs,
)
from repro.rpq import engine as engine_mod
from repro.rpq import kernel as kernel_mod
from repro.rpq.engine import NUMPY_BACKEND_MIN_EDGES, CompiledAutomaton, resolve_backend
from repro.rpq.graphdb import random_graph
from repro.rpq.incremental import DeltaSweepState, NumpyDeltaSweepState

from ..conftest import id_pairs


def compiled_for(db, query):
    rpq = query if isinstance(query, RPQ) else RPQ(query)
    return engine_mod.compile_automaton(rpq.eps_free_nfa(), None, db.domain())


@st.composite
def workload_cases(draw, max_edges=40):
    family = draw(st.sampled_from(FAMILIES))
    seed = draw(st.integers(min_value=0, max_value=999_999))
    edges = draw(st.integers(min_value=4, max_value=max_edges))
    graph = make_graph(family, seed, edges=edges)
    queries = make_queries(family, seed, count=4)
    query = queries[draw(st.integers(min_value=0, max_value=3))]
    return family, graph, query


class TestBackendResolution:
    def test_auto_threshold(self):
        small = random_graph(random.Random(0), 10, ["a"], 20)
        assert resolve_backend(small, "auto") == "bigint"
        assert resolve_backend(small, "numpy") == "numpy"
        assert resolve_backend(small, "bigint") == "bigint"

    def test_unknown_backend_rejected(self):
        db = GraphDB([("x", "a", "y")])
        with pytest.raises(ValueError):
            resolve_backend(db, "gpu")
        with pytest.raises(ValueError):
            engine_mod.evaluate_all(db, compiled_for(db, "a"), backend="gpu")

    def test_threshold_is_edge_count(self):
        db = GraphDB([("x", "a", "y")])
        assert db.num_edges < NUMPY_BACKEND_MIN_EDGES
        assert resolve_backend(db, "auto") == "bigint"


@settings(max_examples=60, deadline=None)
@given(case=workload_cases())
def test_numpy_matches_bigint_and_naive(case):
    _family, graph, query = case
    compiled = compiled_for(graph, query)
    big = engine_mod.evaluate_all_sorted(graph, compiled, backend="bigint")
    vec = engine_mod.evaluate_all_sorted(graph, compiled, backend="numpy")
    assert vec == big
    assert frozenset(vec) == naive_evaluate(graph, query)


@settings(max_examples=25, deadline=None)
@given(
    case=workload_cases(),
    num_shards=st.sampled_from((1, 2, 3, 7)),
)
def test_numpy_sharded_matches_sequential(case, num_shards):
    _family, graph, query = case
    compiled = compiled_for(graph, query)
    expected = engine_mod.evaluate_all_sorted(graph, compiled, backend="bigint")
    with ParallelEvaluator(graph, num_shards, backend="numpy") as evaluator:
        assert evaluator.evaluate_all_sorted(compiled) == expected


class TestBoundaryGeometry:
    """Widths straddling the uint64 block size, plus degenerate graphs."""

    @pytest.mark.parametrize("num_nodes", [1, 2, 63, 64, 65, 127, 128, 130])
    @pytest.mark.parametrize("expr", ["a*", "a.a", "(a+b)*"])
    def test_cycle_widths(self, num_nodes, expr):
        db = GraphDB()
        for i in range(num_nodes):
            db.add_edge(f"n{i}", "a", f"n{(i + 1) % num_nodes}")
            if i % 3 == 0:
                db.add_edge(f"n{i}", "b", f"n{(i * 2 + 1) % num_nodes}")
        compiled = compiled_for(db, expr)
        big = engine_mod.evaluate_all_sorted(db, compiled, backend="bigint")
        vec = engine_mod.evaluate_all_sorted(db, compiled, backend="numpy")
        assert vec == big

    def test_empty_graph(self):
        db = GraphDB()
        compiled = compiled_for(GraphDB([("x", "a", "y")]), "a*")
        assert engine_mod.evaluate_all_sorted(db, compiled, backend="numpy") == []
        assert id_pairs(kernel_mod.all_pairs_ids(db.to_csr(), compiled)) == []

    def test_single_isolated_node(self):
        db = GraphDB(nodes=["lonely"])
        compiled = compiled_for(GraphDB([("x", "a", "y")]), "a*")
        for backend in ("bigint", "numpy"):
            assert engine_mod.evaluate_all_sorted(
                db, compiled, backend=backend
            ) == [("lonely", "lonely")]

    def test_self_loop_single_node(self):
        db = GraphDB([("n", "a", "n")])
        compiled = compiled_for(db, "a.a.a")
        for backend in ("bigint", "numpy"):
            assert engine_mod.evaluate_all_sorted(
                db, compiled, backend=backend
            ) == [("n", "n")]

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 64, 65])
    def test_window_boundaries_across_shards(self, num_shards):
        """Shard windows cut at non-multiple-of-64 offsets must still
        re-base masks exactly."""
        db = GraphDB()
        for i in range(130):
            db.add_edge(f"n{i}", "a", f"n{(i + 7) % 130}")
        compiled = compiled_for(db, "a.a")
        expected = engine_mod.evaluate_all_sorted(db, compiled)
        for backend in ("bigint", "numpy"):
            with ParallelEvaluator(db, num_shards, backend=backend) as ev:
                assert ev.evaluate_all_sorted(compiled) == expected


class TestEntryPointParity:
    """The engine's single-source and single-pair answers are the rows and
    members of the sharded all-pairs answer, on either backend."""

    def test_workload_entry_points(self):
        graph = make_graph("scale_free", 77, edges=60)
        query = make_queries("scale_free", 77, count=1)[0]
        compiled = compiled_for(graph, query)
        nodes = sorted(graph.nodes, key=graph.node_id)
        for backend in ("bigint", "numpy"):
            with ParallelEvaluator(graph, 3, backend=backend) as ev:
                answers = ev.evaluate_all(compiled)
            for source in nodes[:6]:
                assert engine_mod.evaluate_single_source(
                    graph, compiled, source
                ) == frozenset(y for x, y in answers if x == source)
                for target in nodes[:4]:
                    assert engine_mod.evaluate_pair(
                        graph, compiled, source, target
                    ) == ((source, target) in answers)


class TestWorkerPool:
    """The numpy windows on a thread pool, all reading one in-memory
    snapshot, stay bit-identical."""

    def test_pool_matches_sequential(self):
        graph = make_graph("grid", 5, edges=60)
        query = make_queries("grid", 5, count=1)[0]
        compiled = compiled_for(graph, query)
        expected = engine_mod.evaluate_all_sorted(graph, compiled)
        with ParallelEvaluator(graph, 4, workers=2, backend="numpy") as ev:
            assert ev.evaluate_all_sorted(compiled) == expected
            # Again, over the gather plans the first call memoized.
            assert ev.evaluate_all_sorted(compiled) == expected

    def test_pool_survives_refresh(self):
        graph = make_graph("chain", 11, edges=40)
        query = make_queries("chain", 11, count=1)[0]
        compiled = compiled_for(graph, query)
        with ParallelEvaluator(graph, 4, workers=2, backend="numpy") as ev:
            before = ev.evaluate_all_sorted(compiled)
            assert before == engine_mod.evaluate_all_sorted(graph, compiled)
            nodes = sorted(graph.nodes, key=graph.node_id)
            graph.add_edge(nodes[0], "a", nodes[-1])
            ev.refresh()
            after = ev.evaluate_all_sorted(compiled)
            assert after == engine_mod.evaluate_all_sorted(graph, compiled)

    def test_injected_worker_fault_surfaces_typed_error(self):
        from repro.rpq.sharded import ShardedEvaluationError

        graph = make_graph("chain", 3, edges=30)
        query = make_queries("chain", 3, count=1)[0]
        compiled = compiled_for(graph, query)
        with ParallelEvaluator(
            graph, 4, backend="numpy", _fail_shards=(2,)
        ) as ev:
            with pytest.raises(ShardedEvaluationError):
                ev.evaluate_all_sorted(compiled)


class TestIncrementalParity:
    """NumpyDeltaSweepState == DeltaSweepState == from-scratch, per op."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("expr", ["a", "(a+b)*", "a.(b+c)*.a"])
    def test_interleaved_stream(self, seed, expr):
        rng = random.Random(seed)
        db = random_graph(
            rng, rng.choice([2, 63, 65, 90]), ["a", "b", "c"], 150
        )
        compiled = engine_mod.compile_automaton(
            RPQ(expr).eps_free_nfa(), None, frozenset(["a", "b", "c"])
        )
        big = DeltaSweepState(db, compiled)
        vec = NumpyDeltaSweepState(db, compiled)
        assert big.answers_sorted() == vec.answers_sorted()
        nodes = sorted(db.nodes, key=db.node_id)
        for step in range(12):
            if rng.random() < 0.6 or db.num_edges == 0:
                source = rng.choice(nodes)
                target = rng.choice(nodes + [f"fresh{step}"])
                label = rng.choice(["a", "b", "c"])
                db.add_edge(source, label, target)
                nodes = sorted(db.nodes, key=db.node_id)
                big.apply_insertions([(source, label, target)])
                vec.apply_insertions([(source, label, target)])
            else:
                edge = rng.choice(sorted(db.to_triples()))
                db.remove_edge(*edge)
                big.apply_deletions([edge])
                vec.apply_deletions([edge])
            got = vec.answers_sorted()
            assert got == big.answers_sorted()
            assert got == engine_mod.evaluate_all_sorted(
                db, compiled, backend="bigint"
            )
            assert vec.answers() == big.answers()

    def test_drain_to_empty_has_no_ghost_answers(self):
        db = GraphDB()
        for i in range(70):
            db.add_edge(f"n{i}", "a", f"n{(i + 1) % 70}")
        compiled = engine_mod.compile_automaton(
            RPQ("a*").eps_free_nfa(), None, frozenset(["a"])
        )
        big = DeltaSweepState(db, compiled)
        vec = NumpyDeltaSweepState(db, compiled)
        for edge in sorted(db.to_triples()):
            db.remove_edge(*edge)
            big.apply_deletions([edge])
            vec.apply_deletions([edge])
        expected = sorted((f"n{i}", f"n{i}") for i in range(70))
        assert sorted(vec.answers_sorted()) == expected
        assert vec.answers_sorted() == big.answers_sorted()
        nodes = db.nodes
        for x, y in vec.answers():
            assert x in nodes and y in nodes


# ----------------------------------------------------------------------
# Round forms: pair-list rounds, block rounds and the hand-over between
# them must be indistinguishable — same answer bits, same settled bits.
# ----------------------------------------------------------------------

import itertools
import tracemalloc
from unittest import mock

import numpy as np


def _always_pairs(_expansion_pairs, _matrix_words):
    return True


def _always_blocks(_expansion_pairs, _matrix_words):
    return False


def _hand_over_after(rounds):
    calls = itertools.count()
    return lambda _expansion_pairs, _matrix_words: next(calls) < rounds


def _forced_sweep(decide, snapshot, compiled, lo=0, hi=None):
    """``sweep_window`` with the round-form decision replaced."""
    reached = {}
    with mock.patch.object(kernel_mod, "_pair_round_pays", decide):
        answers = kernel_mod.sweep_window(
            snapshot, compiled, lo, hi, reached_out=reached
        )
    return answers, reached


def _row_masks(matrix):
    return [int.from_bytes(row.tobytes(), "little") for row in matrix]


def _assert_same_bits(left, right, shape):
    """Per-state matrices equal; a missing state is an all-zero one."""
    zero = np.zeros(shape, dtype=np.uint64)
    for state in set(left) | set(right):
        assert np.array_equal(left.get(state, zero), right.get(state, zero)), state


@st.composite
def round_form_cases(draw):
    _family, graph, query = draw(workload_cases(max_edges=160))
    if draw(st.booleans()):
        labels = sorted(graph.domain())
        query = f"({labels[0]}+{labels[-1]})*"  # accepts epsilon
    compiled = compiled_for(graph, query)
    if draw(st.integers(min_value=0, max_value=5)) == 5:
        for edge in sorted(graph.to_triples()):  # drained store, ids kept
            graph.remove_edge(*edge)
    num_nodes = graph.num_nodes
    lo = draw(st.integers(min_value=0, max_value=num_nodes))
    hi = draw(st.integers(min_value=lo, max_value=num_nodes))
    if draw(st.booleans()):
        hi = min(hi, lo + draw(st.integers(min_value=0, max_value=63)))
    if draw(st.integers(min_value=0, max_value=3)) == 3:
        lo, hi = 0, num_nodes
    return graph, compiled, lo, hi, draw(st.integers(min_value=1, max_value=4))


@settings(max_examples=120, deadline=None)
@given(case=round_form_cases())
def test_round_forms_and_hand_over_set_the_same_bits(case):
    graph, compiled, lo, hi, rounds = case
    snapshot = graph.to_csr()
    pair_answers, pair_reached = _forced_sweep(
        _always_pairs, snapshot, compiled, lo, hi
    )
    for decide in (_always_blocks, _hand_over_after(rounds)):
        answers, reached = _forced_sweep(decide, snapshot, compiled, lo, hi)
        assert np.array_equal(answers, pair_answers)
        _assert_same_bits(reached, pair_reached, pair_answers.shape)
    default_answers = kernel_mod.sweep_window(snapshot, compiled, lo, hi)
    assert np.array_equal(default_answers, pair_answers)

    # ... and they are the big-int sweep's bits, window-relative.
    big_reached, frontier, answer_masks = engine_mod._seed_all_pairs(
        snapshot, compiled, lo, hi
    )
    engine_mod._sweep_to_fixpoint(
        snapshot, compiled, big_reached, frontier, answer_masks
    )
    assert _row_masks(pair_answers) == answer_masks
    zero_rows = [0] * graph.num_nodes
    for state in set(big_reached) | set(pair_reached):
        rows = pair_reached.get(state)
        masks = zero_rows if rows is None else _row_masks(rows)
        assert masks == big_reached.get(state, zero_rows), state


class TestPairListBuiltIncrementalState:
    """DRed reads ``reached``: a state built by pair-list rounds must
    maintain exactly like one built by block rounds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("expr", ["a.b", "(a+b)*", "a.(b+c)*.a"])
    def test_stream_from_either_build(self, seed, expr):
        rng = random.Random(seed)
        db = random_graph(rng, rng.choice([40, 65, 90]), ["a", "b", "c"], 120)
        compiled = engine_mod.compile_automaton(
            RPQ(expr).eps_free_nfa(), None, frozenset(["a", "b", "c"])
        )
        with mock.patch.object(kernel_mod, "_pair_round_pays", _always_pairs):
            from_pairs = NumpyDeltaSweepState(db, compiled)
        with mock.patch.object(kernel_mod, "_pair_round_pays", _always_blocks):
            from_blocks = NumpyDeltaSweepState(db, compiled)
        big = DeltaSweepState(db, compiled)
        nodes = sorted(db.nodes, key=db.node_id)
        for step in range(14):
            if rng.random() < 0.5 or db.num_edges == 0:
                edge = (
                    rng.choice(nodes),
                    rng.choice(["a", "b", "c"]),
                    rng.choice(nodes + [f"fresh{step}"]),
                )
                db.add_edge(*edge)
                nodes = sorted(db.nodes, key=db.node_id)
                for state in (from_pairs, from_blocks, big):
                    state.apply_insertions([edge])
            else:
                edge = rng.choice(sorted(db.to_triples()))
                db.remove_edge(*edge)
                for state in (from_pairs, from_blocks, big):
                    state.apply_deletions([edge])
            assert np.array_equal(
                from_pairs.answers_matrix, from_blocks.answers_matrix
            )
            _assert_same_bits(
                from_pairs.reached,
                from_blocks.reached,
                from_pairs.answers_matrix.shape,
            )
            assert from_pairs.answers_sorted() == big.answers_sorted()
            assert from_pairs.answers_sorted() == engine_mod.evaluate_all_sorted(
                db, compiled, backend="bigint"
            )


def _reference_decode(answers, width, lo):
    """The unpack-everything decode ``decode_matrix`` used to be."""
    bits = np.unpackbits(
        np.ascontiguousarray(answers).view(np.uint8), axis=1, bitorder="little"
    )[:, :width]
    targets, columns = np.nonzero(bits)
    order = np.lexsort((targets, columns))
    return columns[order] + lo, targets[order]


@settings(max_examples=80, deadline=None)
@given(
    width=st.sampled_from((1, 63, 64, 65, 4624)),
    rows=st.integers(min_value=0, max_value=5),
    spare_blocks=st.integers(min_value=0, max_value=1),
    thinning=st.integers(min_value=0, max_value=6),
    lo=st.sampled_from((0, 1, 64, 1000)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_decode_matrix_matches_unpackbits(
    width, rows, spare_blocks, thinning, lo, seed
):
    rng = np.random.default_rng(seed)
    shape = (rows, (width + 63) // 64 + spare_blocks)
    # Random words over *all* blocks: the bits at columns >= width are
    # set too and must be discarded.  Each AND halves the density; the
    # sparsest draws are mostly zero words, some matrices entirely zero.
    answers = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    for _ in range(thinning * 2):
        answers &= rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    sources, targets = kernel_mod.decode_matrix(answers, width, lo)
    expected_sources, expected_targets = _reference_decode(answers, width, lo)
    assert sources.dtype == targets.dtype == np.int64
    assert np.array_equal(sources, expected_sources)
    assert np.array_equal(targets, expected_targets)


def test_sparse_sweep_never_allocates_delta_matrices():
    """Memory guard: a sweep that stays in pair-list rounds holds the
    settled matrices and the answer, not the block loop's ``delta`` /
    ``acc`` / ``invert_scratch`` (``3 * states + 2`` matrices in all)."""
    db = make_graph("grid", 20260928, edges=9_000)
    x, y = sorted(db.domain(), reverse=True)[:2]
    compiled = compiled_for(db, f"{x}.{y}.{x}")
    snapshot = db.to_csr()
    matrix_bytes = db.num_nodes * ((db.num_nodes + 63) // 64) * 8
    bound = (compiled.num_states + 2) * matrix_bytes

    def peak_inside_sweep(decide):
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _forced_sweep(decide, snapshot, compiled)
            return tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()

    rule = kernel_mod._pair_round_pays
    decisions = []

    def recorded_rule(expansion_pairs, matrix_words):
        decisions.append(rule(expansion_pairs, matrix_words))
        return decisions[-1]

    assert peak_inside_sweep(recorded_rule) < bound
    assert decisions and all(decisions)  # the input rule kept it sparse
    # The guard measures something: the block form does cross the bound.
    assert peak_inside_sweep(_always_blocks) > bound


# ----------------------------------------------------------------------
# Narrow columns: ``all_pairs_ids`` gives block columns only to the live
# sources when they fit in half the blocks; the decoded list must not
# change, in content or in order, under any round form.
# ----------------------------------------------------------------------

_NARROW_NODES = 260  # five blocks: at most two (128 sources) are narrowed


def _fringe_graph(live_ids, seed=0, num_nodes=_NARROW_NODES):
    """A random ``a`` relation over every node plus ``b`` edges leaving
    exactly the nodes ``live_ids`` — the live sources of a ``b…`` query."""
    rng = random.Random(seed)
    db = GraphDB(nodes=[f"n{i}" for i in range(num_nodes)])
    for _ in range(6 * num_nodes):
        db.add_edge(f"n{rng.randrange(num_nodes)}", "a", f"n{rng.randrange(num_nodes)}")
    for source in live_ids:
        for _ in range(rng.choice((1, 1, 3))):
            db.add_edge(f"n{source}", "b", f"n{rng.randrange(num_nodes)}")
    assert [db.node_id(f"n{i}") for i in live_ids] == list(live_ids)
    return db


def _spread(count, seed):
    return sorted(random.Random(seed).sample(range(_NARROW_NODES), count))


def _counting_sweeps():
    """``kernel.sweep_window`` wrapped through the module attribute — the
    way ``benchmarks/suite/tracing.py`` wraps it — recording the source
    array each sweep was handed."""
    handed = []
    original = kernel_mod.sweep_window

    def counted(*args, **kwargs):
        handed.append(kwargs.get("sources"))
        return original(*args, **kwargs)

    return mock.patch.object(kernel_mod, "sweep_window", counted), handed


def _assert_kernel_is_bigint(db, compiled, narrowed_to):
    """List equality (order included) with the big-int sweep under both
    forced round forms and the default rule; ``narrowed_to`` is the live
    source count the sweep must have been narrowed to, ``None`` for the
    full-width layout."""
    expected = id_pairs(engine_mod._all_pairs_ids(db, compiled, "bigint"))
    snapshot = db.to_csr()
    for decide in (_always_pairs, _always_blocks, kernel_mod._pair_round_pays):
        patched, handed = _counting_sweeps()
        with patched, mock.patch.object(kernel_mod, "_pair_round_pays", decide):
            assert id_pairs(kernel_mod.all_pairs_ids(snapshot, compiled)) == expected
        assert len(handed) == 1  # the span contract: one sweep per call
        if narrowed_to is None:
            assert handed[0] is None
        else:
            assert handed[0].size == narrowed_to
    return expected


class TestNarrowColumns:
    @pytest.mark.parametrize("live", [1, 63, 64, 65, 128])
    @pytest.mark.parametrize("expr", ["b.a.a", "b.a*", "b.(a+b)", "b"])
    def test_block_boundaries(self, live, expr):
        db = _fringe_graph(_spread(live, seed=live))
        assert _assert_kernel_is_bigint(db, compiled_for(db, expr), narrowed_to=live)

    def test_live_sources_only_in_the_last_block(self):
        db = _fringe_graph(range(256, _NARROW_NODES))
        for expr in ("b.a.a", "b.a*", "(b+b.a).a"):
            pairs = _assert_kernel_is_bigint(db, compiled_for(db, expr), narrowed_to=4)
            assert {source for source, _ in pairs} <= set(range(256, _NARROW_NODES))

    def test_one_source_too_many_keeps_the_full_layout(self):
        db = _fringe_graph(_spread(129, seed=129))  # three blocks of five
        _assert_kernel_is_bigint(db, compiled_for(db, "b.a.a"), narrowed_to=None)

    def test_all_live_query_is_not_narrowed(self):
        db = _fringe_graph(_spread(7, seed=7))
        assert len(db.label_out_index("a")) > 128
        assert _assert_kernel_is_bigint(db, compiled_for(db, "a.b"), narrowed_to=None)

    def test_every_call_is_exactly_one_sweep_window_span(self):
        """The benchmark's tracer wraps ``kernel.sweep_window`` by module
        attribute: narrowed or not, a sweep must go through that name."""
        db = _fringe_graph(_spread(7, seed=7))
        snapshot = db.to_csr()
        patched, handed = _counting_sweeps()
        with patched:
            kernel_mod.all_pairs_ids(snapshot, compiled_for(db, "b.a"))  # narrowable
            kernel_mod.all_pairs_ids(snapshot, compiled_for(db, "a.b"))  # all-live
        assert [sources is not None for sources in handed] == [True, False]

    def test_epsilon_accepting_query_is_not_narrowed(self):
        """``(b.a)*`` has 7 live sources but answers the diagonal of all
        260 nodes, so it keeps the full-width layout (``all_pairs_ids``)."""
        db = _fringe_graph(_spread(7, seed=7))
        pairs = _assert_kernel_is_bigint(
            db, compiled_for(db, "(b.a)*"), narrowed_to=None
        )
        assert {(v, v) for v in range(_NARROW_NODES)} < set(pairs)

    def test_drained_store_with_ids_kept(self):
        db = _fringe_graph(_spread(7, seed=7))
        bounded, starred = compiled_for(db, "b.a.a"), compiled_for(db, "(b.a)*")
        for edge in sorted(db.to_triples()):
            db.remove_edge(*edge)
        assert db.num_nodes == _NARROW_NODES
        assert _assert_kernel_is_bigint(db, bounded, narrowed_to=0) == []
        assert _assert_kernel_is_bigint(db, starred, narrowed_to=None) == [
            (v, v) for v in range(_NARROW_NODES)
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        live=st.sets(st.integers(0, _NARROW_NODES - 1), max_size=140),
        expr=st.sampled_from(["b.a", "b.a*.b", "(b+c).a.a", "b.(a+b)*", "(b.a)*"]),
        seed=st.integers(0, 999),
    )
    def test_random_fringes(self, live, expr, seed):
        db = _fringe_graph(sorted(live), seed)
        compiled = compiled_for(db, expr)
        assert id_pairs(kernel_mod.all_pairs_ids(db.to_csr(), compiled)) == id_pairs(
            engine_mod._all_pairs_ids(db, compiled, "bigint")
        )

    def test_narrowed_sweep_peaks_below_the_full_width_one(self):
        """Memory guard: 16 live sources of 1 000 nodes sweep ``(n, 1)``
        matrices, not ``(n, 16)``; both layouts run the block loop."""
        db = _fringe_graph(_spread(16, seed=16), num_nodes=1000)
        compiled = compiled_for(db, "b.a.a")
        snapshot = db.to_csr()
        live = np.array(sorted(db.label_out_index("b")), dtype=np.int64)
        assert live.size == 16

        def peak(**layout):
            tracemalloc.start()
            try:
                baseline, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                with mock.patch.object(kernel_mod, "_pair_round_pays", _always_blocks):
                    answers = kernel_mod.sweep_window(snapshot, compiled, **layout)
                return tracemalloc.get_traced_memory()[1] - baseline, answers
            finally:
                tracemalloc.stop()

        peak()  # the snapshot memoises its gather plans: build them first
        narrow_peak, narrow = peak(sources=live)
        full_peak, full = peak()
        assert narrow.shape == (1000, 1) and full.shape == (1000, 16)
        assert 4 * narrow_peak < full_peak
        # The narrow matrix is the full one's live columns, in order.
        sources, targets = kernel_mod.decode_matrix(full, 1000)
        columns, narrow_targets = kernel_mod.decode_matrix(narrow, live.size)
        assert np.array_equal(live[columns], sources)
        assert np.array_equal(narrow_targets, targets)


# ----------------------------------------------------------------------
# Key-form settled sets: pair rounds keep each state's settled bits as a
# sorted key array until the key bound or the hand-over; whichever way a
# sweep ends, and forward or backward, ``all_pairs_ids`` must be the
# big-int list.
# ----------------------------------------------------------------------


def _keys_always_fit(_written_keys, _matrix_words):
    return True


def _keys_never_fit(_written_keys, _matrix_words):
    return False


def _round_and_key_rules(rounds):
    """(round-form rule, key-bound rule) pairs: keys to the end, the key
    bound under pair rounds, blocks, a hand-over after ``rounds`` rounds,
    and a bound so tiny that the first settled set switches."""
    return [
        (_always_pairs, _keys_always_fit),
        (_always_pairs, kernel_mod._keys_fit),
        (_always_blocks, kernel_mod._keys_fit),
        (_hand_over_after(rounds), kernel_mod._keys_fit),
        (kernel_mod._pair_round_pays, _keys_never_fit),
    ]


def _recording(rule, log):
    """``rule``, appending every decision it takes to ``log``."""

    def decide(*args):
        log.append(rule(*args))
        return log[-1]

    return decide


@st.composite
def key_form_cases(draw):
    """A graph (workload-drawn, or a fringe whose ``b…`` queries narrow)
    and an automaton: the workload query, an epsilon-accepting star,
    ``x.y* + x.x*`` with one final state per branch — both settle the key
    of every ``x`` edge, neither holds the whole answer — or its reversal,
    which has two initial states."""
    if draw(st.booleans()):
        _family, graph, query = draw(workload_cases(max_edges=160))
    else:
        live = draw(st.sets(st.integers(0, _NARROW_NODES - 1), max_size=140))
        graph, query = _fringe_graph(sorted(live), draw(st.integers(0, 999))), "b.a*.b"
    labels = sorted(graph.domain())
    x, y = labels[0], labels[-1]
    shape = draw(st.sampled_from(("query", "epsilon", "finals", "initials")))
    compiled = compiled_for(graph, f"({x}+{y})*" if shape == "epsilon" else query)
    if shape in ("finals", "initials"):
        table = {0: {x: frozenset({1, 2})}, 1: {y: frozenset({1})}, 2: {x: frozenset({2})}}
        compiled = CompiledAutomaton(table, frozenset({0}), frozenset({1, 2}))
        assert len(compiled.finals) >= 2
        if shape == "initials":
            compiled = compiled.reversed()
            assert len(compiled.initials) >= 2
    if draw(st.integers(min_value=0, max_value=5)) == 5:
        for edge in sorted(graph.to_triples()):  # drained store, ids kept
            graph.remove_edge(*edge)
    return graph, compiled, draw(st.integers(min_value=1, max_value=4))


def _always_backward(*_args):
    return True


def _never_backward(*_args):
    return False


@settings(max_examples=120, deadline=None)
@given(case=key_form_cases())
def test_all_pairs_ids_is_bigint_under_every_round_and_key_rule(case):
    """The big-int list whichever way the sweep ends and whichever end it
    starts from: ``_backward_pays`` as it is, always and never."""
    graph, compiled, rounds = case
    expected = id_pairs(engine_mod._all_pairs_ids(graph, compiled, "bigint"))
    snapshot = graph.to_csr()
    for direction in (kernel_mod._backward_pays, _always_backward, _never_backward):
        for decide, fit in _round_and_key_rules(rounds):
            rules = {"_pair_round_pays": decide, "_keys_fit": fit}
            with mock.patch.multiple(kernel_mod, _backward_pays=direction, **rules):
                got = kernel_mod.all_pairs_ids(snapshot, compiled)
            assert id_pairs(got) == expected


# ----------------------------------------------------------------------
# Direction: the rule turns a sweep whose first label is saturated and
# whose last is rare, and leaves every other suite shape forward.
# ----------------------------------------------------------------------


def _saturated_graph(num_nodes=320, fringe=16, seed=0):
    """A saturated ``a`` relation (a quarter of all pairs) plus ``fringe``
    random ``b`` edges: ``sweep_dense``'s shape at a test's size."""
    rng = random.Random(seed)
    db = GraphDB(nodes=[f"n{i}" for i in range(num_nodes)])
    for v in range(num_nodes):
        for w in rng.sample(range(num_nodes), num_nodes // 4):
            db.add_edge(f"n{v}", "a", f"n{w}")
    while len(db.label_out_index("b")) < fringe:
        db.add_edge(f"n{rng.randrange(num_nodes)}", "b", f"n{rng.randrange(num_nodes)}")
    return db


def _directions(db, query):
    """The rule's decisions for one ``all_pairs_ids`` call, whose answer
    must be the big-int list."""
    compiled = compiled_for(db, query)
    decisions = []
    with mock.patch.object(
        kernel_mod, "_backward_pays", _recording(kernel_mod._backward_pays, decisions)
    ):
        got = id_pairs(kernel_mod.all_pairs_ids(db.to_csr(), compiled))
    assert got == id_pairs(engine_mod._all_pairs_ids(db, compiled, "bigint"))
    return decisions


class TestDirectionRule:
    def test_saturated_prefix_sweeps_backward(self):
        """``a.a.b`` seeds every node forward and gathers the ``a`` edges
        at five words a row; backward it seeds the ``b`` targets, one
        block, and gathers them twice at one word a row."""
        db = _saturated_graph()
        assert _directions(db, "a.a.b") == [True]

    @pytest.mark.parametrize("query", ["a.b", "b.a*", "b.a.a"])
    def test_rare_prefix_or_cheap_tail_stays_forward(self, query):
        assert _directions(_saturated_graph(), query) == [False]

    def test_epsilon_accepting_query_stays_forward(self):
        assert _directions(_saturated_graph(), "(a.a.b)*") == [False]

    @pytest.mark.parametrize("family", ["grid", "scale_free", "layered_dag"])
    def test_sparse_bounded_templates_stay_forward(self, family):
        """The first round of every bounded template fits in pair rounds
        on the 9 000-edge graphs (``sweep_sparse``'s cells)."""
        db = make_graph(family, 20260928, edges=9_000)
        x, y, z = (sorted(db.domain(), reverse=True) * 3)[:3]
        for query in (
            f"{x}", f"{x}.{y}", f"{x}.{y}.{z}", f"({x}+{y}).{z}",
            f"{x}.({y}+{z})", f"({x}+{y}).({y}+{z})",
        ):
            assert _directions(db, query) == [False], query


def test_sparse_all_pairs_allocates_less_than_one_matrix():
    """Memory guard: a bounded query on the 9 000-edge grid stays in key
    form, so ``all_pairs_ids`` never holds an ``(n, B)`` matrix; the block
    form allocates several."""
    db = make_graph("grid", 20260928, edges=9_000)
    x, y = sorted(db.domain(), reverse=True)[:2]
    compiled = compiled_for(db, f"{x}.{y}.{x}")
    snapshot = db.to_csr()
    matrix_bytes = db.num_nodes * ((db.num_nodes + 63) // 64) * 8
    decisions = []

    def peak(decide, fit):
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            with mock.patch.object(kernel_mod, "_pair_round_pays", decide), mock.patch.object(
                kernel_mod, "_keys_fit", fit
            ):
                kernel_mod.all_pairs_ids(snapshot, compiled)
            return tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()

    rules = (kernel_mod._pair_round_pays, kernel_mod._keys_fit)
    assert peak(*(_recording(rule, decisions) for rule in rules)) < matrix_bytes
    assert decisions and all(decisions)  # no hand-over, no key bound crossed
    assert peak(_always_blocks, kernel_mod._keys_fit) > matrix_bytes


@pytest.mark.parametrize(
    "family, edges, query",
    [("grid", 2_000, "r.(r+d)*"), ("grid", 9_000, "r*.d"), ("layered_dag", 9_000, "b.a*.b")],
)
def test_starred_sparse_queries_cross_the_key_bound(family, edges, query):
    """A star settles a growing set every round: the key bound switches the
    sweep to matrices before the merges cost more than they save."""
    db = make_graph(family, 20260928, edges=edges)
    compiled = compiled_for(db, query)
    fits = []
    with mock.patch.object(kernel_mod, "_keys_fit", _recording(kernel_mod._keys_fit, fits)):
        got = kernel_mod.all_pairs_ids(db.to_csr(), compiled)
    assert False in fits
    expected = engine_mod._all_pairs_ids(db, compiled, "bigint")
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
