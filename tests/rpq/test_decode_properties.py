"""The decode contract: answer bits -> id arrays -> node pairs, once each.

``kernel.decode_matrix`` is the only bit decoder (big-int rows reach it
through ``kernel.decode_masks``) and ``GraphDB.pairs_at`` the only bulk
id -> node mapping.  Held here to references that share no code with them:
an unpack-everything transpose for the decoder, the per-pair ``node_at``
comprehension for the mapping.  ``pairs_at`` builds its list with the
cyclic collector paused; ``TestCollectorPause`` holds it to leaving the
collector as it found it, on one thread and across threads.
"""

import gc
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpq import RPQ, GraphDB
from repro.rpq import engine as engine_mod
from repro.rpq import graphdb as graphdb_mod
from repro.rpq import kernel as kernel_mod
from repro.rpq.csr import blocks_for
from repro.rpq.sharded import ParallelEvaluator

from ..conftest import id_pairs


def reference_decode(matrix, width, lo=0):
    """Every bit of every word unpacked, then sorted as Python tuples."""
    bits = np.unpackbits(
        np.ascontiguousarray(matrix).view(np.uint8), axis=1, bitorder="little"
    )
    rows, columns = np.nonzero(bits)
    return sorted(
        (column + lo, row)
        for row, column in zip(rows.tolist(), columns.tolist())
        if column < width
    )


@st.composite
def answer_matrices(draw):
    """``(matrix, width)``: an ``(n, blocks_for(width))`` uint64 matrix
    whose bits at columns >= ``width`` (the padding of the last block) are
    garbage when ``width % 64 != 0``, as ``decode_matrix`` must discard them."""
    num_rows = draw(st.integers(0, 24))
    width = draw(st.sampled_from((0, 1, 63, 64, 65, 100, 128, 130, 200)))
    num_blocks = blocks_for(width)
    shape = draw(st.sampled_from(("zero", "sparse", "dense", "full_row")))
    matrix = np.zeros((num_rows, num_blocks), dtype=np.uint64)
    if matrix.size and shape != "zero":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if shape == "full_row":
            matrix[rng.integers(num_rows)] = np.uint64(2**64 - 1)
        else:
            count = matrix.size * (16 if shape == "dense" else 1)
            words = rng.integers(0, matrix.size, count)
            bits = np.uint64(1) << rng.integers(0, 64, count).astype(np.uint64)
            np.bitwise_or.at(matrix.reshape(-1), words, bits)
    return matrix, width


class TestDecodeMatrix:
    @settings(max_examples=200, deadline=None)
    @given(drawn=answer_matrices(), lo=st.sampled_from((0, 1, 64, 1000)))
    def test_equals_the_unpack_everything_reference(self, drawn, lo):
        matrix, width = drawn
        sources, targets = kernel_mod.decode_matrix(matrix, width, lo)
        assert sources.dtype == targets.dtype == np.int64
        assert id_pairs((sources, targets)) == reference_decode(matrix, width, lo)

    @settings(max_examples=100, deadline=None)
    @given(drawn=answer_matrices(), data=st.data())
    def test_narrow_live_columns_keep_the_order(self, drawn, data):
        """``all_pairs_ids`` gives columns to an ascending ``live`` array;
        ``live[column]`` of the decode is the decode of the spread matrix."""
        matrix, width = drawn
        live = np.array(
            sorted(data.draw(st.sets(st.integers(0, 999), min_size=width, max_size=width))),
            dtype=np.int64,
        )
        columns, targets = kernel_mod.decode_matrix(matrix, width)
        assert id_pairs((live[columns], targets)) == [
            (int(live[column]), row) for column, row in reference_decode(matrix, width)
        ]

    @settings(max_examples=200, deadline=None)
    @given(drawn=answer_matrices(), lo=st.sampled_from((0, 7, 64)))
    def test_masks_and_matrix_decode_to_equal_arrays(self, drawn, lo):
        """One relation as big-int rows (zero rows and all, ascending
        targets) and as a block matrix: equal arrays, dtype included."""
        matrix, width = drawn
        if width % 64:  # big-int rows carry no padding bits
            matrix[:, -1] &= np.uint64((1 << width % 64) - 1)
        masks = [int.from_bytes(row.tobytes(), "little") for row in matrix]
        from_masks = kernel_mod.decode_masks(enumerate(masks), width, lo)
        from_matrix = kernel_mod.decode_matrix(matrix, width, lo)
        assert [ids.dtype for ids in from_masks] == [ids.dtype for ids in from_matrix]
        assert id_pairs(from_masks) == id_pairs(from_matrix)


NODE_NAMES = {
    "str": st.text(max_size=4),
    "int": st.integers(-5, 50),
    "tuple": st.tuples(st.integers(0, 5), st.text(max_size=2)),
    "mixed": st.one_of(
        st.text(max_size=3), st.integers(0, 9), st.tuples(st.integers(0, 3), st.integers(0, 3))
    ),
}


def _per_pair(db, sources, targets):
    return [(db.node_at(s), db.node_at(t)) for s, t in zip(sources, targets)]


class TestPairsAt:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(NODE_NAMES)))
    def test_equals_the_node_at_comprehension_and_follows_growth(self, data, kind):
        names = st.lists(NODE_NAMES[kind], min_size=1, max_size=12, unique=True)
        db = GraphDB(nodes=data.draw(names))
        for _ in range(2):  # the second round after add_node grew the graph
            ids = st.lists(st.integers(0, db.num_nodes - 1), max_size=30)
            sources = data.draw(ids)
            targets = data.draw(st.lists(st.integers(0, db.num_nodes - 1),
                                         min_size=len(sources), max_size=len(sources)))
            source_ids = np.array(sources, dtype=np.int64)
            target_ids = np.array(targets, dtype=np.int64)
            got = db.pairs_at(source_ids, target_ids)
            expected = _per_pair(db, sources, targets)
            assert got == expected
            nodes = db.node_array()
            assert got == list(
                zip(nodes[source_ids].tolist(), nodes[target_ids].tolist())
            )
            # the interned objects themselves, no numpy scalar in their place
            assert all(x is u and y is v for (x, y), (u, v) in zip(got, expected))
            for node in data.draw(names):
                db.add_node(node)

    def test_a_tuple_node_stays_one_scalar(self):
        db = GraphDB(nodes=[(1, 2), (3, 4)])  # a list numpy would read as 2-D
        assert db.node_array().shape == (2,)
        assert db.pairs_at(np.array([1]), np.array([0])) == [((3, 4), (1, 2))]
        empty = np.array([], dtype=np.int64)
        assert db.pairs_at(empty, empty) == []


def _collections_during(build) -> int:
    """How many cyclic collections start while ``build()`` runs."""
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()  # the young generation starts empty
    gc.callbacks.append(hook)
    try:
        build()
    finally:
        gc.callbacks.remove(hook)
    return len(starts)


@pytest.fixture()
def collector_enabled():
    """Each test below starts with the collector on; afterwards, pass or
    fail, it is put back as it was."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.usefixtures("collector_enabled")
class TestCollectorPause:
    """``pairs_at`` stops the cyclic collector for its list build (every
    700 new tuples would start one) and restarts it only if it ran."""

    def setup_method(self):
        self.db = GraphDB(nodes=[f"n{i}" for i in range(1000)])
        rng = np.random.default_rng(7)
        self.sources = rng.integers(0, 1000, 50_000)
        self.targets = rng.integers(0, 1000, 50_000)

    def test_no_collection_runs_during_a_large_build(self):
        nodes = self.db.node_array()
        sources = nodes[self.sources].tolist()
        targets = nodes[self.targets].tolist()
        # The control: the same 50 000 tuples built unpaused start dozens.
        assert _collections_during(lambda: list(zip(sources, targets))) >= 50
        assert _collections_during(
            lambda: self.db.pairs_at(self.sources, self.targets)
        ) < 5

    def test_an_enabled_collector_stays_enabled(self):
        self.db.pairs_at(self.sources[:10], self.targets[:10])
        assert gc.isenabled()

    def test_a_callers_own_disable_is_kept(self):
        gc.disable()
        self.db.pairs_at(self.sources[:10], self.targets[:10])
        assert not gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_an_out_of_range_id_raises_and_restores(self, enabled):
        if not enabled:
            gc.disable()
        too_far = np.array([0, self.db.num_nodes])
        with pytest.raises(IndexError):
            self.db.pairs_at(too_far, too_far)
        assert gc.isenabled() is enabled

    def test_threads_leave_the_collector_enabled(self):
        """4 threads x 200 overlapping calls, switching every microsecond."""
        sources, targets = self.sources[:2_000], self.targets[:2_000]
        expected = self.db.pairs_at(sources, targets)
        mismatches = []

        def calls():
            for _ in range(200):
                if self.db.pairs_at(sources, targets) != expected:
                    mismatches.append(threading.current_thread().name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=calls) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert gc.isenabled()

    def test_a_restart_between_anothers_check_and_stop_is_kept(self, monkeypatch):
        """The interleaving a per-call save/restore loses: B checks the
        collector while A has it stopped, A restarts it, then B stops it
        and, having found it stopped, never restarts it."""
        b_checked, a_done = threading.Event(), threading.Event()

        def disable():
            gc.disable()
            if threading.current_thread() is a:
                b_checked.wait(timeout=0.2)  # B may check now, if it can

        def isenabled():
            enabled = gc.isenabled()
            if threading.current_thread() is b:
                b_checked.set()
                a_done.wait(timeout=30)  # A finishes before B goes on
            return enabled

        monkeypatch.setattr(
            graphdb_mod,
            "gc",
            SimpleNamespace(isenabled=isenabled, disable=disable, enable=gc.enable),
        )
        ids = (self.sources[:10], self.targets[:10])
        a = threading.Thread(target=self.db.pairs_at, args=ids)
        b = threading.Thread(target=self.db.pairs_at, args=ids)
        a.start()
        deadline = time.monotonic() + 30
        while gc.isenabled() and a.is_alive():  # until A stops it
            assert time.monotonic() < deadline
            time.sleep(0.001)
        b.start()
        a.join(timeout=30)
        a_done.set()
        b.join(timeout=30)
        assert not a.is_alive() and not b.is_alive()
        assert gc.isenabled()

    def test_a_parallel_evaluator_answer_leaves_the_collector_enabled(self):
        db = GraphDB(
            [(f"v{i}", "ab"[i % 2], f"v{(i * 7 + 3) % 60}") for i in range(240)]
        )
        compiled = engine_mod.compile_automaton(
            RPQ("a.(a+b)*").eps_free_nfa(), None, db.domain()
        )
        with ParallelEvaluator(db, num_shards=2, workers=2) as evaluator:
            answer = evaluator.evaluate_all_sorted(compiled)
        assert answer == engine_mod.evaluate_all_sorted(db, compiled)
        assert answer
        assert gc.isenabled()


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.sampled_from("ab"), st.integers(0, 7)),
        min_size=1,
        max_size=40,
    ),
    expr=st.sampled_from(["a", "a.b", "(a+b)*", "a.(a+b)*.b", "b*.a"]),
)
def test_backends_agree_as_lists_on_tuple_named_graphs(edges, expr):
    db = GraphDB([((x, "n"), label, (y, "n")) for x, label, y in edges])
    compiled = engine_mod.compile_automaton(RPQ(expr).eps_free_nfa(), None, db.domain())
    big = engine_mod.evaluate_all_sorted(db, compiled, backend="bigint")
    assert engine_mod.evaluate_all_sorted(db, compiled, backend="numpy") == big
    assert all(type(x) is tuple and type(y) is tuple for x, y in big)
