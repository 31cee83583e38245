"""CSR snapshots: construction, mmap round-trip, caching, drained stores.

The snapshot is the numpy backend's entire view of the graph, so these
tests pin its contract directly against the live ``GraphDB`` indexes:
every adjacency list survives the freeze, the on-disk format round-trips
byte-for-byte (mmap and in-memory alike), ``mutation_count`` caching
never serves a stale snapshot, and stores whose interned node count
exceeds their live label domain (drained stores) keep full-width
snapshots with empty rows rather than shifted ids.
"""

import random

import numpy as np
import pytest

from repro.regex import parse
from repro.automata import to_nfa
from repro.rpq import engine as engine_mod
from repro.rpq.csr import CSRSnapshot, blocks_for
from repro.rpq.graphdb import GraphDB, random_graph
from repro.rpq import kernel as kernel_mod

from ..conftest import id_pairs


def compiled_for(db, expr, labels=("a", "b", "c")):
    nfa = to_nfa(parse(expr))
    return engine_mod.compile_automaton(
        nfa, None, frozenset(labels), plain_symbols=True
    )


class TestBlocksFor:
    @pytest.mark.parametrize(
        "width,expected",
        [(0, 1), (1, 1), (63, 1), (64, 1), (65, 2), (128, 2), (129, 3)],
    )
    def test_boundaries(self, width, expected):
        assert blocks_for(width) == expected


class TestFromGraph:
    def test_adjacency_matches_live_indexes(self):
        db = random_graph(random.Random(5), 40, ["a", "b", "c"], 160)
        snapshot = CSRSnapshot.from_graph(db)
        assert snapshot.num_nodes == db.num_nodes
        assert snapshot.num_edges == db.num_edges
        for label in db.domain():
            out = db.label_out_index(label)
            for v in range(db.num_nodes):
                expected = sorted(out.get(v, ()))
                got = snapshot.out_neighbors(label, v)
                assert list(got) == expected

    def test_label_out_index_mirrors_the_live_index(self, tmp_path):
        """The view the big-int sweep reads: same keys, same targets as
        ``GraphDB.label_out_index`` — in memory and through an mmap —
        and empty (not a KeyError) for a label the graph never had."""
        db = random_graph(random.Random(5), 40, ["a", "b", "c"], 160)
        snapshot = CSRSnapshot.from_graph(db)
        snapshot.save(tmp_path / "graph.csr")
        for frozen in (snapshot, CSRSnapshot.load(tmp_path / "graph.csr")):
            for label in db.domain():
                view = frozen.label_out_index(label)
                assert view is frozen.label_out_index(label)  # memoized
                assert {v: set(targets) for v, targets in view.items()} == dict(
                    db.label_out_index(label)
                )
                assert all(
                    type(v) is int and type(w) is int
                    for v, targets in view.items()
                    for w in targets
                )
            assert frozen.label_out_index("never") == {}

    def test_empty_graph(self):
        snapshot = CSRSnapshot.from_graph(GraphDB())
        assert snapshot.num_nodes == 0
        assert snapshot.num_edges == 0
        assert snapshot.labels == ()

    def test_adjacency_bitmap_brute_force(self):
        db = random_graph(random.Random(9), 70, ["a", "b"], 220)
        snapshot = CSRSnapshot.from_graph(db)
        for label in db.domain():
            for lo, hi in [(0, 70), (0, 31), (13, 66), (64, 70)]:
                bitmap = snapshot.adjacency_bitmap(label, lo, hi)
                out = db.label_out_index(label)
                expected = np.zeros(
                    (70, blocks_for(hi - lo)), dtype=np.uint64
                )
                for u, targets in out.items():
                    if not lo <= u < hi:
                        continue
                    col = u - lo
                    for w in targets:
                        expected[w, col >> 6] |= np.uint64(1) << np.uint64(
                            col & 63
                        )
                assert np.array_equal(bitmap, expected)


class TestSaveLoad:
    def _graph(self):
        return random_graph(random.Random(2), 90, ["a", "b", "c"], 400)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_round_trip(self, tmp_path, mmap):
        db = self._graph()
        snapshot = CSRSnapshot.from_graph(db)
        path = tmp_path / "graph.csr"
        snapshot.save(path)
        loaded = CSRSnapshot.load(path, mmap=mmap)
        assert loaded.num_nodes == snapshot.num_nodes
        assert loaded.num_edges == snapshot.num_edges
        assert loaded.labels == snapshot.labels
        for label in snapshot.labels:
            ours, theirs = snapshot.label_csr(label), loaded.label_csr(label)
            assert np.array_equal(ours.out_indptr, theirs.out_indptr)
            assert np.array_equal(ours.out_indices, theirs.out_indices)
            assert np.array_equal(ours.in_indptr, theirs.in_indptr)
            assert np.array_equal(ours.in_indices, theirs.in_indices)

    def test_loaded_snapshot_evaluates_identically(self, tmp_path):
        db = self._graph()
        snapshot = CSRSnapshot.from_graph(db)
        path = tmp_path / "graph.csr"
        snapshot.save(path)
        loaded = CSRSnapshot.load(path, mmap=True)
        for expr in ["a", "a.b", "(a+b)*", "a.(b+c)*.a"]:
            compiled = compiled_for(db, expr)
            assert id_pairs(kernel_mod.all_pairs_ids(loaded, compiled)) == id_pairs(
                kernel_mod.all_pairs_ids(snapshot, compiled)
            )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.csr"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(ValueError):
            CSRSnapshot.load(path)

    def test_empty_graph_round_trip(self, tmp_path):
        snapshot = CSRSnapshot.from_graph(GraphDB())
        path = tmp_path / "empty.csr"
        snapshot.save(path)
        loaded = CSRSnapshot.load(path, mmap=True)
        assert loaded.num_nodes == 0
        assert loaded.labels == ()


class TestDurability:
    """Regressions for the crash-mid-write / truncated-file defects.

    The defects: ``save`` wrote directly to the destination path, so a
    crash mid-write left a truncated file at the *published* name; and
    ``load`` trusted the manifest without checking the file actually
    holds the bytes it promises, so a lazily-mapping pool worker got
    short read-only views and crashed deep inside the kernel.  Now
    ``save`` stages through a unique scratch file and publishes with one
    ``os.replace``, and ``load`` rejects bad magic / short headers /
    missing array bytes with a clear ``ValueError`` up front.
    """

    def _snapshot(self):
        db = random_graph(random.Random(11), 60, ["a", "b"], 250)
        return CSRSnapshot.from_graph(db)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_truncated_array_data_rejected(self, tmp_path, mmap):
        snapshot = self._snapshot()
        path = tmp_path / "graph.csr"
        snapshot.save(path)
        full = path.read_bytes()
        # Cut inside the raw array region: the header parses, the
        # manifest promises more bytes than the file holds.
        path.write_bytes(full[: len(full) - 128])
        with pytest.raises(ValueError, match="truncated"):
            CSRSnapshot.load(path, mmap=mmap)

    def test_truncated_header_rejected(self, tmp_path):
        snapshot = self._snapshot()
        path = tmp_path / "graph.csr"
        snapshot.save(path)
        full = path.read_bytes()
        # Cut inside the pickled header (magic is 8 bytes, length 8 more).
        path.write_bytes(full[:40])
        with pytest.raises(ValueError, match="truncated"):
            CSRSnapshot.load(path)

    def test_truncated_length_field_rejected(self, tmp_path):
        path = tmp_path / "graph.csr"
        from repro.rpq import csr as csr_mod

        path.write_bytes(csr_mod._MAGIC + b"\x03")  # magic, then 1 of 8 bytes
        with pytest.raises(ValueError, match="truncated"):
            CSRSnapshot.load(path)

    def test_garbage_header_rejected(self, tmp_path):
        from repro.rpq import csr as csr_mod

        path = tmp_path / "graph.csr"
        garbage = b"\xde\xad\xbe\xef" * 8
        path.write_bytes(
            csr_mod._MAGIC + len(garbage).to_bytes(8, "little") + garbage
        )
        with pytest.raises(ValueError, match="corrupt"):
            CSRSnapshot.load(path)

    def test_crash_mid_write_leaves_destination_untouched(
        self, tmp_path, monkeypatch
    ):
        """The failing-before scenario: a writer dying mid-save used to
        leave a truncated file at the published path."""
        snapshot = self._snapshot()
        path = tmp_path / "graph.csr"
        snapshot.save(path)
        good_bytes = path.read_bytes()

        def die_mid_write(self, handle):
            handle.write(good_bytes[: len(good_bytes) // 2])
            raise OSError("injected: writer crashed mid-save")

        monkeypatch.setattr(CSRSnapshot, "_write_payload", die_mid_write)
        with pytest.raises(OSError, match="injected"):
            self._snapshot().save(path)
        assert path.read_bytes() == good_bytes, (
            "a crashed save corrupted the published snapshot"
        )
        leftovers = [p for p in tmp_path.iterdir() if p.name != "graph.csr"]
        assert leftovers == [], f"crashed save left scratch files: {leftovers}"
        # The survivor still loads and evaluates.
        CSRSnapshot.load(path, mmap=True)

    def test_save_publishes_through_unique_scratch_names(
        self, tmp_path, monkeypatch
    ):
        from repro.rpq import csr as csr_mod

        real_replace = csr_mod.os.replace
        staged = []

        def record(src, dst):
            staged.append(str(src))
            return real_replace(src, dst)

        monkeypatch.setattr(csr_mod.os, "replace", record)
        snapshot = self._snapshot()
        path = tmp_path / "graph.csr"
        snapshot.save(path)
        snapshot.save(path)
        assert len(staged) == 2 and staged[0] != staged[1]
        for tmp in staged:
            assert tmp.endswith(".tmp")


class TestMutationCountCaching:
    def test_counter_moves_only_on_effective_mutations(self):
        db = GraphDB()
        base = db.mutation_count
        db.add_edge("x", "a", "y")  # two interns + one edge
        assert db.mutation_count == base + 3
        db.add_edge("x", "a", "y")  # duplicate: no-op
        assert db.mutation_count == base + 3
        db.add_node("x")  # already interned: no-op
        assert db.mutation_count == base + 3
        assert db.remove_edge("x", "a", "y")
        assert db.mutation_count == base + 4
        assert not db.remove_edge("x", "a", "y")  # already gone: no-op
        assert db.mutation_count == base + 4

    def test_to_csr_cached_until_mutation(self):
        db = GraphDB([("x", "a", "y")])
        first = db.to_csr()
        assert db.to_csr() is first
        db.add_edge("y", "a", "x")
        second = db.to_csr()
        assert second is not first
        assert second.num_edges == 2

    def test_no_op_mutation_keeps_cache(self):
        db = GraphDB([("x", "a", "y")])
        first = db.to_csr()
        db.add_edge("x", "a", "y")  # duplicate
        assert db.to_csr() is first


class TestDrainedStores:
    """num_nodes > len(domain()): ids outlive their last incident edge."""

    def _drained(self):
        db = GraphDB()
        for i in range(10):
            db.add_edge(f"n{i}", "a", f"n{(i + 1) % 10}")
        for edge in list(db.to_triples()):
            assert db.remove_edge(*edge)
        assert db.num_nodes == 10
        assert db.num_edges == 0
        assert len(db.domain()) == 0
        return db

    def test_snapshot_keeps_all_interned_nodes(self):
        db = self._drained()
        snapshot = db.to_csr()
        assert snapshot.num_nodes == 10
        assert snapshot.num_edges == 0

    @pytest.mark.parametrize("backend", ["bigint", "numpy"])
    def test_no_ghost_nodes_after_drain(self, backend):
        """Decoded answers mention only interned nodes, and the
        epsilon diagonal survives the drain on both backends."""
        db = self._drained()
        compiled = compiled_for(db, "a*", labels=("a",))
        answers = engine_mod.evaluate_all_sorted(db, compiled, backend=backend)
        expected = [(f"n{i}", f"n{i}") for i in range(10)]
        assert sorted(answers) == sorted(expected)
        nodes = db.nodes
        for x, y in answers:
            assert x in nodes and y in nodes

    def test_sharded_partitioning_tolerates_drained_store(self):
        from repro.rpq.sharded import ParallelEvaluator

        db = self._drained()
        compiled = compiled_for(db, "a*", labels=("a",))
        expected = engine_mod.evaluate_all_sorted(db, compiled)
        for backend in ("bigint", "numpy"):
            for shards in (1, 3, 7, 16):
                with ParallelEvaluator(db, shards, backend=backend) as ev:
                    assert ev.evaluate_all_sorted(compiled) == expected

    def test_partially_drained_store_keeps_live_edges(self):
        db = GraphDB()
        for i in range(8):
            db.add_edge(f"n{i}", "a", f"n{i + 1}")
        # Drain the odd edges only: interned nodes exceed live degree.
        db.remove_edge("n1", "a", "n2")
        db.remove_edge("n5", "a", "n6")
        compiled = compiled_for(db, "a.a", labels=("a",))
        big = engine_mod.evaluate_all_sorted(db, compiled, backend="bigint")
        vec = engine_mod.evaluate_all_sorted(db, compiled, backend="numpy")
        assert big == vec
