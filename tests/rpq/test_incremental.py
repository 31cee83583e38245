"""DeltaSweepState: bit-identical resumption of the all-pairs sweep.

The contract under test is stronger than equal answer sets: after any
sequence of insertions and deletions, the retained ``reached`` matrices
and ``answer_masks`` must equal — bit for bit — those of a state freshly
built on the updated graph (deletions go through delete-rederive, so
this pins that over-deletion is fully undone and true deletions are
fully applied).  Equal masks imply equal answers for *every future delta
too*, which is why the unit layer pins masks and leaves answer-level
comparison to the differential harness.

Every test class runs twice: as written on ``DeltaSweepState`` (Python-int
rows), and through its ``...BlockRows`` subclass on
``NumpyDeltaSweepState`` (the same algorithm over uint64 block matrices).
Rows are compared as ints — ``list(rows)`` reads either layout that way —
and always against a fresh *big-int* build, so the block layout is held to
the big-int sweep's bits, not to its own.
"""

import random
import time
from unittest import mock

import numpy as np
import pytest

from repro.rpq import RPQ, DeltaSweepState, GraphDB
from repro.rpq import engine as engine_mod
from repro.rpq.incremental import NumpyDeltaSweepState

LABELS = ("a", "b", "c")


def compiled_for(query, labels=LABELS):
    return engine_mod.compile_automaton(
        RPQ(query).eps_free_nfa(), None, frozenset(labels)
    )


def assert_bit_identical(state, db, compiled):
    fresh = DeltaSweepState(db, compiled)
    assert list(state.answer_masks) == fresh.answer_masks
    for automaton_state, row in fresh.reached.items():
        mine = state.reached.get(automaton_state, [0] * state.num_nodes)
        assert list(mine) == row, f"reached[{automaton_state}] diverged"
    for automaton_state, row in state.reached.items():
        if automaton_state not in fresh.reached:
            # Rows a fresh sweep never materializes may linger in a
            # maintained state, but only as all-zero husks.
            assert not any(row), f"ghost bits in reached[{automaton_state}]"
    assert state.answers_sorted() == engine_mod.evaluate_all_sorted(db, compiled)
    assert state.answers() == engine_mod.evaluate_all(db, compiled)


class TestSingleInsertions:
    state_class = DeltaSweepState

    def test_edge_extending_a_path(self):
        db = GraphDB([("x", "a", "y")])
        compiled = compiled_for("a.b")
        state = self.state_class(db, compiled)
        assert state.answers() == frozenset()
        db.add_edge("y", "b", "z")
        state.apply_insertions([("y", "b", "z")])
        assert state.answers() == frozenset({("x", "z")})
        assert_bit_identical(state, db, compiled)

    def test_new_seed_source(self):
        """An insert that gives a node its *first* matching out-edge must
        seed that node, not just push existing sources."""
        db = GraphDB(nodes=["x", "y"])
        compiled = compiled_for("a")
        state = self.state_class(db, compiled)
        db.add_edge("x", "a", "y")
        state.apply_insertions([("x", "a", "y")])
        assert state.answers() == frozenset({("x", "y")})
        assert_bit_identical(state, db, compiled)

    def test_insert_closing_a_cycle_under_a_star(self):
        db = GraphDB([("x", "a", "y"), ("y", "a", "z")])
        compiled = compiled_for("a*")
        state = self.state_class(db, compiled)
        db.add_edge("z", "a", "x")
        state.apply_insertions([("z", "a", "x")])
        nodes = {"x", "y", "z"}
        assert state.answers() == frozenset(
            (source, target) for source in nodes for target in nodes
        )
        assert_bit_identical(state, db, compiled)

    def test_unmatched_label_is_a_cheap_noop(self):
        db = GraphDB([("x", "a", "y")])
        compiled = compiled_for("a")
        state = self.state_class(db, compiled)
        before = list(state.answer_masks)
        db.add_edge("x", "c", "y")
        state.apply_insertions([("x", "c", "y")])
        assert list(state.answer_masks) == before
        assert_bit_identical(state, db, compiled)

    def test_reapplying_an_absorbed_edge_is_idempotent(self):
        db = GraphDB([("x", "a", "y")])
        compiled = compiled_for("a.b")
        state = self.state_class(db, compiled)
        db.add_edge("y", "b", "z")
        state.apply_insertions([("y", "b", "z")])
        state.apply_insertions([("y", "b", "z")])
        assert state.edges_applied == 2
        assert state.answers() == frozenset({("x", "z")})
        assert_bit_identical(state, db, compiled)


class TestNodeGrowth:
    state_class = DeltaSweepState

    def test_insert_interning_new_nodes(self):
        db = GraphDB([("x", "a", "y")])
        compiled = compiled_for("a.b")
        state = self.state_class(db, compiled)
        db.add_edge("y", "b", "brand_new")
        state.apply_insertions([("y", "b", "brand_new")])
        assert state.num_nodes == db.num_nodes == 3
        assert state.answers() == frozenset({("x", "brand_new")})
        assert_bit_identical(state, db, compiled)

    def test_new_nodes_get_their_epsilon_diagonal(self):
        db = GraphDB([("x", "a", "y")])
        compiled = compiled_for("a*")
        state = self.state_class(db, compiled)
        db.add_edge("p", "b", "q")  # label outside the query: answers are
        state.apply_insertions([("p", "b", "q")])  # the diagonal only
        assert ("p", "p") in state.answers() and ("q", "q") in state.answers()
        assert_bit_identical(state, db, compiled)

    def test_state_built_on_empty_graph_grows(self):
        db = GraphDB()
        compiled = compiled_for("a")
        state = self.state_class(db, compiled)
        assert state.answers() == frozenset()
        db.add_edge("x", "a", "y")
        state.apply_insertions([("x", "a", "y")])
        assert state.answers() == frozenset({("x", "y")})
        assert_bit_identical(state, db, compiled)


class TestBatches:
    state_class = DeltaSweepState

    def test_batch_matches_one_at_a_time(self):
        base = [("x", "a", "y"), ("y", "b", "z")]
        batch = [("z", "a", "x"), ("y", "a", "w"), ("w", "b", "x")]
        compiled = compiled_for("(a+b)*")

        db_batch = GraphDB(base)
        state_batch = self.state_class(db_batch, compiled)
        for edge in batch:
            db_batch.add_edge(*edge)
        state_batch.apply_insertions(batch)

        db_single = GraphDB(base)
        state_single = self.state_class(db_single, compiled)
        for edge in batch:
            db_single.add_edge(*edge)
            state_single.apply_insertions([edge])

        assert list(state_batch.answer_masks) == list(state_single.answer_masks)
        assert_bit_identical(state_batch, db_batch, compiled)

    def test_one_shot_generator_input(self):
        db = GraphDB([("x", "a", "y")])
        compiled = compiled_for("a.b")
        state = self.state_class(db, compiled)
        edges = [("y", "b", "z"), ("y", "b", "w")]
        for edge in edges:
            db.add_edge(*edge)
        applied = state.apply_insertions(edge for edge in edges)
        assert applied == 2
        assert state.edges_applied == 2
        assert state.answers() == frozenset({("x", "z"), ("x", "w")})


class TestRandomized:
    state_class = DeltaSweepState

    @pytest.mark.parametrize("query", ["a", "a.b", "(a+b)*", "a.(b+c)*", "b*.c"])
    def test_random_insertion_sequences_stay_bit_identical(self, query):
        rng = random.Random(f"incremental-{query}")
        compiled = compiled_for(query)
        for _trial in range(15):
            node_count = rng.randrange(1, 10)
            nodes = [f"n{i}" for i in range(node_count)]
            db = GraphDB(nodes=nodes)
            for _ in range(rng.randrange(0, 2 * node_count)):
                db.add_edge(
                    rng.choice(nodes), rng.choice(LABELS), rng.choice(nodes)
                )
            state = self.state_class(db, compiled)
            for step in range(rng.randrange(1, 10)):
                if rng.random() < 0.2:
                    nodes.append(f"fresh{step}")
                edge = (
                    rng.choice(nodes),
                    rng.choice(LABELS),
                    rng.choice(nodes),
                )
                db.add_edge(*edge)
                state.apply_insertions([edge])
                assert_bit_identical(state, db, compiled)


class TestDeletions:
    state_class = DeltaSweepState

    def test_single_delete_breaks_the_only_path(self):
        db = GraphDB([("x", "a", "y"), ("y", "b", "z")])
        compiled = compiled_for("a.b")
        state = self.state_class(db, compiled)
        assert state.answers() == frozenset({("x", "z")})
        db.remove_edge("y", "b", "z")
        removed = state.apply_deletions([("y", "b", "z")])
        assert removed == 1
        assert state.edges_deleted == 1
        assert state.answers() == frozenset()
        assert_bit_identical(state, db, compiled)

    def test_redundant_path_is_rederived_not_lost(self):
        """Over-deletion must be undone when an alternate derivation
        survives; the counter proves re-derivation actually ran."""
        db = GraphDB(
            [("x", "a", "y"), ("x", "a", "w"), ("y", "b", "z"), ("w", "b", "z")]
        )
        compiled = compiled_for("a.b")
        state = self.state_class(db, compiled)
        db.remove_edge("y", "b", "z")
        state.apply_deletions([("y", "b", "z")])
        assert state.answers() == frozenset({("x", "z")})
        assert state.overdeleted_bits > 0
        assert state.rederived_bits > 0
        assert_bit_identical(state, db, compiled)

    def test_delete_inside_a_cycle_under_a_star(self):
        db = GraphDB([("x", "a", "y"), ("y", "a", "z"), ("z", "a", "x")])
        compiled = compiled_for("a*")
        state = self.state_class(db, compiled)
        db.remove_edge("z", "a", "x")
        state.apply_deletions([("z", "a", "x")])
        answers = state.answers()
        assert ("x", "z") in answers and ("z", "x") not in answers
        assert ("z", "z") in answers  # epsilon diagonal survives
        assert_bit_identical(state, db, compiled)

    def test_deleting_a_nodes_last_edge_keeps_its_diagonal(self):
        db = GraphDB([("x", "a", "y")])
        compiled = compiled_for("a*")
        state = self.state_class(db, compiled)
        db.remove_edge("x", "a", "y")
        state.apply_deletions([("x", "a", "y")])
        assert state.answers() == frozenset({("x", "x"), ("y", "y")})
        assert_bit_identical(state, db, compiled)

    def test_unmatched_label_is_a_cheap_noop(self):
        db = GraphDB([("x", "a", "y"), ("x", "c", "y")])
        compiled = compiled_for("a")
        state = self.state_class(db, compiled)
        before = list(state.answer_masks)
        db.remove_edge("x", "c", "y")
        state.apply_deletions([("x", "c", "y")])
        assert list(state.answer_masks) == before
        assert state.overdeleted_bits == 0
        assert_bit_identical(state, db, compiled)

    def test_batch_delete_of_a_chained_pair(self):
        """Both edges of one derivation deleted in a single batch — the
        candidate collection must read intact masks for each edge."""
        db = GraphDB(
            [("x", "a", "y"), ("y", "b", "z"), ("x", "a", "p"), ("p", "b", "q")]
        )
        compiled = compiled_for("a.b")
        state = self.state_class(db, compiled)
        batch = [("x", "a", "y"), ("y", "b", "z")]
        for edge in batch:
            db.remove_edge(*edge)
        state.apply_deletions(batch)
        assert state.edges_deleted == 2
        assert state.answers() == frozenset({("x", "q")})
        assert_bit_identical(state, db, compiled)

    def test_delete_then_reinsert_roundtrips(self):
        db = GraphDB([("x", "a", "y"), ("y", "b", "z")])
        compiled = compiled_for("a.b")
        state = self.state_class(db, compiled)
        before = list(state.answer_masks)
        db.remove_edge("x", "a", "y")
        state.apply_deletions([("x", "a", "y")])
        db.add_edge("x", "a", "y")
        state.apply_insertions([("x", "a", "y")])
        assert list(state.answer_masks) == before
        assert_bit_identical(state, db, compiled)

    def test_repr_reports_deletions(self):
        db = GraphDB([("x", "a", "y")])
        state = self.state_class(db, compiled_for("a"))
        db.remove_edge("x", "a", "y")
        state.apply_deletions([("x", "a", "y")])
        assert "edges_deleted=1" in repr(state)


class TestRandomizedDeletions:
    state_class = DeltaSweepState

    @pytest.mark.parametrize("query", ["a", "a.b", "(a+b)*", "a.(b+c)*", "b*.c"])
    def test_random_mixed_sequences_stay_bit_identical(self, query):
        rng = random.Random(f"incremental-dred-{query}")
        compiled = compiled_for(query)
        for _trial in range(15):
            node_count = rng.randrange(2, 10)
            nodes = [f"n{i}" for i in range(node_count)]
            db = GraphDB(nodes=nodes)
            present = set()
            for _ in range(rng.randrange(1, 3 * node_count)):
                edge = (
                    rng.choice(nodes), rng.choice(LABELS), rng.choice(nodes)
                )
                db.add_edge(*edge)
                present.add(edge)
            state = self.state_class(db, compiled)
            for _step in range(rng.randrange(1, 12)):
                if present and rng.random() < 0.45:
                    edge = rng.choice(sorted(present))
                    present.discard(edge)
                    db.remove_edge(*edge)
                    state.apply_deletions([edge])
                else:
                    edge = (
                        rng.choice(nodes), rng.choice(LABELS), rng.choice(nodes)
                    )
                    db.add_edge(*edge)
                    present.add(edge)
                    state.apply_insertions([edge])
                assert_bit_identical(state, db, compiled)


class TestErrors:
    state_class = DeltaSweepState

    def test_unknown_node_raises_keyerror(self):
        """Edges must be applied to the graph before being absorbed."""
        db = GraphDB([("x", "a", "y")])
        state = self.state_class(db, compiled_for("a"))
        with pytest.raises(KeyError):
            state.apply_insertions([("ghost", "a", "y")])

    def test_deleting_an_unknown_node_raises_keyerror(self):
        db = GraphDB([("x", "a", "y")])
        state = self.state_class(db, compiled_for("a"))
        with pytest.raises(KeyError):
            state.apply_deletions([("ghost", "a", "y")])

    def test_repr_reports_progress(self):
        db = GraphDB([("x", "a", "y")])
        state = self.state_class(db, compiled_for("a"))
        db.add_edge("x", "a", "x")
        state.apply_insertions([("x", "a", "x")])
        assert "edges_applied=1" in repr(state)


class TestRetainedDecode:
    """The one retained answer form: a sorted decode that a read brings up
    to date from the answer rows the patches since the last read wrote."""

    state_class = DeltaSweepState

    def test_insert_then_delete_between_two_reads_nets_to_no_change(self):
        db = GraphDB([("x", "a", "y"), ("y", "b", "z")])
        compiled = compiled_for("a.b")
        state = self.state_class(db, compiled)
        first = state.answers_sorted()
        db.add_edge("w", "a", "y")
        state.apply_insertions([("w", "a", "y")])
        db.remove_edge("w", "a", "y")
        state.apply_deletions([("w", "a", "y")])
        assert state.answers_sorted() == first == [("x", "z")]
        assert state.answers() == frozenset(first)

    def test_the_first_value_recorded_for_a_row_wins(self):
        """Three patches write target ``z``'s row between two reads; the
        read must diff against what the row held at the *last read*, not
        at the start of the latest patch."""
        db = GraphDB([("x", "a", "y"), ("y", "b", "z")])
        compiled = compiled_for("a.b")
        state = self.state_class(db, compiled)
        assert state.answers_sorted() == [("x", "z")]
        for source in ("p", "q"):
            db.add_edge(source, "a", "y")
            state.apply_insertions([(source, "a", "y")])
        db.remove_edge("x", "a", "y")
        state.apply_deletions([("x", "a", "y")])
        assert state.answers_sorted() == [("p", "z"), ("q", "z")]
        assert state.answers_sorted() == engine_mod.evaluate_all_sorted(db, compiled)
        # Nothing is left to fold, and the caller's list is its own.
        state.answers_sorted().clear()
        assert state.answers() == frozenset({("p", "z"), ("q", "z")})

    def test_reflexive_answers_of_fresh_nodes_across_the_block_boundary(self):
        """Under an epsilon-accepting automaton every node interned after
        the build contributes ``(v, v)``, in id order, 64-node boundary
        included; reads fall between patches and after several."""
        db = GraphDB([(f"n{i}", "a", f"n{i + 1}") for i in range(59)])
        compiled = compiled_for("a*")
        state = self.state_class(db, compiled)
        for i in range(10):
            edge = (f"fresh{i}", "b" if i % 2 else "a", f"n{i}")
            db.add_edge(*edge)
            state.apply_insertions([edge])
            if i % 3 == 0:
                assert state.answers_sorted() == engine_mod.evaluate_all_sorted(
                    db, compiled
                )
        assert db.num_nodes == 70
        got = state.answers_sorted()
        assert got == engine_mod.evaluate_all_sorted(db, compiled)
        assert all((f"fresh{i}", f"fresh{i}") in got for i in range(10))

    def test_the_order_keys_are_cut_from_the_decoders_arrays(self):
        """A build (and a refill) leaves ``source_id << 32 | target_id``
        beside every pair, so the first patched read asks ``node_id`` for
        the patched edge's endpoints only, never once per retained pair."""
        db = GraphDB([(f"n{i}", "a", f"n{i + 1}") for i in range(40)])
        compiled = compiled_for("a.a*", labels=("a",))
        state = self.state_class(db, compiled)
        assert state._keys.typecode == "q"
        assert list(state._keys) == [
            db.node_id(x) << 32 | db.node_id(y) for x, y in state.answers_sorted()
        ]
        db.add_edge("n40", "a", "n41")
        lookups = []
        with mock.patch.object(
            db, "node_id", side_effect=lambda node: lookups.append(node) or db._id_of[node]
        ):
            state.apply_insertions([("n40", "a", "n41")])
            assert state.answers_sorted() == engine_mod.evaluate_all_sorted(db, compiled)
        assert lookups == ["n40", "n41"]

    def test_no_second_copy_of_the_answer_masks_is_retained(self):
        db = GraphDB([("x", "a", "y")])
        state = self.state_class(db, compiled_for("a.b"))
        db.add_edge("y", "b", "fresh")
        state.apply_insertions([("y", "b", "fresh")])
        assert not hasattr(state, "_masks_snapshot")
        store = getattr(state, "_store", None)
        if store is not None:  # the block layout: answers + one per state
            assert store.shape[0] == len(state.reached) + 1

    @pytest.mark.parametrize("cut", [0, 349])
    def test_a_large_diff_costs_no_more_than_a_fresh_build(self, cut):
        """700-node chain under ``a.a*``: 244 650 answers.  Cutting the
        first edge drops 699 of them (folded in place); cutting the middle
        one drops half (one list shift per pair would take seconds, so the
        decode is refilled).  Either read equals a fresh build's and takes
        at most 3x as long — measured 0.3x (int rows) to 0.8x (blocks, the
        folded cut), so the wall-clock
        ratio has about 4x of slack on a loaded runner."""
        db = GraphDB([(f"n{i}", "a", f"n{i + 1}") for i in range(699)])
        compiled = compiled_for("a.a*", labels=("a",))
        state = self.state_class(db, compiled)
        assert len(state.answers_sorted()) == 244_650
        edge = (f"n{cut}", "a", f"n{cut + 1}")
        db.remove_edge(*edge)
        state.apply_deletions([edge])
        start = time.perf_counter()
        got = state.answers_sorted()
        read_seconds = time.perf_counter() - start
        start = time.perf_counter()
        fresh = self.state_class(db, compiled)
        build_seconds = time.perf_counter() - start
        assert got == fresh.answers_sorted()
        assert len(got) == 244_650 - (cut + 1) * (699 - cut)
        assert read_seconds <= 3 * build_seconds, (read_seconds, build_seconds)


# ----------------------------------------------------------------------
# The same cases on the block layout
# ----------------------------------------------------------------------
class TestSingleInsertionsBlockRows(TestSingleInsertions):
    state_class = NumpyDeltaSweepState


class TestNodeGrowthBlockRows(TestNodeGrowth):
    state_class = NumpyDeltaSweepState

    @pytest.mark.parametrize("query", ["a.b", "(a+b)*"])
    def test_a_fresh_node_fills_a_row_slot_already_allocated(self, query):
        """Row slots come 64 at a time, like the columns: interning 64
        nodes one edge at a time crosses one block boundary, so every
        retained matrix moves at most twice (out of the kernel's
        exact-size build, then at the boundary) and in between only its
        exact ``(num_nodes, B)`` view is re-cut."""
        db = GraphDB([(f"n{i}", "ab"[i % 2], f"n{i + 1}") for i in range(39)])
        compiled = compiled_for(query)
        state = NumpyDeltaSweepState(db, compiled)

        def matrices():
            return [state.answers_matrix, *state.reached.values()]

        moves = [0] * len(matrices())
        blocks_seen = {state.num_blocks}
        for i in range(64):
            before = matrices()
            edge = (f"n{i}", "ab"[i % 2], f"fresh{i}")
            db.add_edge(*edge)
            state.apply_insertions([edge])
            for slot, (old, new) in enumerate(zip(before, matrices())):
                assert new.shape == (db.num_nodes, state.num_blocks)
                moves[slot] += not np.shares_memory(old, new)
            blocks_seen.add(state.num_blocks)
            assert_bit_identical(state, db, compiled)
        assert blocks_seen == {1, 2}
        assert max(moves) <= 2, moves
        # Only a plain int index reads a row as an int; slices stay arrays.
        answers = state.answer_masks
        assert answers[5] == int.from_bytes(state.answers_matrix[5].tobytes(), "little")
        assert np.array_equal(answers[5:7], state.answers_matrix[5:7])


class TestBatchesBlockRows(TestBatches):
    state_class = NumpyDeltaSweepState


class TestRandomizedBlockRows(TestRandomized):
    state_class = NumpyDeltaSweepState


class TestDeletionsBlockRows(TestDeletions):
    state_class = NumpyDeltaSweepState


class TestRandomizedDeletionsBlockRows(TestRandomizedDeletions):
    state_class = NumpyDeltaSweepState


class TestErrorsBlockRows(TestErrors):
    state_class = NumpyDeltaSweepState


class TestRetainedDecodeBlockRows(TestRetainedDecode):
    state_class = NumpyDeltaSweepState
