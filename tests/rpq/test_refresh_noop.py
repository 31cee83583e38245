"""Regression: ``ParallelEvaluator.refresh`` must no-op on unchanged graphs.

Before the fix, every ``refresh()`` call rebuilt the partition and
bumped the snapshot generation even when the graph had not changed at
all — so a session refreshing on every store-version bump (the
documented usage) forced the next pooled sweep to re-write and re-ship
a byte-identical snapshot to every worker.  ``refresh()`` now consults
:attr:`~repro.rpq.graphdb.GraphDB.mutation_count` (which only moves on
*effective* mutations) and returns early: the generation, the snapshot
object, the file pool workers have mapped, and the worker pool all
survive.
"""

import pytest

from repro.rpq import engine as engine_mod
from repro.rpq.graphdb import GraphDB
from repro.rpq.sharded import ParallelEvaluator


def _graph():
    db = GraphDB()
    for i in range(30):
        db.add_edge(f"n{i}", "a", f"n{(i + 1) % 30}")
        db.add_edge(f"n{i}", "b", f"n{(i * 3 + 2) % 30}")
    return db


def _compiled(db):
    from repro.rpq import RPQ

    return engine_mod.compile_automaton(
        RPQ("a.b").eps_free_nfa(), None, db.domain()
    )


@pytest.mark.parametrize("backend", ["bigint", "numpy"])
class TestNoOpRefresh:
    def test_generation_unchanged(self, backend):
        db = _graph()
        with ParallelEvaluator(db, 4, backend=backend) as ev:
            generation = ev.generation
            ev.refresh()
            ev.refresh()
            assert ev.generation == generation

    def test_snapshot_object_unchanged(self, backend):
        db = _graph()
        with ParallelEvaluator(db, 4, backend=backend) as ev:
            snapshot = ev._snapshot
            ev.refresh()
            assert ev._snapshot is snapshot

    def test_noop_mutations_do_not_invalidate(self, backend):
        """Idempotent add/remove calls that change nothing structurally
        must not count as mutations."""
        db = _graph()
        with ParallelEvaluator(db, 4, backend=backend) as ev:
            generation = ev.generation
            db.add_edge("n0", "a", "n1")  # already present
            db.add_node("n0")  # already interned
            assert not db.remove_edge("n0", "a", "n99")  # never existed
            ev.refresh()
            assert ev.generation == generation

    def test_effective_mutation_still_refreshes(self, backend):
        db = _graph()
        compiled = _compiled(db)
        with ParallelEvaluator(db, 4, backend=backend) as ev:
            before = ev.evaluate_all_sorted(compiled)
            generation = ev.generation
            db.add_edge("n0", "a", "n15")
            ev.refresh()
            assert ev.generation == generation + 1
            after = ev.evaluate_all_sorted(compiled)
            assert after == engine_mod.evaluate_all_sorted(db, compiled)
            assert after != before

    def test_refresh_answers_stay_correct(self, backend):
        db = _graph()
        compiled = _compiled(db)
        with ParallelEvaluator(db, 3, backend=backend) as ev:
            ev.refresh()
            assert ev.evaluate_all_sorted(
                compiled
            ) == engine_mod.evaluate_all_sorted(db, compiled)


class TestPayloadReuse:
    def test_snapshot_file_survives_noop_refresh(self):
        """The snapshot file pool tasks name (and workers have mapped)
        must not be re-written by a refresh that changed nothing."""
        db = _graph()
        compiled = _compiled(db)
        with ParallelEvaluator(db, 4, workers=2) as ev:
            ev.evaluate_all_sorted(compiled)
            if ev._pool is None:
                pytest.skip("host cannot spawn process pools")
            path = ev._snapshot_file
            assert path is not None
            ev.refresh()  # no-op: must keep the file tasks carry
            assert ev._snapshot_path() == path
            db.add_edge("n1", "b", "n20")
            ev.refresh()  # effective: the next pooled sweep names a new one
            assert ev._snapshot_file is None
            assert ev._snapshot_path() != path

    def test_pool_identity_survives_refresh(self):
        db = _graph()
        compiled = _compiled(db)
        with ParallelEvaluator(db, 4, workers=2) as ev:
            expected = ev.evaluate_all_sorted(compiled)
            pool = ev._pool
            ev.refresh()
            assert ev._pool is pool
            assert ev.evaluate_all_sorted(compiled) == expected
            assert ev._pool is pool
