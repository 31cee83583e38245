"""QuerySession: plan reuse, invalidation contract, request shapes."""

import pytest

from repro.rpq import (
    RPQViews,
    Theory,
    answer_with_views,
    make_graph,
    make_update_stream,
    rewrite_rpq,
)
from repro.rpq import sharded as sharded_mod
from repro.rpq.sharded import ParallelEvaluator, ShardedEvaluationError
from repro.service import MaterializedViewStore, QuerySession, RewritePlanCache


@pytest.fixture
def theory():
    return Theory.trivial({"a", "b"})


@pytest.fixture
def views():
    return RPQViews({"q1": "a", "q2": "b"})


@pytest.fixture
def store():
    return MaterializedViewStore(
        {"q1": [("u", "v"), ("w", "v")], "q2": [("v", "z")]}
    )


@pytest.fixture
def session(store, views, theory):
    return QuerySession(store, views, theory)


class TestAnswering:
    def test_all_pairs(self, session):
        assert session.answer("a.b") == frozenset({("u", "z"), ("w", "z")})

    def test_matches_one_shot_helper(self, session, store, views, theory):
        result = rewrite_rpq("a*", views, theory)
        _, extensions = store.snapshot()
        assert session.answer("a*") == answer_with_views(result, extensions)

    def test_single_source(self, session):
        assert session.answer_from("a.b", "u") == frozenset({"z"})
        assert session.answer_from("a.b", "z") == frozenset()

    def test_single_source_unknown_node_is_empty(self, session):
        assert session.answer_from("a.b", "nope") == frozenset()

    def test_single_pair(self, session):
        assert session.answer_pair("a.b", "u", "z")
        assert not session.answer_pair("a.b", "u", "v")
        assert not session.answer_pair("a.b", "nope", "z")

    def test_answer_many_order(self, session):
        results = session.answer_many(["a.b", "a"])
        assert results[0] == frozenset({("u", "z"), ("w", "z")})
        assert results[1] == frozenset({("u", "v"), ("w", "v")})

    def test_views_as_plain_mapping(self, store, theory):
        session = QuerySession(store, {"q1": "a", "q2": "b"}, theory)
        assert session.answer_pair("a.b", "u", "z")


class TestCaching:
    def test_answer_memo_within_a_version(self, session):
        session.answer("a.b")
        session.answer("a.b")
        assert session.stats["answer_memo_hits"] == 1

    def test_answer_sorted_hands_out_a_copy_of_the_memo(self, session):
        first = session.answer_sorted("a.b")
        first.reverse()
        first.append(("not", "an answer"))
        assert session.answer_sorted("a.b") == [("u", "z"), ("w", "z")]
        assert session.answer("a.b") == frozenset({("u", "z"), ("w", "z")})

    def test_every_request_shape_counts_one_request_and_at_most_one_hit(
        self, session, store
    ):
        stats = session.stats

        def counted(request, *args):
            before = stats["requests"], stats["answer_memo_hits"]
            request(*args)
            return (
                stats["requests"] - before[0],
                stats["answer_memo_hits"] - before[1],
            )

        assert counted(session.answer_sorted, "a.b") == (1, 0)
        assert counted(session.answer, "a.b") == (1, 1)
        assert counted(session.answer_sorted, "a.b") == (1, 1)
        assert counted(session.answer_many, ["a.b", "a", "a"]) == (3, 2)
        store.add("q2", "v", "z2")
        assert counted(session.answer, "a.b") == (1, 0)
        assert counted(session.answer_many, ["a.b", "a"]) == (2, 1)

    def test_data_change_invalidates_answers_not_plans(self, session, store):
        plans = session.plans
        first = session.answer("a.b")
        store.add("q2", "v", "z2")
        second = session.answer("a.b")
        assert second == first | {("u", "z2"), ("w", "z2")}
        assert session.stats["invalidations"] == 1
        assert plans.stats["built"] == 1  # the plan survived the update

    def test_plan_built_once_across_request_shapes(self, session):
        session.answer("a.b")
        session.answer_from("a.b", "u")
        session.answer_pair("a.b", "u", "z")
        assert session.plans.stats["built"] == 1

    def test_shared_plan_cache_across_sessions(self, store, views, theory):
        plans = RewritePlanCache()
        one = QuerySession(store, views, theory, plans=plans)
        two = QuerySession(store, views, theory, plans=plans)
        one.answer("a.b")
        two.answer("a.b")
        assert plans.stats["built"] == 1
        assert plans.stats["hits"] >= 1

    def test_warm_prebuilds(self, session):
        session.warm(["a.b", "a", "b"])
        assert session.plans.stats["built"] == 3
        session.answer("a.b")
        assert session.plans.stats["built"] == 3


class TestPlans:
    def test_plan_and_exactness(self, session):
        assert session.is_exact("a.b")
        plan = session.plan("a.b")
        assert plan.accepts(["q1", "q2"])

    def test_exactness_of_a_plan_is_searched_once(self, session, monkeypatch):
        from repro.core import exactness

        searches = []
        search = exactness.containment_counterexample
        monkeypatch.setattr(
            exactness,
            "containment_counterexample",
            lambda left, right: searches.append(left) or search(left, right),
        )
        assert session.is_exact("a.b") and session.is_exact("a.b")
        assert session.plan("a.b").exactness_counterexample() is None
        assert len(searches) == 1

    def test_incomplete_views_still_sound(self, store, theory):
        session = QuerySession(store, {"q1": "a"}, theory)
        assert not session.is_exact("a+b")
        # Only the view-expressible half of the union is answerable.
        assert session.answer("a+b") == frozenset({("u", "v"), ("w", "v")})


class TestIncrementalMaintenance:
    """Replayable deltas patch the retained sweep state — insertions
    resume the sweep, deletions run delete-rederive; only stale logs and
    the ``incremental=False`` knob pay a full recompute."""

    def test_insert_is_absorbed_incrementally(self, session, store):
        first = session.answer("a.b")
        assert session.stats["full_recomputes"] == 1
        store.add("q2", "v", "z2")
        assert session.answer("a.b") == first | {("u", "z2"), ("w", "z2")}
        assert session.stats["incremental_updates"] == 1
        assert session.stats["full_recomputes"] == 1
        assert session.stats["delta_edges_applied"] == 1

    def test_multi_update_delta_absorbed_in_one_step(self, session, store):
        session.answer("a.b")
        store.add("q1", "u2", "v")
        store.add_many("q2", [("v", "z3"), ("v", "z4")])
        session.answer("a.b")
        assert session.stats["incremental_updates"] == 1
        assert session.stats["delta_edges_applied"] == 3

    def test_deletion_is_absorbed_incrementally(self, session, store):
        session.answer("a.b")
        store.remove("q1", "u", "v")
        assert session.answer("a.b") == frozenset({("w", "z")})
        assert session.stats["incremental_updates"] == 1
        assert session.stats["incremental_deletes"] == 1
        assert session.stats["full_recomputes"] == 1

    def test_mixed_delta_patches_in_one_step(self, session, store):
        session.answer("a.b")
        store.add("q1", "u2", "v")
        store.remove("q2", "v", "z")
        store.add("q2", "v", "z2")
        assert session.answer("a.b") == frozenset(
            {("u", "z2"), ("w", "z2"), ("u2", "z2")}
        )
        assert session.stats["incremental_updates"] == 1
        assert session.stats["incremental_deletes"] == 1
        assert session.stats["delta_edges_applied"] == 3
        assert session.stats["full_recomputes"] == 1

    def test_rederived_bits_are_counted(self, views, theory):
        # ("u","z") is derivable through v and through v2: deleting the
        # v-route over-deletes the answer, which the v2-route re-proves.
        store = MaterializedViewStore(
            {"q1": [("u", "v"), ("u", "v2")], "q2": [("v", "z"), ("v2", "z")]}
        )
        session = QuerySession(store, views, theory)
        assert session.answer("a.b") == frozenset({("u", "z")})
        store.remove("q1", "u", "v")
        assert session.answer("a.b") == frozenset({("u", "z")})
        assert session.stats["incremental_deletes"] == 1
        assert session.stats["rederived_bits"] >= 1
        assert session.stats["full_recomputes"] == 1

    def test_stale_log_forces_full_recompute(self, views, theory):
        store = MaterializedViewStore(
            {"q1": [("u", "v")], "q2": [("v", "z")]}, log_limit=1
        )
        session = QuerySession(store, views, theory)
        session.answer("a.b")
        store.add("q1", "u2", "v")
        store.add("q1", "u3", "v")  # compacts the first insert away
        assert session.answer("a.b") == frozenset(
            {("u", "z"), ("u2", "z"), ("u3", "z")}
        )
        assert session.stats["incremental_updates"] == 0
        assert session.stats["full_recomputes"] == 2

    def test_empty_view_fill_is_absorbed_incrementally(self, theory):
        # The compile domain is pinned to the view alphabet, so q2's
        # first tuple is an ordinary insert delta — not a label-domain
        # change recompiling the automaton and orphaning retained state.
        store = MaterializedViewStore({"q1": [("u", "v")]})
        session = QuerySession(store, {"q1": "a", "q2": "b"}, theory)
        assert session.answer("a.b") == frozenset()
        store.add("q2", "v", "z")
        assert session.answer("a.b") == frozenset({("u", "z")})
        assert session.stats["full_recomputes"] == 1
        assert session.stats["incremental_updates"] == 1

    def test_delete_last_tuple_then_reinsert_keeps_state(self, session, store):
        # Regression: ``GraphDB.remove_edge`` drops emptied label buckets,
        # so deleting a view's last tuple used to shrink
        # ``graph.domain()`` — the old compile-cache key — recompiling
        # every plan and orphaning every retained sweep state over a
        # transient blip.  With the domain pinned to the view alphabet,
        # both the delete and the reinsert are ordinary patches.
        first = session.answer("a.b")
        store.remove("q2", "v", "z")  # q2's only tuple
        assert "q2" not in store
        assert session.answer("a.b") == frozenset()
        store.add("q2", "v", "z")
        assert session.answer("a.b") == first
        assert session.stats["full_recomputes"] == 1
        assert session.stats["incremental_updates"] == 2
        assert session.stats["incremental_deletes"] == 1

    def test_incremental_false_never_retains_state(self, store, views, theory):
        session = QuerySession(store, views, theory, incremental=False)
        session.answer("a.b")
        store.add("q2", "v", "z2")
        session.answer("a.b")
        assert session.stats["full_recomputes"] == 2
        assert session.stats["incremental_updates"] == 0
        assert session._delta_states == {}

    def test_parallel_session_routes_deltas_to_full_sharded_sweeps(
        self, store, views, theory
    ):
        """Deltas are patched in place; a full sharded sweep of the store
        at the same version gives the same answers."""
        session = QuerySession(store, views, theory)
        session.answer("a.b")
        store.add("q2", "v", "z2")
        assert session.answer("a.b") == _sharded_answer(session, "a.b")
        assert session.stats["incremental_updates"] == 1
        assert session.stats["full_recomputes"] == 1

    def test_answer_sorted_matches_answer(self, session, store):
        store.add("q1", "u2", "v")
        answers = session.answer("a.b")
        sorted_answers = session.answer_sorted("a.b")
        assert frozenset(sorted_answers) == answers
        graph = store.graph
        keys = [
            (graph.node_id(x), graph.node_id(y)) for x, y in sorted_answers
        ]
        assert keys == sorted(keys)

    def test_every_evaluation_path_returns_the_same_bytes(self):
        """Default (patched in place) and ``incremental=False`` (a full
        build per version) over one mixed update stream: the sorted
        answers are equal byte for byte after every step, and each
        session's ``answer()`` is the set of its own list."""
        labels = ("r", "d")
        views = RPQViews({f"v_{label}": label for label in labels})
        theory = Theory.trivial(set(labels))
        db = make_graph("grid", seed=18, edges=120)
        # Sorted: the stores must intern nodes in one order.
        extensions = {
            symbol: sorted(pairs)
            for symbol, pairs in views.materialize(db, theory).items()
        }
        stream = make_update_stream(
            "grid", 18, count=30, base=extensions,
            delete_fraction=0.3, reinsert_fraction=0.5,
        )
        assert {op.op for op in stream} == {"insert", "delete"}
        knobs = ({}, {"incremental": False})
        sessions = [
            QuerySession(MaterializedViewStore(extensions), views, theory, **knob)
            for knob in knobs
        ]
        queries = ("r.d", "(r+d)*", "r.r*")

        def answer_bytes(session):
            return repr([session.answer_sorted(query) for query in queries]).encode()

        for op in (None, *stream):
            for session in sessions:
                if op is not None and op.op == "insert":
                    assert session.store.add(op.symbol, op.source, op.target)
                elif op is not None:
                    assert session.store.remove(op.symbol, op.source, op.target)
            default, rebuilt = map(answer_bytes, sessions)
            assert default == rebuilt
            # The set form beside the list (memo hits): the same answers.
            for session in sessions:
                for query in queries:
                    assert session.answer(query) == frozenset(
                        session.answer_sorted(query)
                    )
        assert sessions[0].stats["incremental_updates"] == len(queries) * len(stream)
        assert sessions[1].stats["full_recomputes"] == len(queries) * (len(stream) + 1)

    def test_states_are_per_plan(self, session, store):
        session.answer("a.b")
        session.answer("a")
        store.add("q2", "v", "z2")
        session.answer("a.b")
        session.answer("a")
        # Both plans' states absorbed the same delta independently.
        assert session.stats["incremental_updates"] == 2
        assert session.stats["full_recomputes"] == 2
        assert len(session._delta_states) == 2


class TestClose:
    def test_close_releases_evaluation_state_and_the_session_stays_usable(
        self, session, store
    ):
        queries = ("a.b", "a", "a*")
        store.add("q2", "v", "z2")
        before = {query: session.answer_sorted(query) for query in queries}
        assert len(session._delta_states) == len(session._answers) == 3
        recomputes = session.stats["full_recomputes"]
        invalidations = session.stats["invalidations"]
        session.close()
        assert not session._delta_states and not session._answers
        session.close()  # idempotent
        assert {query: session.answer_sorted(query) for query in queries} == before
        # One full sweep per plan rebuilt what close() dropped; the plans
        # themselves were kept, and an emptied memo is not an invalidation.
        assert session.stats["full_recomputes"] == recomputes + 3
        assert session.stats["invalidations"] == invalidations
        assert len(session._compiled_plans) == 3
        store.add("q1", "u2", "v")
        session.answer_sorted("a.b")
        assert session.stats["full_recomputes"] == recomputes + 3


class TestAnswerEdits:
    def test_script_patches_the_previous_answer_of_this_state_only(
        self, session, store
    ):
        first = session.answer_sorted("a.b")
        token, edits = session.answer_edits("a.b", None)
        assert token is not None and edits is None
        store.add("q1", "x", "v")
        # Not answered at this version yet: nothing to hand out.
        assert session.answer_edits("a.b", token) == (None, None)
        second = session.answer_sorted("a.b")
        token, edits = session.answer_edits("a.b", token)
        assert edits == [(2, ("x", "z"))] and second[2] == ("x", "z")
        assert first[:2] + [("x", "z")] == second
        assert session.answer_edits("a.b", token) == (token, [])
        session.close()
        assert session.answer_edits("a.b", token) == (None, None)
        assert session.answer_sorted("a.b") == second
        rebuilt, edits = session.answer_edits("a.b", token)
        assert rebuilt != token and edits is None

    def test_without_retained_state_there_is_no_token(self, store, views, theory):
        session = QuerySession(store, views, theory, incremental=False)
        session.answer_sorted("a.b")
        assert session.answer_edits("a.b", None) == (None, None)


def _sharded_answer(session, query, **kwargs):
    """The all-pairs answer of ``query``'s plan as a standalone
    ParallelEvaluator computes it over the session's view graph."""
    compiled = session._compiled(session._plan_entry(query)[1][1])
    kwargs.setdefault("num_shards", 3)
    with ParallelEvaluator(session.store.graph, **kwargs) as evaluator:
        return evaluator.evaluate_all(compiled)


class TestParallelism:
    """Sessions have no shard knob: they answer on the incremental path,
    which agrees with the standalone ParallelEvaluator, and a fault in
    the sharded kernel cannot reach them."""

    def test_sharded_answers_match_sequential(self, session):
        for query in ("a.b", "a*", "a+b"):
            sharded = _sharded_answer(session, query)
            assert session.answer(query) == sharded
        sharded = _sharded_answer(session, "a.b")
        assert session.answer_from("a.b", "u") == frozenset(
            y for x, y in sharded if x == "u"
        )
        assert session.answer_pair("a.b", "u", "z") == (("u", "z") in sharded)
        assert "parallel" not in repr(session)

    def test_pool_workers_in_session(self, store, views, theory):
        with pytest.raises(TypeError, match="workers"):
            QuerySession(store, views, theory, workers=2)
        session = QuerySession(store, views, theory)
        assert session.answer("a.b") == frozenset({("u", "z"), ("w", "z")})
        assert _sharded_answer(session, "a.b", workers=2) == session.answer("a.b")

    def test_shard_partition_tracks_store_version(self, session, store):
        compiled = session._compiled(session._plan_entry("a.b")[1][1])
        evaluator = ParallelEvaluator(store.graph, num_shards=3)
        snapshot = evaluator._snapshot
        assert evaluator.evaluate_all(compiled) == session.answer("a.b")
        store.add("q2", "v", "z2")
        expected = frozenset({("u", "z"), ("w", "z"), ("u", "z2"), ("w", "z2")})
        assert session.answer("a.b") == expected
        # The evaluator still answers for the version it froze...
        assert evaluator.evaluate_all(compiled) != expected
        # ...until a refresh retakes the snapshot of the store's graph.
        evaluator.refresh()
        assert evaluator._snapshot is not snapshot
        assert evaluator.generation == 1
        assert evaluator.evaluate_all(compiled) == expected

    def test_pool_survives_version_bumps(self, session, store):
        """A trickle of single-tuple updates is patched into the session's
        state; an evaluator refreshed beside it keeps its thread pool."""
        compiled = session._compiled(session._plan_entry("a.b")[1][1])
        with ParallelEvaluator(store.graph, num_shards=3, workers=2) as evaluator:
            assert evaluator.evaluate_all(compiled) == session.answer("a.b")
            pool = evaluator._pool
            assert pool is not None  # built by the first call
            expected = {("u", "z"), ("w", "z")}
            for i in range(3):
                store.add("q1", f"extra{i}", "v")
                expected.add((f"extra{i}", "z"))
                evaluator.refresh()
                assert session.answer("a.b") == frozenset(expected)
                assert evaluator.evaluate_all(compiled) == frozenset(expected)
                assert evaluator._pool is pool
            store.remove("q1", "extra0", "v")
            expected.discard(("extra0", "z"))
            evaluator.refresh()
            assert session.answer("a.b") == frozenset(expected)
            assert evaluator.evaluate_all(compiled) == frozenset(expected)
            assert evaluator._pool is pool
        assert session.stats["incremental_updates"] == 4
        assert session.stats["full_recomputes"] == 1

    def test_parallelism_below_two_stays_sequential(self, store, views, theory):
        with pytest.raises(TypeError, match="parallelism"):
            QuerySession(store, views, theory, parallelism=1)
        session = QuerySession(store, views, theory)
        session.answer("a.b")
        assert not any(key.startswith("parallel") for key in session.stats)
        assert "parallel" not in repr(session)

    def test_worker_fault_falls_back_and_session_stays_usable(
        self, session, store
    ):
        """A window failing mid-sweep on a two-thread pool fails the
        evaluator with its typed error; the session over the same store
        answers every request shape regardless."""
        compiled = session._compiled(session._plan_entry("a.b")[1][1])
        evaluator = ParallelEvaluator(
            store.graph, num_shards=3, workers=2, _fail_shards=[1]
        )
        with pytest.raises(ShardedEvaluationError):
            evaluator.evaluate_all(compiled)
        assert session.answer("a.b") == frozenset({("u", "z"), ("w", "z")})
        assert session.answer_from("a.b", "u") == frozenset({"z"})
        assert session.answer_pair("a.b", "u", "z")

    def test_sequential_path_fault_also_degrades(
        self, session, store, monkeypatch
    ):
        """A broken window sweep on a one-thread pool fails the evaluator
        but never runs under a session."""

        def boom(*args, **kwargs):
            raise RuntimeError("kernel bug")

        monkeypatch.setattr(sharded_mod, "_sweep_window", boom)
        compiled = session._compiled(session._plan_entry("a.b")[1][1])
        with pytest.raises(ShardedEvaluationError):
            ParallelEvaluator(store.graph, num_shards=3).evaluate_all(compiled)
        assert session.answer("a.b") == frozenset({("u", "z"), ("w", "z")})
        store.add("q1", "x", "v")
        assert session.answer("a.b") == frozenset(
            {("u", "z"), ("w", "z"), ("x", "z")}
        )
        assert session.stats["incremental_updates"] == 1

    def test_close_releases_pool_and_session_stays_usable(
        self, store, views, theory
    ):
        with QuerySession(store, views, theory) as session:
            expected = session.answer("a.b")
            assert session._delta_states
        assert not session._delta_states  # context exit released it
        assert session.answer_pair("a.b", "u", "z")
        assert session.answer("a.b") == expected

    def test_single_source_fault_falls_back_too(self, session, monkeypatch):
        """answer_from/answer_pair go straight to the engine, so a broken
        sharded kernel leaves them answering."""

        def boom(*args, **kwargs):
            raise RuntimeError("kernel bug")

        monkeypatch.setattr(sharded_mod, "_sweep_window", boom)
        assert session.answer_from("a.b", "u") == frozenset({"z"})
        assert session.answer_pair("a.b", "w", "z")
        assert not session.answer_pair("a.b", "z", "u")
