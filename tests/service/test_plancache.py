"""RewritePlanCache: canonical keys, disk persistence, no rebuilding."""

import json

import pytest

from repro.rpq import Pred, RPQViews, Theory, rewrite_rpq
from repro.service import (
    RewritePlanCache,
    plan_from_dict,
    plan_key,
    plan_to_dict,
)


@pytest.fixture
def theory():
    return Theory.trivial({"a", "b", "c"})


@pytest.fixture
def views():
    return RPQViews({"q1": "a", "q2": "b", "q3": "c"})


class TestPlanKey:
    def test_deterministic_across_equal_inputs(self, theory, views):
        other_views = RPQViews({"q1": "a", "q2": "b", "q3": "c"})
        other_theory = Theory.trivial({"c", "b", "a"})
        assert plan_key("a.b", views, theory) == plan_key(
            "a.b", other_views, other_theory
        )

    def test_distinguishes_every_input(self, theory, views):
        base = plan_key("a.b", views, theory)
        assert plan_key("a.c", views, theory) != base
        assert plan_key("a.b", RPQViews({"q1": "a", "q2": "b"}), theory) != base
        assert (
            plan_key("a.b", views, Theory({"a", "b", "c"}, {"P": {"a"}})) != base
        )
        assert plan_key("a.b", views, theory, strategy="ground") != base
        assert plan_key("a.b", views, theory, partition=True) != base

    def test_view_symbol_renaming_changes_key(self, theory, views):
        renamed = RPQViews({"r1": "a", "r2": "b", "r3": "c"})
        assert plan_key("a.b", views, theory) != plan_key("a.b", renamed, theory)


class TestSerialization:
    def test_plan_round_trips_through_dict(self, theory, views):
        result = rewrite_rpq("a.(b+c)*", views, theory)
        clone = plan_from_dict(json.loads(json.dumps(plan_to_dict(result))))
        assert clone.automaton.states == result.automaton.states
        assert clone.automaton.accepts(["q1", "q2", "q3"]) == result.automaton.accepts(
            ["q1", "q2", "q3"]
        )
        assert clone.is_exact() == result.is_exact()
        extensions = {"q1": [("x", "y")], "q2": [("y", "z")], "q3": []}
        from repro.rpq import answer_with_views

        assert answer_with_views(clone, extensions) == answer_with_views(
            result, extensions
        )

    def test_formula_views_are_rejected_by_dict_form(self):
        from repro.regex.ast import sym

        theory = Theory({"a", "b"}, {"P": {"a"}})
        views = RPQViews({"q1": sym(Pred("P")), "q2": "b"})
        result = rewrite_rpq("a.b", views, theory)
        with pytest.raises(TypeError):
            plan_to_dict(result)


class TestCache:
    def test_memory_hit_after_build(self, tmp_path, theory, views):
        cache = RewritePlanCache(tmp_path / "plans")
        first = cache.get_or_build("a.b", views, theory)
        second = cache.get_or_build("a.b", views, theory)
        assert first is second
        assert cache.stats["built"] == 1
        assert cache.stats["hits"] == 1
        assert cache.stats["saved"] == 1
        assert len(cache) == 1

    def test_disk_reload_skips_building(self, tmp_path, theory, views):
        plan_dir = tmp_path / "plans"
        RewritePlanCache(plan_dir).get_or_build("a.(b+c)*", views, theory)

        reloaded = RewritePlanCache(plan_dir)

        def forbid(*args, **kwargs):
            raise AssertionError("must not rebuild")

        reloaded._builder = forbid
        plan = reloaded.get_or_build("a.(b+c)*", views, theory)
        assert reloaded.stats == {
            "hits": 0,
            "loaded": 1,
            "built": 0,
            "saved": 0,
            "unserializable": 0,
            "load_errors": 0,
        }
        assert plan.is_exact()

    def test_corrupt_plan_file_is_rebuilt_not_fatal(self, tmp_path, theory, views):
        plan_dir = tmp_path / "plans"
        cache = RewritePlanCache(plan_dir)
        cache.get_or_build("a.b", views, theory)
        (plan_file,) = plan_dir.glob("*.json")

        for bad in ('{"format": 999}', "{truncated", ""):
            plan_file.write_text(bad)
            fresh = RewritePlanCache(plan_dir)
            plan = fresh.get_or_build("a.b", views, theory)
            assert plan.is_exact()
            assert fresh.stats["load_errors"] == 1
            assert fresh.stats["built"] == 1
            # The rebuild overwrote the bad file: next process loads fine.
            after = RewritePlanCache(plan_dir)
            after.get_or_build("a.b", views, theory)
            assert after.stats["loaded"] == 1

    def test_old_format_plan_file_is_a_counted_miss_and_is_overwritten(
        self, tmp_path, theory, views
    ):
        """Format 1 stored ``A'`` as a serialized NFA; format 2 stores its
        bit rows.  The key scheme is unchanged, so the old file is found,
        refused, rebuilt and replaced."""
        from repro.automata.serialization import nfa_to_dict

        plan_dir = tmp_path / "plans"
        cache = RewritePlanCache(plan_dir)
        plan = cache.get_or_build("a.b", views, theory)
        (plan_file,) = plan_dir.glob("*.json")
        old = json.loads(plan_file.read_text())
        assert old["format"] == 2
        assert old["a_prime"] == {
            symbol: [format(mask, "x") for mask in rows]
            for symbol, rows in zip(views.symbols, plan.a_prime_rows)
        }
        old.update(format=1, a_prime=nfa_to_dict(plan.a_prime))
        plan_file.write_text(json.dumps(old))

        fresh = RewritePlanCache(plan_dir)
        rebuilt = fresh.get_or_build("a.b", views, theory)
        assert (fresh.stats["load_errors"], fresh.stats["built"]) == (1, 1)
        assert fresh.stats["saved"] == 1
        assert json.loads(plan_file.read_text())["format"] == 2
        after = RewritePlanCache(plan_dir)
        loaded = after.get_or_build("a.b", views, theory)
        assert (after.stats["loaded"], after.stats["load_errors"]) == (1, 0)
        assert [tuple(rows) for rows in loaded.a_prime_rows] == [
            tuple(rows) for rows in rebuilt.a_prime_rows
        ]

    @pytest.mark.parametrize("bad_row", ["ff00", "-1"])
    def test_a_prime_row_outside_ad_is_a_counted_miss_and_is_overwritten(
        self, tmp_path, theory, views, bad_row
    ):
        """A row with a bit at or above ``Ad``'s state count (or a negative
        one) used to load, and fail in the first ``plan.a_prime`` instead."""
        plan_dir = tmp_path / "plans"
        RewritePlanCache(plan_dir).get_or_build("a.b", views, theory)
        (plan_file,) = plan_dir.glob("*.json")
        payload = json.loads(plan_file.read_text())
        assert len(payload["ad"]["states"]) < 8
        payload["a_prime"]["q1"][0] = bad_row
        plan_file.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="A' row"):
            plan_from_dict(payload)

        fresh = RewritePlanCache(plan_dir)
        rebuilt = fresh.get_or_build("a.b", views, theory)
        assert (fresh.stats["load_errors"], fresh.stats["built"]) == (1, 1)
        assert rebuilt.a_prime.num_states == rebuilt.ad.num_states
        after = RewritePlanCache(plan_dir)
        after.get_or_build("a.b", views, theory)
        assert (after.stats["loaded"], after.stats["load_errors"]) == (1, 0)

    def test_corrupt_entry_skips_with_a_warning(
        self, tmp_path, theory, views, caplog
    ):
        """Corruption is *diagnosed*, not just survived: every skipped
        entry names the file and the decode failure in a log warning, and
        the wrong-shape payloads that used to escape the narrow except
        clause (a JSON array, a number, an object missing its keys) are
        all caught the same way."""
        import logging

        plan_dir = tmp_path / "plans"
        cache = RewritePlanCache(plan_dir)
        cache.get_or_build("a.b", views, theory)
        (plan_file,) = plan_dir.glob("*.json")

        for bad in ("[1, 2, 3]", "42", '"plan"', '{"views": null}'):
            plan_file.write_text(bad)
            fresh = RewritePlanCache(plan_dir)
            with caplog.at_level(logging.WARNING, "repro.service.plancache"):
                caplog.clear()
                assert fresh.get("a.b", views, theory) is None
            assert fresh.stats["load_errors"] == 1
            (record,) = caplog.records
            assert "skipping corrupt plan-cache entry" in record.getMessage()
            assert plan_file.name in record.getMessage()

    def test_get_never_builds(self, tmp_path, theory, views):
        cache = RewritePlanCache(tmp_path / "plans")
        assert cache.get("a.b", views, theory) is None
        assert cache.stats["built"] == 0

    def test_memory_only_without_directory(self, theory, views):
        cache = RewritePlanCache()
        cache.get_or_build("a.b", views, theory)
        assert cache.stats == {
            "hits": 0,
            "loaded": 0,
            "built": 1,
            "saved": 0,
            "unserializable": 0,
            "load_errors": 0,
        }

    def test_formula_plans_fall_back_to_memory(self, tmp_path):
        theory = Theory({"a", "b"}, {"P": {"a", "b"}})
        views = RPQViews({"q1": "a", "q2": "b"})
        cache = RewritePlanCache(tmp_path / "plans")
        # A formula query makes Ad range over non-string-only alphabets?
        # No — Ad is over D (strings here).  Use a non-string *view
        # symbol* instead, which is genuinely unserializable.
        odd_views = RPQViews({("q", 1): "a"})
        cache.get_or_build("a", odd_views, theory)
        assert cache.stats["built"] == 1
        assert cache.stats["unserializable"] == 1
        assert cache.stats["saved"] == 0
        # Still served from memory afterwards.
        cache.get_or_build("a", odd_views, theory)
        assert cache.stats["hits"] == 1

    def test_strategy_validated(self):
        with pytest.raises(ValueError):
            RewritePlanCache(strategy="zigzag")

    def test_warm_builds_all(self, tmp_path, theory, views):
        cache = RewritePlanCache(tmp_path / "plans")
        plans = cache.warm(["a.b", "b.c", "a.b"], views, theory)
        assert len(plans) == 3
        assert plans[0] is plans[2]
        assert cache.stats["built"] == 2
