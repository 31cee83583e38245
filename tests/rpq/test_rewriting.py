"""Section 4.2 rewriting of RPQs: Theorems 4.1 and 4.2.

Theorem 4.1 makes semantic (all-databases) rewriting equivalent to
language-level matching containment, so the semantic side is validated on
concrete databases: answers obtained through the views are always contained
in the direct answers, with equality when the rewriting is exact.
"""

import random

import pytest

from repro.regex.ast import concat, star, sym
from repro.rpq import (
    RPQ,
    GraphDB,
    Pred,
    RPQViews,
    Theory,
    evaluate,
    path_graph,
    random_graph,
    rewrite_rpq,
    rewriting_is_complete_on,
    rewriting_is_sound_on,
)
from repro.regex.printer import to_string


@pytest.fixture
def trivial_theory():
    return Theory.trivial({"a", "b", "c"})


class TestPlainRewriting:
    """With a trivial theory the algorithm must coincide with Section 2."""

    def test_figure1_through_rpq_layer(self, trivial_theory):
        views = RPQViews({"e1": "a", "e2": "a.c*.b", "e3": "c"})
        result = rewrite_rpq("a.(b.a+c)*", views, trivial_theory)
        assert to_string(result.regex()) == "e2*.e1.e3*"
        assert result.is_exact()

    def test_example41(self, trivial_theory):
        views = RPQViews({"q1": "a", "q2": "b"})
        result = rewrite_rpq("a.(b+c)", views, trivial_theory)
        assert to_string(result.regex()) == "q1.q2"
        assert not result.is_exact()
        extended = RPQViews({"q1": "a", "q2": "b", "q3": "c"})
        exact = rewrite_rpq("a.(b+c)", extended, trivial_theory)
        assert to_string(exact.regex()) == "q1.(q2+q3)"
        assert exact.is_exact()

    def test_exactness_counterexample(self, trivial_theory):
        views = RPQViews({"q1": "a", "q2": "b"})
        result = rewrite_rpq("a.(b+c)", views, trivial_theory)
        witness = result.exactness_counterexample()
        assert witness is not None
        assert "c" in witness


class TestSoundnessOnDatabases:
    """Definition 4.3 checked on concrete databases."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_view_answers_contained_in_direct_answers(self, seed, trivial_theory):
        rng = random.Random(seed)
        db = random_graph(rng, 7, ["a", "b", "c"], 15)
        views = RPQViews({"q1": "a.b", "q2": "b", "q3": "c*"})
        q0 = RPQ("a.b.(b+c)*")
        result = rewrite_rpq(q0, views, trivial_theory)
        assert rewriting_is_sound_on(result, q0, db)

    def test_exact_rewriting_complete_on_databases(self, trivial_theory):
        views = RPQViews({"q1": "a", "q2": "b", "q3": "c"})
        q0 = RPQ("a.(b+c)")
        result = rewrite_rpq(q0, views, trivial_theory)
        assert result.is_exact()
        for seed in (4, 5):
            db = random_graph(random.Random(seed), 6, ["a", "b", "c"], 14)
            assert rewriting_is_sound_on(result, q0, db)
            assert rewriting_is_complete_on(result, q0, db)

    def test_answers_via_path_database(self, trivial_theory):
        # Theorem 4.1's canonical databases: single paths.
        views = RPQViews({"q1": "a", "q2": "b"})
        q0 = RPQ("a.b")
        result = rewrite_rpq(q0, views, trivial_theory)
        db = path_graph(["a", "b"])
        answers = result.answer(db)
        assert ("x0", "x2") in answers


class TestTheoryAwareRewriting:
    """The paper's motivating example: T |= forall x (A(x) -> B(x))."""

    @pytest.fixture
    def subsumption_theory(self):
        return Theory(
            domain={"a1", "a2", "b1"},
            predicates={"A": {"a1", "a2"}, "B": {"a1", "a2", "b1"}},
        )

    def test_maximal_rewriting_is_the_view(self, subsumption_theory):
        q0 = RPQ(sym(Pred("B")))
        views = RPQViews({"qA": RPQ(sym(Pred("A")))})
        result = rewrite_rpq(q0, views, subsumption_theory)
        assert to_string(result.regex()) == "qA"
        assert not result.is_exact()

    def test_symbol_level_rewriting_would_be_empty(self, subsumption_theory):
        # Treating formulas as opaque symbols loses the entailment: the
        # core algorithm over the formula alphabet returns empty.
        from repro.core import maximal_rewriting

        result = maximal_rewriting(
            sym(Pred("B")), {"qA": sym(Pred("A"))}
        )
        assert result.is_empty()

    def test_view_answers_sound_under_theory(self, subsumption_theory):
        db = GraphDB([("x", "a1", "y"), ("y", "b1", "z"), ("z", "a2", "w")])
        q0 = RPQ(sym(Pred("B")))
        views = RPQViews({"qA": RPQ(sym(Pred("A")))})
        result = rewrite_rpq(q0, views, subsumption_theory)
        via_views = result.answer(db)
        direct = evaluate(db, q0, subsumption_theory)
        assert via_views <= direct
        assert ("x", "y") in via_views
        assert ("y", "z") in direct - via_views  # b1 is not an A-edge

    def test_star_queries_under_theory(self, subsumption_theory):
        q0 = RPQ(star(sym(Pred("B"))))
        views = RPQViews({"qA": RPQ(sym(Pred("A")))})
        result = rewrite_rpq(q0, views, subsumption_theory)
        assert result.accepts(())
        assert result.accepts(("qA", "qA"))
        assert not result.is_exact()

    def test_equivalent_predicates_give_exact_rewriting(self):
        theory = Theory(domain={"a1", "a2"}, predicates={"A": {"a1", "a2"}, "B": {"a1", "a2"}})
        q0 = RPQ(sym(Pred("B")))
        views = RPQViews({"qA": RPQ(sym(Pred("A")))})
        result = rewrite_rpq(q0, views, theory)
        assert result.is_exact()


class TestResultObject:
    def test_stats_and_repr(self, trivial_theory):
        result = rewrite_rpq("a", RPQViews({"q1": "a"}), trivial_theory)
        assert "ad_states" in result.stats
        assert "RPQRewritingResult" in repr(result)

    def test_words_and_shortest(self, trivial_theory):
        result = rewrite_rpq("a.b*", RPQViews({"q1": "a", "q2": "b"}), trivial_theory)
        assert result.shortest_word() == ("q1",)
        assert ("q1", "q2") in set(result.words(max_length=2))

    def test_empty_rewriting(self, trivial_theory):
        result = rewrite_rpq("a", RPQViews({"q1": "b"}), trivial_theory)
        assert result.is_empty()
        assert result.shortest_word() is None

    def test_a_prime_is_built_from_the_rows_on_first_access(self, trivial_theory):
        views = RPQViews({"q1": "a", "q2": "b.c*"})
        result = rewrite_rpq("a.(b+c)*", views, trivial_theory)
        assert result._a_prime is None  # the construction ran on the rows
        a_prime = result.a_prime
        assert a_prime is result.a_prime
        assert a_prime.states == result.ad.states
        assert a_prime.finals == result.ad.states - result.ad.finals
        assert a_prime.num_transitions == result.stats["a_prime_transitions"]


class TestRelationMemo:
    """The ``A'``-relation memo is keyed on what is stable across calls:
    ``Ad``'s fingerprint, the view automaton, the theory."""

    @pytest.mark.parametrize("strategy", ["ground", "product"])
    def test_second_rewriting_of_the_same_query_and_views_hits(self, strategy):
        from repro.automata.compiled import relation_cache_clear, relation_cache_info

        theory = Theory(
            domain={"a1", "a2", "b1"},
            predicates={"A": {"a1", "a2"}, "B": {"a1", "a2", "b1"}},
        )
        views = RPQViews(
            {
                "qA": RPQ(sym(Pred("A"))),
                "q1": "a1",
                "qAB": RPQ(concat(sym(Pred("A")), sym(Pred("B")))),
            }
        )
        relation_cache_clear()
        first = rewrite_rpq(star(sym(Pred("B"))), views, theory, strategy=strategy)
        cold = relation_cache_info()
        assert (cold["hits"], cold["misses"], cold["size"]) == (0, 3, 3)
        again = rewrite_rpq(star(sym(Pred("B"))), views, theory, strategy=strategy)
        warm = relation_cache_info()
        # One relation per view, each found again: nothing new is pinned.
        assert (warm["hits"], warm["misses"], warm["size"]) == (3, 3, 3)
        assert again.a_prime_rows == first.a_prime_rows
