"""Theorem 2.3 / Corollary 2.1: exactness via L(Ad) subseteq L(B).

Both the on-the-fly (paper's 2EXPSPACE) and the explicit implementations
must agree, and exactness must coincide with expansion-equality checked
independently.
"""

import pytest
from hypothesis import given, settings

from repro.automata.containment import (
    are_equivalent,
    containment_counterexample,
    is_contained,
)
from repro.core import ViewSet, existential_rewriting, maximal_rewriting
from repro.core.exactness import METHODS, exactness_counterexample, is_exact
from repro.core.expansion import expansion_nfa

from ..conftest import regex_strategy
from .test_rewriter_differential import view_sets


EXACT_INSTANCES = [
    ("a.(b.a+c)*", {"e1": "a", "e2": "a.c*.b", "e3": "c"}),
    ("a*", {"e1": "a"}),
    ("a.b", {"e1": "a.b"}),
    ("(a+b)*", {"e1": "a", "e2": "b"}),
    ("a.b+a.c", {"e1": "a.b", "e2": "a.c"}),
    ("a.a*", {"e1": "a", "e2": "a.a"}),
]

INEXACT_INSTANCES = [
    ("a.(b.a+c)*", {"e1": "a", "e2": "a.c*.b"}),
    ("a+b", {"e1": "a"}),
    ("a.(b+c)", {"e1": "a", "e2": "b"}),
    ("(a.a)*", {"e1": "a.a.a"}),
    ("a*", {"e1": "a.a"}),  # only even lengths reachable
]


class TestExactInstances:
    @pytest.mark.parametrize("e0, views", EXACT_INSTANCES)
    def test_exact(self, e0, views):
        result = maximal_rewriting(e0, ViewSet(views))
        assert result.is_exact()

    @pytest.mark.parametrize("e0, views", EXACT_INSTANCES)
    def test_expansion_equals_e0_when_exact(self, e0, views):
        result = maximal_rewriting(e0, ViewSet(views))
        assert are_equivalent(result.expansion(), result.ad)

    @pytest.mark.parametrize("e0, views", EXACT_INSTANCES)
    def test_no_counterexample(self, e0, views):
        result = maximal_rewriting(e0, ViewSet(views))
        assert exactness_counterexample(result) is None


class TestInexactInstances:
    @pytest.mark.parametrize("e0, views", INEXACT_INSTANCES)
    def test_not_exact(self, e0, views):
        result = maximal_rewriting(e0, ViewSet(views))
        assert not result.is_exact()

    @pytest.mark.parametrize("e0, views", INEXACT_INSTANCES)
    def test_counterexample_witnesses_gap(self, e0, views):
        result = maximal_rewriting(e0, ViewSet(views))
        witness = exactness_counterexample(result)
        assert witness is not None
        assert result.ad.accepts(witness)  # in L(E0)
        assert not result.expansion().accepts(witness)  # not expressible


class TestSearchedOnce:
    """The witness is kept on the result: ``None`` = exact, found at most once."""

    @pytest.mark.parametrize(
        "build, verdict",
        [(maximal_rewriting, "is_exact"), (existential_rewriting, "covers")],
    )
    @pytest.mark.parametrize("e0, views", [EXACT_INSTANCES[0], INEXACT_INSTANCES[0]])
    def test_second_query_performs_no_search(self, build, verdict, e0, views, monkeypatch):
        from repro.core import exactness

        searches = []
        monkeypatch.setattr(
            exactness,
            "containment_counterexample",
            lambda left, right: searches.append(left)
            or containment_counterexample(left, right),
        )
        result = build(e0, ViewSet(views))
        witness = exactness_counterexample(result)
        assert exactness_counterexample(result) == witness
        assert getattr(result, verdict)() == (witness is None)
        assert len(searches) == 1


class TestMethodsAgree:
    @pytest.mark.parametrize(
        "e0, views", EXACT_INSTANCES + INEXACT_INSTANCES
    )
    def test_on_the_fly_equals_explicit(self, e0, views):
        result = maximal_rewriting(e0, ViewSet(views))
        verdicts = {is_exact(result, method=m) for m in METHODS}
        assert len(verdicts) == 1

    @settings(max_examples=50, deadline=None)
    @given(e0=regex_strategy(max_leaves=5), views=view_sets())
    def test_exactness_is_expansion_equality_on_random_instances(self, e0, views):
        """Thm 2.3 / Cor 2.1 beyond the fixed lists: the rewriting is sound
        (``exp(R) subseteq L(E0)``), and each method says "exact" precisely
        when the expansion *is* ``L(E0)``."""
        result = maximal_rewriting(e0, views)
        assert is_contained(result.expansion(), result.ad)
        exact = are_equivalent(result.expansion(), result.ad)
        for method in METHODS:
            assert is_exact(result, method=method) == exact, method

    def test_unknown_method_rejected(self):
        result = maximal_rewriting("a", {"e1": "a"})
        with pytest.raises(ValueError):
            is_exact(result, method="magic")


class TestExpansionAutomaton:
    def test_expansion_contains_only_e0_words(self, fig1_rewriting):
        from repro.automata.containment import is_contained

        # soundness half of Theorem 2.2, at the automaton level
        assert is_contained(fig1_rewriting.expansion(), fig1_rewriting.ad)

    def test_expansion_rejects_view_alphabet(self, fig1_rewriting):
        expansion = fig1_rewriting.expansion()
        assert not expansion.accepts(("e1",))

    def test_expansion_accepts_substituted_words(self, fig1_rewriting):
        expansion = fig1_rewriting.expansion()
        # e2.e1 -> (a.c*.b).(a)
        assert expansion.accepts(tuple("acba"))
        assert expansion.accepts(tuple("aba"))
        assert expansion.accepts(tuple("a"))
