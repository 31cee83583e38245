"""The one containment search against the explicit route it replaced.

``containment_counterexample`` (lazy views, per-state left side, antichain)
must give the verdict *and* a witness of the length that determinize ->
``difference_dfa`` -> ``shortest_word`` gives, on every shape of input the
callers hand it; plus the two things the explicit route cannot do — prune by
subsumption and leave most of a large automaton untouched.
"""

import time
from itertools import permutations

import pytest
from hypothesis import given, settings

from repro.automata.containment import containment_counterexample, is_contained
from repro.automata.determinize import determinize
from repro.automata.emptiness import shortest_word
from repro.automata.nfa import NFA
from repro.automata.operations import difference_dfa
from repro.automata.thompson import to_nfa
from repro.core import ViewSet, maximal_rewriting, nonempty_rewriting_witness
from repro.core.expansion import word_expansion_nfa
from repro.reductions.twoexpspace import tilde
from repro.regex.parser import parse

from ..conftest import regex_strategy
from ..reductions.test_twoexpspace import e0_nfa, reduction  # noqa: F401  (fixtures)


@settings(max_examples=400, deadline=None)
@given(
    first=regex_strategy(max_leaves=6),
    second=regex_strategy(max_leaves=6),
    narrow=regex_strategy(alphabet=("a", "b"), max_leaves=6),
)
def test_search_agrees_with_explicit_route(first, second, narrow):
    """Six searches a draw, 2 400 a run: every ordered pair of the three
    languages, so ``narrow`` over {a, b} meets a left alphabet it does not
    contain, with the left side, the right side or neither handed over as a
    DFA in turn.  Thompson NFAs keep their epsilon moves and the leaves
    include the empty and the epsilon-only language.  The reference
    determinizes both sides and materializes the difference."""
    nfas = [to_nfa(first), to_nfa(second), to_nfa(narrow)]
    dfas = [determinize(nfa) for nfa in nfas]
    for turn, (i, j) in enumerate(permutations(range(3), 2)):
        expected = shortest_word(difference_dfa(dfas[i], dfas[j]))
        witness = containment_counterexample(
            dfas[i] if turn % 3 == 1 else nfas[i],
            dfas[j] if turn % 3 == 2 else nfas[j],
        )
        if expected is None:
            assert witness is None
        else:
            assert witness is not None and len(witness) == len(expected)
            assert nfas[i].accepts(witness) and not nfas[j].accepts(witness)


def test_antichain_prunes_subsumed_subsets():
    """Every subset the right side reaches contains the ``(a+b)*`` branch's
    accepting state set reached first, so the antichain keeps a handful of
    pairs where an exact visited set walks all 2^19 of them."""
    left = to_nfa(parse("(a+b)*"))
    right = to_nfa(parse("(a+b)* + (a+b)*.a" + ".(a+b)" * 18))
    started = time.perf_counter()
    assert is_contained(left, right)
    assert time.perf_counter() - started < 0.1


def test_search_closes_only_the_states_it_reaches(reduction, e0_nfa, monkeypatch):
    """Laziness contract: containment of a 12-state word expansion in the
    157 846-state ``E0`` of Theorem 3.5 epsilon-closes under 1 % of it."""
    closed = []
    closure = NFA.epsilon_closure

    def counting(self, states):
        if self is e0_nfa:
            closed.append(states)
        return closure(self, states)

    monkeypatch.setattr(NFA, "epsilon_closure", counting)
    word = (tilde("l"), tilde("s"))
    assert is_contained(word_expansion_nfa(word, reduction.views), e0_nfa)
    assert 0 < len(closed) < e0_nfa.num_states // 100


@pytest.mark.parametrize(
    "e0, views",
    [
        ("a.(b.a+c)*", {"e1": "a", "e2": "a.c*.b", "e3": "c"}),
        ("a", {"e1": "b"}),
        ("a*", {"e1": "a.a"}),
        ("a*", {"e1": "b"}),
        ("a.b", {"e1": "b.a"}),
        ("(a+b)*", {"e1": "a"}),
        ("a.b.c", {"e1": "a.b", "e2": "c"}),
        ("a.b.c", {"e1": "a", "e2": "b.b", "e3": "c"}),
        ("a.(b.a)*.b", {"e1": "a.b", "e2": "b.a"}),
        ("a.(a.a)*", {"e1": "a.a"}),
        ("a", {"e1": "%empty"}),  # vacuous: the dead subset accepts
    ],
)
def test_thm33_witness_is_a_shortest_word_of_the_rewriting(e0, views):
    """``Sigma_E* subseteq L(A')`` searched on the fly against the rewriting
    built in full: same verdict, same witness length, witness accepted."""
    view_set = ViewSet(views)
    rewriting = maximal_rewriting(e0, view_set)
    expected = rewriting.shortest_word()
    witness = nonempty_rewriting_witness(e0, view_set)
    if expected is None:
        assert witness is None
    else:
        assert witness is not None and len(witness) == len(expected)
        assert rewriting.accepts(witness)
