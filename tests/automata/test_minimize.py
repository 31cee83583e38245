"""Hopcroft minimization: language preservation, minimality, canonicity."""

import random

from hypothesis import given, settings

from repro.automata.containment import are_equivalent
from repro.automata.determinize import determinize
from repro.automata.minimize import minimize
from repro.automata.random_gen import random_dfa
from repro.automata.thompson import to_nfa
from repro.regex.parser import parse

from ..conftest import ALPHABET, regex_strategy, words_up_to


def dfa_of(text: str):
    return determinize(to_nfa(parse(text)))


class TestCorrectness:
    @given(regex_strategy(max_leaves=7))
    @settings(max_examples=40, deadline=None)
    def test_language_preserved(self, expr):
        dfa = determinize(to_nfa(expr))
        small = minimize(dfa)
        for w in words_up_to(ALPHABET, 3):
            assert dfa.accepts(w) == small.accepts(w)

    def test_random_dfas(self):
        rng = random.Random(11)
        for _ in range(10):
            dfa = random_dfa(rng, 8, ALPHABET)
            small = minimize(dfa)
            assert small.num_states <= dfa.num_states
            for w in words_up_to(ALPHABET, 4):
                assert dfa.accepts(w) == small.accepts(w)


class TestMinimality:
    def test_collapses_equivalent_states(self):
        # a.a + a.b.b* has redundant structure after determinization.
        dfa = dfa_of("a.a+a.a")
        assert minimize(dfa).num_states == 3

    def test_known_minimal_size(self):
        # L = words over {a,b} with an even number of a's: 2 states.
        dfa = dfa_of("(b*.a.b*.a)*.b*")
        assert minimize(dfa).num_states == 2

    def test_idempotent(self):
        dfa = dfa_of("a.(b.a+c)*")
        once = minimize(dfa)
        twice = minimize(once)
        assert twice.num_states == once.num_states

    def test_minimal_dfas_for_same_language_have_same_size(self):
        # Two syntactically different expressions for the same language.
        left = minimize(dfa_of("a.a*"))
        right = minimize(dfa_of("a*.a"))
        assert are_equivalent(left, right)
        assert left.num_states == right.num_states

    def test_untrimmed_keeps_totality(self):
        dfa = dfa_of("a.b")
        total = minimize(dfa, trim=False)
        assert total.is_total()

    def test_trimmed_has_no_dead_states(self):
        small = minimize(dfa_of("a.b"))
        # Every state must reach a final state.
        reachable = small.reachable_states()
        assert all(state in reachable for state in small.states)

