"""Subset construction: language preservation and determinism."""

import random

from hypothesis import given, settings

from repro.automata.determinize import determinize
from repro.automata.random_gen import random_nfa
from repro.automata.thompson import to_nfa
from repro.regex.parser import parse

from ..conftest import ALPHABET, regex_strategy, words_up_to


class TestCorrectness:
    @given(regex_strategy(max_leaves=7))
    @settings(max_examples=50, deadline=None)
    def test_language_preserved(self, expr):
        nfa = to_nfa(expr)
        dfa = determinize(nfa)
        for w in words_up_to(ALPHABET, 3):
            assert nfa.accepts(w) == dfa.accepts(w), (expr, w)

    def test_on_random_nfas(self):
        rng = random.Random(7)
        for _ in range(10):
            nfa = random_nfa(rng, 5, ALPHABET, transition_density=0.3)
            dfa = determinize(nfa)
            for w in words_up_to(ALPHABET, 4):
                assert nfa.accepts(w) == dfa.accepts(w)

    def test_classic_exponential_case(self):
        # (a+b)*.a.(a+b)^(k): minimal DFA needs 2^(k+1) states.
        k = 4
        expr = parse("(a+b)*.a." + ".".join(["(a+b)"] * k))
        dfa = determinize(to_nfa(expr))
        assert dfa.num_states >= 2 ** k
        assert dfa.accepts(tuple("a" + "b" * k))
        assert not dfa.accepts(tuple("b" + "b" * k))

    def test_result_is_deterministic(self):
        nfa = to_nfa(parse("(a+b)*.a"))
        dfa = determinize(nfa)
        for state in dfa.states:
            row = dfa.transitions_from(state)
            assert len(set(row.keys())) == len(row)

    def test_initial_state_is_zero(self):
        dfa = determinize(to_nfa(parse("a*")))
        assert dfa.initial == 0

