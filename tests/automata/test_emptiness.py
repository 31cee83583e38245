"""Emptiness, shortest words, bounded enumeration, universality."""

import time

from repro.automata.determinize import determinize
from repro.automata.emptiness import (
    enumerate_words,
    is_empty,
    is_universal,
    shortest_word,
)
from repro.automata.nfa import NFA
from repro.automata.thompson import to_nfa
from repro.regex.parser import parse


def nfa_of(text: str):
    return to_nfa(parse(text))


class TestEmptiness:
    def test_empty_language(self):
        assert is_empty(nfa_of("%empty"))
        assert is_empty(nfa_of("%empty.a"))
        assert is_empty(nfa_of("a.%empty+%empty"))

    def test_nonempty(self):
        assert not is_empty(nfa_of("a"))
        assert not is_empty(nfa_of("%eps"))
        assert not is_empty(nfa_of("%empty+a*"))

    def test_works_on_dfa(self):
        assert not is_empty(determinize(nfa_of("a.b")))
        assert is_empty(determinize(nfa_of("%empty")))


class TestShortestWord:
    def test_epsilon_is_shortest(self):
        assert shortest_word(nfa_of("a*")) == ()

    def test_single_symbol(self):
        assert shortest_word(nfa_of("a.b+c")) == ("c",)

    def test_length_two(self):
        assert shortest_word(nfa_of("a.b+a.c")) in {("a", "b"), ("a", "c")}

    def test_none_for_empty(self):
        assert shortest_word(nfa_of("%empty")) is None

    def test_long_mandatory_prefix(self):
        assert shortest_word(nfa_of("a.a.a.a.b")) == tuple("aaaab")

    def test_emptiness_is_reachability_not_a_subset_walk(self):
        # Without finals no subset ever accepts: a search over subsets
        # visits all 2^17 of them, one over states visits each state once.
        nfa = nfa_of("(a+b)*.a" + ".(a+b)" * 16)
        dead = NFA(nfa.states, nfa.alphabet, nfa._delta, nfa.initials, ())
        started = time.perf_counter()
        assert shortest_word(dead) is None and is_empty(dead)
        assert time.perf_counter() - started < 0.5


class TestEnumeration:
    def test_enumerates_in_length_order(self):
        words = list(enumerate_words(nfa_of("a*"), max_length=3))
        assert words == [(), ("a",), ("a", "a"), ("a", "a", "a")]

    def test_respects_max_count(self):
        words = list(enumerate_words(nfa_of("a*"), max_length=10, max_count=2))
        assert len(words) == 2

    def test_enumerates_all_members_up_to_bound(self):
        nfa = nfa_of("a.(b+c)")
        words = set(enumerate_words(nfa, max_length=2))
        assert words == {("a", "b"), ("a", "c")}

    def test_empty_language_enumerates_nothing(self):
        assert list(enumerate_words(nfa_of("%empty"), max_length=3)) == []

    def test_deterministic_order_within_length(self):
        nfa = nfa_of("b+a+c")
        assert list(enumerate_words(nfa, max_length=1)) == [("a",), ("b",), ("c",)]


class TestUniversality:
    def test_universal(self):
        assert is_universal(nfa_of("(a+b)*"), alphabet=frozenset({"a", "b"}))

    def test_not_universal(self):
        assert not is_universal(nfa_of("a*"), alphabet=frozenset({"a", "b"}))
        assert not is_universal(nfa_of("a.(a+b)*"), alphabet=frozenset({"a", "b"}))

    def test_universal_with_redundancy(self):
        assert is_universal(
            nfa_of("(a+b)*+a.b"), alphabet=frozenset({"a", "b"})
        )
