"""Theorem 2.1 and the maximality machinery."""

import random

from repro.automata.containment import is_contained
from repro.automata.thompson import to_nfa
from repro.core import ViewSet, maximal_rewriting
from repro.core.expansion import expansion_nfa, word_expansion_nfa
from repro.core.maximality import (
    brute_force_rewriting_words,
    is_rewriting,
    word_expansion_contained,
)
from repro.regex.parser import parse
from repro.regex.random_gen import random_regex


class TestTheorem21:
    """Sigma_E-maximal implies Sigma-maximal: any rewriting's expansion is
    contained in the expansion of the computed one."""

    def test_on_figure1(self, fig1_rewriting):
        views = fig1_rewriting.views
        # Candidate alternative rewritings (all sound, some smaller).
        for candidate_text in ("e1", "e2*.e1", "e1.e3*", "e2.e1"):
            candidate = to_nfa(parse(candidate_text))
            assert is_rewriting(candidate, fig1_rewriting.ad, views)
            assert is_contained(
                expansion_nfa(candidate, views),
                expansion_nfa(fig1_rewriting.automaton, views),
            )

    def test_on_random_instances(self):
        rng = random.Random(0xBEEF)
        for _ in range(10):
            e0 = random_regex(rng, "ab", max_size=5)
            views = ViewSet.from_list(
                [random_regex(rng, "ab", max_size=3) for _ in range(2)]
            )
            result = maximal_rewriting(e0, views)
            # every sound word's expansion is inside the result's
            for word in brute_force_rewriting_words(result.ad, views, 2):
                assert is_contained(
                    word_expansion_nfa(word, views), result.expansion()
                ), (str(e0), word)


class TestBruteForceOracle:
    def test_matches_figure1(self, fig1_rewriting):
        words = brute_force_rewriting_words(
            fig1_rewriting.ad, fig1_rewriting.views, 3
        )
        expected = [
            w for w in words if fig1_rewriting.accepts(w)
        ]
        assert words == expected  # every oracle word is accepted
        # and the rewriting accepts nothing else at those lengths
        from itertools import product

        for length in range(4):
            for w in product(fig1_rewriting.views.symbols, repeat=length):
                assert fig1_rewriting.accepts(w) == (w in set(words))

    def test_word_expansion_contained(self, fig1_rewriting):
        views = fig1_rewriting.views
        assert word_expansion_contained(("e1",), views, fig1_rewriting.ad)
        assert word_expansion_contained(("e2", "e1"), views, fig1_rewriting.ad)
        assert not word_expansion_contained(("e3",), views, fig1_rewriting.ad)

    def test_empty_word_expansion(self, fig1_rewriting):
        # eps not in L(a.(b.a+c)*)
        assert not word_expansion_contained((), fig1_rewriting.views, fig1_rewriting.ad)
