"""Theorem 3.4: the doubly-exponential counter family (THM34)."""

import pytest

from repro.automata import are_equivalent, to_nfa, word_nfa
from repro.core import maximal_rewriting
from repro.reductions.counter import (
    COUNTER_SYMBOLS,
    counter_reduction,
    counter_word,
    symbol_bits,
)
from repro.regex.ast import plus, word


class TestCounterWord:
    def test_length_formula(self):
        for n in (1, 2):
            assert len(counter_word(n)) == 2 ** n * 2 ** (2 ** n)

    def test_anchors(self):
        for n in (1, 2):
            w = counter_word(n)
            assert w[0] == "b011"
            assert w[-1] == "b110"

    def test_position_components_enumerate_counter(self):
        for n in (1, 2):
            width = 2 ** n
            w = counter_word(n)
            for value in range(2 ** width):
                config = w[value * width : (value + 1) * width]
                decoded = sum(
                    symbol_bits(s)[0] << i for i, s in enumerate(config)
                )
                assert decoded == value

    def test_next_components_predict_successor(self):
        n = 2
        width = 2 ** n
        w = counter_word(n)
        for value in range(2 ** width - 1):
            config = w[value * width : (value + 1) * width]
            predicted = sum(symbol_bits(s)[2] << i for i, s in enumerate(config))
            assert predicted == (value + 1) % 2 ** width

    def test_symbols_are_legal(self):
        for s in counter_word(2):
            p, c, x = symbol_bits(s)
            assert x == (p ^ c)


class TestReductionInstance:
    def test_eight_view_symbols(self):
        reduction = counter_reduction(1)
        assert set(reduction.views.symbols) == set(COUNTER_SYMBOLS)
        assert len(COUNTER_SYMBOLS) == 8

    def test_size_polynomial_in_n(self):
        sizes = [counter_reduction(n).e0.size() for n in (1, 2, 3)]
        for prev, nxt in zip(sizes, sizes[1:]):
            assert nxt < prev * 6

    def test_word_length_property(self):
        reduction = counter_reduction(2)
        assert reduction.word_length == 4 * 2 ** 4
        assert reduction.configuration_length == 4

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            counter_reduction(0)


class TestTheorem34:
    """The heavy checks run against the session-cached n=1 rewriting."""

    def test_accepts_counter_word(self, counter_instance):
        reduction, rewriting = counter_instance
        assert rewriting.accepts(counter_word(reduction.n))

    def test_shortest_word_is_counter_word(self, counter_instance):
        reduction, rewriting = counter_instance
        assert rewriting.shortest_word() == counter_word(reduction.n)

    def test_shortest_word_is_counter_word_at_n2(self):
        # 64 = 2^2 * 2^4 symbols; about a second on a 2-vCPU box.
        reduction = counter_reduction(2)
        rewriting = maximal_rewriting(reduction.e0, reduction.views)
        assert rewriting.shortest_word() == counter_word(2)

    def test_shortest_word_is_doubly_exponential(self, counter_instance):
        reduction, rewriting = counter_instance
        shortest = rewriting.shortest_word()
        assert len(shortest) >= 2 ** (2 ** reduction.n)

    def test_language_is_counter_word_plus(self, counter_instance):
        # The rewriting is exactly (w_C)^+: the counter may wrap and rerun
        # (see the module docstring), so the shortest word is unique.
        reduction, rewriting = counter_instance
        wc = counter_word(reduction.n)
        expected = to_nfa(plus(word(wc)), alphabet=reduction.views.symbols)
        assert are_equivalent(rewriting.automaton, expected)

    def test_perturbed_words_rejected(self, counter_instance):
        reduction, rewriting = counter_instance
        wc = list(counter_word(reduction.n))
        for index in range(len(wc)):
            for other in COUNTER_SYMBOLS:
                if other == wc[index]:
                    continue
                perturbed = tuple(wc[:index] + [other] + wc[index + 1 :])
                assert not rewriting.accepts(perturbed), (index, other)

    def test_truncations_rejected(self, counter_instance):
        reduction, rewriting = counter_instance
        wc = counter_word(reduction.n)
        for cut in range(1, len(wc)):
            assert not rewriting.accepts(wc[:cut])
