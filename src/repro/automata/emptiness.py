"""Language emptiness, shortest witnesses and bounded enumeration.

Non-emptiness of a finite automaton is graph reachability (NLOGSPACE, cited
by the paper as [RS59, Jon75]); breadth-first search additionally yields a
*shortest* accepted word, which the tests and examples use as witnesses.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence

from .containment import Automaton, _spell, is_contained
from .dfa import DFA
from .nfa import EPS, NFA
from .thompson import universal_nfa

__all__ = [
    "is_empty",
    "shortest_word",
    "enumerate_words",
    "is_universal",
    "accepts",
]


def _as_nfa(automaton: Automaton) -> NFA:
    return automaton.to_nfa() if isinstance(automaton, DFA) else automaton


def accepts(automaton: Automaton, word: Sequence[Hashable]) -> bool:
    """Uniform word-membership helper for NFAs and DFAs."""
    return automaton.accepts(word)


def is_empty(automaton: Automaton) -> bool:
    """Is ``L(automaton)`` empty?"""
    return shortest_word(automaton) is None


def shortest_word(automaton: Automaton) -> tuple[Hashable, ...] | None:
    """A shortest accepted word, or ``None`` if the language is empty.

    Breadth-first search over states, epsilon moves at no cost.  Ties
    between equal-length words are broken by the (arbitrary but fixed)
    iteration order of the transition tables.
    """
    nfa = _as_nfa(automaton)
    # state -> BFS link (predecessor's link, label); the keys stay epsilon-closed
    links: dict[int, tuple] = dict.fromkeys(nfa.epsilon_closure(nfa.initials), ())
    queue = list(links)
    for state in queue:
        if state in nfa.finals:
            return _spell(links[state])
        for label, dsts in nfa.transitions_from(state).items():
            if label is EPS:
                continue
            for nxt in nfa.epsilon_closure(dsts - links.keys()):
                if nxt not in links:
                    links[nxt] = (links[state], label)
                    queue.append(nxt)
    return None


def enumerate_words(
    automaton: Automaton,
    max_length: int,
    max_count: int | None = None,
) -> Iterator[tuple[Hashable, ...]]:
    """Yield accepted words in order of increasing length.

    Enumeration stops after ``max_length`` (inclusive) or after ``max_count``
    words.  Within a length, the order follows a deterministic sort of the
    symbols' ``repr`` so runs are reproducible.
    """
    nfa = _as_nfa(automaton)
    symbols = sorted(nfa.alphabet, key=repr)
    emitted = 0
    start = nfa.epsilon_closure(nfa.initials)
    level: list[tuple[frozenset[int], tuple[Hashable, ...]]] = [(start, ())]
    for length in range(max_length + 1):
        for subset, word in level:
            if subset & nfa.finals:
                yield word
                emitted += 1
                if max_count is not None and emitted >= max_count:
                    return
        if length == max_length:
            break
        next_level: list[tuple[frozenset[int], tuple[Hashable, ...]]] = []
        for subset, word in level:
            for symbol in symbols:
                moved: set[int] = set()
                for state in subset:
                    moved.update(nfa.successors(state, symbol))
                closed = nfa.epsilon_closure(moved)
                if closed:
                    next_level.append((closed, word + (symbol,)))
        level = next_level
        if not level:
            break


def is_universal(automaton: Automaton, alphabet: frozenset | None = None) -> bool:
    """Does the automaton accept all of ``Sigma*``?

    ``Sigma* subseteq L(automaton)``, decided by the on-the-fly containment
    search (no full determinization).
    """
    sigma = alphabet if alphabet is not None else automaton.alphabet
    return is_contained(universal_nfa(sigma), automaton)
