"""Language containment and equivalence: one on-the-fly antichain search.

``L(A) subseteq L(B)`` is decided by searching the product of ``A`` with the
lazily determinized complement of ``B`` — the "construct the complement
on-the-fly" idea behind the paper's 2EXPSPACE bound for exactness (proof of
Theorem 3.2).  Universality, Theorem 3.3's non-emptiness test and every
exactness check are calls of :func:`containment_counterexample`, which is:

* **Lazy.**  A :class:`_LazyView` gives a state a dense id the first time the
  search reaches it, epsilon-closes it then, and memoizes its per-symbol step
  as an int mask over the ids *discovered so far*: work and mask width follow
  the explored part.  Compiling a side first (``without_epsilon``, or a dense
  id per state: 20 KB a mask on Theorem 3.5's 157 846-state ``E0``) costs
  seconds to a minute where the search closes a few hundred states.
* **Per state on the left.**  A word escapes ``L(right)`` along *one* run of
  ``left``, so single ``left`` states ``p`` are paired with the ``right``
  subset ``S`` their word reaches; ``left`` is never determinized.
* **An antichain in BFS order.**  ``(p, S)`` is dropped when a visited
  ``(p, S')`` has ``S' subseteq S``: whatever escapes from ``S`` escapes from
  ``S'`` (De Wulf, Doyen, Henzinger, Raskin, CAV 2006), and ``S'`` was reached
  by a word no longer, so the first counterexample found is a shortest one.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Union

from .dfa import DFA
from .nfa import NFA

__all__ = ["is_contained", "containment_counterexample", "are_equivalent"]

Automaton = Union[NFA, DFA]


def _bits(mask: int):
    # One pass over the digits: peeling low bits off an n-bit int is O(n) each.
    digits = bin(mask)[:1:-1]
    index = digits.find("1")
    while index >= 0:
        yield index
        index = digits.find("1", index + 1)


def _spell(link: tuple) -> tuple[Hashable, ...]:
    """The word of a BFS link ``(parent's link, symbol)``; the root's is ``()``."""
    word = []
    while link:
        link, symbol = link
        word.append(symbol)
    return tuple(reversed(word))


class _LazyView:
    """Dense ids, epsilon-closures and symbol steps of the reached states."""

    def __init__(self, automaton: Automaton):
        self.alphabet = automaton.alphabet
        if isinstance(automaton, DFA):
            self._closure = lambda state: (state,)
            self._successors = lambda state, symbol: (
                () if (nxt := automaton.successor(state, symbol)) is None else (nxt,)
            )
            initials = (automaton.initial,)
        else:
            self._closure = lambda state: automaton.epsilon_closure((state,))
            self._successors = automaton.successors
            initials = automaton.initials
        self._is_final = automaton.finals.__contains__
        self._ids: dict[int, int] = {}
        self._states: list[int] = []  # id -> state
        self._closures: dict[int, int] = {}  # state -> mask of its closure
        self._steps: dict[Hashable, dict[int, int]] = {}  # symbol -> id -> mask
        self.finals = 0  # mask of the discovered final states
        self.start = self._closed(initials)

    def _id(self, state: int) -> int:
        index = self._ids.get(state)
        if index is None:
            index = self._ids[state] = len(self._states)
            self._states.append(state)
            if self._is_final(state):
                self.finals |= 1 << index
        return index

    def _closed(self, states) -> int:
        """Mask of the epsilon-closure of ``states``."""
        mask = 0
        for state in states:
            closure = self._closures.get(state)
            if closure is None:
                closure = self._closures[state] = sum(
                    1 << self._id(member) for member in self._closure(state)
                )
            mask |= closure
        return mask

    def step(self, mask: int, symbol: Hashable) -> int:
        """The closed successor mask of the closed subset ``mask``."""
        row = self._steps.setdefault(symbol, {})
        target = 0
        for index in _bits(mask):
            moved = row.get(index)
            if moved is None:
                moved = row[index] = self._closed(
                    self._successors(self._states[index], symbol)
                )
            target |= moved
        return target


def _counterexample(left: _LazyView, right: _LazyView) -> tuple[Hashable, ...] | None:
    # No word outside left's alphabet is in L(left); the order fixes the witness.
    sigma = sorted(left.alphabet, key=repr)
    minimal: dict[int, list[int]] = {}  # left id -> antichain of right masks
    # (left mask, right mask, link) in BFS order; link = (parent's link, symbol)
    moves: deque[tuple[int, int, tuple]] = deque([(left.start, right.start, ())])
    while moves:
        states, subset, link = moves.popleft()
        for state in _bits(states):
            chain = minimal.setdefault(state, [])
            if any(not seen & ~subset for seen in chain):
                continue
            chain[:] = [seen for seen in chain if subset & ~seen] + [subset]
            if left.finals >> state & 1 and not subset & right.finals:
                return _spell(link)
            for symbol in sigma:
                moved = left.step(1 << state, symbol)
                if moved:
                    moves.append((moved, right.step(subset, symbol), (link, symbol)))
    return None


def is_contained(left: Automaton, right: Automaton) -> bool:
    """Decide ``L(left) subseteq L(right)``."""
    return containment_counterexample(left, right) is None


def containment_counterexample(
    left: Automaton, right: Automaton
) -> tuple[Hashable, ...] | None:
    """A shortest word in ``L(left) - L(right)``, or ``None`` if contained."""
    return _counterexample(_LazyView(left), _LazyView(right))


def are_equivalent(left: Automaton, right: Automaton) -> bool:
    """Language equivalence: both containments over one pair of views."""
    lview, rview = _LazyView(left), _LazyView(right)
    return _counterexample(lview, rview) is None and _counterexample(rview, lview) is None
