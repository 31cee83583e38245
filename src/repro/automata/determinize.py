"""Subset construction: NFA to DFA.

This is the first exponential of the paper's 2EXPTIME rewriting pipeline
(Theorem 3.1 step (i)) and, applied to ``A'``, the second one (step (iii)).
The construction is the classic Rabin–Scott powerset algorithm; epsilon
moves are eliminated once up front (and the NFA trimmed), which keeps the
explored subsets small and avoids repeated closure computations — on the
block-structured automata of the Section 3.2 reductions this is an
order-of-magnitude difference.

The dead subset (the empty set of NFA states) is *not* materialized — the
resulting DFA is partial and can be completed on demand.
"""

from __future__ import annotations

from typing import Hashable

from .dfa import DFA
from .nfa import NFA

__all__ = ["determinize"]


def determinize(nfa: NFA) -> DFA:
    """Determinize ``nfa`` via the subset construction (partial DFA)."""
    if nfa.has_epsilon_moves():
        nfa = nfa.without_epsilon().trimmed()
    # Subsets are integer bitmasks: bit i stands for the i-th NFA state.
    # Bitwise union is the inner-loop operation, so this is much faster
    # than frozenset arithmetic on the large subset spaces the Section 3.2
    # constructions produce.
    state_index = {state: i for i, state in enumerate(sorted(nfa.states))}
    move_masks: list[list[tuple[Hashable, int]]] = [[] for _ in state_index]
    for state in nfa.states:
        entries = []
        for label, dsts in nfa.transitions_from(state).items():
            mask = 0
            for dst in dsts:
                mask |= 1 << state_index[dst]
            entries.append((label, mask))
        move_masks[state_index[state]] = entries
    finals_mask = 0
    for state in nfa.finals:
        finals_mask |= 1 << state_index[state]
    initial_mask = 0
    for state in nfa.initials:
        initial_mask |= 1 << state_index[state]

    subset_ids: dict[int, int] = {initial_mask: 0}
    transitions: dict[int, dict[Hashable, int]] = {}
    dfa_finals: set[int] = set()
    worklist = [initial_mask]
    while worklist:
        subset = worklist.pop()
        state_id = subset_ids[subset]
        if subset & finals_mask:
            dfa_finals.add(state_id)
        moves: dict[Hashable, int] = {}
        remaining = subset
        while remaining:
            low_bit = remaining & -remaining
            remaining ^= low_bit
            for label, mask in move_masks[low_bit.bit_length() - 1]:
                moves[label] = moves.get(label, 0) | mask
        row: dict[Hashable, int] = {}
        for symbol, target in moves.items():
            if target not in subset_ids:
                subset_ids[target] = len(subset_ids)
                worklist.append(target)
            row[symbol] = subset_ids[target]
        if row:
            transitions[state_id] = row
    return DFA(
        states=range(len(subset_ids)),
        alphabet=nfa.alphabet,
        transitions=transitions,
        initial=0,
        finals=dfa_finals,
    )
