"""DFA minimization (Hopcroft's partition-refinement algorithm).

Minimization is not required for the paper's constructions to be correct,
but applying it to the deterministic automaton ``Ad`` before building ``A'``
keeps the rewriting automaton small (``A'`` inherits ``Ad``'s state set), and
minimizing the final rewriting gives canonical results that the tests can
compare structurally.  The ablation benchmark ``bench_thm31`` measures the
effect.
"""

from __future__ import annotations

from typing import Hashable

from .dfa import DFA

__all__ = ["minimize"]


def minimize(dfa: DFA, trim: bool = True) -> DFA:
    """Return the minimal DFA for ``L(dfa)``.

    The input is completed first (Hopcroft requires a total function); by
    default the result is trimmed back to a partial DFA without a dead state.
    With ``trim=False`` the returned DFA is total (it may retain one sink).
    """
    total = dfa.completed()
    # Restrict to reachable states before refining.
    reachable = total.reachable_states()
    blocks = _hopcroft(total, reachable)
    representative: dict[int, int] = {}
    for block_id, block in enumerate(blocks):
        for state in block:
            representative[state] = block_id
    transitions: dict[int, dict[Hashable, int]] = {}
    finals = set()
    for block_id, block in enumerate(blocks):
        witness = next(iter(block))
        if witness in total.finals:
            finals.add(block_id)
        row = {
            symbol: representative[dst]
            for symbol, dst in total.transitions_from(witness).items()
        }
        if row:
            transitions[block_id] = row
    result = DFA(
        states=range(len(blocks)),
        alphabet=total.alphabet,
        transitions=transitions,
        initial=representative[total.initial],
        finals=finals,
    )
    if trim:
        result = result.trimmed().renumbered()
    return result


def _hopcroft(dfa: DFA, reachable: set[int]) -> list[set[int]]:
    """Hopcroft's algorithm over the reachable part of a total DFA."""
    finals = dfa.finals & reachable
    nonfinals = reachable - finals
    partition: list[set[int]] = [block for block in (finals, nonfinals) if block]
    # Pre-compute the inverse transition relation per symbol.
    inverse: dict[Hashable, dict[int, set[int]]] = {a: {} for a in dfa.alphabet}
    for src in reachable:
        for symbol, dst in dfa.transitions_from(src).items():
            if dst in reachable:
                inverse[symbol].setdefault(dst, set()).add(src)
    worklist: list[tuple[frozenset[int], Hashable]] = [
        (frozenset(block), symbol) for block in partition for symbol in dfa.alphabet
    ]
    while worklist:
        splitter, symbol = worklist.pop()
        # States with a `symbol`-transition into the splitter block.
        predecessors: set[int] = set()
        for dst in splitter:
            predecessors |= inverse[symbol].get(dst, set())
        if not predecessors:
            continue
        new_partition: list[set[int]] = []
        for block in partition:
            inside = block & predecessors
            outside = block - predecessors
            if inside and outside:
                new_partition.extend((inside, outside))
                smaller = inside if len(inside) <= len(outside) else outside
                for sym in dfa.alphabet:
                    worklist.append((frozenset(smaller), sym))
            else:
                new_partition.append(block)
        partition = new_partition
    return partition
