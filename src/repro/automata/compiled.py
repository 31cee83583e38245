"""Compiled automata kernel: dense ids, bitmask tables, fused sweeps.

The rewriting pipeline of Sections 2–3 (``build_ad`` → ``A'`` → complement
→ minimize) originally ran on dict-of-set automata: every (state, symbol)
step allocated Python sets.  This module is the compiled substrate the
pipeline now runs on:

* :class:`DenseNFA` / :class:`DenseDFA` — states are ``0..n-1``, symbols
  are indexed, transition tables are flat per-state arrays, and *sets of
  states are single Python integers used as bitmasks*, so union,
  difference, and emptiness are one C-level big-int operation each.
* :func:`determinize_dense` — the Rabin–Scott subset construction over
  bitmask subsets, producing a *total* dense DFA directly (the dead
  subset ``0`` is materialized on demand and is its own sink).
* :func:`minimize_dense` — the one minimiser, at every size: Hopcroft's
  partition refinement over per-symbol predecessor lists, splitting only
  the blocks a splitter's predecessors sit in, O(|Sigma| n log n)
  (:func:`repro.automata.minimize.minimize` is the independent
  dict-of-set reference it is tested against).
* :func:`view_transition_masks` — the ``A'``-edge relation.  It is
  ``ans(view, Ad-as-a-graph)``, so it is computed by the label-indexed
  bit-row sweeps RPQ evaluation runs on (:mod:`repro.sweep`), with
  ``Ad``'s transition functions as the edge index; results are memoized
  per (``Ad`` fingerprint, view automaton) so ``maximal_rewriting`` and
  ``existential_rewriting`` share them.
* :func:`rewrite_sweep` — the paper's step 3 (complement) fused with
  minimization: one subset sweep *directly over the relation masks* with
  complemented acceptance, never materializing the intermediate ``A'``
  NFA, followed by the dense Hopcroft pass.

Everything converts losslessly to and from the dict-based :class:`NFA` /
:class:`DFA` classes, which remain the public interchange types.
"""

from __future__ import annotations

from collections import OrderedDict
from types import SimpleNamespace
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from ..sweep import window_masks
from ..sweep.csr import CSRSnapshot, _LabelCSR
from ..sweep.table import compile_automaton
from .dfa import DFA
from .nfa import NFA

__all__ = [
    "DenseNFA",
    "DenseDFA",
    "dense_from_nfa",
    "dense_from_dfa",
    "determinize_dense",
    "minimize_dense",
    "view_transition_masks",
    "cached_view_transition_masks",
    "relation_nfa",
    "rewrite_sweep",
    "relation_cache_info",
    "relation_cache_clear",
    "iter_bits",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` (ascending)."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class DenseNFA:
    """An epsilon-free NFA over dense ids with per-state bitmask moves.

    ``moves[state]`` is a tuple of ``(symbol_index, targets_mask)`` pairs;
    ``state_at[i]`` recovers the original :class:`NFA` state id.
    """

    __slots__ = ("symbols", "num_states", "moves", "initials_mask", "finals_mask", "state_at")

    def __init__(
        self,
        symbols: tuple[Hashable, ...],
        num_states: int,
        moves: list[tuple[tuple[int, int], ...]],
        initials_mask: int,
        finals_mask: int,
        state_at: tuple[int, ...],
    ):
        self.symbols = symbols
        self.num_states = num_states
        self.moves = moves
        self.initials_mask = initials_mask
        self.finals_mask = finals_mask
        self.state_at = state_at

    def __repr__(self) -> str:
        return f"DenseNFA(states={self.num_states}, symbols={len(self.symbols)})"


class DenseDFA:
    """A *total* DFA over dense ids: ``delta[state][symbol_index]`` is an int."""

    __slots__ = (
        "symbols", "num_states", "delta", "initial", "finals_mask", "_key", "_index"
    )

    def __init__(
        self,
        symbols: tuple[Hashable, ...],
        delta: list[list[int]],
        initial: int,
        finals_mask: int,
    ):
        self.symbols = symbols
        self.num_states = len(delta)
        self.delta = delta
        self.initial = initial
        self.finals_mask = finals_mask
        self._key: tuple | None = None
        self._index = None  # the edge index a sweep of this DFA runs over

    def key(self) -> tuple | None:
        """A hashable structural fingerprint (for relation memoization),
        computed once; ``None`` above ``_FINGERPRINT_MAX_CELLS``."""
        if (
            self._key is None
            and self.num_states * len(self.symbols) <= _FINGERPRINT_MAX_CELLS
        ):
            self._key = (
                self.symbols,
                self.initial,
                self.finals_mask,
                tuple(tuple(row) for row in self.delta),
            )
        return self._key

    def accepts(self, word: Sequence[Hashable]) -> bool:
        index = {symbol: i for i, symbol in enumerate(self.symbols)}
        state = self.initial
        for symbol in word:
            i = index.get(symbol)
            if i is None:
                return False
            state = self.delta[state][i]
        return bool(self.finals_mask >> state & 1)

    def to_dfa(self) -> DFA:
        """Convert to the dict-based :class:`DFA` (states ``0..n-1``, total)."""
        transitions = {
            state: dict(zip(self.symbols, row)) for state, row in enumerate(self.delta)
        }
        return DFA(
            states=range(self.num_states),
            alphabet=self.symbols,
            transitions=transitions,
            initial=self.initial,
            finals=set(iter_bits(self.finals_mask)),
        )

    def __repr__(self) -> str:
        return (
            f"DenseDFA(states={self.num_states}, symbols={len(self.symbols)}, "
            f"initial={self.initial})"
        )


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------


def dense_from_nfa(nfa: NFA, symbols: tuple[Hashable, ...] | None = None) -> DenseNFA:
    """Compile an :class:`NFA` (epsilon moves eliminated) to dense form."""
    if nfa.has_epsilon_moves():
        nfa = nfa.without_epsilon().trimmed()
    if symbols is None:
        symbols = tuple(sorted(nfa.alphabet, key=repr))
    symbol_index = {symbol: i for i, symbol in enumerate(symbols)}
    state_at = tuple(sorted(nfa.states))
    index_of = {state: i for i, state in enumerate(state_at)}
    moves: list[tuple[tuple[int, int], ...]] = []
    for state in state_at:
        entries = []
        for label, dsts in nfa.transitions_from(state).items():
            mask = 0
            for dst in dsts:
                mask |= 1 << index_of[dst]
            entries.append((symbol_index[label], mask))
        moves.append(tuple(entries))
    initials_mask = 0
    for state in nfa.initials:
        initials_mask |= 1 << index_of[state]
    finals_mask = 0
    for state in nfa.finals:
        finals_mask |= 1 << index_of[state]
    return DenseNFA(symbols, len(state_at), moves, initials_mask, finals_mask, state_at)


def dense_from_dfa(dfa: DFA) -> tuple[DenseDFA, tuple[int, ...]]:
    """Compile a *total* :class:`DFA`; returns ``(dense, state_at)``.

    ``state_at[i]`` is the original state id of dense state ``i``.  Symbols
    are ordered by ``repr`` so that structurally equal DFAs produce equal
    fingerprints.
    """
    if not dfa.is_total():
        raise ValueError("dense_from_dfa requires a total DFA")
    symbols = tuple(sorted(dfa.alphabet, key=repr))
    state_at = tuple(sorted(dfa.states))
    index_of = {state: i for i, state in enumerate(state_at)}
    delta = [
        [index_of[dfa.successor(state, symbol)] for symbol in symbols]
        for state in state_at
    ]
    finals_mask = 0
    for state in dfa.finals:
        finals_mask |= 1 << index_of[state]
    dense = DenseDFA(symbols, delta, index_of[dfa.initial], finals_mask)
    return dense, state_at


# ----------------------------------------------------------------------
# Subset construction (shared by determinization and the rewrite sweep)
# ----------------------------------------------------------------------


def _subset_sweep(
    per_state_moves: Sequence[Sequence[tuple[int, int]]],
    initial_mask: int,
    num_symbols: int,
    accept_mask: int,
    complement: bool,
) -> tuple[list[list[int]], int]:
    """Explore subsets from ``initial_mask``; returns ``(delta, finals_mask)``.

    Acceptance of a subset ``S`` is ``S & accept_mask`` (plain mode) or
    ``not (S & accept_mask)`` (complement mode — used for the fused
    rewriting step, where the dead subset ``0`` is *accepting*).  The
    result is total: the dead subset is materialized iff reachable.
    """
    subset_ids: dict[int, int] = {initial_mask: 0}
    rows: list[list[int] | None] = [None]
    finals_mask_out = 0
    worklist = [initial_mask]
    while worklist:
        subset = worklist.pop()
        state_id = subset_ids[subset]
        hit = bool(subset & accept_mask)
        if hit != complement:
            finals_mask_out |= 1 << state_id
        targets = [0] * num_symbols
        remaining = subset
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            for symbol_index, mask in per_state_moves[low.bit_length() - 1]:
                targets[symbol_index] |= mask
        row = []
        for target in targets:
            target_id = subset_ids.get(target)
            if target_id is None:
                target_id = subset_ids[target] = len(subset_ids)
                rows.append(None)
                worklist.append(target)
            row.append(target_id)
        rows[state_id] = row
    # Every discovered subset was processed, so no row is left None.
    return rows, finals_mask_out  # type: ignore[return-value]


def determinize_dense(nfa: NFA, symbols: tuple[Hashable, ...] | None = None) -> DenseDFA:
    """Subset construction straight to a total :class:`DenseDFA`.

    ``symbols`` may be a superset of the NFA's alphabet (completion over a
    larger Sigma comes for free: absent symbols all lead to the dead
    subset).
    """
    dense = dense_from_nfa(nfa, symbols)
    delta, finals_mask = _subset_sweep(
        dense.moves,
        dense.initials_mask,
        len(dense.symbols),
        dense.finals_mask,
        complement=False,
    )
    return DenseDFA(dense.symbols, delta, 0, finals_mask)


# ----------------------------------------------------------------------
# Hopcroft minimization
# ----------------------------------------------------------------------


def minimize_dense(dense: DenseDFA) -> DenseDFA:
    """The minimal total DFA for ``L(dense)`` (reachable part).

    Hopcroft's partition refinement: a splitter's ``a``-predecessors are
    grouped by the block they sit in and only those blocks are split (a
    state has one ``a``-successor, so none is listed twice, and a block
    splits exactly when fewer were listed than it holds); the smaller part
    moves to a fresh block id, which becomes a splitter in turn —
    O(|Sigma| n log n).  State numbering follows the refinement.
    """
    delta = dense.delta
    finals_mask = dense.finals_mask
    symbol_indices = range(len(dense.symbols))
    seen = bytearray(dense.num_states)
    seen[dense.initial] = 1
    reachable = [dense.initial]
    for state in reachable:  # grows while iterated: a breadth-first queue
        for target in delta[state]:
            if not seen[target]:
                seen[target] = 1
                reachable.append(target)

    inverse: list[list[list[int]]] = [
        [[] for _ in range(dense.num_states)] for _ in symbol_indices
    ]
    for state in reachable:
        for symbol_inverse, target in zip(inverse, delta[state]):
            symbol_inverse[target].append(state)

    # One pass over the mask's digits: a shift per state is a big-int copy each.
    all_finals = {
        state for state, bit in enumerate(bin(finals_mask)[:1:-1]) if bit == "1"
    }
    finals = all_finals.intersection(reachable)
    blocks = [block for block in (finals, set(reachable) - finals) if block]
    block_of = [0] * dense.num_states
    for state in blocks[-1]:
        block_of[state] = len(blocks) - 1
    # The DFA is total, so the predecessors of one initial block are the
    # complement of the other's: the smaller one splits for both.
    smaller = min(range(len(blocks)), key=lambda block_id: len(blocks[block_id]))
    worklist = [(smaller, a) for a in symbol_indices]
    while worklist:
        splitter, symbol_index = worklist.pop()
        symbol_inverse = inverse[symbol_index]
        touched: dict[int, list[int]] = {}
        for target in blocks[splitter]:
            for state in symbol_inverse[target]:
                touched.setdefault(block_of[state], []).append(state)
        for block_id, inside in touched.items():
            block = blocks[block_id]
            if len(inside) == len(block):
                continue
            block.difference_update(inside)
            moved = set(inside)
            if len(moved) > len(block):
                blocks[block_id], moved = moved, block
            new_id = len(blocks)
            blocks.append(moved)
            for state in moved:
                block_of[state] = new_id
            worklist.extend((new_id, a) for a in symbol_indices)

    min_delta = []
    min_finals = 0
    for block_id, block in enumerate(blocks):
        witness = next(iter(block))
        if witness in all_finals:
            min_finals |= 1 << block_id
        min_delta.append([block_of[target] for target in delta[witness]])
    return DenseDFA(dense.symbols, min_delta, block_of[dense.initial], min_finals)


# ----------------------------------------------------------------------
# The A'-edge relation: ans(view, Ad-as-a-graph) on the shared sweep
# ----------------------------------------------------------------------

# Above this many delta cells (states x symbols) the relation memo is
# bypassed: its key is one int per cell and its LRU pins up to 128 of them.
_FINGERPRINT_MAX_CELLS = 1 << 13

# The rows a sweep of ``Ad`` runs on, chosen from its state count: big-int
# rows up to _BIGINT_MAX_STATES (measured crossover: 24 states on the Thm
# 3.1 family, 35 on long cycles); uint64 block rows up to _BLOCK_MAX_STATES,
# in windows of at most _WINDOW_WORDS words per matrix (2 MiB; one window
# up to 4096 states); beyond, big-int rows in windows of _BIGINT_WINDOW
# sources — a block sweep touches n^2/64 words per view state whatever the
# relation holds (the 141 079-state unminimized ``Ad`` of the Thm 3.3
# instance: 4.7 s a view, against 8.0 s in block windows).
_BIGINT_MAX_STATES = 32
_BLOCK_MAX_STATES = 1 << 15
_WINDOW_WORDS = 1 << 18
_BIGINT_WINDOW = 1 << 12


def _edge_index(ad: DenseDFA, blocks: bool):
    """``Ad`` *reversed* as a label-indexed edge index (memoized on ``ad``):
    the edge ``j --a--> i`` for every ``delta[i][a] == j``.

    Reversed, because a sweep's rows are indexed by target and list
    sources: over this index, with the view automaton reversed to match,
    row ``i`` lists the states ``Ad`` reaches from ``i``.  A CSR for block
    rows (in-neighbours: the function itself; out-neighbours: one stable
    argsort of it), the dicts the big-int sweep reads otherwise.
    """
    if ad._index is not None:
        return ad._index
    n = ad.num_states
    if blocks:
        delta = np.asarray(ad.delta, dtype=np.int64)
        identity = np.arange(n + 1, dtype=np.int64)
        by_label = {}
        for symbol_index, symbol in enumerate(ad.symbols):
            successor = np.ascontiguousarray(delta[:, symbol_index])
            out_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(successor, minlength=n), out=out_indptr[1:])
            by_label[symbol] = _LabelCSR(
                out_indptr, np.argsort(successor, kind="stable"), identity, successor
            )
        ad._index = CSRSnapshot(n, delta.size, ad.symbols, by_label)
    else:
        out = {symbol: {} for symbol in ad.symbols}
        for state, row in enumerate(ad.delta):
            for symbol, successor in zip(ad.symbols, row):
                out[symbol].setdefault(successor, []).append(state)
        ad._index = SimpleNamespace(num_nodes=n, label_out_index=out.__getitem__)
    return ad._index


def view_transition_masks(ad: DenseDFA, view: NFA, theory=None) -> tuple[int, ...]:
    """Per-state target masks of the view-word reachability relation.

    ``result[i]`` has bit ``j`` set iff some word of ``L(view)`` drives the
    total DFA ``ad`` from state ``i`` to state ``j`` — the ``e``-edges of
    the paper's ``A'`` for the view ``e``.  That is ``ans(view, Ad)`` with
    ``Ad``'s states as nodes and its symbols as edge labels, so it runs on
    :mod:`repro.sweep`: the view is compiled against ``Ad``'s alphabet
    (symbols matched by equality or, given a ``theory``, formulae resolved
    through it — Section 4.2's grounding-free product) and swept over
    ``Ad`` in memory-bounded source windows.
    """
    compiled = compile_automaton(
        view, theory, ad.symbols, plain_symbols=theory is None
    ).reversed()
    n = ad.num_states
    blocks = _BIGINT_MAX_STATES < n <= _BLOCK_MAX_STATES
    index = _edge_index(ad, blocks)
    width = max(1, _WINDOW_WORDS // n) << 6 if blocks else _BIGINT_WINDOW
    rows = [0] * n
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        for state, mask in window_masks(index, compiled, lo, hi, blocks).items():
            rows[state] |= mask << lo
    return tuple(rows)


# ----------------------------------------------------------------------
# Memoization of (Ad, view) relations
# ----------------------------------------------------------------------

_RELATION_CACHE_MAXSIZE = 128
_relation_cache: OrderedDict[tuple, tuple[int, ...]] = OrderedDict()
_relation_hits = 0
_relation_misses = 0


def cached_view_transition_masks(
    ad: DenseDFA, view: NFA, theory=None
) -> tuple[int, ...]:
    """Memoized :func:`view_transition_masks`.

    Keyed on ``ad``'s structural fingerprint plus the identities of view
    automaton and theory, so the maximal and existential rewritings of a
    query, and repeats of either, share one computation.  An ``Ad`` too
    large to fingerprint (``key()`` is ``None``) bypasses the memo.
    """
    global _relation_hits, _relation_misses
    ad_key = ad.key()
    if ad_key is None:
        return view_transition_masks(ad, view, theory)
    key = (ad_key, view, theory)
    cached = _relation_cache.get(key)
    if cached is not None:
        _relation_hits += 1
        _relation_cache.move_to_end(key)
        return cached
    _relation_misses += 1
    relation = view_transition_masks(ad, view, theory)
    _relation_cache[key] = relation
    if len(_relation_cache) > _RELATION_CACHE_MAXSIZE:
        _relation_cache.popitem(last=False)
    return relation


def relation_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the relation cache (for tests/ops)."""
    return {
        "hits": _relation_hits,
        "misses": _relation_misses,
        "size": len(_relation_cache),
        "maxsize": _RELATION_CACHE_MAXSIZE,
    }


def relation_cache_clear() -> None:
    global _relation_hits, _relation_misses
    _relation_cache.clear()
    _relation_hits = 0
    _relation_misses = 0


def relation_nfa(
    relations: Sequence[Sequence[int]],
    symbols: Sequence[Hashable],
    ad: DFA,
    finals: Iterable[int] | None = None,
    state_at: Sequence[int] | None = None,
) -> NFA:
    """The Sigma_E automaton on ``ad``'s states that the bit rows describe.

    ``relations[k][i]`` is the target mask of the ``symbols[k]``-edges
    out of dense state ``i``; ``state_at`` maps dense ids to ``ad``'s
    (default: identity).  With the default ``finals``, ``ad``'s
    non-finals, this is ``A'`` — which the construction never needs built.
    """
    if finals is None:
        finals = ad.states - ad.finals
    if state_at is None:
        state_at = range(ad.num_states)
    transitions: dict[int, dict[Hashable, set[int]]] = {}
    for symbol, relation in zip(symbols, relations):
        for index, mask in enumerate(relation):
            if mask:
                transitions.setdefault(state_at[index], {})[symbol] = {
                    state_at[j] for j in iter_bits(mask)
                }
    return NFA(
        states=ad.states,
        alphabet=symbols,
        transitions=transitions,
        initials={ad.initial},
        finals=finals,
    )


# ----------------------------------------------------------------------
# Fused complement + minimize: the paper's step 3 in one sweep
# ----------------------------------------------------------------------


def rewrite_sweep(
    relations: Sequence[Sequence[int]],
    ad: DenseDFA,
    symbols: tuple[Hashable, ...],
    minimize_result: bool = True,
) -> DenseDFA:
    """Complement of the ``A'`` induced by ``relations``, optionally minimal.

    ``relations[k][i]`` is the target mask of the ``symbols[k]``-edges out
    of ``Ad`` state ``i`` (from :func:`view_transition_masks`).  ``A'``
    itself — initial ``{ad.initial}``, finals = ``Ad``'s *non*-finals — is
    never materialized: the subset construction runs directly over the
    masks with complemented acceptance (a subset is accepting iff it
    contains no ``Ad``-non-final state; the dead subset is accepting, which
    is exactly the paper's vacuous case of a view word with no expansions).
    """
    n = ad.num_states
    per_state_moves: list[tuple[tuple[int, int], ...]] = []
    for state in range(n):
        per_state_moves.append(
            tuple(
                (symbol_index, relation[state])
                for symbol_index, relation in enumerate(relations)
                if relation[state]
            )
        )
    nonfinals_mask = ((1 << n) - 1) & ~ad.finals_mask
    delta, finals_mask = _subset_sweep(
        per_state_moves,
        1 << ad.initial,
        len(symbols),
        nonfinals_mask,
        complement=True,
    )
    result = DenseDFA(symbols, delta, 0, finals_mask)
    if minimize_result:
        result = minimize_dense(result)
    return result
