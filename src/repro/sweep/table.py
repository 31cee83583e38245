"""Automata compiled against a concrete label domain: symbols resolved,
once, to the edge labels of the index the automaton will be swept over.

**Twin states.**  Thompson construction plus epsilon elimination leaves
states that differ in name only (``a.(a+b)*.b``: 12 states / 112
transitions for a 3-state language), and every sweep pays per transition.
After trimming, :func:`compile_automaton` merges states with identical
``(final?, row)`` — equal right languages — and, in a *separate* step,
states with identical ``(initial?, reverse row)`` — equal left languages,
hence equal ``reached`` rows at every fixpoint — until neither step finds
a pair.  ``a.a.b`` needs the first (both copies of the middle state read
``a`` into the same set), ``a.b+a.c`` the second (its two ``a`` successors
differ in what they read, not in how they are reached).  Each step is a
quotient by a bisimulation, so the language is kept; one step that joined
``p`` to ``q`` by rows *and* ``q`` to ``r`` by reverse rows would not be
(``p`` and ``r`` need share neither language).  A table with no twins — a
minimal DFA — costs one signature hash per state and direction (4 096
states / 20 480 transitions: 50 -> 70 ms a compile); each step that merges
rebuilds the table once, and the compile cache keeps the result.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, Iterable

if TYPE_CHECKING:  # pragma: no cover - this layer sits below automata/
    from ..automata.nfa import NFA

__all__ = [
    "FormulaSymbol",
    "CompiledAutomaton",
    "compile_automaton",
    "compile_cache_info",
    "compile_cache_clear",
]


class FormulaSymbol:
    """Base of symbols that read every label in ``theory.satisfying(symbol)``,
    not just the one equal to them (:class:`repro.rpq.formulas.Formula`);
    defined here so this layer recognises formulae without importing upwards."""

    __slots__ = ()


class CompiledAutomaton:
    """An epsilon-free NFA specialized to a database's label domain.

    ``table[state][label]`` is the frozenset of successor states reached by
    reading an edge with that concrete label — formula symbols have already
    been expanded to the satisfying labels, and labels absent from the
    database have been dropped.  ``rtable`` is the same relation reversed
    (``rtable[state][label]`` = predecessor states), used by the backward
    half of the bidirectional search.
    """

    __slots__ = (
        "table",
        "rtable",
        "initials",
        "finals",
        "accepts_epsilon",
        "num_states",
    )

    def __init__(
        self,
        table: dict[int, dict[Hashable, frozenset[int]]],
        initials: frozenset[int],
        finals: frozenset[int],
    ):
        self.table = table
        self.initials = initials
        self.finals = finals
        self.accepts_epsilon = bool(initials & finals)
        rtable: dict[int, dict[Hashable, set[int]]] = {}
        states = set(initials) | set(finals)
        for state, row in table.items():
            states.add(state)
            for label, next_states in row.items():
                states |= next_states
                for next_state in next_states:
                    rtable.setdefault(next_state, {}).setdefault(
                        label, set()
                    ).add(state)
        self.num_states = len(states)
        self.rtable: dict[int, dict[Hashable, frozenset[int]]] = {
            state: {label: frozenset(srcs) for label, srcs in row.items()}
            for state, row in rtable.items()
        }

    def reversed(self) -> "CompiledAutomaton":
        """The automaton of the reversed language: over a reversed edge index
        a sweep's rows then list *targets* (table and rtable swap roles)."""
        flipped = CompiledAutomaton.__new__(CompiledAutomaton)
        flipped.table, flipped.rtable = self.rtable, self.table
        flipped.initials, flipped.finals = self.finals, self.initials
        flipped.accepts_epsilon = self.accepts_epsilon
        flipped.num_states = self.num_states
        return flipped

    def __repr__(self) -> str:
        return (
            f"CompiledAutomaton(states={self.num_states}, "
            f"labels={sorted(map(repr, {l for r in self.table.values() for l in r}))})"
        )


# ----------------------------------------------------------------------
# Compilation + LRU cache
# ----------------------------------------------------------------------

_CACHE_MAXSIZE = 128
_cache: OrderedDict[tuple, CompiledAutomaton] = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def compile_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the compilation cache (for tests/ops)."""
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "size": len(_cache),
        "maxsize": _CACHE_MAXSIZE,
    }


def compile_cache_clear() -> None:
    """Empty the compilation cache and reset its hit/miss counters —
    used by tests and benchmarks that must measure or assert cold-path
    behaviour (a serving process never needs to call this)."""
    _cache.clear()
    global _cache_hits, _cache_misses
    _cache_hits = 0
    _cache_misses = 0


def compile_automaton(
    nfa: "NFA",
    theory,
    labels: Iterable[Hashable],
    plain_symbols: bool = False,
) -> CompiledAutomaton:
    """Specialize ``nfa`` to the concrete edge-label domain ``labels``.

    Formula symbols are resolved through ``theory`` (required if any are
    present, unless ``plain_symbols`` forces the paper's ``ans`` semantics
    where every symbol — formula-valued or not — is matched by equality).
    Results are memoized per (automaton identity, theory identity, label
    domain, symbol discipline); ``NFA`` and ``Theory`` instances are
    immutable, so identity keying is sound.  The table is trimmed to its
    useful states and its twin states are merged (module docstring): state
    ids are a subset of the input's, the language over ``labels`` is kept.
    """
    global _cache_hits, _cache_misses
    label_domain = labels if isinstance(labels, frozenset) else frozenset(labels)
    key = (nfa, theory, label_domain, plain_symbols)
    cached = _cache.get(key)
    if cached is not None:
        _cache_hits += 1
        _cache.move_to_end(key)
        return cached
    _cache_misses += 1

    if not plain_symbols:
        formula_symbols = [s for s in nfa.alphabet if isinstance(s, FormulaSymbol)]
        if formula_symbols and theory is None:
            raise ValueError(
                "query uses formulae; a Theory is required to evaluate it"
            )
    if nfa.has_epsilon_moves():
        nfa = nfa.without_epsilon()

    satisfying: dict[FormulaSymbol, frozenset[Hashable]] = {}
    table: dict[int, dict[Hashable, frozenset[int]]] = {}
    for state, row in nfa.compiled_rows().items():
        compiled_row: dict[Hashable, set[int]] = {}
        for symbol, next_states in row.items():
            if not plain_symbols and isinstance(symbol, FormulaSymbol):
                matched = satisfying.get(symbol)
                if matched is None:
                    matched = theory.satisfying(symbol) & label_domain
                    satisfying[symbol] = matched
            else:
                matched = (symbol,) if symbol in label_domain else ()
            for label in matched:
                targets = compiled_row.get(label)
                if targets is None:
                    compiled_row[label] = set(next_states)
                else:
                    targets |= next_states
        if compiled_row:
            table[state] = {
                label: frozenset(targets)
                for label, targets in compiled_row.items()
            }
    table, initials, finals = _trim_useless_states(
        table, nfa.initials, nfa.finals
    )
    compiled = _merge_twin_states(CompiledAutomaton(table, initials, finals))
    _cache[key] = compiled
    if len(_cache) > _CACHE_MAXSIZE:
        _cache.popitem(last=False)
    return compiled


def _trim_useless_states(
    table: dict[int, dict[Hashable, frozenset[int]]],
    initials: frozenset[int],
    finals: frozenset[int],
) -> tuple[
    dict[int, dict[Hashable, frozenset[int]]], frozenset[int], frozenset[int]
]:
    """Drop states that cannot lie on any accepting run.

    Rewriting DFAs arrive *complete* (the Theorem 2.2 complementation
    needs totality), so they carry a dead sink looping on every symbol.
    Left in the table, the sink turns the product sweep quadratic: every
    source saturates ``reached[sink]`` across the whole graph for
    answers that can never materialize.  Keeping only states both
    reachable from an initial state and co-reachable to a final one
    leaves the answer set untouched while the sweep's work drops to the
    useful product — the difference between seconds and minutes on a
    50k-edge store.  Initial-and-final states are always useful, so the
    epsilon-acceptance bit survives trimming unchanged.
    """
    forward = set(initials)
    stack = list(initials)
    while stack:
        state = stack.pop()
        for next_states in table.get(state, {}).values():
            for next_state in next_states:
                if next_state not in forward:
                    forward.add(next_state)
                    stack.append(next_state)
    predecessors: dict[int, set[int]] = {}
    for state, row in table.items():
        for next_states in row.values():
            for next_state in next_states:
                predecessors.setdefault(next_state, set()).add(state)
    backward = set(finals)
    stack = list(finals)
    while stack:
        state = stack.pop()
        for prev_state in predecessors.get(state, ()):
            if prev_state not in backward:
                backward.add(prev_state)
                stack.append(prev_state)
    useful = forward & backward
    trimmed: dict[int, dict[Hashable, frozenset[int]]] = {}
    for state, row in table.items():
        if state not in useful:
            continue
        trimmed_row = {
            label: kept
            for label, next_states in row.items()
            if (kept := next_states & useful)
        }
        if trimmed_row:
            trimmed[state] = trimmed_row
    return trimmed, initials & useful, finals & useful


def _merge_twin_states(compiled: CompiledAutomaton) -> CompiledAutomaton:
    """Merge states with equal rows, then — never in the same step — states
    with equal reverse rows, until neither finds a pair (module docstring)."""
    while True:
        before = compiled.num_states
        compiled = _merge_equal_rows(compiled)
        compiled = _merge_equal_rows(compiled.reversed()).reversed()
        if compiled.num_states == before:
            return compiled


def _merge_equal_rows(compiled: CompiledAutomaton) -> CompiledAutomaton:
    """One quotient step: every class of states with identical ``(final?,
    row)`` becomes its smallest member.  ``compiled`` itself comes back
    when all signatures differ — one hash per state, nothing rebuilt."""
    table, finals = compiled.table, compiled.finals
    states = compiled.initials | finals | table.keys() | compiled.rtable.keys()
    first: dict[tuple, int] = {}
    merged: dict[int, int] = {}
    for state in sorted(states):
        signature = (state in finals, frozenset(table.get(state, {}).items()))
        twin = first.setdefault(signature, state)
        if twin != state:
            merged[state] = twin
    if not merged:
        return compiled

    def renamed(some_states: frozenset[int]) -> frozenset[int]:
        return frozenset(merged.get(state, state) for state in some_states)

    return CompiledAutomaton(
        {
            state: {label: renamed(targets) for label, targets in row.items()}
            for state, row in table.items()
            if state not in merged  # a twin's row is its representative's
        },
        renamed(compiled.initials),
        renamed(finals),
    )
