"""The ``A'`` bit rows against the naive per-source relation.

``compiled.view_transition_masks`` picks its rows from ``Ad``'s size —
big-int rows for a tiny ``Ad``, uint64 block rows in bounded windows
beyond it, big-int windows again for a huge one.  Every form must give
exactly ``operations.view_transition_relation``, the one-BFS-per-source
transcription of the paper's step 2, on views that accept the empty
word, nothing at all, or a starred language, and whatever the window
geometry.  The size rule is lowered by monkeypatching its constants, so
small instances reach every form.
"""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import determinize, minimize, to_nfa, view_transition_relation
from repro.automata import compiled
from repro.automata.compiled import (
    DenseDFA,
    dense_from_dfa,
    view_transition_masks,
)
from repro.regex.ast import EMPTY, EPSILON, star, sym
from repro.regex.parser import parse

from ..conftest import regex_strategy

SIGMA = frozenset({"a", "b", "c"})

# Size-rule constants that force one form of rows on any ``Ad``.
FORMS = {
    "bigint": {"_BIGINT_MAX_STATES": 10**9},
    # No block range at all, and windows that do not divide most n.
    "bigint-windows": {"_BLOCK_MAX_STATES": -1, "_BIGINT_WINDOW": 5},
    "blocks": {"_BIGINT_MAX_STATES": 0},
}


def _total_dfa(regex):
    return minimize(determinize(to_nfa(regex))).completed(SIGMA)


def _naive_rows(dfa, dense, state_at, view_nfa):
    index_of = {state: i for i, state in enumerate(state_at)}
    naive = view_transition_relation(dfa, view_nfa)
    return tuple(
        sum(1 << index_of[target] for target in naive[state]) for state in state_at
    )


views = st.one_of(
    regex_strategy(max_leaves=5),
    regex_strategy(max_leaves=4).map(star),
    st.sampled_from([EPSILON, EMPTY, star(sym("a")), sym("c")]),
)


@pytest.mark.parametrize("form", sorted(FORMS))
@settings(max_examples=40, deadline=None)
@given(query=regex_strategy(max_leaves=6), view=views)
def test_rows_equal_the_naive_relation(form, query, view):
    dfa = _total_dfa(query)
    dense, state_at = dense_from_dfa(dfa)
    view_nfa = to_nfa(view)
    with mock.patch.multiple(compiled, **FORMS[form]):
        rows = view_transition_masks(dense, view_nfa)
    assert rows == _naive_rows(dfa, dense, state_at, view_nfa)


@pytest.mark.parametrize("cycle", [69, 130])
@pytest.mark.parametrize(
    "view", ["a", "(a+b)*", "a.b.c*", "%eps", "%empty", "(a.b)*.a", "b.(a+b+c)*.a"]
)
def test_block_windows_whose_width_is_not_a_multiple_of_64(monkeypatch, cycle, view):
    # Ad of (a.b.a.b...)* has cycle + 1 states: with 64-column windows
    # (one block each) the last window is 6 resp. 3 columns wide.
    monkeypatch.setattr(compiled, "_WINDOW_WORDS", 1)
    dfa = _total_dfa(parse("(" + ".".join("ab"[i % 2] for i in range(cycle)) + ")*"))
    assert dfa.num_states % 64 not in (0, 1)
    dense, state_at = dense_from_dfa(dfa)
    view_nfa = to_nfa(parse(view))
    assert view_transition_masks(dense, view_nfa) == _naive_rows(
        dfa, dense, state_at, view_nfa
    )


@pytest.mark.parametrize("num_states", [1 << 15, 40_000], ids=["blocks", "bigint"])
def test_a_large_ad_never_allocates_n_squared_bits(num_states):
    """Above the old 16 384-state limit of the all-sources BFS the sweep
    still runs, in windows: its peak stays a small fraction of the
    ``n^2 / 8`` bytes one all-sources matrix would take."""
    # a: i -> i + 1 (mod n); b: everything -> 0.  The rows of both views
    # stay tiny ints, so the peak measured is the sweep's own.
    dense = DenseDFA(
        ("a", "b"), [[(i + 1) % num_states, 0] for i in range(num_states)], 0, 1
    )
    tracemalloc.start()
    try:
        rows = [
            view_transition_masks(dense, to_nfa(parse(view)))
            for view in ("b", "b.a.a")
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(rows[0]) == {1 << 0} and set(rows[1]) == {1 << 2}
    assert peak < num_states * num_states // 8 // 4, peak
