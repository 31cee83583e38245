"""Unit tests for the dense bitmask kernel (`repro.automata.compiled`).

Every kernel primitive has a dict-of-set reference in the existing
modules; these tests pin the kernel to those references on hand-built and
random automata.  The end-to-end pipeline equivalence lives in
``tests/core/test_rewriter_differential.py``.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import (
    DFA,
    NFA,
    are_equivalent,
    are_isomorphic,
    determinize,
    minimize,
    to_nfa,
    view_transition_relation,
)
from repro.automata.compiled import (
    DenseDFA,
    cached_view_transition_masks,
    dense_from_dfa,
    dense_from_nfa,
    determinize_dense,
    iter_bits,
    minimize_dense,
    relation_cache_clear,
    relation_cache_info,
    rewrite_sweep,
    view_transition_masks,
)
from repro.regex.parser import parse

from ..conftest import regex_strategy, words_up_to


def nfa_of(expr: str) -> NFA:
    return to_nfa(parse(expr))


def total_dfa_of(expr: str, alphabet=("a", "b", "c")) -> DFA:
    return minimize(determinize(nfa_of(expr))).completed(frozenset(alphabet))


@st.composite
def total_dfas(draw, max_states: int = 8):
    """Random total DFAs over ``0..n-1``: any initial state, any final set."""
    n = draw(st.integers(1, max_states))
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    state = st.integers(0, n - 1)
    transitions = {
        src: {symbol: draw(state) for symbol in alphabet} for src in range(n)
    }
    finals = draw(st.sets(state) | st.just(set(range(n))))
    return DFA(range(n), alphabet, transitions, draw(state), finals)


class TestDenseConversions:
    def test_dense_dfa_roundtrip_preserves_language(self):
        dfa = total_dfa_of("a.(b+c)*")
        dense, state_at = dense_from_dfa(dfa)
        back = dense.to_dfa()
        assert are_equivalent(dfa, back)
        assert len(state_at) == dfa.num_states

    def test_dense_from_dfa_requires_total(self):
        partial = determinize(nfa_of("a.b"))
        with pytest.raises(ValueError):
            dense_from_dfa(partial)

    def test_dense_accepts_matches_dfa(self):
        dfa = total_dfa_of("(a.b)*+c")
        dense, _ = dense_from_dfa(dfa)
        for word in words_up_to(("a", "b", "c"), 4):
            assert dense.accepts(word) == dfa.accepts(word), word

    def test_dense_nfa_eliminates_epsilon(self):
        dense = dense_from_nfa(nfa_of("(a+%eps).b"))
        # Thompson automata are epsilon-heavy; the dense form never is.
        assert dense.num_states >= 1
        assert all(
            isinstance(entry, tuple) and len(entry) == 2
            for moves in dense.moves
            for entry in moves
        )


class TestDenseFrontEnd:
    """``dense_from_nfa``'s three passes: source-closed ε-elimination, trim,
    bisimulation quotient."""

    @pytest.mark.parametrize("k", [4, 11])
    def test_blowup_family_reaches_the_position_automaton(self, k):
        # Thompson's NFA has 6k + 10 states, and the target-closed
        # elimination kept every one of them (40 at k = 5).
        assert dense_from_nfa(nfa_of("(a+b)*.a" + ".(a+b)" * k)).num_states == k + 2

    @pytest.mark.parametrize("expr", ["%empty", "a.%empty", "(a.%empty)*.%empty"])
    def test_empty_language_leaves_no_state(self, expr):
        dense = dense_from_nfa(nfa_of(expr))
        assert (dense.num_states, dense.initials_mask, dense.finals_mask) == (0, 0, 0)
        dfa = determinize_dense(nfa_of(expr), symbols=("a",))
        assert dfa.num_states == 1 and not dfa.finals_mask

    def test_epsilon_only_language_is_one_final_state(self):
        dense = dense_from_nfa(nfa_of("%eps"))
        assert (dense.num_states, dense.initials_mask, dense.finals_mask) == (1, 1, 1)
        assert dense.moves == [()]

    def test_epsilon_cycle_closes_to_one_looping_state(self):
        # (a*)* puts an ε-cycle through the inner star's entry and exit.
        nfa = nfa_of("(a*)*")
        dense = dense_from_nfa(nfa)
        assert dense.num_states == 1
        assert dense.moves == [((0, 1),)]
        assert (dense.initials_mask, dense.finals_mask) == (1, 1)
        assert dense.state_at == (min(nfa.initials),)

    @settings(max_examples=80, deadline=None)
    @given(expr=regex_strategy(max_leaves=7))
    def test_never_larger_than_the_dict_front_end_and_language_kept(self, expr):
        nfa = to_nfa(expr)
        dense = dense_from_nfa(nfa)
        assert dense.num_states <= nfa.without_epsilon().trimmed().num_states
        assert list(dense.state_at) == sorted(dense.state_at)
        assert are_equivalent(determinize_dense(nfa).to_dfa(), determinize(nfa))

    def test_refinement_is_not_quadratic_on_a_chain(self):
        """``a^4000``: 0.08-0.14 s on a 2-vCPU box (0.10 s before the
        quotient).  A refinement that re-signs every state each round needs
        a round per chain state: 1.4 s at ``a^800``, about 35 s here."""
        nfa = nfa_of(".".join(["a"] * 4000))
        started = time.perf_counter()
        dense = determinize_dense(nfa)
        elapsed = time.perf_counter() - started
        assert dense.num_states == 4002
        assert elapsed < 2.0, f"{elapsed:.2f} s"


class TestDeterminizeDense:
    @settings(max_examples=50, deadline=None)
    @given(expr=regex_strategy(max_leaves=6))
    def test_agrees_with_reference_subset_construction(self, expr):
        nfa = to_nfa(expr)
        dense = determinize_dense(nfa)
        reference = determinize(nfa)
        assert are_equivalent(dense.to_dfa(), reference)

    def test_result_is_total_over_superset_alphabet(self):
        dense = determinize_dense(nfa_of("a"), symbols=("a", "b", "z"))
        dfa = dense.to_dfa()
        assert dfa.is_total()
        assert dfa.alphabet == frozenset({"a", "b", "z"})
        assert dfa.accepts(("a",))
        assert not dfa.accepts(("z",))

    def test_dead_subset_materialized_once(self):
        dense = determinize_dense(nfa_of("a.b"))
        dfa = dense.to_dfa()
        # a.b over {a, b} needs exactly one sink beyond the 3 live states.
        assert dfa.is_total()
        assert dfa.num_states == 4


class TestMinimizeDense:
    @settings(max_examples=50, deadline=None)
    @given(expr=regex_strategy(max_leaves=6))
    def test_agrees_with_reference_hopcroft(self, expr):
        dense = determinize_dense(to_nfa(expr))
        reduced = minimize_dense(dense)
        reference = minimize(dense.to_dfa(), trim=False)
        assert are_isomorphic(reduced.to_dfa(), reference)
        assert reduced.num_states == len(reference.reachable_states())

    @settings(max_examples=200, deadline=None)
    @given(dfa=total_dfas())
    def test_random_total_dfas_agree_with_reference_hopcroft(self, dfa):
        # What ``determinize_dense`` never emits: unreachable states, an
        # initial state other than 0, every state final, no state final.
        dense, _state_at = dense_from_dfa(dfa)
        reduced = minimize_dense(dense)
        reference = minimize(dfa, trim=False)
        assert are_isomorphic(reduced.to_dfa(), reference)
        assert reduced.num_states == len(reference.reachable_states())

    @pytest.mark.parametrize("k, bound_s", [(11, 1.0), (12, 2.0)])
    def test_cost_is_not_quadratic_on_the_blowup_family(self, k, bound_s):
        """The determinized ``(a+b)*.a.(a+b)^k`` (``2^(k+1)`` states: the
        quotient of the front end leaves no duplicate initial subset)
        minimizes to ``2^(k+1)`` states in 0.02 s (k = 11) and 0.05 s
        (k = 12) on a 2-vCPU box, so the bounds have more than 20x slack on
        a busy machine; a refinement that scans the whole partition per
        splitter took 2.2 s and 9.3 s.
        """
        dense = determinize_dense(nfa_of("(a+b)*.a" + ".(a+b)" * k))
        assert dense.num_states == 2 ** (k + 1)
        started = time.perf_counter()
        reduced = minimize_dense(dense)
        elapsed = time.perf_counter() - started
        assert reduced.num_states == 2 ** (k + 1)
        assert elapsed < bound_s, f"{elapsed:.2f} s"

    def test_idempotent(self):
        dense = determinize_dense(nfa_of("(a+b)*.a.(a+b)"))
        once = minimize_dense(dense)
        twice = minimize_dense(once)
        assert once.num_states == twice.num_states


class TestViewTransitionMasks:
    @settings(max_examples=40, deadline=None)
    @given(query=regex_strategy(max_leaves=5), view=regex_strategy(max_leaves=5))
    def test_agrees_with_naive_relation(self, query, view):
        dfa = minimize(determinize(to_nfa(query))).completed(
            frozenset({"a", "b", "c"})
        )
        view_nfa = to_nfa(view)
        dense, state_at = dense_from_dfa(dfa)
        masks = view_transition_masks(dense, view_nfa)
        naive = view_transition_relation(dfa, view_nfa)
        compiled = {
            state_at[i]: {state_at[j] for j in iter_bits(mask)}
            for i, mask in enumerate(masks)
        }
        assert compiled == naive

    def test_epsilon_in_view_language_gives_identity_edges(self):
        dfa = total_dfa_of("a.b")
        dense, _ = dense_from_dfa(dfa)
        masks = view_transition_masks(dense, nfa_of("a*"))
        for state, mask in enumerate(masks):
            assert mask >> state & 1  # s -> s via the empty word

    def test_empty_view_language_gives_no_edges(self):
        dfa = total_dfa_of("a")
        dense, _ = dense_from_dfa(dfa)
        assert set(view_transition_masks(dense, nfa_of("%empty"))) == {0}


class TestRelationCache:
    def test_hit_on_identical_ad_and_view(self):
        relation_cache_clear()
        dfa = total_dfa_of("a.b*")
        view = nfa_of("a.b")
        dense, _ = dense_from_dfa(dfa)
        first = cached_view_transition_masks(dense, view)
        again = cached_view_transition_masks(dense, view)
        assert first == again
        info = relation_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_structural_ad_key_shares_across_instances(self):
        relation_cache_clear()
        view = nfa_of("a")
        dense1, _ = dense_from_dfa(total_dfa_of("a+b"))
        dense2, _ = dense_from_dfa(total_dfa_of("a+b"))
        cached_view_transition_masks(dense1, view)
        cached_view_transition_masks(dense2, view)
        assert relation_cache_info()["hits"] == 1

    def test_distinct_views_do_not_collide(self):
        relation_cache_clear()
        dense, _ = dense_from_dfa(total_dfa_of("a.b"))
        first = cached_view_transition_masks(dense, nfa_of("a"))
        second = cached_view_transition_masks(dense, nfa_of("b"))
        assert first != second
        assert relation_cache_info()["misses"] == 2


class TestRewriteSweep:
    def _sweep(self, query: str, views: dict[str, str], minimize_result=True):
        sigma = frozenset().union(
            *(nfa_of(v).alphabet for v in views.values()), nfa_of(query).alphabet
        )
        dfa = minimize(determinize(nfa_of(query))).completed(sigma)
        dense, _ = dense_from_dfa(dfa)
        symbols = tuple(views)
        relations = [
            view_transition_masks(dense, nfa_of(views[s])) for s in symbols
        ]
        return rewrite_sweep(
            relations, dense, symbols, minimize_result=minimize_result
        )

    def test_complemented_acceptance(self):
        # Rewriting of a.b with views a, b: exactly the word e1.e2.
        result = self._sweep("a.b", {"e1": "a", "e2": "b"})
        assert result.accepts(("e1", "e2"))
        assert not result.accepts(("e1",))
        assert not result.accepts(("e2", "e1"))

    def test_dead_subset_is_accepting(self):
        # A view with an empty language has no expansions: vacuously fine.
        result = self._sweep("a", {"e1": "a", "e2": "%empty"})
        assert result.accepts(("e2",))
        assert result.accepts(("e2", "e1", "e2"))

    def test_minimize_flag_only_changes_size(self):
        raw = self._sweep("a.b", {"e1": "a", "e2": "b"}, minimize_result=False)
        reduced = self._sweep("a.b", {"e1": "a", "e2": "b"})
        assert reduced.num_states <= raw.num_states
        assert are_equivalent(raw.to_dfa(), reduced.to_dfa())
