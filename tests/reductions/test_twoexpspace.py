"""Theorem 3.5 building blocks (THM35).

The full decision procedure is doubly exponential even at n=1, so the
tests validate the construction's components: polynomial sizes, the view
shapes, and the expansion-form claims for the tractable error detectors
(``E0^H``, ``E0^S``).
"""

import pytest

from repro.automata.containment import is_contained
from repro.automata.thompson import to_nfa
from repro.core.expansion import word_expansion_nfa
from repro.reductions.tiling import TilingSystem
from repro.reductions.twoexpspace import tilde, twoexpspace_reduction


@pytest.fixture(scope="module")
def reduction():
    system = TilingSystem(
        tiles=("s", "f", "l", "r"),
        horizontal=frozenset({("s", "r"), ("r", "l"), ("l", "r"), ("r", "f")}),
        vertical=frozenset({("s", "l"), ("l", "l"), ("r", "r"), ("r", "f")}),
        t_start="s",
        t_final="f",
        t_left="l",
        t_right="r",
    )
    return twoexpspace_reduction(system, 1)


@pytest.fixture(scope="module")
def e0_nfa(reduction):
    """The 157 846-state Thompson NFA of ``E0``, built once per module."""
    return to_nfa(reduction.e0)


class TestShape:
    def test_view_alphabet(self, reduction):
        symbols = set(reduction.views.symbols)
        assert {"b000", "b111"} <= symbols  # counter symbols
        assert {tilde(t) for t in reduction.system.tiles} <= symbols

    def test_counter_views_include_tiles(self, reduction):
        nfa = reduction.views.nfa("b000")
        # re(e) = block + Delta: a bare tile is a valid expansion.
        assert nfa.accepts(("s",))
        assert nfa.accepts(("$", "0", "1", "1", "0", "b000"))

    def test_tilde_views(self, reduction):
        nfa = reduction.views.nfa(tilde("s"))
        assert nfa.accepts((tilde("s"),))
        assert nfa.accepts(("s",))
        assert not nfa.accepts(("f",))

    def test_row_length_formula(self, reduction):
        assert reduction.row_length == 1 + 2 * 2 ** 2

    def test_delta_star_included(self, e0_nfa):
        assert e0_nfa.accepts(())
        assert e0_nfa.accepts(("s", "f", "l", "r", "s"))

    def test_sizes_polynomial(self):
        system = TilingSystem(
            tiles=("s", "f"),
            horizontal=frozenset({("s", "f")}),
            vertical=frozenset({("s", "s")}),
            t_start="s",
            t_final="f",
        )
        sizes = [twoexpspace_reduction(system, n).e0.size() for n in (1, 2)]
        assert sizes[1] < sizes[0] * 8

    def test_rejects_n0(self, reduction):
        with pytest.raises(ValueError):
            twoexpspace_reduction(reduction.system, 0)


class TestExpansionFormClaims:
    """The paper's "exp(w) subseteq L(E0^X) precisely when w is of form ..."
    statements, checked word-by-word for the tractable X."""

    def test_e_h_accepts_bad_horizontal_pairs(self, reduction):
        # w = ~l.~s has (l, s) not in H: every expansion must be in E0^H.
        target = to_nfa(reduction.e_h)
        w = (tilde("l"), tilde("s"))
        assert is_contained(word_expansion_nfa(w, reduction.views), target)

    def test_e_h_rejects_good_horizontal_pairs(self, reduction):
        # (s, r) in H: some expansion escapes E0^H.
        target = to_nfa(reduction.e_h)
        w = (tilde("s"), tilde("r"))
        assert not is_contained(word_expansion_nfa(w, reduction.views), target)

    def test_e_h_with_counter_symbol_padding(self, reduction):
        # Sigma_E^C* prefix/suffix: counter symbols around the bad pair.
        target = to_nfa(reduction.e_h)
        w = ("b000", tilde("l"), tilde("s"), "b111")
        assert is_contained(word_expansion_nfa(w, reduction.views), target)

    def test_e_s_accepts_wrong_start_tile(self, reduction):
        target = to_nfa(reduction.e_s)
        w = (tilde("r"), "b010", "b101")
        assert is_contained(word_expansion_nfa(w, reduction.views), target)

    def test_e_s_rejects_correct_start_tile(self, reduction):
        target = to_nfa(reduction.e_s)
        w = (tilde("s"), "b010")
        assert not is_contained(word_expansion_nfa(w, reduction.views), target)

    def test_error_words_are_rewritings_of_e0(self, reduction, e0_nfa):
        # Any Sigma_E word whose expansions all land in E0^1 is in
        # particular a rewriting of E0 = E0^1 + Delta*.
        w = (tilde("l"), tilde("s"))  # horizontal error word
        assert is_contained(word_expansion_nfa(w, reduction.views), e0_nfa)

    def test_correct_tiling_word_is_not_a_rewriting(self, reduction, e0_nfa):
        # ~s.~r spells a horizontally valid pair: its pure-tile expansion
        # s.r is in Delta*, but the mixed expansion ~s.~r is in no error
        # language, so the word is not part of any rewriting.
        w = (tilde("s"), tilde("r"))
        assert not is_contained(word_expansion_nfa(w, reduction.views), e0_nfa)
