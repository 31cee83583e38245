"""Theorem 3.3: the reduction agrees with brute-force tiling (THM33).

The session-cached instances pit the construction against the ground-truth
solver: the maximal rewriting is non-empty iff a tiling exists, and the
rewriting language consists exactly of the words describing valid tilings.
"""

from itertools import product

import pytest

from repro.reductions.expspace import expspace_reduction, tiling_word
from repro.reductions.tiling import TilingSystem, solve_corridor_tiling


class TestReductionSolvable:
    def test_nonempty_iff_tiling_exists(self, expspace_instances):
        reduction, rewriting = expspace_instances["solvable"]
        assert solve_corridor_tiling(reduction.system, reduction.width, 4)
        assert not rewriting.is_empty()

    def test_shortest_word_is_a_tiling(self, expspace_instances):
        reduction, rewriting = expspace_instances["solvable"]
        witness = rewriting.shortest_word()
        assert witness is not None
        assert reduction.word_describes_tiling(witness)

    def test_language_equals_tilings_up_to_length4(self, expspace_instances):
        reduction, rewriting = expspace_instances["solvable"]
        for length in range(5):
            for word in product(reduction.system.tiles, repeat=length):
                assert rewriting.accepts(word) == reduction.word_describes_tiling(
                    word
                ), word

    def test_known_tiling_accepted(self, expspace_instances):
        reduction, rewriting = expspace_instances["solvable"]
        rows = solve_corridor_tiling(reduction.system, reduction.width, 3)
        assert rewriting.accepts(tiling_word(rows))

    def test_stacked_tiling_accepted(self, expspace_instances):
        reduction, rewriting = expspace_instances["solvable"]
        rows = [["a", "b"], ["a", "b"], ["a", "b"]]
        assert rewriting.accepts(tiling_word(rows))


class TestReductionUnsolvable:
    def test_empty_iff_no_tiling(self, expspace_instances):
        reduction, rewriting = expspace_instances["unsolvable"]
        assert solve_corridor_tiling(reduction.system, reduction.width, 4) is None
        assert rewriting.is_empty()

    def test_degenerate_words_rejected(self, expspace_instances):
        _reduction, rewriting = expspace_instances["unsolvable"]
        assert not rewriting.accepts(())
        assert not rewriting.accepts(("a",))
        assert not rewriting.accepts(("a", "b", "a"))


class TestLazyNonemptinessAgrees:
    """The Theorem 3.3 *upper bound* algorithm on the hardness instances."""

    def test_lazy_check_on_both_instances(self, expspace_instances):
        from repro.core import has_nonempty_rewriting

        for name, expected in (("solvable", True), ("unsolvable", False)):
            reduction, _rewriting = expspace_instances[name]
            assert has_nonempty_rewriting(reduction.e0, reduction.views) == expected


class TestConstructionShape:
    def test_views_are_block_languages(self, expspace_instances):
        reduction, _ = expspace_instances["solvable"]
        for tile in reduction.system.tiles:
            nfa = reduction.views.nfa(tile)
            assert nfa.accepts(("$", "0", "1", "1", "0", tile))
            assert not nfa.accepts(("$", "0", "1", "1", "0", "wrong"))

    def test_sizes_polynomial_in_n(self):
        system = TilingSystem(
            tiles=("a", "b"),
            horizontal=frozenset({("a", "b")}),
            vertical=frozenset({("a", "a"), ("b", "b")}),
            t_start="a",
            t_final="b",
        )
        sizes = [expspace_reduction(system, n).e0.size() for n in (1, 2, 3)]
        for prev, nxt in zip(sizes, sizes[1:]):
            assert nxt < prev * 6  # polynomial growth

    def test_requires_corners_and_positive_n(self):
        incomplete = TilingSystem(
            tiles=("a",), horizontal=frozenset(), vertical=frozenset()
        )
        with pytest.raises(ValueError):
            expspace_reduction(incomplete, 1)
        complete = TilingSystem(
            tiles=("a",),
            horizontal=frozenset(),
            vertical=frozenset(),
            t_start="a",
            t_final="a",
        )
        with pytest.raises(ValueError):
            expspace_reduction(complete, 0)
        with pytest.raises(ValueError):
            expspace_reduction(complete, 1, variant="unknown")


class TestPaperVariantDegeneracy:
    """The construction exactly as printed vacuously accepts words whose
    length is not a multiple of 2^n — the degeneracy our 'strict' variant
    repairs (documented in DESIGN.md)."""

    @pytest.fixture(scope="class")
    def paper_rewriting(self):
        from repro.core import maximal_rewriting

        system = TilingSystem(
            tiles=("a", "b"),
            horizontal=frozenset({("a", "b")}),
            vertical=frozenset({("a", "a"), ("b", "b")}),
            t_start="a",
            t_final="a",  # unsolvable
        )
        reduction = expspace_reduction(system, 1, variant="paper")
        return reduction, maximal_rewriting(reduction.e0, reduction.views)

    def test_paper_variant_accepts_degenerate_words(self, paper_rewriting):
        _reduction, rewriting = paper_rewriting
        # No tiling exists, yet odd-length words are vacuously accepted:
        # every expansion violates counter conditions (1) or (2).
        assert rewriting.accepts(("a",))
        assert rewriting.accepts(())

    def test_paper_variant_still_rejects_wrong_tilings(self, paper_rewriting):
        _reduction, rewriting = paper_rewriting
        # Words of the right length with wrong tiles are properly rejected.
        assert not rewriting.accepts(("b", "a"))
        assert not rewriting.accepts(("a", "a"))
