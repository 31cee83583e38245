"""Non-emptiness of the maximal rewriting (Theorem 3.3 upper bound).

Deciding whether *some* non-empty rewriting exists does not require the
doubly-exponential complement of ``A'`` to be materialized: the complement
accepts a word iff the lazy subset construction of ``A'`` reaches a subset
containing no ``A'``-final state (equivalently, a subset of ``Ad``-final
states — including the empty subset, which arises when a view language is
empty and therefore expands to the empty language, trivially contained in
``L(E0)``).  That is a counterexample to ``Sigma_E* subseteq L(A')``: the
on-the-fly containment search with early exit gives the paper's EXPSPACE
upper bound, and because its left alphabet is the view symbols the empty
subset is reached like any other.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from ..automata.containment import containment_counterexample
from ..automata.thompson import universal_nfa
from .alphabet import LanguageSpec, ViewSet
from .rewriter import _as_view_set, build_a_prime, build_ad

__all__ = ["has_nonempty_rewriting", "nonempty_rewriting_witness"]


def has_nonempty_rewriting(
    e0: LanguageSpec,
    views: ViewSet | Mapping[Hashable, LanguageSpec] | Iterable[LanguageSpec],
) -> bool:
    """Is the Sigma_E-maximal rewriting of ``e0`` wrt ``views`` non-empty?"""
    return nonempty_rewriting_witness(e0, views) is not None


def nonempty_rewriting_witness(
    e0: LanguageSpec,
    views: ViewSet | Mapping[Hashable, LanguageSpec] | Iterable[LanguageSpec],
) -> tuple[Hashable, ...] | None:
    """A shortest Sigma_E word of the maximal rewriting, or ``None``.

    The rewriting is the complement of ``A'``, so this is a shortest
    counterexample to ``Sigma_E* subseteq L(A')``.
    """
    views = _as_view_set(views)
    ad = build_ad(e0, views)
    a_prime = build_a_prime(ad, views)
    return containment_counterexample(universal_nfa(views.symbols), a_prime)
