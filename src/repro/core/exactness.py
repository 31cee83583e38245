"""Exactness of rewritings (Section 2, Theorem 2.3 / Corollary 2.1).

A rewriting ``R`` is *exact* when ``exp_Sigma(L(R)) = L(E0)``.  Since the
construction guarantees ``exp_Sigma(L(R)) subseteq L(E0)``, exactness reduces
to the reverse containment ``L(Ad) subseteq L(B)``, where ``B`` is the
expansion automaton of ``R`` — equivalently, emptiness of
``L(Ad intersect complement(B))``.

Two implementations are provided and benchmarked against each other:

* ``method="on_the_fly"`` — the paper's 2EXPSPACE algorithm (Theorem 3.2):
  ``complement(B)`` is never materialized; the product is explored by the
  antichain search of :mod:`repro.automata.containment`.
* ``method="explicit"`` — determinize and complement ``B`` eagerly, then
  intersect: the naive 3EXPTIME route the paper explicitly warns about,
  kept as the independent reference the search is tested against.
"""

from __future__ import annotations

from typing import Hashable

from ..automata.containment import containment_counterexample
from ..automata.determinize import determinize
from ..automata.emptiness import is_empty
from ..automata.operations import difference_dfa
from .result import RewritingResult

__all__ = ["is_exact", "exactness_counterexample", "METHODS"]

METHODS = ("on_the_fly", "explicit")


def is_exact(result: RewritingResult, method: str = "on_the_fly") -> bool:
    """Decide whether the computed rewriting is exact (Corollary 2.1)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "on_the_fly":
        return exactness_counterexample(result) is None
    return is_empty(difference_dfa(result.ad, determinize(result.expansion())))


def exactness_counterexample(
    result: RewritingResult,
) -> tuple[Hashable, ...] | None:
    """A shortest Sigma word of ``L(E0)`` missed by the rewriting's expansion.

    Returns ``None`` when the rewriting is exact.  This is the witness of
    ``L(Ad intersect complement(B))`` being non-empty, useful in examples
    and when choosing additional views for a partial rewriting (Section 4.3).
    Searched once: the witness is kept in the result's ``_missed`` slot.
    """
    if result._missed is ...:
        result._missed = containment_counterexample(result.ad, result.expansion())
    return result._missed
