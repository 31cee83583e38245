"""Containing rewritings — the dual problem from the paper's Section 5.

The paper computes *maximally contained* rewritings (all expansions inside
``L(E0)``) and names the dual as a research direction: *minimal containing*
rewritings, which "guarantee to provide all the answers of the original
query, and possibly more" and are in general not unique.

This module implements the canonical member of that family, the
*existential* rewriting

    R-exists = { w over Sigma_E | exp({w}) intersects L(E0) }

— the set of view words that can contribute at least one query answer.  It
is the largest language that is *useful* for covering ``L(E0)``, and it is
a containing rewriting exactly when the views can cover the query at all
(:func:`covers`); in that case every containing rewriting is a sublanguage
of it that still covers ``L(E0)``, so ``R-exists`` is the unique maximal
one and minimal ones are its covering sublanguages.

The construction mirrors ``A'`` from Section 2 but keeps ``Ad``'s final
states: an ``e``-edge ``s_i -> s_j`` iff some word of ``L(re(e))`` drives
``Ad`` from ``s_i`` to ``s_j``, and a Sigma_E word is accepted iff *some*
expansion is accepted by ``Ad``.  No complementation is needed, so —
unlike the contained rewriting — the whole computation is single
exponential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from ..automata.emptiness import enumerate_words, is_empty, shortest_word
from ..automata.nfa import NFA
from ..automata.state_elim import to_regex
from ..regex.ast import Regex
from .alphabet import LanguageSpec, ViewSet
from .exactness import exactness_counterexample
from .expansion import expansion_nfa
from .rewriter import _as_view_set, build_ad, naive_build_ad, sigma_e_automaton

__all__ = [
    "ContainingRewriting",
    "existential_rewriting",
    "naive_existential_rewriting",
]


@dataclass
class ContainingRewriting:
    """The existential rewriting of ``E0`` wrt a view set: the Sigma_E
    words *some* expansion of which lies in ``L(E0)`` (the candidate
    superset of every rewriting; Section 5's containing rewriting).  Its
    complement-free construction shares the per-(``Ad``, view) transition
    relations with :func:`maximal_rewriting` via the kernel's cache."""

    automaton: NFA
    views: ViewSet
    ad: "object"  # DFA; typed loosely to avoid an import cycle in docs
    _regex: Regex | None = field(default=None, repr=False)
    _expansion: NFA | None = field(default=None, repr=False)
    _missed: tuple[Hashable, ...] | None = field(default=..., repr=False)

    def accepts(self, word: Sequence[Hashable]) -> bool:
        """Does ``word`` have at least one expansion inside ``L(E0)``?"""
        return self.automaton.accepts(word)

    def is_empty(self) -> bool:
        return is_empty(self.automaton)

    def shortest_word(self) -> tuple[Hashable, ...] | None:
        return shortest_word(self.automaton)

    def words(self, max_length: int, max_count: int | None = None):
        return enumerate_words(self.automaton, max_length, max_count)

    def regex(self) -> Regex:
        if self._regex is None:
            self._regex = to_regex(self.automaton)
        return self._regex

    def expansion(self) -> NFA:
        """Automaton for ``exp_Sigma(L(R-exists))`` (cached)."""
        if self._expansion is None:
            self._expansion = expansion_nfa(self.automaton, self.views)
        return self._expansion

    def covers(self) -> bool:
        """Is this a containing rewriting, i.e. ``exp(L(R)) ⊇ L(E0)``?

        When false, *no* containing rewriting exists: some query word is
        not a factor of any expansion the views can produce.
        """
        return exactness_counterexample(self) is None

    def coverage_counterexample(self) -> tuple[Hashable, ...] | None:
        """A query word no view combination can produce, or ``None``."""
        return exactness_counterexample(self)


def existential_rewriting(
    e0: LanguageSpec,
    views: ViewSet | Mapping[Hashable, LanguageSpec] | Iterable[LanguageSpec],
) -> ContainingRewriting:
    """Compute the existential (maximal containing-candidate) rewriting.

    Single-exponential: determinize ``E0`` (step 1 of the paper's
    construction), then build the Sigma_E automaton with ``Ad``'s finals —
    no complement.  The edge relation is the same one ``A'`` uses, so it
    comes from the shared (and memoized) compiled
    :func:`~repro.core.rewriter.sigma_e_automaton`: computing the maximal
    and the existential rewriting of the same query costs the relation
    only once.
    """
    views = _as_view_set(views)
    ad = build_ad(e0, views)
    automaton = sigma_e_automaton(ad, views, finals=ad.finals).trimmed()
    return ContainingRewriting(automaton=automaton, views=views, ad=ad)


def naive_existential_rewriting(
    e0: LanguageSpec,
    views: ViewSet | Mapping[Hashable, LanguageSpec] | Iterable[LanguageSpec],
) -> ContainingRewriting:
    """The original dict-of-set construction — the differential oracle."""
    views = _as_view_set(views)
    ad = naive_build_ad(e0, views)
    from ..automata.operations import view_transition_relation

    transitions: dict[int, dict[Hashable, set[int]]] = {}
    for symbol in views.symbols:
        relation = view_transition_relation(ad, views.nfa(symbol))
        for source, targets in relation.items():
            if targets:
                transitions.setdefault(source, {})[symbol] = set(targets)
    automaton = NFA(
        states=ad.states,
        alphabet=views.symbols,
        transitions=transitions,
        initials={ad.initial},
        finals=ad.finals,
    ).trimmed()
    return ContainingRewriting(automaton=automaton, views=views, ad=ad)
