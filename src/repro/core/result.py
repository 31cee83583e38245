"""Result object of the rewriting construction.

Bundles the rewriting automaton ``R_{E,E0}`` with the intermediate artifacts
of the paper's construction (the deterministic ``Ad`` and the Sigma_E
automaton ``A'``) plus size/time statistics, and offers the derived queries
the paper discusses: emptiness, exactness, a regular-expression rendering,
and the expansion automaton ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from ..automata.compiled import relation_nfa
from ..automata.dfa import DFA
from ..automata.emptiness import enumerate_words, is_empty, shortest_word
from ..automata.nfa import NFA
from ..automata.state_elim import to_regex
from ..regex.ast import Regex
from .alphabet import ViewSet
from .expansion import expansion_nfa

__all__ = ["RewritingResult"]


@dataclass
class RewritingResult:
    """The Sigma_E-maximal rewriting of ``E0`` with respect to ``E``.

    Attributes
    ----------
    automaton:
        ``R_{E,E0}``, a DFA over the view alphabet Sigma_E.
    views:
        The view set ``E`` the rewriting was computed against.
    ad:
        The *total* deterministic automaton for ``L(E0)`` over Sigma
        (step 1 of the construction).
    a_prime_rows:
        ``A'`` (step 2) as bit rows: ``a_prime_rows[k][i]`` is the target mask
        of the ``views.symbols[k]``-edges out of ``Ad`` state ``i``.
    stats:
        Size and timing figures collected during construction.
    """

    automaton: DFA
    views: ViewSet
    ad: DFA
    a_prime_rows: Sequence[Sequence[int]] | None = None
    stats: dict[str, float] = field(default_factory=dict)
    _a_prime: NFA | None = field(default=None, repr=False)
    _regex: Regex | None = field(default=None, repr=False)
    _expansion: NFA | None = field(default=None, repr=False)
    # ``...`` until searched, then exactness_counterexample's answer
    _missed: tuple[Hashable, ...] | None = field(default=..., repr=False)

    @property
    def a_prime(self) -> NFA:
        """``A'``, whose complement is the rewriting (built on first access)."""
        if self._a_prime is None:
            self._a_prime = relation_nfa(
                self.a_prime_rows, self.views.symbols, self.ad
            )
        return self._a_prime

    def accepts(self, word: Sequence[Hashable]) -> bool:
        """Is the Sigma_E word ``word`` part of the rewriting?"""
        return self.automaton.accepts(word)

    def is_empty(self) -> bool:
        """Is the rewriting empty (no Sigma_E word has all expansions in E0)?"""
        return is_empty(self.automaton)

    def shortest_word(self) -> tuple[Hashable, ...] | None:
        """A shortest Sigma_E word of the rewriting, or ``None``."""
        return shortest_word(self.automaton)

    def words(self, max_length: int, max_count: int | None = None):
        """Enumerate Sigma_E words of the rewriting up to ``max_length``."""
        return enumerate_words(self.automaton, max_length, max_count)

    def regex(self) -> Regex:
        """The rewriting as a regular expression over Sigma_E (cached)."""
        if self._regex is None:
            self._regex = to_regex(self.automaton)
        return self._regex

    def expansion(self) -> NFA:
        """The automaton ``B`` for ``exp_Sigma(L(R))`` (cached)."""
        if self._expansion is None:
            self._expansion = expansion_nfa(self.automaton, self.views)
        return self._expansion

    def is_exact(self, method: str = "on_the_fly") -> bool:
        """Is the rewriting exact, i.e. ``exp_Sigma(L(R)) = L(E0)``?"""
        from .exactness import is_exact  # local import avoids a cycle

        return is_exact(self, method=method)

    def __repr__(self) -> str:
        return (
            f"RewritingResult(states={self.automaton.num_states}, "
            f"views={list(self.views.symbols)}, empty={self.is_empty()})"
        )
