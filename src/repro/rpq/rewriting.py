"""View-based rewriting of regular path queries (Section 4.2).

The algorithm lifts Section 2's construction to queries over formulae of a
theory T.  Simply treating the formula set F as the base alphabet would be
wrong — the paper's own example: with ``T |= forall x. A(x) -> B(x)``,
``Q0 = B`` and ``Q = {A}``, the maximal rewriting is ``A``, which symbol-level
rewriting misses.  Instead the construction works modulo T:

1. Ground the query: build ``Q0^*`` accepting ``match(L(Q0))`` over D and
   determinize it into ``Ad``.
2. Build ``A'`` over the view alphabet Sigma_Q: a ``q``-edge ``s_i -> s_j``
   iff some D-word matching a word of ``L(rpq(q))`` drives ``Ad`` from
   ``s_i`` to ``s_j``.
3. The rewriting ``R_{Q,Q0}`` is the complement of ``A'`` (Theorem 4.2).

Once ``Q0`` is grounded these are Section 2's three steps, run by the
same code (:func:`repro.core.rewriter.rewrite_nfa`): ``Ad`` by subset
construction and Hopcroft, each view compiled against ``Ad``'s alphabet
and swept over ``Ad``, the ``A'`` bit rows complemented directly.
``strategy`` only selects how a view's symbols become D-labels:

* ``"ground"`` — ground every view with ``Q^*`` first, then compile the
  plain D-automaton;
* ``"product"`` — the paper's optimization: never ground the views.  The
  product of ``A_d^{i,j}`` with the view's *formula* automaton steps
  ``(s1, s2) -> (s1', s2')`` iff some constant ``a`` satisfies the formula
  and moves ``Ad`` from ``s1`` to ``s1'`` — what compiling the formula
  automaton against ``Ad``'s alphabet yields, each formula resolved once
  to the constants that satisfy it.

The remark at the end of Section 4.2 — partitioning constants into classes
with equal formula signatures — is available via ``partition=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from ..automata.compiled import relation_nfa
from ..automata.dfa import DFA
from ..automata.emptiness import enumerate_words, is_empty, shortest_word
from ..automata.nfa import NFA
from ..automata.state_elim import to_regex
from ..core.alphabet import ViewSet
from ..core.exactness import exactness_counterexample
from ..core.expansion import expansion_nfa
from ..core.rewriter import rewrite_nfa
from ..regex.ast import Regex
from .formulas import Const, Formula
from .graphdb import GraphDB
from .query import RPQ, QuerySpec
from .theory import Theory
from .views import RPQViews, answer_on_extensions

__all__ = ["rewrite_rpq", "RPQRewritingResult", "STRATEGIES"]

STRATEGIES = ("ground", "product")

Pair = tuple[Hashable, Hashable]


@dataclass
class RPQRewritingResult:
    """The Sigma_Q-maximal rewriting ``R_{Q,Q0}`` of an RPQ (Theorem 4.2).

    ``a_prime_rows[k][i]`` is the target mask of the ``views.symbols[k]``
    edges of ``A'`` out of ``Ad`` state ``i``; :attr:`a_prime` builds from it.
    """

    automaton: DFA
    views: RPQViews
    theory: Theory
    ad: DFA
    a_prime_rows: Sequence[Sequence[int]]
    alphabet_used: frozenset[Hashable]
    stats: dict[str, float] = field(default_factory=dict)
    _a_prime: NFA | None = field(default=None, repr=False)
    _regex: Regex | None = field(default=None, repr=False)
    _grounded_views: ViewSet | None = field(default=None, repr=False)
    _expansion: NFA | None = field(default=None, repr=False)
    _missed: tuple[Hashable, ...] | None = field(default=..., repr=False)

    @property
    def a_prime(self) -> NFA:
        """The Sigma_Q automaton ``A'`` whose complement is the rewriting."""
        if self._a_prime is None:
            self._a_prime = relation_nfa(
                self.a_prime_rows, self.views.symbols, self.ad
            )
        return self._a_prime

    def accepts(self, word: Sequence[Hashable]) -> bool:
        """Is the Sigma_Q word part of the rewriting?"""
        return self.automaton.accepts(word)

    def is_empty(self) -> bool:
        return is_empty(self.automaton)

    def shortest_word(self) -> tuple[Hashable, ...] | None:
        return shortest_word(self.automaton)

    def words(self, max_length: int, max_count: int | None = None):
        return enumerate_words(self.automaton, max_length, max_count)

    def regex(self) -> Regex:
        """The rewriting as a regular expression over Sigma_Q (cached)."""
        if self._regex is None:
            self._regex = to_regex(self.automaton)
        return self._regex

    def grounded_views(self) -> ViewSet:
        """The views as a core :class:`ViewSet` of D-automata (cached)."""
        if self._grounded_views is None:
            self._grounded_views = ViewSet(
                {
                    symbol: self.views.rpq(symbol).grounded(
                        self.theory, restrict_to=self.alphabet_used
                    )
                    for symbol in self.views.symbols
                }
            )
        return self._grounded_views

    def expansion(self) -> NFA:
        """Automaton for ``match(exp_F(L(R)))`` — the D-level expansion (cached)."""
        if self._expansion is None:
            self._expansion = expansion_nfa(self.automaton, self.grounded_views())
        return self._expansion

    def is_exact(self) -> bool:
        """Is ``ans(exp_F(L(R)), DB) = ans(L(Q0), DB)`` for every DB?

        By Theorem 4.1 this is equivalent to the D-language equality
        ``match(exp_F(L(R))) = match(L(Q0))``, i.e. ``L(Ad) subseteq L(B)``.
        """
        return exactness_counterexample(self) is None

    def exactness_counterexample(self) -> tuple[Hashable, ...] | None:
        """A D-word matched by ``Q0`` but not by the rewriting's expansion."""
        return exactness_counterexample(self)

    def answer(
        self, db: GraphDB, extensions: Mapping[Hashable, Iterable[Pair]] | None = None
    ) -> frozenset[Pair]:
        """Evaluate the rewriting using only the views.

        ``extensions`` are the materialized view answers; they are computed
        from ``db`` when absent (the data-integration scenario supplies them
        directly and never touches ``db``).
        """
        if extensions is None:
            extensions = self.views.materialize(db, self.theory)
        return answer_on_extensions(self.automaton, extensions)

    def __repr__(self) -> str:
        return (
            f"RPQRewritingResult(states={self.automaton.num_states}, "
            f"views={list(self.views.symbols)})"
        )


def rewrite_rpq(
    q0: QuerySpec,
    views: RPQViews | Mapping[Hashable, QuerySpec] | Iterable[QuerySpec],
    theory: Theory,
    strategy: str = "product",
    partition: bool = False,
    minimize_result: bool = True,
) -> RPQRewritingResult:
    """Compute the Sigma_Q-maximal rewriting of ``q0`` wrt ``views`` under T."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected {STRATEGIES}")
    views = _as_rpq_views(views)
    query = q0 if isinstance(q0, RPQ) else RPQ(q0)
    stats: dict[str, float] = {}

    alphabet = _grounding_alphabet(query, views, theory, partition)
    stats["alphabet_size"] = len(alphabet)

    ground = strategy == "ground"
    ad, rewriting, relations = rewrite_nfa(
        query.grounded(theory, restrict_to=alphabet),
        alphabet,
        [
            view.grounded(theory, restrict_to=alphabet) if ground else view.nfa()
            for view in map(views.rpq, views.symbols)
        ],
        views.symbols,
        stats,
        minimize_result=minimize_result,
        theory=None if ground else theory,
    )
    return RPQRewritingResult(
        automaton=rewriting,
        views=views,
        theory=theory,
        ad=ad,
        a_prime_rows=relations,
        alphabet_used=frozenset(alphabet),
        stats=stats,
    )


def _as_rpq_views(
    views: RPQViews | Mapping[Hashable, QuerySpec] | Iterable[QuerySpec],
) -> RPQViews:
    if isinstance(views, RPQViews):
        return views
    if isinstance(views, Mapping):
        return RPQViews(views)
    return RPQViews.from_list(list(views))


def _grounding_alphabet(
    query: RPQ, views: RPQViews, theory: Theory, partition: bool
) -> frozenset[Hashable]:
    """The D-alphabet over which automata are built.

    Without partitioning this is all of D.  With partitioning, constants
    indistinguishable by every formula occurring in the query or the views
    (plain symbols count as elementary formulae) collapse to one class
    representative — sound because all constructed languages are saturated
    under the induced equivalence.
    """
    if not partition:
        return theory.domain
    formulas: set[Formula] = set(query.formulas()) | set(views.formulas())
    plain: set[Hashable] = set()
    for symbol in query.alphabet():
        if not isinstance(symbol, Formula):
            plain.add(symbol)
    for view_symbol in views.symbols:
        for symbol in views.rpq(view_symbol).alphabet():
            if not isinstance(symbol, Formula):
                plain.add(symbol)
    formulas |= {Const(a) for a in plain}
    representatives = theory.representatives(formulas)
    return frozenset(set(representatives.values()))
