"""Batch rewriting: amortize view compilation across many queries.

The ROADMAP's serving scenario rewrites *many* queries against one view
set.  Per query, the expensive inputs that depend only on the views — the
compiled view NFAs and (whenever two queries share a deterministic
``Ad``) the per-view transition relations — are identical, so
:class:`BatchRewriter` computes them once and reuses them:

* the :class:`~repro.core.alphabet.ViewSet` (and its cached view NFAs) is
  built once in the constructor —
  :func:`repro.automata.compiled.cached_view_transition_masks` keys
  relations, and the sweep layer its compiled views, on the view NFA
  *identity*, so sharing one ``ViewSet`` is what makes both memos hit;
* results are memoized per query spec, so repeated queries — the common
  case in a serving workload — cost one dictionary lookup.

:func:`rewrite_many` is the one-shot convenience wrapper, exposed on the
command line as ``repro rewrite --batch``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable, Mapping, Sequence

from .alphabet import LanguageSpec, ViewSet
from .containing import ContainingRewriting, existential_rewriting
from .result import RewritingResult
from .rewriter import _as_view_set, maximal_rewriting

__all__ = ["BatchRewriter", "rewrite_many"]


class BatchRewriter:
    """Rewrites a stream of queries against one fixed view set.

    ``max_cached`` bounds the per-query result memos (LRU eviction), so a
    long-lived rewriter serving a stream of distinct queries does not grow
    without bound; results themselves stay valid after eviction, only the
    memoization is lost.
    """

    def __init__(
        self,
        views: ViewSet | Mapping[Hashable, LanguageSpec] | Iterable[LanguageSpec],
        minimize_ad: bool = True,
        minimize_result: bool = True,
        max_cached: int = 1024,
    ):
        self.views = _as_view_set(views)
        self.minimize_ad = minimize_ad
        self.minimize_result = minimize_result
        self.max_cached = max_cached
        self._results: OrderedDict[Hashable, RewritingResult] = OrderedDict()
        self._existential: OrderedDict[Hashable, ContainingRewriting] = OrderedDict()

    @staticmethod
    def _key(e0: LanguageSpec) -> Hashable:
        """Memo key for a query spec; unhashable specs fall back to identity."""
        try:
            hash(e0)
        except TypeError:
            return id(e0)
        return e0

    def rewrite(self, e0: LanguageSpec) -> RewritingResult:
        """The Sigma_E-maximal rewriting of ``e0`` (memoized per query)."""
        key = self._key(e0)
        result = self._results.get(key)
        if result is None:
            result = maximal_rewriting(
                e0,
                self.views,
                minimize_ad=self.minimize_ad,
                minimize_result=self.minimize_result,
            )
            self._remember(self._results, key, result)
        else:
            self._results.move_to_end(key)
        return result

    def rewrite_existential(self, e0: LanguageSpec) -> ContainingRewriting:
        """The existential (containing-candidate) rewriting of ``e0``.

        Shares the per-(``Ad``, view) relation memo with :meth:`rewrite`:
        asking for both rewritings of one query computes the relations
        once.
        """
        key = self._key(e0)
        result = self._existential.get(key)
        if result is None:
            result = existential_rewriting(e0, self.views)
            self._remember(self._existential, key, result)
        else:
            self._existential.move_to_end(key)
        return result

    def _remember(self, memo: OrderedDict, key: Hashable, value) -> None:
        memo[key] = value
        if len(memo) > self.max_cached:
            memo.popitem(last=False)

    def rewrite_all(self, queries: Iterable[LanguageSpec]) -> list[RewritingResult]:
        return [self.rewrite(e0) for e0 in queries]

    def __repr__(self) -> str:
        return (
            f"BatchRewriter(views={list(self.views.symbols)}, "
            f"cached={len(self._results)})"
        )


def rewrite_many(
    queries: Sequence[LanguageSpec],
    views: ViewSet | Mapping[Hashable, LanguageSpec] | Iterable[LanguageSpec],
    minimize_ad: bool = True,
    minimize_result: bool = True,
) -> list[RewritingResult]:
    """Maximal rewritings of ``queries`` against one shared view set.

    Equivalent to ``[maximal_rewriting(q, views) for q in queries]`` but
    compiles the views once and dedupes repeated queries; the i-th result
    always corresponds to ``queries[i]``.
    """
    rewriter = BatchRewriter(
        views, minimize_ad=minimize_ad, minimize_result=minimize_result
    )
    return rewriter.rewrite_all(queries)
