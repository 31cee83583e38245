"""View-based answering of RPQs via rewriting.

The paper's motivation for rewriting (data integration, warehousing): given
only the *extensions* of materialized views, evaluate the rewriting over the
view graph to obtain answers that are guaranteed sound (contained in the
answer of the original query on any database consistent with the views) —
and complete when the rewriting is exact and views are exact materializations.

These helpers also provide the semantic validation used by the tests:
Definition 4.3's containment ``ans(exp_F(L(R)), DB) subseteq ans(L(Q0), DB)``
checked on concrete databases.

Both the view-side evaluation (``ans`` over the view graph) and the direct
evaluation of ``Q0`` run on the compiled engine of :mod:`repro.rpq.engine`;
the containment checks below therefore exercise the fast path end to end.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from .evaluation import evaluate
from .graphdb import GraphDB
from .query import RPQ, QuerySpec
from .rewriting import RPQRewritingResult
from .theory import Theory
from .views import answer_on_extensions

__all__ = [
    "answer_with_views",
    "rewriting_is_sound_on",
    "rewriting_is_complete_on",
]

Pair = tuple[Hashable, Hashable]


def answer_with_views(
    result: RPQRewritingResult,
    extensions: Mapping[Hashable, Iterable[Pair]],
) -> frozenset[Pair]:
    """Answers obtainable from view extensions alone (no base access).

    Sound by Definition 4.3 on any database consistent with the
    extensions; complete as well when ``result.is_exact()`` holds and the
    extensions are exact materializations.  Delegates to the shared
    :func:`~repro.rpq.views.answer_on_extensions` helper (as does
    :meth:`RPQRewritingResult.answer`); for a long-lived
    store with incremental updates, use
    :class:`repro.service.QuerySession` instead.
    """
    return answer_on_extensions(result.automaton, extensions)


def rewriting_is_sound_on(
    result: RPQRewritingResult, q0: QuerySpec, db: GraphDB
) -> bool:
    """Check Definition 4.3 on one database: rewriting answers ⊆ Q0 answers."""
    query = q0 if isinstance(q0, RPQ) else RPQ(q0)
    via_views = result.answer(db)
    direct = evaluate(db, query, result.theory)
    return via_views <= direct


def rewriting_is_complete_on(
    result: RPQRewritingResult, q0: QuerySpec, db: GraphDB
) -> bool:
    """Do the views recover *all* answers of ``Q0`` on this database?

    Guaranteed when the rewriting is exact; may hold incidentally otherwise.
    """
    query = q0 if isinstance(q0, RPQ) else RPQ(q0)
    via_views = result.answer(db)
    direct = evaluate(db, query, result.theory)
    return direct <= via_views
