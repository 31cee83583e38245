"""View definitions, materialized extensions, and the view graph.

Section 4.2 rewrites a query ``Q0`` in terms of views ``Q = {Q1..Qk}``,
each a regular path query with an associated symbol in the view alphabet
``Sigma_Q`` (the paper writes ``rpq(q)`` for the view of symbol ``q``).

For *answering* with a rewriting, each view is materialized over a database
into its extension (a set of node pairs); the extensions form a new graph —
the *view graph* — whose edge labels are the view symbols, over which the
rewriting (a language over ``Sigma_Q``) is evaluated directly.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping

from .evaluation import ans, evaluate
from .graphdb import GraphDB
from .query import RPQ, QuerySpec
from .theory import Theory

__all__ = ["RPQViews", "view_graph", "answer_on_extensions"]

Pair = tuple[Hashable, Hashable]


class RPQViews:
    """The view set ``Q = {Q1..Qk}`` of Section 4.2 with its alphabet
    ``Sigma_Q``: a mapping from view symbols to RPQs (the paper's
    ``rpq(q)``).  Provides extension via new views (Section 4.3) and
    materialization of every view over a database — the input to
    view-based answering."""

    def __init__(self, views: Mapping[Hashable, QuerySpec]):
        if not views:
            raise ValueError("need at least one view")
        self._views: dict[Hashable, RPQ] = {
            symbol: spec if isinstance(spec, RPQ) else RPQ(spec, name=str(symbol))
            for symbol, spec in views.items()
        }

    @classmethod
    def from_list(cls, specs: Iterable[QuerySpec], prefix: str = "q") -> "RPQViews":
        return cls({f"{prefix}{i + 1}": spec for i, spec in enumerate(specs)})

    @property
    def symbols(self) -> tuple[Hashable, ...]:
        """The view alphabet Sigma_Q, in insertion order."""
        return tuple(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._views)

    def __contains__(self, symbol: Hashable) -> bool:
        return symbol in self._views

    def rpq(self, symbol: Hashable) -> RPQ:
        """The view associated with ``symbol`` (the paper's ``rpq(q)``)."""
        return self._views[symbol]

    def formulas(self) -> frozenset:
        """All formula symbols appearing in any view."""
        result = frozenset()
        for view in self._views.values():
            result |= view.formulas()
        return result

    def extended(self, extra: Mapping[Hashable, QuerySpec]) -> "RPQViews":
        """A new view set with additional views appended (Section 4.3)."""
        merged: dict[Hashable, QuerySpec] = dict(self._views)
        for symbol, spec in extra.items():
            if symbol in merged:
                raise ValueError(f"view symbol {symbol!r} already present")
            merged[symbol] = spec
        return RPQViews(merged)

    def materialize(
        self, db: GraphDB, theory: Theory | None = None
    ) -> dict[Hashable, frozenset[Pair]]:
        """Evaluate every view over ``db``, yielding its extension."""
        return {
            symbol: evaluate(db, view, theory)
            for symbol, view in self._views.items()
        }

    def __repr__(self) -> str:
        return f"RPQViews({', '.join(map(str, self.symbols))})"


def view_graph(extensions: Mapping[Hashable, Iterable[Pair]]) -> GraphDB:
    """The graph over Sigma_Q induced by materialized view extensions.

    Every pair ``(x, y)`` in the extension of view ``q`` becomes an edge
    ``x --q--> y``; evaluating a rewriting over this graph implements
    "first interpret each q as the result of Q_q, then evaluate the
    rewriting on that interpretation".
    """
    graph = GraphDB()
    for symbol, pairs in extensions.items():
        for x, y in pairs:
            graph.add_edge(x, symbol, y)
    return graph


def answer_on_extensions(
    language, extensions: Mapping[Hashable, Iterable[Pair]]
) -> frozenset[Pair]:
    """Evaluate a rewriting over view extensions alone (no base access):
    interpret each view symbol as its extension, then evaluate the Sigma_Q
    language on the induced graph.  The one implementation of that, behind
    :meth:`repro.rpq.rewriting.RPQRewritingResult.answer`,
    :func:`repro.rpq.answering.answer_with_views` and (re-exported)
    :mod:`repro.service.store`."""
    return ans(language, view_graph(extensions))
