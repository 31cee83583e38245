"""Persistent cache of compiled rewrite plans.

Computing the Sigma_Q-maximal rewriting of an RPQ (Theorem 4.2) is the
expensive, data-independent half of view-based answering: grounding,
determinization into ``Ad``, the ``A'`` construction, complementation and
minimization.  The result — the rewriting DFA together with ``Ad``, the
bit rows of ``A'``, and the grounding alphabet — depends only on the (query,
view-set, theory, options) tuple, never on the view data, so a serving
process should compute it at most once *ever*.

:class:`RewritePlanCache` realizes that:

* plans are keyed by a canonical serialization of their inputs
  (:func:`repro.automata.serialization.automaton_fingerprint` over the
  query and view automata, plus the theory's domain/predicate tables and
  the construction options), so the key is stable across processes;
* an in-memory table serves repeated lookups in O(1);
* with a ``directory``, every built plan is persisted as one JSON file
  (via the dict serialization of :mod:`repro.automata.serialization`) and
  cache misses consult the disk before building — a warm process never
  re-runs subset construction for a query it has seen in any prior run.

Plans whose automata use non-string symbols (e.g. formula-labelled view
definitions) cannot take the JSON path; they are cached in memory only
and counted under ``stats["unserializable"]``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import logging
import os
from pathlib import Path
from typing import Any, Hashable, Iterable, Mapping

from ..automata.serialization import (
    automaton_fingerprint,
    dfa_from_dict,
    dfa_to_dict,
    nfa_from_dict,
    nfa_to_dict,
)
from ..rpq import rewriting as _rewriting
from ..rpq.query import RPQ, QuerySpec
from ..rpq.rewriting import RPQRewritingResult
from ..rpq.theory import Theory
from ..rpq.views import RPQViews

__all__ = ["RewritePlanCache", "plan_key", "plan_to_dict", "plan_from_dict"]

# Payload format 2: ``a_prime`` is the A' bit rows (per view, one hex mask
# per ``Ad`` state), not a serialized NFA.  The key scheme is unchanged, so
# an older file is found, counted under ``load_errors`` and overwritten.
_FORMAT = 2

_logger = logging.getLogger(__name__)

# Scratch-file serial within this process.  Combined with the pid it
# makes every _persist write go through a name no other writer — thread,
# process, or the same cache persisting twice — can be using, so
# concurrent persists of the same key can never interleave bytes in one
# scratch file and publish a corrupt plan via os.replace.
_TMP_SERIAL = itertools.count()


def _theory_payload(theory: Theory, encode=None) -> dict[str, Any]:
    """The theory's tables in canonical (repr-sorted) order.

    One shared encoding for both uses: the persisted plan payload keeps
    raw values (``encode=None``), the cache key encodes every value with
    ``repr`` so non-string domains still key deterministically.
    """
    enc = encode if encode is not None else (lambda value: value)
    return {
        "domain": [enc(a) for a in sorted(theory.domain, key=repr)],
        "predicates": {
            name: [
                enc(a)
                for a in sorted(theory.predicate_extension(name), key=repr)
            ]
            for name in theory.predicate_names
        },
    }


def plan_key(
    query: QuerySpec,
    views: RPQViews,
    theory: Theory,
    strategy: str = "product",
    partition: bool = False,
) -> str:
    """The canonical cache key of a (query, view-set, theory, options) tuple.

    Built from structural fingerprints of the query automaton and every
    view automaton plus the theory tables, so it is deterministic across
    processes: parsing the same regex strings always yields identically
    numbered Thompson NFAs, hence identical fingerprints.
    """
    rpq = query if isinstance(query, RPQ) else RPQ(query)
    payload = {
        "format": 1,  # of this key scheme, not the payload's _FORMAT
        "query": automaton_fingerprint(rpq.nfa()),
        "views": sorted(
            (repr(symbol), automaton_fingerprint(views.rpq(symbol).nfa()))
            for symbol in views.symbols
        ),
        "theory": _theory_payload(theory, encode=repr),
        "strategy": strategy,
        "partition": partition,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def plan_to_dict(result: RPQRewritingResult, query_text: str | None = None) -> dict:
    """Serialize a compiled plan to a JSON-friendly dict.

    Raises ``TypeError`` when any involved automaton uses non-string
    symbols (the dict serialization's restriction).
    """
    views_payload = {}
    for symbol in result.views.symbols:
        if not isinstance(symbol, str):
            raise TypeError(f"view symbol {symbol!r} is not a string")
        views_payload[symbol] = nfa_to_dict(result.views.rpq(symbol).nfa())
    # The theory tables must round-trip through JSON *and* rebuild into a
    # Theory (hashable domain constants) — require strings outright, like
    # the automata serialization does, instead of discovering the problem
    # at load time in another process.
    non_string = [a for a in result.theory.domain if not isinstance(a, str)]
    if non_string:
        raise TypeError(
            f"theory domain has non-string constants: {non_string[:3]!r}"
        )
    return {
        "format": _FORMAT,
        "query": query_text,
        "automaton": dfa_to_dict(result.automaton),
        "ad": dfa_to_dict(result.ad),
        "a_prime": {
            symbol: [format(mask, "x") for mask in rows]
            for symbol, rows in zip(result.views.symbols, result.a_prime_rows)
        },
        "alphabet_used": sorted(result.alphabet_used),
        "views": views_payload,
        "view_order": [str(s) for s in result.views.symbols],
        "theory": _theory_payload(result.theory),
        "stats": {k: v for k, v in result.stats.items()},
    }


def plan_from_dict(data: Mapping[str, Any]) -> RPQRewritingResult:
    """Rebuild a compiled plan from :func:`plan_to_dict` output.

    Reconstruction is pure deserialization — no grounding, no subset
    construction, no minimization is re-run.
    """
    if not isinstance(data, Mapping):
        # A corrupt file can decode to *any* JSON value (a list, a bare
        # string); reject it as a ValueError so cache loads treat it
        # like every other corruption instead of surfacing a puzzling
        # AttributeError from the key lookups below.
        raise ValueError(
            f"plan payload is {type(data).__name__}, expected an object"
        )
    if data.get("format") != _FORMAT:
        raise ValueError(f"unsupported plan format: {data.get('format')!r}")
    views = RPQViews(
        {symbol: RPQ(nfa_from_dict(data["views"][symbol]), name=symbol)
         for symbol in data["view_order"]}
    )
    theory = Theory(
        domain=data["theory"]["domain"],
        predicates=data["theory"]["predicates"],
    )
    ad = dfa_from_dict(data["ad"])
    a_prime_rows = [
        tuple(int(mask, 16) for mask in data["a_prime"][symbol])
        for symbol in data["view_order"]
    ]
    if any(len(rows) != ad.num_states for rows in a_prime_rows):
        raise ValueError("A' rows do not match the states of Ad")
    if not all(
        0 <= mask < 1 << ad.num_states for rows in a_prime_rows for mask in rows
    ):
        raise ValueError("an A' row names a state Ad does not have")
    return RPQRewritingResult(
        automaton=dfa_from_dict(data["automaton"]),
        views=views,
        theory=theory,
        ad=ad,
        a_prime_rows=a_prime_rows,
        alphabet_used=frozenset(data["alphabet_used"]),
        stats=dict(data.get("stats", {})),
    )


class RewritePlanCache:
    """Memory + optional-disk cache of :class:`RPQRewritingResult` plans.

    ``directory`` enables persistence: plans are written as
    ``<key>.json`` files on build and read back on miss, so the cache
    survives process restarts.  ``stats`` counts ``hits`` (memory),
    ``loaded`` (disk), ``built`` (full construction), ``saved``, and
    ``unserializable`` (memory-only plans).
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        strategy: str = "product",
        partition: bool = False,
    ):
        if strategy not in _rewriting.STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected {_rewriting.STRATEGIES}"
            )
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.strategy = strategy
        self.partition = partition
        self._plans: dict[str, RPQRewritingResult] = {}
        self.stats = {
            "hits": 0,
            "loaded": 0,
            "built": 0,
            "saved": 0,
            "unserializable": 0,
            "load_errors": 0,
        }
        # Patchable builder hook: tests (and the benchmark's fresh-process
        # round-trip check) replace it to prove the load path never falls
        # back to a full construction.
        self._builder = _rewriting.rewrite_rpq

    def __len__(self) -> int:
        return len(self._plans)

    def key(self, query: QuerySpec, views: RPQViews, theory: Theory) -> str:
        return plan_key(
            query, views, theory, strategy=self.strategy, partition=self.partition
        )

    def _path(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{key}.json"

    def get(
        self,
        query: QuerySpec,
        views: RPQViews,
        theory: Theory,
        key: str | None = None,
    ) -> RPQRewritingResult | None:
        """The cached plan for the tuple, or ``None`` (no building).

        ``key`` may be supplied by callers that already computed it
        (:class:`~repro.service.session.QuerySession` memoizes keys per
        query) to avoid re-fingerprinting the inputs.
        """
        if key is None:
            key = self.key(query, views, theory)
        plan = self._plans.get(key)
        if plan is not None:
            self.stats["hits"] += 1
            return plan
        path = self._path(key)
        if path is not None and path.exists():
            try:
                with open(path, encoding="utf-8") as handle:
                    plan = plan_from_dict(json.load(handle))
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                # Stale format, truncated write, corrupt JSON, or a
                # payload of the wrong JSON shape: warn and treat as a
                # miss so the caller rebuilds this one plan (and
                # _persist overwrites the bad file) instead of a single
                # damaged entry killing session startup for every query.
                _logger.warning(
                    "skipping corrupt plan-cache entry %s (%s: %s); "
                    "the plan will be recomputed",
                    path,
                    type(exc).__name__,
                    exc,
                )
                self.stats["load_errors"] += 1
                return None
            self._plans[key] = plan
            self.stats["loaded"] += 1
            return plan
        return None

    def get_or_build(
        self,
        query: QuerySpec,
        views: RPQViews,
        theory: Theory,
        key: str | None = None,
    ) -> RPQRewritingResult:
        """The plan for the tuple, building (and persisting) it on miss."""
        if key is None:
            key = self.key(query, views, theory)
        plan = self.get(query, views, theory, key=key)
        if plan is not None:
            return plan
        plan = self._builder(
            query,
            views,
            theory,
            strategy=self.strategy,
            partition=self.partition,
        )
        self.stats["built"] += 1
        self._plans[key] = plan
        self._persist(key, plan, query)
        return plan

    def _persist(
        self, key: str, plan: RPQRewritingResult, query: QuerySpec
    ) -> None:
        path = self._path(key)
        if path is None:
            return
        query_text = query if isinstance(query, str) else None
        try:
            # Encode fully before touching the filesystem, so a plan JSON
            # cannot encode is counted (not crashed on) and never leaves a
            # partial file behind.
            text = json.dumps(plan_to_dict(plan, query_text=query_text))
        except TypeError:
            self.stats["unserializable"] += 1
            return
        # Unique per (process, call) scratch name: two writers racing on
        # the same key each stage a complete file and the last os.replace
        # wins atomically — both outcomes are valid plans.  A shared
        # ``path.with_suffix(".tmp")`` name would let writer B truncate
        # the scratch mid-write of writer A, and whoever replaces first
        # publishes the other's half-written JSON.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp"
        )
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.stats["saved"] += 1

    def warm(
        self,
        queries: Iterable[QuerySpec],
        views: RPQViews,
        theory: Theory,
    ) -> list[RPQRewritingResult]:
        """Ensure plans exist for all ``queries`` (build or load each)."""
        return [self.get_or_build(q, views, theory) for q in queries]

    def __repr__(self) -> str:
        where = f", dir={str(self.directory)!r}" if self.directory else ""
        return f"RewritePlanCache(plans={len(self._plans)}{where})"
