"""``rewrite_cold``: the paper's own cost, with every cache cold.

One op is one maximal-rewriting construction with the compile and
relation caches cleared first.  A round mixes three kinds of op:

``mediator``
    ``RewritePlanCache.get_or_build`` (default ``product`` strategy, the
    one serving sessions use) of a seeded 16 of the 24
    ``service.bench.QUERIES`` against seeded subsets of a view pool,
    saved into a fresh on-disk cache.  Small automata: per-call overheads
    dominate.
``rpq_blowup``
    the Thm 3.1 family ``(a+b)*.a.(a+b)^k`` over the five gate views
    through a fresh ``RewritePlanCache(strategy="ground")`` — rewriting,
    fingerprinting and persisting a plan whose ``Ad`` has ``2^k`` states.
``regex_blowup``
    the same family through ``core.maximal_rewriting``, the Section 2
    pipeline on the dense bitmask kernel (``automata/compiled.py``).

No graph, no sweep, no server.  Every round has the same ops in the same
seeded order, so the latency percentiles do not depend on how many
rounds fit.
"""

from __future__ import annotations

import random

from repro.automata import are_isomorphic
from repro.automata.compiled import relation_cache_clear, relation_cache_info
from repro.core import ViewSet, naive_maximal_rewriting
# Traced callables are reached through their module, so that the tracer's
# replacement is the one called.
from repro.core import rewriter
from repro.rpq import engine
from repro.rpq.theory import Theory
from repro.rpq.views import RPQViews
from repro.service.bench import LABELS, QUERIES
from repro.service.plancache import RewritePlanCache

from harness import Failure, PassLog, Workload, run_rounds, share, sum_counts

ELEMENTARY = {"va": "a", "vb": "b", "vc": "c"}
COMPOSITE_POOL = {
    "vab": "a.b",
    "vbc": "b.c",
    "vca": "c.a",
    "vabc": "a.b.c",
    "vbs": "b*",
    "vac": "a+c",
}
GATE_VIEWS = {
    "e1": "a",
    "e2": "b",
    "e3": "a.b",
    "e4": "a.(a+b)*.b",
    "e5": "b.(a+b)*.a",
}
VIEW_SUBSETS = 4
MEDIATOR_OPS = 16
# (kind, k) -> repeats per round.  With 16 mediator ops in front, the
# round's median falls inside the first class and its p95 inside the
# last, each a block of identical ops — not on a boundary between
# classes, where the seed would decide which op a percentile lands on.
BLOWUPS = {
    ("regex_blowup", 6): 12,
    ("rpq_blowup", 5): 4,
    ("regex_blowup", 7): 4,
    ("rpq_blowup", 6): 4,
}
SMOKE_BLOWUPS = {("regex_blowup", 4): 12, ("rpq_blowup", 4): 4}


def blowup_query(k: int) -> str:
    return "(a+b)*.a." + ".".join(["(a+b)"] * k)


def _forbidden_builder(*_args, **_kwargs):
    raise AssertionError("a saved plan was rebuilt instead of loaded")


def canonical_dfa_bytes(dfa) -> bytes:
    """Bytes that depend only on the language of a minimal total DFA:
    states renumbered in breadth-first order over the sorted alphabet."""
    symbols = sorted(dfa.alphabet, key=repr)
    number = {dfa.initial: 0}
    order = [dfa.initial]
    rows = []
    for state in order:
        row = []
        for symbol in symbols:
            target = dfa.successor(state, symbol)
            if target is not None and target not in number:
                number[target] = len(order)
                order.append(target)
            row.append(number.get(target, -1))
        rows.append((row, state in dfa.finals))
    return repr((list(map(repr, symbols)), rows)).encode()


class RewriteCold(Workload):
    name = "rewrite_cold"
    why = (
        "Cold maximal rewriting (Thm 3.1 blow-up family plus mediator queries) saved "
        "into a fresh plan cache: core/, automata/compiled.py, regex/, plancache only."
    )

    def build(self) -> None:
        blowups = SMOKE_BLOWUPS if self.ctx.smoke else BLOWUPS
        rng = random.Random(f"{self.ctx.seed}/rewrite_cold")
        self.theory = Theory.trivial(set(LABELS))
        pool = sorted(COMPOSITE_POOL)
        self.view_defs = [
            {**ELEMENTARY, **{name: COMPOSITE_POOL[name] for name in rng.sample(pool, 2)}}
            for _ in range(VIEW_SUBSETS)
        ]
        self.views = [RPQViews(defs) for defs in self.view_defs]
        self.gate_theory = Theory.trivial({"a", "b"})
        self.gate_rpq_views = RPQViews(GATE_VIEWS)
        self.gate_view_set = ViewSet(GATE_VIEWS)

        # op = (kind, query text, view-subset index or k)
        ops = [
            ("mediator", query, index % VIEW_SUBSETS)
            for index, query in enumerate(rng.sample(QUERIES, MEDIATOR_OPS))
        ]
        for (kind, k), repeats in blowups.items():
            ops += [(kind, blowup_query(k), k)] * repeats
        rng.shuffle(ops)
        self.ops = ops
        # Repeats of one blow-up instance do identical work: they share an id.
        self.distinct = list(dict.fromkeys(ops))
        self.op_ids = [self.distinct.index(op) for op in ops]
        self.sizes = {
            "ops_per_round": len(ops),
            "mediator_ops": MEDIATOR_OPS,
            "view_subsets": self.view_defs,
            "blowups": {f"{kind}:k={k}": n for (kind, k), n in blowups.items()},
        }
        self.rounds = 0
        # op id -> (first result, directory its plan was last saved in)
        self.results: dict[int, object] = {}
        self.saved_in: dict[int, object] = {}

    def open_pass(self, log: PassLog):
        """Each distinct op once, unsaved: modules, lazy tables and the
        allocator warm up; the caches are cleared before every timed op,
        so no construction survives into one."""
        memory = RewritePlanCache()
        ground = RewritePlanCache(strategy="ground")
        for kind, query, arg in self.distinct:
            if kind == "mediator":
                memory.get_or_build(query, self.views[arg], self.theory)
            elif kind == "rpq_blowup":
                ground.get_or_build(query, self.gate_rpq_views, self.gate_theory)
            else:
                rewriter.maximal_rewriting(query, self.gate_view_set)

    def run_pass(self, state, log: PassLog, budget_s: float) -> None:
        run_rounds(log, budget_s, lambda: self._round(log))

    def _round(self, log: PassLog) -> None:
        root = self.ctx.workdir / f"plans-{log.index}-{self.rounds}"
        self.rounds += 1
        caches = [RewritePlanCache(root / "mediator")]
        for position, (kind, query, arg) in enumerate(self.ops):
            op_id = self.op_ids[position]
            engine.compile_cache_clear()
            relation_cache_clear()
            if kind == "mediator":
                directory = root / "mediator"
                call = (caches[0].get_or_build, query, self.views[arg], self.theory)
            elif kind == "rpq_blowup":
                directory = root / f"op{position}"
                caches.append(RewritePlanCache(directory, strategy="ground"))
                call = (
                    caches[-1].get_or_build, query, self.gate_rpq_views, self.gate_theory,
                )
            else:
                directory = None
                call = (rewriter.maximal_rewriting, query, self.gate_view_set)
            result = log.time(op_id, kind, *call)
            if result is None:
                continue
            for stat in ("ad_states", "a_prime_transitions", "rewriting_states"):
                log.counts[f"rewriter.{stat}"] += result.stats[stat]
            for cache, info in (
                ("relation", relation_cache_info()),
                ("compile", engine.compile_cache_info()),
            ):
                log.counts[f"{cache}.hits"] += info["hits"]
                log.counts[f"{cache}.misses"] += info["misses"]
            self.saved_in[op_id] = directory
            self.results.setdefault(op_id, result)
            log.record(f"{kind}/{arg}/{query}", canonical_dfa_bytes(result.automaton))
        for cache in caches:
            for stat in ("hits", "loaded", "built"):
                log.counts[f"plancache.{stat}"] += cache.stats[stat]

    def verify(self, logs: list[PassLog]) -> list[Failure]:
        failures: list[Failure] = []
        naive_gate: dict[int, object] = {}
        for op_id, result in self.results.items():
            kind, query, arg = self.distinct[op_id]
            if kind == "mediator":
                naive = naive_maximal_rewriting(query, ViewSet(self.view_defs[arg]))
            else:
                if arg not in naive_gate:
                    naive_gate[arg] = naive_maximal_rewriting(query, self.gate_view_set)
                naive = naive_gate[arg]
            if not are_isomorphic(result.automaton, naive.automaton):
                failures.append(
                    Failure(None, op_id, f"{kind} {query!r}: not isomorphic to the naive rewriting")
                )
            if kind == "regex_blowup":
                continue
            # Every saved plan must come back from disk without a rebuild.
            views, theory, strategy = (
                (self.views[arg], self.theory, "product")
                if kind == "mediator"
                else (self.gate_rpq_views, self.gate_theory, "ground")
            )
            fresh = RewritePlanCache(self.saved_in[op_id], strategy=strategy)
            fresh._builder = _forbidden_builder
            try:
                loaded = fresh.get_or_build(query, views, theory)
            except AssertionError as exc:
                failures.append(Failure(None, op_id, f"{kind} {query!r}: {exc}"))
                continue
            if not are_isomorphic(loaded.automaton, result.automaton):
                failures.append(
                    Failure(None, op_id, f"{kind} {query!r}: reloaded plan differs")
                )
        return failures

    def counters(self, logs: list[PassLog]) -> dict[str, float]:
        counts = sum_counts(logs)
        lookups = counts["plancache.hits"] + counts["plancache.loaded"] + counts["plancache.built"]
        return {
            "rewriter.ad_states": counts["rewriter.ad_states"],
            "rewriter.a_prime_transitions": counts["rewriter.a_prime_transitions"],
            "rewriter.rewriting_states": counts["rewriter.rewriting_states"],
            "compiled.relation_cache.hit_share": share(
                counts["relation.hits"], counts["relation.hits"] + counts["relation.misses"]
            ),
            "engine.compile_cache.hit_share": share(
                counts["compile.hits"], counts["compile.hits"] + counts["compile.misses"]
            ),
            "plancache.hit_share": share(
                counts["plancache.hits"] + counts["plancache.loaded"], lookups
            ),
            "plancache.built": counts["plancache.built"],
            "plancache.loaded": counts["plancache.loaded"],
        }
