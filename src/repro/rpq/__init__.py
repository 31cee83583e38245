"""Regular path queries over semi-structured data (Section 4 of the paper).

Provides graph databases, RPQ evaluation, theories of edge formulae, and
view-based rewriting/answering:

* :class:`GraphDB` — edge-labelled graph databases with a label-first,
  dense-int-id index (bulk frontier expansion, reverse edges);
* :class:`RPQ` / :func:`evaluate` — queries and Definition 4.2 semantics,
  executed by the compiled engine of :mod:`repro.rpq.engine` (precompiled
  label tables, macro-frontier BFS shared across sources, bidirectional
  single-pair search); :func:`naive_evaluate` is the per-source reference
  oracle used for differential testing;
* :class:`Theory` + the formula classes — Section 4.1's decidable complete
  theory T over the domain D;
* :func:`rewrite_rpq` — the Section 4.2 rewriting algorithm (Theorem 4.2),
  with the grounding-free product optimization and constant partitioning;
* :func:`find_partial_rpq_rewritings` — Section 4.3 partial rewritings;
* :class:`ParallelEvaluator` — the scale-out layer
  (:mod:`repro.rpq.sharded`): the all-pairs sweep cut into contiguous
  source windows over one frozen snapshot, exact for every shard and
  worker count;
* :func:`make_workload` and friends (:mod:`repro.rpq.workload`) — seeded
  graph families (chain, grid, scale-free, layered DAG) with matching
  query/view mixes and seeded update streams
  (:func:`make_update_stream`), shared by benchmarks and the
  differential fuzz harness;
* :class:`DeltaSweepState` (:mod:`repro.rpq.incremental`) — retained
  all-pairs sweep state that absorbs inserted edges by semi-naive delta
  re-evaluation, bit-identical to a full recompute.

For serving many queries over evolving view extensions — materialized
view storage, persistent rewrite-plan caching, per-session evaluation
state — use the layer above: :mod:`repro.service`.
"""

from .answering import (
    answer_with_views,
    rewriting_is_complete_on,
    rewriting_is_sound_on,
)
from .engine import (
    CompiledAutomaton,
    compile_automaton,
    compile_cache_clear,
    compile_cache_info,
)
from .evaluation import (
    ans,
    ans_sorted,
    evaluate,
    evaluate_from,
    evaluate_pair,
    evaluate_sorted,
    naive_ans,
    naive_evaluate,
    sort_pairs,
)
from .formulas import TOP, And, Const, Formula, Not, Or, Pred, Top
from .generalized import (
    GeneralizedPathQuery,
    GeneralizedRewriting,
    evaluate_gpq,
    rewrite_gpq,
)
from .graphdb import GraphDB, path_graph, random_graph
from .incremental import DeltaSweepState
from .partial import (
    PartialRPQRewriting,
    atomic_view_name,
    find_partial_rpq_rewritings,
)
from .query import RPQ
from .rewriting import STRATEGIES, RPQRewritingResult, rewrite_rpq
from .sharded import ParallelEvaluator, ShardedEvaluationError
from .theory import Theory
from .views import RPQViews, view_graph
from .workload import (
    FAMILIES,
    UpdateOp,
    Workload,
    graph_signature,
    make_graph,
    make_queries,
    make_update_stream,
    make_views,
    make_workload,
)

__all__ = [
    "GraphDB",
    "path_graph",
    "random_graph",
    "GeneralizedPathQuery",
    "GeneralizedRewriting",
    "evaluate_gpq",
    "rewrite_gpq",
    "RPQ",
    "evaluate",
    "evaluate_sorted",
    "evaluate_from",
    "evaluate_pair",
    "ans",
    "ans_sorted",
    "sort_pairs",
    "naive_evaluate",
    "naive_ans",
    "ParallelEvaluator",
    "ShardedEvaluationError",
    "DeltaSweepState",
    "FAMILIES",
    "UpdateOp",
    "Workload",
    "make_graph",
    "make_queries",
    "make_update_stream",
    "make_views",
    "make_workload",
    "graph_signature",
    "CompiledAutomaton",
    "compile_automaton",
    "compile_cache_info",
    "compile_cache_clear",
    "Formula",
    "Const",
    "Pred",
    "And",
    "Or",
    "Not",
    "Top",
    "TOP",
    "Theory",
    "RPQViews",
    "view_graph",
    "rewrite_rpq",
    "RPQRewritingResult",
    "STRATEGIES",
    "answer_with_views",
    "rewriting_is_sound_on",
    "rewriting_is_complete_on",
    "PartialRPQRewriting",
    "find_partial_rpq_rewritings",
    "atomic_view_name",
]
