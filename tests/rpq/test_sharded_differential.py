"""Randomized differential harness: sharded evaluation vs engine vs naive.

Three implementations answer every RPQ in this repo — the naive
per-source oracle, the compiled single-sweep engine, and the sharded
:class:`~repro.rpq.sharded.ParallelEvaluator` — and they must agree
*bit for bit* on every (graph, query, shard count, worker count)
combination, on all three entry points (all-pairs, single-source,
single-pair).  Hypothesis draws workload family x seed x shard count
k in {1, 2, 3, 7}; graphs come from the seeded workload generator, so
every family's shape (path, mesh, hubs, layers) is exercised, and any
failure replays from its seed.

All-pairs answers are compared as *sorted lists*, not sets, pinning the
documented ordering guarantee (sorted by dense node id, identical across
shard counts) at the same time as the answer sets themselves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpq import (
    FAMILIES,
    RPQ,
    GraphDB,
    ParallelEvaluator,
    Pred,
    Theory,
    make_graph,
    make_queries,
    naive_evaluate,
    sort_pairs,
)
from repro.rpq import engine as engine_mod
from repro.rpq.formulas import TOP
from repro.rpq.sharded import shard_bounds
from repro.regex.ast import concat, star, sym

SHARD_COUNTS = (1, 2, 3, 7)


def compiled_for(db, query, theory=None):
    rpq = query if isinstance(query, RPQ) else RPQ(query)
    return engine_mod.compile_automaton(rpq.eps_free_nfa(), theory, db.domain())


@st.composite
def workload_cases(draw, max_edges=40):
    """(family, graph, query) drawn through the seeded workload module."""
    family = draw(st.sampled_from(FAMILIES))
    seed = draw(st.integers(min_value=0, max_value=999_999))
    edges = draw(st.integers(min_value=4, max_value=max_edges))
    graph = make_graph(family, seed, edges=edges)
    queries = make_queries(family, seed, count=4)
    query = queries[draw(st.integers(min_value=0, max_value=3))]
    return family, graph, query


@settings(max_examples=60, deadline=None)
@given(case=workload_cases(), num_shards=st.sampled_from(SHARD_COUNTS))
def test_all_pairs_identical_across_shard_counts(case, num_shards):
    """ParallelEvaluator == engine == naive, as sorted lists."""
    _family, db, query = case
    compiled = compiled_for(db, query)
    expected = engine_mod.evaluate_all_sorted(db, compiled)
    assert expected == sort_pairs(db, naive_evaluate(db, RPQ(query)))
    evaluator = ParallelEvaluator(db, num_shards=num_shards)
    assert evaluator.evaluate_all_sorted(compiled) == expected
    assert evaluator.evaluate_all(compiled) == frozenset(expected)


@settings(max_examples=40, deadline=None)
@given(case=workload_cases(max_edges=24), num_shards=st.sampled_from(SHARD_COUNTS))
def test_single_source_identical_across_shard_counts(case, num_shards):
    _family, db, query = case
    compiled = compiled_for(db, query)
    evaluator = ParallelEvaluator(db, num_shards=num_shards)
    full = engine_mod.evaluate_all(db, compiled)
    node_at = db.node_at
    probes = [node_at(i) for i in range(0, db.num_nodes, max(1, db.num_nodes // 5))]
    for source in probes:
        expected = frozenset(y for x, y in full if x == source)
        assert evaluator.evaluate_single_source(compiled, source) == expected
        assert engine_mod.evaluate_single_source(db, compiled, source) == expected


@settings(max_examples=40, deadline=None)
@given(case=workload_cases(max_edges=24), num_shards=st.sampled_from(SHARD_COUNTS))
def test_single_pair_identical_across_shard_counts(case, num_shards):
    _family, db, query = case
    compiled = compiled_for(db, query)
    evaluator = ParallelEvaluator(db, num_shards=num_shards)
    full = engine_mod.evaluate_all(db, compiled)
    node_at = db.node_at
    step = max(1, db.num_nodes // 4)
    probes = [node_at(i) for i in range(0, db.num_nodes, step)]
    for source in probes:
        for target in probes:
            expected = (source, target) in full
            assert evaluator.evaluate_pair(compiled, source, target) == expected
            assert (
                engine_mod.evaluate_pair(db, compiled, source, target) == expected
            )


@settings(max_examples=25, deadline=None)
@given(
    case=workload_cases(max_edges=20),
    num_shards=st.sampled_from((2, 3)),
)
def test_pool_workers_match_sequential_fallback(case, num_shards):
    """Process-pool execution is bit-identical to the sequential path."""
    _family, db, query = case
    compiled = compiled_for(db, query)
    sequential = ParallelEvaluator(db, num_shards=num_shards, workers=1)
    pooled = ParallelEvaluator(db, num_shards=num_shards, workers=2)
    assert pooled.evaluate_all_sorted(compiled) == sequential.evaluate_all_sorted(
        compiled
    )


# ----------------------------------------------------------------------
# Corner cases the strategies cannot be trusted to hit every run
# ----------------------------------------------------------------------


def test_more_shards_than_nodes_leaves_empty_shards():
    db = make_graph("chain", seed=1, edges=3)  # 4 nodes
    compiled = compiled_for(db, "a.b")
    expected = engine_mod.evaluate_all_sorted(db, compiled)
    evaluator = ParallelEvaluator(db, num_shards=50)
    bounds = shard_bounds(db.num_nodes, 50)
    assert 0 in [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    assert evaluator.evaluate_all_sorted(compiled) == expected


def test_one_node_windows_still_exact():
    """k = num_nodes on a chain: every window is a single source, and
    every single edge leaves its window."""
    db = make_graph("chain", seed=7, edges=12)
    assert shard_bounds(db.num_nodes, db.num_nodes) == list(range(db.num_nodes + 1))
    for query in make_queries("chain", seed=7, count=4):
        compiled = compiled_for(db, query)
        evaluator = ParallelEvaluator(db, num_shards=db.num_nodes)
        assert evaluator.evaluate_all_sorted(
            compiled
        ) == engine_mod.evaluate_all_sorted(db, compiled)


def test_empty_graph_and_edgeless_graph():
    empty = GraphDB()
    lonely = GraphDB(nodes=["x", "y"])
    for db in (empty, lonely):
        compiled = compiled_for(db, "a*")
        evaluator = ParallelEvaluator(db, num_shards=4)
        assert evaluator.evaluate_all_sorted(
            compiled
        ) == engine_mod.evaluate_all_sorted(db, compiled)
    # a* accepts epsilon: every known node pairs with itself.
    assert ParallelEvaluator(lonely, num_shards=3).evaluate_all(
        compiled_for(lonely, "a*")
    ) == frozenset({("x", "x"), ("y", "y")})


def test_epsilon_accepting_query_across_shard_counts():
    db = make_graph("grid", seed=2, edges=24)
    compiled = compiled_for(db, "r*.d*")
    expected = engine_mod.evaluate_all_sorted(db, compiled)
    for num_shards in SHARD_COUNTS:
        evaluator = ParallelEvaluator(db, num_shards=num_shards)
        assert evaluator.evaluate_all_sorted(compiled) == expected


def test_formula_queries_share_the_compiled_payload():
    """Theory resolution happens at compile time; sharding sees labels only."""
    db = make_graph("scale_free", seed=4, edges=60)
    theory = Theory(domain={"a", "b", "c"}, predicates={"P": {"a", "b"}})
    expr = concat(sym(Pred("P")), star(sym(TOP)))
    compiled = engine_mod.compile_automaton(
        RPQ(expr).eps_free_nfa(), theory, db.domain()
    )
    expected = engine_mod.evaluate_all_sorted(db, compiled)
    assert frozenset(expected) == naive_evaluate(db, RPQ(expr), theory)
    for num_shards in (2, 7):
        evaluator = ParallelEvaluator(db, num_shards=num_shards)
        assert evaluator.evaluate_all_sorted(compiled) == expected


def test_unknown_nodes_raise_keyerror_like_the_engine():
    db = make_graph("chain", seed=0, edges=5)
    compiled = compiled_for(db, "a")
    evaluator = ParallelEvaluator(db, num_shards=2)
    with pytest.raises(KeyError):
        evaluator.evaluate_single_source(compiled, "ghost")
    with pytest.raises(KeyError):
        evaluator.evaluate_pair(compiled, "n0", "ghost")
