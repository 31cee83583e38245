"""``sweep_sparse`` and ``sweep_dense``: the all-pairs sweep, two regimes.

One op is one ``engine.evaluate_all_sorted(db, compiled, backend="auto")``.
Each pass starts at a fresh graph version: its set-up bumps the graphs'
mutation counters and rebuilds the CSR snapshots (``setup_s``), the first
ops per label rebuild gather plans and bitmaps lazily — as a serving
session does per store version — and then whole rounds run over a fixed,
seeded order of (graph, query) ops.

``sweep_sparse``
    Many nodes, few edges per node: three ``make_graph`` families just
    above ``NUMPY_BACKEND_MIN_EDGES``, so ``auto`` routes them to the
    block kernel whose cost is O(states * n^2 / 64) whatever the frontier.
``sweep_dense``
    Few nodes, saturated adjacency: the ``bench_vectorized_sweep`` graph
    shape, where the gather plans do nearly all the work and the big-int
    sweep is several times slower.  The bypass for ``sweep_sparse``.

The seed draws the graphs and the order of the ops; the queries are
fixed per family, so that two seeds measure the same mix of query shapes
(on these families a label permutation alone moves an op's cost by tens
of percent).
"""

from __future__ import annotations

import random
import time

from repro.rpq import RPQ, ParallelEvaluator, make_graph
from repro.rpq import engine
from repro.rpq.evaluation import naive_ans, sort_pairs
from repro.rpq.graphdb import GraphDB

from harness import Failure, PassLog, Workload, answer_bytes, digest, run_rounds, share

BOUNDED_TEMPLATES = (
    "{x}",
    "{x}.{y}",
    "{x}.{y}.{z}",
    "({x}+{y}).{z}",
    "{x}.({y}+{z})",
    "({x}+{y}).({y}+{z})",
)


def fill_templates(templates, labels) -> list[str]:
    """Each template over the sorted labels (cycled when the alphabet is
    shorter than the template)."""
    order = sorted(labels, reverse=True)
    x, y, z = (order[i % len(order)] for i in range(3))
    return [template.format(x=x, y=y, z=z) for template in templates]


def compile_query(db: GraphDB, query: str):
    return engine.compile_automaton(RPQ(query).eps_free_nfa(), None, db.domain())


def dense_graph(seed: int, num_nodes: int, draws: int, fringe: int = 16) -> GraphDB:
    """A saturated ``a`` relation plus a sparse seeded ``b`` fringe."""
    rng = random.Random(f"{seed}/dense/{num_nodes}/{draws}")
    db = GraphDB()
    names = [f"n{i}" for i in range(num_nodes)]
    for name in names:
        db.add_node(name)
    choice = rng.choice
    for _ in range(draws):
        db.add_edge(choice(names), "a", choice(names))
    target = db.num_edges + fringe
    while db.num_edges < target:
        db.add_edge(choice(names), "b", choice(names))
    return db


class _Sweep(Workload):
    def inputs(self, small: bool) -> list[tuple[str, GraphDB, list[str]]]:
        """(label, graph, queries) per graph; ``small`` = oracle-sized twin."""
        raise NotImplementedError

    def build(self) -> None:
        rng = random.Random(f"{self.ctx.seed}/{self.name}/order")
        self.graphs = self.inputs(small=False)
        self.ops = [
            (label, db, query, compile_query(db, query))
            for label, db, queries in self.graphs
            for query in queries
        ]
        rng.shuffle(self.ops)
        self.sizes = {
            "graphs": {
                label: {"nodes": db.num_nodes, "edges": db.num_edges, "queries": queries}
                for label, db, queries in self.graphs
            },
            "ops_per_round": len(self.ops),
        }
        # Warm-up: numpy import, allocator and compile cache, one op per graph.
        for _label, db, queries in self.graphs:
            engine.evaluate_all_sorted(db, compile_query(db, queries[0]), backend="auto")

    def open_pass(self, log: PassLog):
        for _label, db, _queries in self.graphs:
            source, edge_label, target = next(iter(db.edges()))
            db.remove_edge(source, edge_label, target)
            db.add_edge(source, edge_label, target)
            if engine.resolve_backend(db, "auto") == "numpy":
                db.to_csr()

    def run_pass(self, state, log: PassLog, budget_s: float) -> None:
        run_rounds(log, budget_s, lambda: self._round(log))

    @staticmethod
    def _evaluate(db, compiled, backend="auto"):
        return engine.evaluate_all_sorted(db, compiled, backend=backend)

    def _round(self, log: PassLog) -> None:
        for op_id, (label, db, query, compiled) in enumerate(self.ops):
            pairs = log.time(op_id, "sweep", self._evaluate, db, compiled)
            if pairs is not None:
                log.counts["sweep.answer_pairs"] += len(pairs)
                log.record(f"{label}/{query}", answer_bytes(pairs))

    def verify(self, logs: list[PassLog]) -> list[Failure]:
        failures: list[Failure] = []
        served = {key: value for log in logs for key, value in log.digests.items()}
        self.forced_bigint_s = 0.0
        for op_id, (label, db, query, compiled) in enumerate(self.ops):
            started = time.perf_counter()
            pairs = self._evaluate(db, compiled, "bigint")
            self.forced_bigint_s += time.perf_counter() - started
            if digest(answer_bytes(pairs)) != served.get(f"{label}/{query}"):
                failures.append(
                    Failure(None, op_id, f"{label} {query!r}: auto != forced bigint")
                )
        for label, small, queries in self.inputs(small=True):
            for query in queries:
                expected = sort_pairs(small, naive_ans(RPQ(query).nfa(), small))
                if self._evaluate(small, compile_query(small, query)) != expected:
                    op_id = next(
                        i for i, op in enumerate(self.ops) if (op[0], op[2]) == (label, query)
                    )
                    failures.append(
                        Failure(None, op_id, f"{label} {query!r}: engine != naive_ans on the small twin")
                    )
        return failures

    def counters(self, logs: list[PassLog]) -> dict[str, float]:
        return {"sweep.answer_pairs": sum(log.counts["sweep.answer_pairs"] for log in logs)}

    def trace_extras(self) -> dict[str, float]:
        """The crossover data (ROADMAP item 9) and the sharded cell (item 3)."""
        timings = {"numpy": 0.0, "w1": 0.0, "w2": 0.0}
        for _label, db, _query, compiled in self.ops:
            started = time.perf_counter()
            self._evaluate(db, compiled, "numpy")
            timings["numpy"] += time.perf_counter() - started
        engine_s = 0.0
        for _label, db, _queries in self.graphs:
            compiled = [op[3] for op in self.ops if op[1] is db]
            started = time.perf_counter()
            for automaton in compiled:
                self._evaluate(db, automaton)
            engine_s += time.perf_counter() - started
            for key, workers in (("w1", 1), ("w2", 2)):
                with ParallelEvaluator(db, num_shards=2, workers=workers) as evaluator:
                    started = time.perf_counter()
                    for automaton in compiled:
                        evaluator.evaluate_all_sorted(automaton)
                    timings[key] += time.perf_counter() - started
        return {
            "engine.forced_bigint_s": self.forced_bigint_s,
            "engine.forced_numpy_s": timings["numpy"],
            "sharded.speedup_vs_engine.w1": share(engine_s, timings["w1"]),
            "sharded.speedup_vs_engine.w2": share(engine_s, timings["w2"]),
        }


class SweepSparse(_Sweep):
    name = "sweep_sparse"
    why = (
        "All-pairs sweeps on sparse graphs just above the numpy threshold: many nodes, few "
        "edges per node, where auto picks the dense block kernel regardless of frontier."
    )
    # family -> (edges, how many of the longest bounded templates).  Bounded
    # only: a star's round count follows the longest label run the seed
    # happens to draw, which moved the op's cost by a quarter.  No chain: at
    # 8 500 edges it has 8 501 nodes and its ops take 0.4 s, longer than
    # this sandbox ever stays undisturbed (see README, Steadiness).
    SHAPE = {
        "grid": (9000, 4),
        "scale_free": (9000, 4),
        "layered_dag": (9000, 4),
    }

    def inputs(self, small: bool):
        scale = 10 if small or self.ctx.smoke else 1
        graphs = []
        for family, (edges, bounded) in self.SHAPE.items():
            db = make_graph(family, self.ctx.seed, edges=edges // scale)
            queries = fill_templates(BOUNDED_TEMPLATES[-bounded:], db.domain())
            graphs.append((family, db, queries))
        return graphs


class SweepDense(_Sweep):
    name = "sweep_dense"
    why = (
        "All-pairs sweeps on a saturated 500-node graph: kernel.sweep_window and the CSR "
        "gather plans do nearly all the work; the bypass for sweep_sparse."
    )
    QUERIES = ["a.a.b", "b.a*", "b.a.a", "a.b", "b.a", "b", "(a+b).b", "b.(a+b)"]

    def inputs(self, small: bool):
        if small:
            nodes, draws = 60, 2500
        elif self.ctx.smoke:
            nodes, draws = 300, 100_000
        else:
            nodes, draws = 500, 290_000
        return [("dense", dense_graph(self.ctx.seed, nodes, draws), list(self.QUERIES))]
