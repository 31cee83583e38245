"""Tier-1 guard for what the suite's tracer *counts* on the delta states.

``tests/test_benchmark_contract.py`` checks that every patch point of
``benchmarks/suite/tracing.py`` resolves.  That is not enough for the two
sweep-state classes, which share one span name per method and — since
``NumpyDeltaSweepState`` is a layout of ``DeltaSweepState`` — one function
per method: a method the subclass merely inherited would leave its calls
untraced or restore the wrong namespace, and one reachable through two
wrappers would record two spans per call.  Either corrupts every
``incremental.*.calls`` layer metric while the contract test stays green,
and the suite's own smoke test is not part of tier-1.  So this installs
the real ``Tracer`` (loaded by path, nothing else of the suite runs)
around one insert and one delete on a tiny state of each class.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.rpq import RPQ, DeltaSweepState, GraphDB
from repro.rpq import engine as engine_mod
from repro.rpq.incremental import NumpyDeltaSweepState

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "suite" / "tracing.py"
CLASSES = (DeltaSweepState, NumpyDeltaSweepState)
METHODS = ("apply_insertions", "apply_deletions", "answers", "answers_sorted")


def test_each_patch_call_is_one_span_and_uninstall_restores_both_classes():
    if not TRACING.is_file():
        pytest.skip("benchmarks/suite is not part of this checkout")
    spec = importlib.util.spec_from_file_location("_suite_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    spans = {f"incremental.{method}" for method in METHODS}
    originals = {
        (cls, method): cls.__dict__[method] for cls in CLASSES for method in METHODS
    }
    compiled = engine_mod.compile_automaton(
        RPQ("a.b").eps_free_nfa(), None, frozenset("ab")
    )
    tracer = tracing.Tracer()
    tracer.install(skip=frozenset(tracing.SPAN_TARGETS) - spans)
    try:
        for cls in CLASSES:
            db = GraphDB([("x", "a", "y")])
            state = cls(db, compiled)
            seen = len(tracer.spans)
            db.add_edge("y", "b", "z")
            state.apply_insertions([("y", "b", "z")])
            assert state.answers() == frozenset({("x", "z")})
            db.remove_edge("x", "a", "y")
            state.apply_deletions([("x", "a", "y")])
            assert state.answers_sorted() == []
            recorded = [span[tracing.NAME] for span in tracer.spans[seen:]]
            assert recorded == [
                "incremental.apply_insertions",
                "incremental.answers",
                "incremental.apply_deletions",
                "incremental.answers_sorted",
            ], cls.__name__
    finally:
        tracer.uninstall()
    for (cls, method), original in originals.items():
        assert cls.__dict__[method] is original, (cls.__name__, method)
