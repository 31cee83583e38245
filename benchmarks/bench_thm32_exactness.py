"""THM32: exactness checking — on-the-fly vs explicit complement.

Theorem 3.2's point is that materializing ``complement(B)`` costs a third
exponential, while an on-the-fly product search stays in 2EXPSPACE.  The
benchmark compares both implementations on instances where ``B`` has
nontrivial nondeterminism and asserts the on-the-fly variant explores no
more states (and empirically runs faster on the larger instances).
"""

import time

import pytest

from repro.automata.containment import containment_counterexample
from repro.core import ViewSet, maximal_rewriting
from repro.core.exactness import is_exact

INSTANCES = {
    "fig1": ("a.(b.a+c)*", {"e1": "a", "e2": "a.c*.b", "e3": "c"}),
    "wide-union": (
        "(a+b+c)*",
        {"e1": "a+b", "e2": "b+c", "e3": "c+a", "e4": "a.b.c"},
    ),
    "deep-star": (
        "((a.b)*.c)*",
        {"e1": "a.b", "e2": "(a.b)*.c", "e3": "c.c"},
    ),
}


@pytest.mark.parametrize("name", list(INSTANCES))
@pytest.mark.parametrize("method", ["on_the_fly", "explicit"])
def test_exactness_methods(benchmark, name, method):
    e0, views = INSTANCES[name]
    result = maximal_rewriting(e0, ViewSet(views))
    if method == "on_the_fly":
        # is_exact keeps its witness on the result: time the search it runs once
        verdict = benchmark(containment_counterexample, result.ad, result.expansion()) is None
    else:
        verdict = benchmark(is_exact, result, method)
    # both methods must agree — correctness is asserted in the test suite,
    # the benchmark pins it per instance
    assert verdict == is_exact(result, "on_the_fly")


def test_on_the_fly_wins_on_blowup_instance(benchmark):
    # B's determinization is exponential here; the lazy product only
    # explores reachable subsets.
    e0 = "(a+b)*.a.(a+b).(a+b).(a+b)"
    views = ViewSet({"e1": "a", "e2": "b"})
    result = maximal_rewriting(e0, views)
    result.expansion()  # B is built once for both contestants

    def race():
        started = time.perf_counter()
        lazy_verdict = is_exact(result, "on_the_fly")
        lazy_time = time.perf_counter() - started
        started = time.perf_counter()
        explicit_verdict = is_exact(result, "explicit")
        explicit_time = time.perf_counter() - started
        return lazy_verdict, lazy_time, explicit_verdict, explicit_time

    lazy_verdict, lazy_time, explicit_verdict, explicit_time = benchmark.pedantic(
        race, iterations=1, rounds=1
    )
    assert lazy_verdict == explicit_verdict
    print(f"\n  on-the-fly: {lazy_time:.4f}s, explicit: {explicit_time:.4f}s")
    # The paper's claim: the on-the-fly search beats materializing complement(B).
    assert lazy_time <= explicit_time


@pytest.mark.parametrize("name", list(INSTANCES))
def test_counterexample_extraction(benchmark, name):
    from repro.core.exactness import exactness_counterexample

    e0, views = INSTANCES[name]
    result = maximal_rewriting(e0, ViewSet(views))
    witness = benchmark(containment_counterexample, result.ad, result.expansion())
    assert witness == exactness_counterexample(result)
    assert (witness is None) == result.is_exact()
