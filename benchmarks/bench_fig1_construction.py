"""FIG1: regenerate Figure 1 / Examples 2.2-2.3 and time each phase.

The paper's only figure shows the three automata of the construction
(``Ad``, ``A'`` and the rewriting).  These benchmarks rebuild them and
assert the reported artifacts: the rewriting is ``e2*.e1.e3*`` and exact;
dropping the view ``c`` yields ``e2*.e1``, not exact.
"""

from repro.automata.containment import containment_counterexample
from repro.core import ViewSet, maximal_rewriting
from repro.core.rewriter import build_a_prime, build_ad
from repro.regex.printer import to_string

E0 = "a.(b.a+c)*"


def test_fig1_full_construction(benchmark, fig1_views):
    result = benchmark(maximal_rewriting, E0, fig1_views)
    assert to_string(result.regex()) == "e2*.e1.e3*"


def test_fig1_step1_ad(benchmark, fig1_views):
    ad = benchmark(build_ad, E0, fig1_views)
    assert ad.is_total()
    assert ad.num_states == 3


def test_fig1_step2_a_prime(benchmark, fig1_views):
    ad = build_ad(E0, fig1_views)
    a_prime = benchmark(build_a_prime, ad, fig1_views)
    assert a_prime.finals == ad.states - ad.finals


def test_fig1_step3_complement(benchmark, fig1_views):
    from repro.automata.operations import complement

    ad = build_ad(E0, fig1_views)
    a_prime = build_a_prime(ad, fig1_views)
    rewriting = benchmark(complement, a_prime, fig1_views.symbols)
    assert rewriting.accepts(("e2", "e1", "e3"))


def test_fig1_exactness_check(benchmark, fig1_views):
    result = maximal_rewriting(E0, fig1_views)
    # is_exact() keeps its witness on the result: time the search it runs once
    assert benchmark(containment_counterexample, result.ad, result.expansion()) is None
    assert result.is_exact()


def test_fig1_without_view_c(benchmark):
    views = ViewSet({"e1": "a", "e2": "a.c*.b"})
    result = benchmark(maximal_rewriting, E0, views)
    assert to_string(result.regex()) == "e2*.e1"
    assert not result.is_exact()
