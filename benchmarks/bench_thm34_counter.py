"""THM34: polynomial instances with doubly-exponential rewritings.

Regenerates the Theorem 3.4 series: instance size vs rewriting-word
length.  The instance (``E0^n`` + views) grows polynomially in ``n`` while
the unique shortest rewriting word grows as ``2^n * 2^(2^n)``:

    n   |E0^n| (AST nodes)   shortest rewriting word
    1   ~4.3k                8
    2   ~7.2k                64
    3   ~10.6k               2048

The full pipeline runs at n=1 and n=2 (the shortest word is verified
symbol by symbol; about 0.3 s and 1 s on a 2-vCPU box, because
``dense_from_nfa`` quotients ``E0``'s NFA before determinizing it: n=2's
14 000 Thompson states become 5 131 ε-free ones and 1 227 bisimulation
classes, whose 17 445 subsets minimize to a 961-state ``Ad``).  n=3 is
reported at construction level.
"""

import pytest

from repro.core import maximal_rewriting
from repro.reductions import counter_reduction, counter_word


@pytest.mark.parametrize("n", [1, 2, 3])
def test_instance_construction(benchmark, n):
    reduction = benchmark(counter_reduction, n)
    assert reduction.word_length == 2 ** n * 2 ** (2 ** n)


def test_series_instance_size_vs_word_length(benchmark):
    def build_series():
        series = []
        for n in (1, 2, 3):
            reduction = counter_reduction(n)
            series.append((n, reduction.e0.size(), reduction.word_length))
        return series

    rows = benchmark.pedantic(build_series, iterations=1, rounds=1)
    print("\n  n  |E0^n|  |w_C|")
    for n, size, length in rows:
        print(f"  {n}  {size:6d}  {length}")
    # Shape: instance grows polynomially, word length doubly exponentially.
    (n1, s1, l1), (n2, s2, l2), (n3, s3, l3) = rows
    assert s3 < s1 * 20  # polynomial instance growth
    assert l2 / l1 == 8 and l3 / l2 == 32  # 2^n * 2^(2^n) series


def test_counter_word_generation(benchmark):
    word = benchmark(counter_word, 3)
    assert len(word) == 8 * 256


def test_full_pipeline_n1(benchmark, counter_n1):
    result = benchmark.pedantic(
        maximal_rewriting,
        args=(counter_n1.e0, counter_n1.views),
        iterations=1,
        rounds=1,
    )
    shortest = result.shortest_word()
    assert shortest == counter_word(1)
    assert len(shortest) >= 2 ** (2 ** 1)


def test_full_pipeline_n2(benchmark):
    reduction = counter_reduction(2)
    result = benchmark.pedantic(
        maximal_rewriting,
        args=(reduction.e0, reduction.views),
        iterations=1,
        rounds=1,
    )
    print(f"\n  n=2: |Ad| = {result.stats['ad_states']}, "
          f"rewriting {result.stats['rewriting_states']} states")
    assert result.shortest_word() == counter_word(2)
