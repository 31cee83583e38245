"""Theorem 3.4's yardstick: a polynomial instance with a 2^(2^n) rewriting.

Builds the counter family at n=1 and shows that the maximal rewriting of a
polynomially-sized instance is (w_C)^+ for the doubly-exponentially long
counter word w_C — the paper's lower-bound witness for the size of
rewritings.

Computing the rewriting runs the full double-exponential pipeline; at
n=1 it takes well under a second, because the query automaton is reduced
to its bisimulation quotient before it is determinized.

Run with::

    python examples/counter_yardstick.py
"""

import time

from repro.core import maximal_rewriting
from repro.reductions import counter_reduction, counter_word


def main() -> None:
    n = 1
    reduction = counter_reduction(n)
    wc = counter_word(n)

    print(f"n = {n}")
    print(f"instance size |E0| = {reduction.e0.size()} AST nodes,")
    print(f"views: {len(reduction.views)} block languages")
    print(
        f"counter word w_C: {len(wc)} symbols "
        f"(= 2^{n} * 2^(2^{n}) = {reduction.word_length})"
    )
    print("w_C =", " ".join(wc))

    print("\nComputing the maximal rewriting (double-exponential pipeline)...")
    started = time.perf_counter()
    result = maximal_rewriting(reduction.e0, reduction.views)
    elapsed = time.perf_counter() - started
    print(f"done in {elapsed:.1f}s; stats: {result.stats}")

    shortest = result.shortest_word()
    print("\nShortest rewriting word length:", len(shortest))
    print("Matches w_C:", shortest == wc)
    print(
        "Lower bound 2^(2^n) =",
        2 ** (2 ** n),
        "<=",
        len(shortest),
        "(Theorem 3.4 verified)",
    )

    # Perturbing any symbol of w_C leaves the rewriting.
    broken = (wc[0],) + wc[2:]
    print("Truncated/perturbed words rejected:", not result.accepts(broken))


if __name__ == "__main__":
    main()
