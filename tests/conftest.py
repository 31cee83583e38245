"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import strategies as st

from repro.regex.ast import (
    EMPTY,
    EPSILON,
    Regex,
    concat,
    star,
    sym,
    union,
)

ALPHABET = ("a", "b", "c")


def regex_strategy(alphabet: tuple[str, ...] = ALPHABET, max_leaves: int = 8):
    """A hypothesis strategy producing random regular expressions."""
    leaves = st.one_of(
        st.sampled_from([sym(a) for a in alphabet]),
        st.just(EPSILON),
        st.just(EMPTY),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda pair: concat(*pair)),
            st.tuples(children, children).map(lambda pair: union(*pair)),
            children.map(star),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def id_pairs(arrays) -> list[tuple[int, int]]:
    """A decoder's ``(sources, targets)`` dense-id arrays as the list of int
    pairs the differential asserts compare — list equality, order included."""
    sources, targets = arrays
    return list(zip(sources.tolist(), targets.tolist()))


def words_up_to(alphabet, max_length):
    """All words over ``alphabet`` of length at most ``max_length``."""
    for length in range(max_length + 1):
        yield from product(alphabet, repeat=length)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def fig1_rewriting():
    """The paper's Figure 1 instance, computed once per session."""
    from repro import ViewSet, maximal_rewriting

    views = ViewSet({"e1": "a", "e2": "a.c*.b", "e3": "c"})
    return maximal_rewriting("a.(b.a+c)*", views)


@pytest.fixture(scope="session")
def expspace_instances():
    """Theorem 3.3 instances (solvable + unsolvable) with their rewritings.

    Shared across the whole session; each is a few hundred subsets after
    ``dense_from_nfa``'s bisimulation quotient.
    """
    from repro.core import maximal_rewriting
    from repro.reductions import TilingSystem, expspace_reduction

    solvable = TilingSystem(
        tiles=("a", "b"),
        horizontal=frozenset({("a", "b")}),
        vertical=frozenset({("a", "a"), ("b", "b")}),
        t_start="a",
        t_final="b",
    )
    unsolvable = TilingSystem(
        tiles=("a", "b"),
        horizontal=frozenset({("a", "b")}),
        vertical=frozenset({("a", "a"), ("b", "b")}),
        t_start="a",
        t_final="a",
    )
    instances = {}
    for name, system in (("solvable", solvable), ("unsolvable", unsolvable)):
        reduction = expspace_reduction(system, n=1)
        rewriting = maximal_rewriting(reduction.e0, reduction.views)
        instances[name] = (reduction, rewriting)
    return instances


@pytest.fixture(scope="session")
def counter_instance():
    """The Theorem 3.4 instance at n=1 with its rewriting (session-cached)."""
    from repro.core import maximal_rewriting
    from repro.reductions import counter_reduction

    reduction = counter_reduction(1)
    rewriting = maximal_rewriting(reduction.e0, reduction.views)
    return reduction, rewriting
