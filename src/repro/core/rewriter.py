"""The paper's rewriting construction (Section 2).

Given a regular expression ``E0`` over Sigma and a view set ``E`` with
alphabet Sigma_E, compute the Sigma_E-maximal rewriting ``R_{E,E0}``:

1. Build a *deterministic, total* automaton ``Ad`` with ``L(Ad) = L(E0)``
   (totality matters: a view word that "falls off" a partial automaton must
   land in the explicit dead state so that step 2 records the failure).
2. Build ``A'`` over Sigma_E on the same state set: an ``e``-edge from
   ``s_i`` to ``s_j`` iff some word of ``L(re(e))`` drives ``Ad`` from
   ``s_i`` to ``s_j``; finals of ``A'`` are the *non*-finals of ``Ad``.
   ``A'`` then accepts exactly the Sigma_E words that have *some* expansion
   rejected by ``E0``.
3. The rewriting is the complement of ``A'`` over Sigma_E.

By Theorem 2.2 the result is Sigma_E-maximal, and by Theorem 2.1 also
Sigma-maximal.  Total cost is doubly exponential (Theorem 3.1): one
exponential for determinizing ``E0``, one for complementing ``A'``.

Two implementations live side by side (mirroring the RPQ engine's
pattern):

* the **compiled pipeline** — the default behind :func:`maximal_rewriting`
  — is :func:`rewrite_nfa` on the dense kernel of
  :mod:`repro.automata.compiled`, shared with Section 4.2's
  :func:`~repro.rpq.rewriting.rewrite_rpq`: bitset subset construction
  and Hopcroft for ``Ad``; the ``A'`` edges as bit rows, each view
  compiled against ``Ad``'s alphabet and swept over ``Ad``
  (:func:`~repro.automata.compiled.view_transition_masks` on
  :mod:`repro.sweep`, memoized per (``Ad``, view), shared with
  :func:`~repro.core.containing.existential_rewriting`); and step 3 fused
  into one complemented subset sweep plus Hopcroft over those rows
  (:func:`rewrite_from_ad`).  The ``A'`` automaton itself is built only
  if a caller asks the result for it;
* the **naive oracle** — :func:`naive_maximal_rewriting` and the
  ``naive_``-prefixed step functions — is the original dict-of-set
  transcription, retained for differential testing
  (``tests/core/test_rewriter_differential.py``) and benchmarked against
  in ``benchmarks/bench_thm31_rewriting_scaling.py``.
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, Mapping, Sequence

from ..automata.compiled import (
    DenseDFA,
    cached_view_transition_masks,
    dense_from_dfa,
    determinize_dense,
    minimize_dense,
    relation_nfa,
    rewrite_sweep,
)
from ..automata.determinize import determinize
from ..automata.dfa import DFA
from ..automata.minimize import minimize
from ..automata.nfa import NFA
from ..automata.operations import complement, view_transition_relation
from .alphabet import LanguageSpec, ViewSet, compile_spec
from .result import RewritingResult

__all__ = [
    "maximal_rewriting",
    "naive_maximal_rewriting",
    "rewrite_nfa",
    "rewrite_from_ad",
    "build_ad",
    "naive_build_ad",
    "build_a_prime",
    "naive_build_a_prime",
    "sigma_e_automaton",
]


def maximal_rewriting(
    e0: LanguageSpec,
    views: ViewSet | Mapping[Hashable, LanguageSpec] | Iterable[LanguageSpec],
    minimize_ad: bool = True,
    minimize_result: bool = True,
) -> RewritingResult:
    """Compute the Sigma_E-maximal rewriting of ``e0`` with respect to ``views``.

    This is the compiled pipeline; :func:`naive_maximal_rewriting` is the
    retained reference implementation and must agree on every instance.

    Parameters
    ----------
    e0:
        The query: a regex string (paper syntax), a Regex tree, or an
        automaton.
    views:
        A :class:`ViewSet`, a mapping ``{symbol: language}``, or a plain
        iterable of languages (auto-named ``e1..ek``).
    minimize_ad:
        Minimize ``Ad`` before building ``A'`` — sound (any deterministic
        automaton for ``L(E0)`` works) and keeps ``A'`` small.
    minimize_result:
        Minimize the final rewriting DFA, giving canonical output.

    Returns
    -------
    RewritingResult
        The rewriting automaton with all intermediate artifacts and stats.
    """
    views = _as_view_set(views)
    stats: dict[str, float] = {}
    ad, rewriting, relations = rewrite_nfa(
        *_query_over_sigma(e0, views),
        [views.nfa(symbol) for symbol in views.symbols],
        views.symbols,
        stats,
        minimize_ad=minimize_ad,
        minimize_result=minimize_result,
    )
    return RewritingResult(
        automaton=rewriting, views=views, ad=ad, a_prime_rows=relations, stats=stats
    )


def rewrite_nfa(
    query: NFA,
    sigma: Iterable[Hashable],
    view_automata: Sequence[NFA],
    symbols: tuple[Hashable, ...],
    stats: dict[str, float],
    minimize_ad: bool = True,
    minimize_result: bool = True,
    theory=None,
) -> tuple[DFA, DFA, list[tuple[int, ...]]]:
    """Steps 1 to 3 on the dense kernel: ``(Ad, rewriting, A' bit rows)``.

    The construction once its inputs are automata — ``query`` over the
    base alphabet ``sigma``, one automaton per view symbol (formula symbols
    resolved through ``theory``) — shared by :func:`maximal_rewriting` and
    :func:`~repro.rpq.rewriting.rewrite_rpq`.  ``Ad`` keeps its dense
    form's ``0..n-1`` numbering, which the bit rows index.  Fills ``stats``.
    """
    started = time.perf_counter()
    dense_ad = _dense_ad(query, sigma, minimize_ad)
    ad = dense_ad.to_dfa()
    stats["ad_states"] = ad.num_states
    stats["time_ad"] = time.perf_counter() - started
    rewriting, relations = rewrite_from_ad(
        dense_ad, view_automata, symbols, stats, minimize_result, theory
    )
    return ad, rewriting, relations


def _dense_ad(query: NFA, sigma: Iterable[Hashable], use_minimize: bool) -> DenseDFA:
    """Step 1: the total (by default minimal) DFA for ``L(query)`` over ``sigma``."""
    dense = determinize_dense(query, tuple(sorted(sigma, key=repr)))
    return minimize_dense(dense) if use_minimize else dense


def rewrite_from_ad(
    dense_ad: DenseDFA,
    view_automata: Sequence[NFA],
    symbols: tuple[Hashable, ...],
    stats: dict[str, float],
    minimize_result: bool = True,
    theory=None,
) -> tuple[DFA, list[tuple[int, ...]]]:
    """Steps 2 and 3 on the dense kernel: ``(rewriting, A' bit rows)``.

    The second half of :func:`rewrite_nfa` (views may carry formula
    symbols that ``theory`` resolves).  ``relations[k][i]`` is the target
    mask of the ``symbols[k]``-edges out of ``Ad`` state ``i``.  Fills the
    step-2/3 entries of ``stats``.
    """
    started = time.perf_counter()
    relations = [
        cached_view_transition_masks(dense_ad, view, theory)
        for view in view_automata
    ]
    stats["a_prime_transitions"] = sum(
        mask.bit_count() for relation in relations for mask in relation
    )
    stats["time_a_prime"] = time.perf_counter() - started

    started = time.perf_counter()
    rewriting = rewrite_sweep(
        relations, dense_ad, symbols, minimize_result=minimize_result
    ).to_dfa()
    stats["rewriting_states"] = rewriting.num_states
    stats["time_complement"] = time.perf_counter() - started
    return rewriting, relations


def naive_maximal_rewriting(
    e0: LanguageSpec,
    views: ViewSet | Mapping[Hashable, LanguageSpec] | Iterable[LanguageSpec],
    minimize_ad: bool = True,
    minimize_result: bool = True,
) -> RewritingResult:
    """The original dict-of-set construction — the differential oracle."""
    views = _as_view_set(views)
    stats: dict[str, float] = {}

    started = time.perf_counter()
    ad = naive_build_ad(e0, views, use_minimize=minimize_ad)
    stats["ad_states"] = ad.num_states
    stats["time_ad"] = time.perf_counter() - started

    started = time.perf_counter()
    a_prime = naive_build_a_prime(ad, views)
    stats["a_prime_transitions"] = a_prime.num_transitions
    stats["time_a_prime"] = time.perf_counter() - started

    started = time.perf_counter()
    rewriting = complement(a_prime, alphabet=views.symbols)
    if minimize_result:
        rewriting = minimize(rewriting, trim=False)
    stats["rewriting_states"] = rewriting.num_states
    stats["time_complement"] = time.perf_counter() - started

    return RewritingResult(
        automaton=rewriting, views=views, ad=ad, stats=stats, _a_prime=a_prime
    )


def build_ad(
    e0: LanguageSpec, views: ViewSet, use_minimize: bool = True
) -> DFA:
    """Step 1: a total DFA for ``L(E0)`` over Sigma = symbols(E0) + symbols(E).

    The automaton is completed over the *union* of the query's and the
    views' base alphabets: view words may use symbols that ``E0`` never
    mentions, and those words must be able to reach the dead state rather
    than vanish.  Runs on the dense kernel; :func:`naive_build_ad` is the
    dict-based original.
    """
    return _dense_ad(*_query_over_sigma(e0, views), use_minimize).to_dfa()


def _query_over_sigma(
    e0: LanguageSpec, views: ViewSet
) -> tuple[NFA, frozenset[Hashable]]:
    """``E0`` as an automaton, and Sigma = symbols(E0) + symbols(E)."""
    nfa = compile_spec(e0)
    sigma = nfa.alphabet | views.base_alphabet()
    if not sigma:
        # Degenerate case: all languages are subsets of {epsilon}.  Give the
        # automaton a throwaway symbol so completion yields a real sink.
        sigma = frozenset({"#dead"})
    return nfa, sigma


def naive_build_ad(
    e0: LanguageSpec, views: ViewSet, use_minimize: bool = True
) -> DFA:
    """The original step 1 (reference oracle): ``Ad`` via classic subset
    construction, optional Hopcroft minimization, then completion over
    ``Sigma union Sigma_E``-relevant base symbols.  Kept as the
    dict-of-sets transcription that :func:`build_ad` (the dense bitmask
    fast path) is differentially tested against."""
    nfa = compile_spec(e0)
    dfa = determinize(nfa)
    if use_minimize:
        dfa = minimize(dfa)
    sigma = nfa.alphabet | views.base_alphabet()
    if not sigma:
        sigma = frozenset({"#dead"})
    return dfa.completed(sigma)


def sigma_e_automaton(ad: DFA, views: ViewSet, finals: Iterable[int]) -> NFA:
    """The Sigma_E automaton on ``Ad``'s states with the given final set.

    This is the shared step-2 core: an ``e``-edge ``s_i -> s_j`` iff some
    word of ``L(re(e))`` drives ``Ad`` from ``s_i`` to ``s_j``.  With
    ``finals = Ad's non-finals`` it is the paper's ``A'``
    (:func:`build_a_prime`); with ``finals = Ad's finals`` it is the
    existential rewriting automaton of
    :func:`~repro.core.containing.existential_rewriting`.  The edge
    relation runs on the compiled kernel and is memoized per (``Ad``,
    view), so all callers share one computation.
    """
    if not ad.is_total():
        raise ValueError("sigma_e_automaton requires a total DFA")
    dense_ad, state_at = dense_from_dfa(ad)
    relations = [
        cached_view_transition_masks(dense_ad, views.nfa(symbol))
        for symbol in views.symbols
    ]
    return relation_nfa(relations, views.symbols, ad, finals, state_at)


def build_a_prime(ad: DFA, views: ViewSet) -> NFA:
    """Step 2: the Sigma_E automaton ``A'`` on ``Ad``'s states.

    ``A'`` accepts a word ``e1...en`` iff some expansion ``w1...wn`` with
    ``wi in L(re(ei))`` drives ``Ad`` from the initial state to a non-final
    state — i.e. iff the word has an expansion *outside* ``L(E0)``.
    """
    return sigma_e_automaton(ad, views, finals=ad.states - ad.finals)


def naive_build_a_prime(ad: DFA, views: ViewSet) -> NFA:
    """The original step 2 (reference oracle): build ``A'`` by running one
    per-source product BFS per view to find every ``Ad``-state pair some
    view word connects.  The fast path (:func:`build_a_prime`) computes
    the same relation with one all-sources bitmask sweep per view; the
    differential tests require both to emit language-equal automata."""
    transitions: dict[int, dict[Hashable, set[int]]] = {}
    for symbol in views.symbols:
        relation = view_transition_relation(ad, views.nfa(symbol))
        for source, targets in relation.items():
            if targets:
                transitions.setdefault(source, {})[symbol] = set(targets)
    return NFA(
        states=ad.states,
        alphabet=views.symbols,
        transitions=transitions,
        initials={ad.initial},
        finals=ad.states - ad.finals,
    )


def _as_view_set(
    views: ViewSet | Mapping[Hashable, LanguageSpec] | Iterable[LanguageSpec],
) -> ViewSet:
    if isinstance(views, ViewSet):
        return views
    if isinstance(views, Mapping):
        return ViewSet(views)
    return ViewSet.from_list(list(views))
