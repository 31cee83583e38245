"""Finite-automata substrate: NFAs, DFAs and the operations the paper needs.

Everything in Section 2 and Section 4 of the paper reduces to a handful of
automata-theoretic primitives — Thompson construction, subset construction,
completion, complementation, products, emptiness, and containment with
on-the-fly determinization.  This package implements all of them from
scratch over arbitrary hashable alphabets.
"""

from .compiled import (
    DenseDFA,
    DenseNFA,
    dense_from_dfa,
    dense_from_nfa,
    determinize_dense,
    minimize_dense,
    relation_cache_clear,
    relation_cache_info,
    rewrite_sweep,
    view_transition_masks,
)
from .containment import are_equivalent, containment_counterexample, is_contained
from .determinize import determinize
from .isomorphism import are_isomorphic, canonical_form
from .dfa import DFA
from .emptiness import enumerate_words, is_empty, is_universal, shortest_word
from .minimize import minimize
from .nfa import EPS, NFA, NFABuilder
from .operations import (
    complement,
    concat_nfa,
    difference_dfa,
    intersect_dfa,
    intersect_nfa,
    product_dfa,
    star_nfa,
    union_dfa,
    union_nfa,
    view_transition_relation,
)
from .serialization import (
    automaton_fingerprint,
    dfa_from_dict,
    dfa_to_dict,
    nfa_from_dict,
    nfa_to_dict,
    to_dot,
)
from .state_elim import to_regex
from .thompson import to_nfa, universal_nfa, word_nfa

__all__ = [
    "EPS",
    "NFA",
    "NFABuilder",
    "DFA",
    "DenseNFA",
    "DenseDFA",
    "dense_from_nfa",
    "dense_from_dfa",
    "determinize_dense",
    "minimize_dense",
    "view_transition_masks",
    "rewrite_sweep",
    "relation_cache_info",
    "relation_cache_clear",
    "to_nfa",
    "word_nfa",
    "universal_nfa",
    "determinize",
    "minimize",
    "product_dfa",
    "intersect_dfa",
    "union_dfa",
    "difference_dfa",
    "intersect_nfa",
    "union_nfa",
    "concat_nfa",
    "star_nfa",
    "complement",
    "view_transition_relation",
    "is_empty",
    "shortest_word",
    "enumerate_words",
    "is_universal",
    "is_contained",
    "containment_counterexample",
    "are_equivalent",
    "are_isomorphic",
    "canonical_form",
    "to_regex",
    "nfa_to_dict",
    "nfa_from_dict",
    "dfa_to_dict",
    "dfa_from_dict",
    "automaton_fingerprint",
    "to_dot",
]
