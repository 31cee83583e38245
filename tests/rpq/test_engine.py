"""Unit tests for the compiled RPQ evaluation engine."""

import functools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import NFA, are_equivalent
from repro.core import ViewSet, maximal_rewriting
from repro.rpq import (
    RPQ,
    GraphDB,
    Pred,
    Theory,
    compile_automaton,
    compile_cache_clear,
    compile_cache_info,
    evaluate,
    evaluate_from,
    evaluate_pair,
    naive_evaluate,
)
from repro.rpq.engine import CompiledAutomaton, evaluate_all
from repro.rpq.formulas import Formula
from repro.sweep.table import _trim_useless_states

from ..conftest import regex_strategy


@pytest.fixture
def diamond_db():
    return GraphDB(
        [
            ("s", "a", "l"),
            ("s", "a", "r"),
            ("l", "b", "t"),
            ("r", "c", "t"),
        ]
    )


class TestEdgeCases:
    def test_empty_graph(self):
        assert evaluate(GraphDB(), "a.b*") == frozenset()

    def test_empty_graph_with_epsilon_query(self):
        assert evaluate(GraphDB(), "a*") == frozenset()

    def test_empty_language_query(self, diamond_db):
        assert evaluate(diamond_db, "%empty") == frozenset()

    def test_epsilon_accepting_query_yields_all_diagonal_pairs(self):
        db = GraphDB([("x", "a", "y")])
        db.add_node("island")  # isolated nodes are answers too
        result = evaluate(db, "b*")
        assert result == frozenset((v, v) for v in db.nodes)

    def test_epsilon_only_query(self, diamond_db):
        assert evaluate(diamond_db, "%eps") == frozenset(
            (v, v) for v in diamond_db.nodes
        )

    def test_unknown_source_raises_keyerror(self, diamond_db):
        with pytest.raises(KeyError):
            evaluate_from(diamond_db, "nowhere", "a")

    def test_unknown_pair_endpoint_raises_keyerror(self, diamond_db):
        with pytest.raises(KeyError):
            evaluate_pair(diamond_db, "s", "nowhere", "a")
        with pytest.raises(KeyError):
            evaluate_pair(diamond_db, "nowhere", "t", "a")

    def test_query_label_absent_from_graph(self, diamond_db):
        assert evaluate(diamond_db, "z.z") == frozenset()


class TestGraphShapes:
    def test_parallel_edges(self):
        db = GraphDB([("x", "a", "y"), ("x", "b", "y")])
        assert evaluate(db, "a+b") == frozenset({("x", "y")})
        assert evaluate(db, "a.b") == frozenset()

    def test_self_loop(self):
        db = GraphDB([("x", "a", "x"), ("x", "b", "y")])
        assert evaluate(db, "a*.b") == frozenset({("x", "y")})
        assert evaluate(db, "a.a.a") == frozenset({("x", "x")})

    def test_self_loop_single_source(self):
        db = GraphDB([("x", "a", "x")])
        assert evaluate_from(db, "x", "a.a*") == frozenset({"x"})

    def test_diamond_all_pairs(self, diamond_db):
        result = evaluate(diamond_db, "a.(b+c)")
        assert result == frozenset({("s", "t")})


class TestBidirectionalPair:
    def test_pair_agrees_with_full_answer(self, diamond_db):
        full = evaluate(diamond_db, "a.b*")
        for x in diamond_db.nodes:
            for y in diamond_db.nodes:
                assert evaluate_pair(diamond_db, x, y, "a.b*") == (
                    (x, y) in full
                )

    def test_pair_epsilon(self, diamond_db):
        assert evaluate_pair(diamond_db, "s", "s", "a*")
        assert not evaluate_pair(diamond_db, "s", "t", "%eps")

    def test_pair_on_long_chain(self):
        # Bidirectional search must meet in the middle of the chain.
        labels = ["a"] * 30
        db = GraphDB()
        for i, label in enumerate(labels):
            db.add_edge(f"x{i}", label, f"x{i + 1}")
        assert evaluate_pair(db, "x0", "x30", "a*")
        assert not evaluate_pair(db, "x30", "x0", "a*")
        assert not evaluate_pair(db, "x0", "x30", "a.a")


class TestCompileCache:
    def test_cache_hit_on_repeated_evaluation(self, diamond_db):
        compile_cache_clear()
        query = RPQ("a.b*")
        evaluate(diamond_db, query)
        first = compile_cache_info()
        evaluate(diamond_db, query)
        second = compile_cache_info()
        assert first["misses"] == 1
        assert second["hits"] == first["hits"] + 1
        assert second["misses"] == first["misses"]

    def test_cache_miss_on_different_label_domain(self, diamond_db):
        compile_cache_clear()
        query = RPQ("a.b*")
        evaluate(diamond_db, query)
        other = GraphDB([("u", "a", "v")])  # different label domain
        evaluate(other, query)
        info = compile_cache_info()
        assert info["misses"] == 2

    def test_cache_key_includes_theory(self):
        compile_cache_clear()
        db = GraphDB([("x", "a", "y")])
        query = RPQ("a").as_formula_query()
        t1 = Theory(domain={"a"})
        t2 = Theory(domain={"a", "b"})
        evaluate(db, query, t1)
        evaluate(db, query, t2)
        assert compile_cache_info()["misses"] == 2


class TestCompiledAutomaton:
    def test_formula_symbols_resolved_at_compile_time(self):
        from repro.regex.ast import sym

        theory = Theory(domain={"a", "b", "c"}, predicates={"P": {"a", "b"}})
        rpq = RPQ(sym(Pred("P")))
        compiled = compile_automaton(
            rpq.eps_free_nfa(), theory, frozenset({"a", "b", "c"})
        )
        labels = {
            label for row in compiled.table.values() for label in row
        }
        assert labels == {"a", "b"}  # "c" does not satisfy P

    def test_formula_without_theory_raises(self):
        from repro.regex.ast import sym

        rpq = RPQ(sym(Pred("P")))
        with pytest.raises(ValueError):
            compile_automaton(rpq.eps_free_nfa(), None, frozenset({"a"}))

    def test_plain_symbols_skips_theory_requirement(self):
        from repro.regex.ast import sym

        rpq = RPQ(sym(Pred("P")))
        compiled = compile_automaton(
            rpq.eps_free_nfa(),
            None,
            frozenset({Pred("P")}),
            plain_symbols=True,
        )
        assert isinstance(compiled, CompiledAutomaton)
        db = GraphDB([("x", Pred("P"), "y")])
        assert evaluate_all(db, compiled) == frozenset({("x", "y")})

    def test_reverse_table_mirrors_table(self):
        rpq = RPQ("a.b")
        compiled = compile_automaton(
            rpq.eps_free_nfa(), None, frozenset({"a", "b"})
        )
        assert _transitions(compiled.table) == _flipped(compiled.rtable)


def _transitions(table):
    return {
        (src, label, dst)
        for src, row in table.items()
        for label, dsts in row.items()
        for dst in dsts
    }


def _flipped(rtable):
    return {(src, label, dst) for dst, label, src in _transitions(rtable)}


def _grounded(nfa, theory, domain):
    """The reference: ``nfa`` restricted to the label domain, every
    formula symbol read as the labels of the domain that satisfy it —
    what ``compile_automaton`` builds before it trims and merges."""
    rows = {}
    for src, symbol, dst in nfa.iter_transitions():
        labels = theory.satisfying(symbol) if isinstance(symbol, Formula) else {symbol}
        for label in labels & domain:
            rows.setdefault(src, {}).setdefault(label, set()).add(dst)
    return NFA(nfa.states, domain, rows, nfa.initials, nfa.finals)


def _as_nfa(compiled, domain):
    states = (
        compiled.initials | compiled.finals | compiled.table.keys() | compiled.rtable.keys()
    )
    return NFA(states, domain, compiled.table, compiled.initials, compiled.finals)


_MERGE_THEORY = Theory(
    domain={"a", "b", "c"}, predicates={"P": {"a", "b"}, "Q": {"b", "c"}}
)
_MERGE_SYMBOLS = ("a", "b", "c", Pred("P"), Pred("Q"), Pred("P") & ~Pred("Q"))

_GATE_VIEWS = ViewSet(
    {"e1": "a", "e2": "b", "e3": "a.b", "e4": "a.(a+b)*.b", "e5": "b.(a+b)*.a"}
)


@functools.lru_cache(maxsize=None)
def _blowup_rewriting(k):
    """The minimal rewriting DFA of ``(a+b)*.a.(a+b)^k`` over the gate
    views of ``bench_thm31_rewriting_scaling``: ``2^(k+1)`` states."""
    query = "(a+b)*.a" + ".(a+b)" * k
    return maximal_rewriting(query, _GATE_VIEWS).automaton.to_nfa()


class TestTwinStateMerge:
    """``compile_automaton`` merges states with equal rows and, in a
    separate step, states with equal reverse rows (``sweep/table.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(
        expr=regex_strategy(_MERGE_SYMBOLS, max_leaves=7),
        domain=st.sets(st.sampled_from(("a", "b", "c")), min_size=1).map(frozenset),
    )
    def test_language_size_idempotence_and_reverse_table(self, expr, domain):
        nfa = RPQ(expr).eps_free_nfa()
        compiled = compile_automaton(nfa, _MERGE_THEORY, domain)
        reference = _grounded(nfa, _MERGE_THEORY, domain)
        rebuilt = _as_nfa(compiled, domain)
        assert are_equivalent(rebuilt, reference)

        trimmed = CompiledAutomaton(
            *_trim_useless_states(reference.compiled_rows(), nfa.initials, nfa.finals)
        )
        assert compiled.num_states <= trimmed.num_states
        assert compiled.accepts_epsilon == trimmed.accepts_epsilon

        again = compile_automaton(rebuilt, None, domain)
        assert (again.table, again.initials, again.finals) == (
            compiled.table, compiled.initials, compiled.finals,
        )

        assert _transitions(compiled.table) == _flipped(compiled.rtable)
        flipped = compiled.reversed()
        assert (flipped.initials, flipped.finals) == (compiled.finals, compiled.initials)
        back = flipped.reversed()
        assert (back.table, back.rtable, back.initials, back.finals, back.num_states) == (
            compiled.table, compiled.rtable, compiled.initials, compiled.finals,
            compiled.num_states,
        )

    @pytest.mark.parametrize(
        "expr, states",
        [("a.(a+b)*.b", 3), ("(a+b).(b+c)", 3), ("b.a*", 2), ("a.a.b", 4), ("b", 2)],
    )
    def test_pinned_sizes(self, expr, states):
        compiled = compile_automaton(
            RPQ(expr).eps_free_nfa(), None, frozenset({"a", "b", "c"})
        )
        assert compiled.num_states == states

    def test_a_symbol_outside_the_domain_makes_new_twins(self):
        """``a.(b+c).a`` over ``{a, b}``: the ``c`` branch is trimmed and
        what is left is the four-state chain ``a.b.a``."""
        compiled = compile_automaton(
            RPQ("a.(b+c).a").eps_free_nfa(), None, frozenset({"a", "b"})
        )
        assert compiled.num_states == 4
        assert sorted(label for _, label, _ in _transitions(compiled.table)) == [
            "a", "a", "b",
        ]

    @pytest.mark.parametrize("k", [6, 8, 10, 11])
    def test_minimal_rewriting_dfas_keep_their_states(self, k):
        nfa = _blowup_rewriting(k)
        compiled = compile_automaton(nfa, None, frozenset(nfa.alphabet))
        assert compiled.num_states == 2 ** (k + 1)

    def test_nothing_to_merge_costs_one_pass_a_direction(self):
        """Cost guard.  On the 4 096-state / 20 480-transition minimal
        rewriting DFA (k = 11) no two states are twins, and the compile
        takes 0.07 s here (0.05 s before the merge existed) — the 1 s
        bound leaves 14x slack for a busy machine.  It exists to fail a
        merge that compares states pairwise (8.4M pairs) instead of
        hashing one signature per state."""
        nfa = _blowup_rewriting(11)
        labels = frozenset(nfa.alphabet)
        compile_cache_clear()
        started = time.perf_counter()
        compiled = compile_automaton(nfa, None, labels)
        elapsed = time.perf_counter() - started
        assert compiled.num_states == 4096
        assert elapsed < 1.0, f"{elapsed:.2f} s"


class TestAgainstNaive:
    def test_small_worked_example(self):
        db = GraphDB(
            [
                ("1", "a", "2"),
                ("2", "b", "3"),
                ("3", "a", "1"),
                ("2", "a", "2"),
            ]
        )
        for query in ["a*", "a.b", "(a.b.a)*", "b+a.a"]:
            assert evaluate(db, query) == naive_evaluate(db, query)
