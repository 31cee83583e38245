"""Regular path queries (Section 4.1).

A regular path query (RPQ) denotes a regular language over either

* the domain ``D`` itself (the first semi-structured approach, where
  queries mention edge labels directly), or
* the set ``F`` of unary formulae of a theory T (the second approach,
  [BDFS97]-style), in which case a D-word *matches* an F-word when T
  entails each formula at the respective constant (Definition 4.1).

Both flavours are captured by one class: alphabet symbols that are
:class:`~repro.rpq.formulas.Formula` instances are interpreted modulo the
theory, plain symbols are interpreted as the constants themselves.

The *grounding* ``Q^*`` of Section 4.2 — the automaton over D accepting
``match(L(Q))`` — is computed by :meth:`RPQ.grounded`, optionally over
equivalence-class representatives (the paper's constant-partitioning
optimization).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Union

from ..automata.nfa import EPS, NFA
from ..automata.thompson import to_nfa
from ..regex.ast import Regex
from ..regex.parser import parse
from .formulas import Const, Formula
from .theory import Theory

__all__ = ["RPQ", "QuerySpec"]

QuerySpec = Union[str, Regex, NFA, "RPQ"]


class RPQ:
    """A regular path query (Section 4.1): a regular language over edge
    labels, or over unary formulae interpreted modulo a theory.  Accepts
    a regex string, a :class:`~repro.regex.ast.Regex`, an
    :class:`~repro.automata.nfa.NFA`, or another RPQ; the compiled and
    epsilon-free automata are cached on the instance so repeated
    evaluation and grounding never redo that work."""

    def __init__(self, spec: QuerySpec, name: str | None = None):
        self._eps_free: NFA | None = None
        self._grounded: tuple[Theory, frozenset, NFA] | None = None
        if isinstance(spec, RPQ):
            self._nfa = spec.nfa()
            self._eps_free = spec._eps_free
            self.expr: Regex | None = spec.expr
            name = name or spec.name
        elif isinstance(spec, str):
            self.expr = parse(spec)
            self._nfa = to_nfa(self.expr)
        elif isinstance(spec, Regex):
            self.expr = spec
            self._nfa = to_nfa(spec)
        elif isinstance(spec, NFA):
            self.expr = None
            self._nfa = spec
        else:
            raise TypeError(f"cannot build an RPQ from {type(spec).__name__}")
        self.name = name

    def nfa(self) -> NFA:
        """The compiled automaton over the query's alphabet."""
        return self._nfa

    def eps_free_nfa(self) -> NFA:
        """The epsilon-free equivalent of :meth:`nfa`, computed once.

        Evaluation (:mod:`repro.rpq.engine`) always works on the
        epsilon-free automaton; caching it here keeps repeated evaluations
        of the same query object from redoing closure elimination.
        """
        if self._eps_free is None:
            nfa = self._nfa
            self._eps_free = (
                nfa.without_epsilon() if nfa.has_epsilon_moves() else nfa
            )
        return self._eps_free

    def alphabet(self) -> frozenset[Hashable]:
        return self._nfa.alphabet

    def formulas(self) -> frozenset[Formula]:
        """The formula symbols used by this query (may be empty)."""
        return frozenset(
            symbol for symbol in self._nfa.alphabet if isinstance(symbol, Formula)
        )

    def as_formula_query(self) -> "RPQ":
        """Reinterpret plain symbols ``a`` as elementary formulae ``z = a``.

        The paper treats direct-label queries as the special case of formula
        queries using only ``lambda z. z = a`` predicates; this performs that
        embedding explicitly.
        """
        nfa = self._nfa
        transitions: dict[int, dict[Hashable, set[int]]] = {}
        for src, label, dst in nfa.iter_transitions():
            if label is EPS or isinstance(label, Formula):
                key: Hashable = label
            else:
                key = Const(label)
            transitions.setdefault(src, {}).setdefault(key, set()).add(dst)
        alphabet = {
            symbol if isinstance(symbol, Formula) else Const(symbol)
            for symbol in nfa.alphabet
        }
        lifted = NFA(nfa.states, alphabet, transitions, nfa.initials, nfa.finals)
        return RPQ(lifted, name=self.name)

    def grounded(
        self,
        theory: Theory,
        restrict_to: Iterable[Hashable] | None = None,
    ) -> NFA:
        """The automaton ``Q^*`` over D accepting ``match(L(Q))``.

        Each formula transition ``s --phi--> t`` becomes one transition
        ``s --a--> t`` per constant ``a`` with ``T |= phi(a)``; plain-symbol
        transitions are kept provided the symbol belongs to the domain.

        ``restrict_to`` optionally restricts the grounding alphabet — pass
        the class representatives from :meth:`Theory.representatives` to
        apply the paper's partitioning optimization.

        The latest grounding is kept: a repeat returns the *same* automaton,
        so caches keyed on automaton identity (the ``A'``-relation memo) hit.
        """
        allowed = (
            frozenset(restrict_to) if restrict_to is not None else theory.domain
        )
        memo = self._grounded
        if memo is not None and memo[0] is theory and memo[1] == allowed:
            return memo[2]
        nfa = self._nfa
        transitions: dict[int, dict[Hashable, set[int]]] = {}
        for src, label, dst in nfa.iter_transitions():
            if label is EPS:
                transitions.setdefault(src, {}).setdefault(EPS, set()).add(dst)
                continue
            if isinstance(label, Formula):
                constants = theory.satisfying(label) & allowed
            else:
                if label not in theory.domain:
                    raise ValueError(
                        f"query symbol {label!r} is not a domain constant"
                    )
                constants = {label} & allowed
            for constant in constants:
                transitions.setdefault(src, {}).setdefault(constant, set()).add(dst)
        grounded = NFA(
            states=nfa.states,
            alphabet=allowed,
            transitions=transitions,
            initials=nfa.initials,
            finals=nfa.finals,
        )
        self._grounded = (theory, allowed, grounded)
        return grounded

    def __repr__(self) -> str:
        label = self.name or (str(self.expr) if self.expr is not None else "<nfa>")
        return f"RPQ({label})"
