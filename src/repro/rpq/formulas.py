"""The formula language of Section 4.1.

Regular path queries in the second semi-structured data approach
([BDFS97, BDHS96, FS98]) are regular expressions over *formulae with one
free variable* of a decidable complete first-order theory T over the finite
edge-label domain D.  The paper assumes:

* one constant per domain element, and a unary predicate ``lambda z. z = a``
  for each constant ``a`` (here :class:`Const`);
* arbitrary further unary predicates (here :class:`Pred`), closed under the
  boolean connectives (:class:`And`, :class:`Or`, :class:`Not`).

Formula objects are immutable and hashable so they can serve directly as
automaton alphabet symbols; satisfaction ``T |= phi(a)`` is delegated to a
:class:`~repro.rpq.theory.Theory` via :meth:`Formula.holds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from ..sweep.table import FormulaSymbol

if TYPE_CHECKING:  # pragma: no cover
    from .theory import Theory

__all__ = ["Formula", "Const", "Pred", "And", "Or", "Not", "Top", "TOP"]


@dataclass(frozen=True)
class Formula(FormulaSymbol):
    """A unary formula ``lambda z. phi(z)`` over the finite domain D
    (Section 4.1, the [BDFS97]-style approach): RPQ alphabet symbols that
    are formulae match an edge label ``a`` iff ``T |= phi(a)``
    (Definition 4.1).  Compose with ``&``, ``|``, and ``~``; concrete
    leaves are :class:`Const`, :class:`Pred`, and :class:`Top`."""

    def holds(self, theory: "Theory", constant: Hashable) -> bool:
        """Does ``T |= phi(constant)``?"""
        raise NotImplementedError

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class Const(Formula):
    """The elementary predicate ``lambda z. z = value`` — the embedding
    of a plain edge label into the formula language; the paper treats
    direct-label queries as exactly this special case, and the partial
    rewriting search adds views of this shape (elementary views)."""

    value: Hashable

    def holds(self, theory: "Theory", constant: Hashable) -> bool:
        return constant == self.value

    def __str__(self) -> str:
        return f"={self.value}"


@dataclass(frozen=True)
class Pred(Formula):
    """An atomic predicate ``lambda z. P(z)`` named ``name`` in the theory."""

    name: str

    def holds(self, theory: "Theory", constant: Hashable) -> bool:
        return theory.predicate_holds(self.name, constant)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class And(Formula):
    """Conjunction of unary formulae: holds at a constant iff every part
    does.  Built by the ``&`` operator; the theory evaluates parts
    left-to-right with short-circuiting, so order can matter for cost
    but never for the result."""

    parts: tuple[Formula, ...]

    def holds(self, theory: "Theory", constant: Hashable) -> bool:
        return all(part.holds(theory, constant) for part in self.parts)

    def __str__(self) -> str:
        return "(" + " & ".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction of unary formulae: holds at a constant iff at least
    one part does.  Built by the ``|`` operator; like :class:`And` it
    short-circuits left-to-right without affecting the result."""

    parts: tuple[Formula, ...]

    def holds(self, theory: "Theory", constant: Hashable) -> bool:
        return any(part.holds(theory, constant) for part in self.parts)

    def __str__(self) -> str:
        return "(" + " | ".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class Not(Formula):
    """Negation of a unary formula — decidable because the theory is
    complete: ``T |= ~phi(a)`` iff ``T |/= phi(a)`` over the finite
    domain.  Built by the ``~`` operator."""

    inner: Formula

    def holds(self, theory: "Theory", constant: Hashable) -> bool:
        return not self.inner.holds(theory, constant)

    def __str__(self) -> str:
        return f"!{self.inner}"


@dataclass(frozen=True)
class Top(Formula):
    """The trivially true predicate ``lambda z. true`` (the paper's ``_``).

    The introduction's wildcard steps — e.g. the ``_`` in
    ``_* . (rome + jerusalem) . _* . restaurant`` — match any edge label.
    """

    def holds(self, theory: "Theory", constant: Hashable) -> bool:
        return True

    def __str__(self) -> str:
        return "_"


TOP = Top()
