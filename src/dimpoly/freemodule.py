"""Terms, admissible orders, and exact arithmetic in free modules over
commutative operator monoids.

A term is an operator monomial applied to one free generator, written as a
generator index plus an exponent vector (one entry per operator symbol).
Module elements are finite K-linear combinations of terms with coefficients
from :mod:`dimpoly.coefficients`.  Exponents are nonnegative except in
presentations of kind ``inversive``, where they live in Z^m.

All values here are immutable; orders are pure comparison keys.  Terms are
merged in one loop, :func:`_accumulate`: element arithmetic, discretized
relations and parsed sums add through it in place.  Groebner completion and
its cofactors merge packed rows instead (:mod:`dimpoly.groebner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le
from typing import Iterable, Mapping, NamedTuple, Sequence

from .coefficients import Coeff, CoefficientError, RationalFunction, as_coeff

__all__ = [
    "KINDS",
    "Element",
    "Presentation",
    "Term",
    "TermOrder",
    "apply_monomial",
    "combine",
    "divides",
    "quotient",
    "term_order",
]

KINDS = ("differential", "difference", "inversive")


class Term(NamedTuple):
    """Operator monomial applied to a free generator."""

    gen: int
    exps: tuple[int, ...]


def term_order(t: Term) -> int:
    """Order of a term: sum of absolute exponent values."""
    return sum(map(abs, t.exps))


def divides(s: Term, t: Term) -> bool:
    """True iff some operator monomial sends s to t (same generator,
    componentwise <=).  Defined for nonnegative exponents."""
    return s.gen == t.gen and all(map(le, s.exps, t.exps))


def quotient(t: Term, s: Term) -> tuple[int, ...]:
    """Exponent vector of the monomial carrying s to t."""
    if not divides(s, t):
        raise ValueError(f"{s} does not divide {t}")
    return tuple(b - a for a, b in zip(s.exps, t.exps))


@dataclass(frozen=True, slots=True)
class TermOrder:
    """Admissible order with the flat integer key (total order, generator
    index, exponents).

    ``sequence`` is the permutation of operator positions used for the final
    lexicographic block; by default operators are compared in declaration
    order.  Larger key means larger term.
    """

    sequence: tuple[int, ...]

    @classmethod
    def default(cls, n: int) -> "TermOrder":
        return cls(tuple(range(n)))

    def key(self, t: Term) -> tuple[int, ...]:
        exps = t.exps
        return (term_order(t), t.gen, *[exps[i] for i in self.sequence])

    def compare(self, s: Term, t: Term) -> int:
        ks, kt = self.key(s), self.key(t)
        return (ks > kt) - (ks < kt)


class Element:
    """Finite K-linear combination of terms; the zero element is empty."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Term, Coeff] | None = None):
        collected: dict[Term, Coeff] = {}
        if terms:
            for t, c in terms.items():
                if c:
                    collected[t] = as_coeff(c)
        object.__setattr__(self, "terms", collected)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Coeff, tuple[int, ...], int]]) -> "Element":
        """Build from (coefficient, exponent vector, generator) triples."""
        acc: dict[Term, Coeff] = {}
        for c, exps, gen in pairs:
            _accumulate(acc, cls({Term(gen, tuple(exps)): c}))
        return _raw(acc)

    # -- vector space structure ---------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # computed once: dimpoly.pipeline's report pool hashes an element
        # alone and again inside each report part that holds it
        try:
            return self._hash
        except AttributeError:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
            return h

    def __add__(self, other: "Element") -> "Element":
        return _raw(_accumulate(dict(self.terms), other))

    def __sub__(self, other: "Element") -> "Element":
        return _raw(_accumulate(dict(self.terms), other, -1))

    def __neg__(self) -> "Element":
        return _raw({t: -c for t, c in self.terms.items()})

    def scaled(self, c) -> "Element":
        c = as_coeff(c)
        return _raw(_accumulate({}, self, c) if c else {})

    # -- order-dependent views ----------------------------------------------

    def leading_term(self, order: TermOrder) -> tuple[Term, Coeff]:
        if not self.terms:
            raise ValueError("the zero element has no leading term")
        t = max(self.terms, key=order.key)
        return t, self.terms[t]

    def sorted_terms(self, order: TermOrder) -> list[tuple[Term, Coeff]]:
        """Terms in descending order (leading term first)."""
        return [(t, self.terms[t]) for t in sorted(self.terms, key=order.key, reverse=True)]

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        body = ", ".join(
            f"{t.gen}:{t.exps}:{c}" for t, c in sorted(self.terms.items())
        )
        return f"Element({body})"


def _raw(terms: dict[Term, Coeff]) -> Element:
    e = Element.__new__(Element)
    object.__setattr__(e, "terms", terms)
    return e


def _accumulate(acc: dict, f: Element, c: Coeff = 1, shift: tuple[int, ...] | None = None) -> dict:
    """Add c * x^shift * f into the term dict ``acc`` in place, deleting
    every term that cancels, and return ``acc``: the one merge loop for
    module elements.  ``c`` is a nonzero coefficient or int."""
    scale = c != 1
    move = shift is not None and any(shift)
    for t, x in f.terms.items():
        if move:
            t = Term(t.gen, tuple(map(add, t.exps, shift)))
        if scale:
            x = c * x
        y = acc.get(t)
        if y is None:
            acc[t] = x
        elif y := y + x:
            acc[t] = y
        else:
            del acc[t]
    return acc


def apply_monomial(exps: tuple[int, ...], f: Element) -> Element:
    """Act on f by the operator monomial with the given exponent vector."""
    return _raw(_accumulate({}, f, shift=exps)) if any(exps) else f


def combine(cof: Element, gens: Sequence[Element]) -> Element:
    """The combination sum c * x^e * gens[gen] over the terms of ``cof``.

    ``cof`` is read as an element of the free module whose generator i stands
    for ``gens[i]``: a cofactor vector, as ``GroebnerBasis.cofactors`` holds.
    """
    acc: dict[Term, Coeff] = {}
    for t, c in cof.terms.items():
        _accumulate(acc, gens[t.gen], c, t.exps)
    return _raw(acc)


@dataclass(frozen=True, slots=True)
class Presentation:
    """A system descriptor: an operator ring kind, named operators and free
    generators, an optional coefficient parameter, and a relation list."""

    kind: str
    operators: tuple[str, ...]
    unknowns: tuple[str, ...]
    relations: tuple[Element, ...]
    parameter: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ring kind {self.kind!r}")
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "unknowns", tuple(self.unknowns))
        object.__setattr__(self, "relations", tuple(self.relations))
        names = list(self.operators) + list(self.unknowns)
        if len(set(names)) != len(names):
            raise ValueError("operator and unknown names must be distinct")
        if self.parameter is not None and self.parameter in names:
            raise ValueError(f"parameter {self.parameter!r} collides with a declared name")
        m, q = len(self.operators), len(self.unknowns)
        for rel in self.relations:
            for t, c in rel.terms.items():
                if len(t.exps) != m:
                    raise ValueError(f"term {t} has {len(t.exps)} exponents, ring has {m}")
                if not 0 <= t.gen < q:
                    raise ValueError(f"term {t} references undeclared generator")
                if self.kind != "inversive" and any(k < 0 for k in t.exps):
                    raise ValueError(
                        f"negative exponent in term {t}: only kind=inversive permits them"
                    )
                if isinstance(c, RationalFunction) and c.parameter != self.parameter:
                    raise CoefficientError(
                        f"coefficient parameter {c.parameter!r} is not declared"
                    )

    @property
    def num_operators(self) -> int:
        return len(self.operators)

    @property
    def num_unknowns(self) -> int:
        return len(self.unknowns)

    def default_order(self) -> TermOrder:
        return TermOrder.default(len(self.operators))
