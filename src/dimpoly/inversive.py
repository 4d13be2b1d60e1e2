"""Translation between Laurent-exponent presentations and their doubled
nonnegative picture.

An inversive system over operators d_1..d_m (exponents in Z^m) becomes an
ordinary difference system over 2m operators a_1..a_m, b_1..b_m, where a_i
stands for d_i and b_i for its inverse: a monomial exponent k splits into
(max(k,0), max(-k,0)).  The kernel of the identification is generated by the
pairing relations a_i b_i e_j - e_j, which must be appended to the embedded
generating set before any Groebner computation.
"""

from __future__ import annotations

from fractions import Fraction

from .freemodule import Element, Presentation, Term, TermOrder

__all__ = [
    "doubled_order",
    "embed_element",
    "embed_presentation",
    "saturation_relations",
    "sigma_operator_names",
]


def sigma_operator_names(operators: tuple[str, ...]) -> tuple[str, ...]:
    """Derived 2m operator names: a<name> for the forward copies, b<name>
    for the inverses, forward block first."""
    return tuple(f"a{op}" for op in operators) + tuple(f"b{op}" for op in operators)


def doubled_order(order: TermOrder, m: int) -> TermOrder:
    """``order`` of m operators carried to the doubled ring: the a block in
    its sequence, then the b block in the same sequence."""
    return TermOrder(order.sequence + tuple(m + i for i in order.sequence))


def _split(exps: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([max(k, 0) for k in exps] + [max(-k, 0) for k in exps])


def embed_element(f: Element, m: int) -> Element:
    """Termwise exponent split Z^m -> N^2m; coefficients unchanged."""
    return Element({Term(t.gen, _split(t.exps)): c for t, c in f.terms.items()})


def saturation_relations(m: int, q: int) -> list[Element]:
    """The relations a_i b_i e_j - e_j for 1 <= i <= m, 1 <= j <= q, new
    objects on every call."""
    zero, one = (0,) * (2 * m), Fraction(1)
    pairing = [tuple(int(k in (i, m + i)) for k in range(2 * m)) for i in range(m)]
    return [Element({Term(j, e): one, Term(j, zero): -one}) for e in pairing for j in range(q)]


def embed_presentation(p: Presentation) -> Presentation:
    """Translate an inversive presentation into the doubled difference ring,
    appending the saturation relations."""
    if p.kind != "inversive":
        raise ValueError(f"cannot embed kind {p.kind!r}; expected inversive")
    m = p.num_operators
    relations = [embed_element(f, m) for f in p.relations if f] + saturation_relations(m, p.num_unknowns)
    return Presentation(
        kind="difference",
        operators=sigma_operator_names(p.operators),
        unknowns=p.unknowns,
        relations=tuple(relations),
        parameter=p.parameter,
    )
