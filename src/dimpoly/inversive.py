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

from .freemodule import Element, Presentation, Term

__all__ = [
    "embed_element",
    "embed_presentation",
    "project_element",
    "saturation_relations",
    "sigma_operator_names",
]


def sigma_operator_names(operators: tuple[str, ...]) -> tuple[str, ...]:
    """Derived 2m operator names: a<name> for the forward copies, b<name>
    for the inverses, forward block first."""
    return tuple(f"a{op}" for op in operators) + tuple(f"b{op}" for op in operators)


def _split(exps: tuple[int, ...]) -> tuple[int, ...]:
    pos = tuple(max(k, 0) for k in exps)
    neg = tuple(max(-k, 0) for k in exps)
    return pos + neg


def embed_element(f: Element, m: int) -> Element:
    """Termwise exponent split Z^m -> N^2m; coefficients unchanged."""
    return Element({Term(t.gen, _split(t.exps)): c for t, c in f.terms.items()})


def project_element(f: Element, m: int) -> Element:
    """Inverse translation N^2m -> Z^m; colliding terms have coefficients
    summed, so the pairing relations project to zero."""
    return Element.from_pairs(
        (c, tuple(t.exps[i] - t.exps[m + i] for i in range(m)), t.gen) for t, c in f.terms.items()
    )


def saturation_relations(m: int, q: int) -> list[Element]:
    """The relations a_i b_i e_j - e_j for 1 <= i <= m, 1 <= j <= q."""
    out = []
    for i in range(m):
        exps = [0] * (2 * m)
        exps[i] = 1
        exps[m + i] = 1
        exps = tuple(exps)
        zero = (0,) * (2 * m)
        for j in range(q):
            out.append(Element({Term(j, exps): Fraction(1), Term(j, zero): Fraction(-1)}))
    return out


def embed_presentation(p: Presentation) -> Presentation:
    """Translate an inversive presentation into the doubled difference ring,
    appending the saturation relations."""
    if p.kind != "inversive":
        raise ValueError(f"cannot embed kind {p.kind!r}; expected inversive")
    m, q = p.num_operators, p.num_unknowns
    relations = [embed_element(f, m) for f in p.relations if f]
    relations += saturation_relations(m, q)
    return Presentation(
        kind="difference",
        operators=sigma_operator_names(p.operators),
        unknowns=p.unknowns,
        relations=tuple(relations),
        parameter=p.parameter,
    )
