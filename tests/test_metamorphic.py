"""Metamorphic invariance: the dimension polynomial is an invariant of the
module, so it must not change when the operators or unknowns are relabelled,
the relations reordered, scaled or combined, or a redundant relation is
appended.  The counting oracle cannot see a wrong basis, since it counts the
basis's own staircase; a wrong basis shows here as a polynomial that moves
with the term order or the presentation.

Two relations hold between the finite difference rules.  ``backward`` maps
x to 1 - s^-1, which is ``forward``'s image of -x, s - 1, with s replaced by
s^-1; that swap is an automorphism of the inversive ring that keeps every
order, so ``backward`` on x gives the polynomial of the system with each odd
power of x negated under ``forward``.  ``central2`` differs from
``central`` only on the square, so the two agree on an operator that occurs
only to the first power."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimpoly import Element, Presentation, Term, apply_monomial, compute_strength, rule_spec
from dimpoly.freemodule import KINDS
from dimpoly.schemes import RULES

COEFFS = tuple(map(Fraction, (1, -1, 2, -3, Fraction(1, 2))))


@st.composite
def systems(draw):
    """A small system (at most 3 operators, 2 unknowns and 3 relations,
    exponents in -1..2 with -1 only for kind inversive), an exponent vector
    theta of the same ring, and a permutation of its operators and of its
    unknowns."""
    kind = draw(st.sampled_from(KINDS))
    m, q = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(-1 if kind == "inversive" else 0, 2)] * m)
    term = st.builds(Term, st.integers(0, q - 1), exps)
    relation = st.dictionaries(term, st.sampled_from(COEFFS), min_size=1, max_size=3).map(Element)
    p = Presentation(
        kind=kind,
        operators=("x", "y", "z")[:m],
        unknowns=("u", "v")[:q],
        relations=tuple(draw(st.lists(relation, min_size=1, max_size=3))),
    )
    return p, draw(exps), draw(st.permutations(range(m))), draw(st.permutations(range(q)))


def _relabel(p, relations, operators=None, unknowns=None):
    return Presentation(
        kind=p.kind,
        operators=operators or p.operators,
        unknowns=unknowns or p.unknowns,
        relations=tuple(relations),
    )


def permute_operators(p, theta, perm, _):
    relations = [
        Element({Term(t.gen, tuple(t.exps[i] for i in perm)): c for t, c in f.terms.items()})
        for f in p.relations
    ]
    return _relabel(p, relations, operators=tuple(p.operators[i] for i in perm))


def permute_unknowns(p, theta, _, perm):
    position = {j: k for k, j in enumerate(perm)}
    relations = [
        Element({Term(position[t.gen], t.exps): c for t, c in f.terms.items()}) for f in p.relations
    ]
    return _relabel(p, relations, unknowns=tuple(p.unknowns[j] for j in perm))


def reverse_relations(p, *_):
    return _relabel(p, reversed(p.relations))


def scale_relations(p, *_):
    return _relabel(p, [f.scaled(Fraction(-3, 2)) for f in p.relations])


def add_shifted_multiple(p, theta, *_):
    """rel_0 + 2 * x^theta * rel_1; unchanged with one relation."""
    if len(p.relations) < 2:
        return p
    first, second, *rest = p.relations
    return _relabel(p, [first + apply_monomial(theta, second).scaled(2), second, *rest])


def append_redundant(p, theta, *_):
    """Append x^theta * rel_0 - rel_last, which the relations generate."""
    return _relabel(p, [*p.relations, apply_monomial(theta, p.relations[0]) - p.relations[-1]])


def _polynomial(p):
    return compute_strength(p).dim.polynomial


@pytest.mark.parametrize(
    "transform",
    [
        permute_operators,
        permute_unknowns,
        reverse_relations,
        scale_relations,
        add_shifted_multiple,
        append_redundant,
    ],
)
@settings(max_examples=60)
@given(case=systems())
def test_polynomial_is_invariant(transform, case):
    p, theta, operator_perm, unknown_perm = case
    assert _polynomial(transform(p, theta, operator_perm, unknown_perm)) == _polynomial(p)


@st.composite
def schemes(draw):
    """A small differential system (at most 3 operators, 2 unknowns and 2
    relations of at most 3 terms, exponents in 0..2, at most 2 operators
    with 2 unknowns), one rule per operator, and the index of one operator."""
    m, q = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    m = min(m, 4 - q)
    term = st.builds(Term, st.integers(0, q - 1), st.tuples(*[st.integers(0, 2)] * m))
    relation = st.dictionaries(term, st.sampled_from(COEFFS), min_size=1, max_size=3).map(Element)
    p = Presentation(
        kind="differential",
        operators=("x", "y", "z")[:m],
        unknowns=("u", "v")[:q],
        relations=tuple(draw(st.lists(relation, min_size=1, max_size=2))),
    )
    rules = draw(st.lists(st.sampled_from(sorted(RULES)), min_size=m, max_size=m))
    return p, rules, draw(st.integers(0, m - 1))


def _discretized(p, rules):
    return compute_strength(p, scheme=rule_spec(dict(zip(p.operators, rules)), p.operators)).dim.polynomial


def _with_rule(rules, i, rule):
    return [rule if k == i else r for k, r in enumerate(rules)]


@settings(max_examples=60)
@given(case=schemes())
def test_backward_is_forward_of_the_reflected_operator(case):
    p, rules, i = case
    reflected = [
        Element({t: -c if t.exps[i] % 2 else c for t, c in f.terms.items()}) for f in p.relations
    ]
    assert _discretized(p, _with_rule(rules, i, "backward")) == _discretized(
        _relabel(p, reflected), _with_rule(rules, i, "forward")
    )


@settings(max_examples=60)
@given(case=schemes())
def test_central2_is_central_on_a_first_power(case):
    p, rules, i = case
    relations = [
        Element.from_pairs(
            (c, t.exps[:i] + (min(t.exps[i], 1),) + t.exps[i + 1 :], t.gen) for t, c in f.terms.items()
        )
        for f in p.relations
    ]
    first = _relabel(p, relations)
    assert _discretized(first, _with_rule(rules, i, "central2")) == _discretized(
        first, _with_rule(rules, i, "central")
    )
