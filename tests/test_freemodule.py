import random
from fractions import Fraction

import pytest

import dimpoly.pipeline
from dimpoly import (
    CoefficientError,
    Element,
    Presentation,
    Term,
    TermOrder,
    apply_monomial,
    divides,
    compute_strength,
    parameter_symbol,
    quotient,
    term_order,
)

from conftest import A, G1, el0

DIFF_ORDER = TermOrder((0, 1))  # (degree, generator, k_x, k_t)
SIGMA = TermOrder((0, 1, 2, 3))


class TestTermBasics:
    def test_order_of_term(self):
        assert term_order(Term(0, (2, 1))) == 3
        assert term_order(Term(0, (0, 0))) == 0
        assert term_order(Term(0, (1, 0, 1, 0))) == 2

    def test_order_counts_absolute_values(self):
        assert term_order(Term(0, (-1, 2))) == 3

    def test_compare_heat_leading_term(self):
        # makes the second space derivative the leading term of the heat relation
        assert DIFF_ORDER.compare(Term(0, (0, 1)), Term(0, (2, 0))) == -1

    def test_compare_sigma_terms(self):
        assert SIGMA.compare(Term(0, (1, 0, 0, 1)), Term(0, (0, 0, 1, 1))) == 1

    def test_compare_equal(self):
        t = Term(0, (1, 2))
        assert DIFF_ORDER.compare(t, t) == 0

    def test_divides_and_quotient(self):
        assert divides(Term(0, (2, 0)), Term(0, (3, 1)))
        assert quotient(Term(0, (3, 1)), Term(0, (2, 0))) == (1, 1)
        assert not divides(Term(0, (2, 0)), Term(1, (5, 0)))
        assert divides(Term(0, (1, 0, 1, 0)), Term(0, (1, 0, 2, 1)))
        assert quotient(Term(0, (1, 0, 2, 1)), Term(0, (1, 0, 1, 0))) == (0, 0, 1, 1)
        with pytest.raises(ValueError):
            quotient(Term(0, (1, 0)), Term(0, (2, 0)))


class TestLeadingTerm:
    def test_heat_relation(self):
        f = el0((1, (0, 1)), (-A, (2, 0)))
        assert f.leading_term(DIFF_ORDER) == (Term(0, (2, 0)), -A)

    def test_forward_scheme_generator(self):
        assert G1.leading_term(SIGMA) == (Term(0, (2, 0, 0, 0)), -A)

    def test_constant(self):
        f = el0((5, (0, 0)))
        assert f.leading_term(DIFF_ORDER) == (Term(0, (0, 0)), 5)

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            Element().leading_term(DIFF_ORDER)


class TestAction:
    def test_shift_heat_relation(self):
        f = el0((1, (0, 1)), (-A, (2, 0)))
        assert apply_monomial((1, 0), f) == el0((1, (1, 1)), (-A, (3, 0)))

    def test_identity(self):
        f = el0((1, (0, 1)), (-A, (2, 0)))
        assert apply_monomial((0, 0), f) == f

    def test_order_additivity(self):
        rng = random.Random(3)
        for _ in range(50):
            t = Term(0, tuple(rng.randint(0, 4) for _ in range(3)))
            lam = tuple(rng.randint(0, 4) for _ in range(3))
            shifted = apply_monomial(lam, Element({t: Fraction(1)}))
            (s,) = shifted.terms
            assert term_order(s) == term_order(t) + sum(lam)


class TestElementArithmetic:
    def test_cancellation(self):
        f = el0((1, (0, 1)), (-A, (2, 0)))
        assert not (f + f.scaled(-1))

    def test_assembly(self):
        assert el0((1, (0, 1))) + el0((-A, (2, 0))) == el0((1, (0, 1)), (-A, (2, 0)))

    def test_monic_scaling(self):
        f = el0((1, (0, 1)), (-A, (2, 0)))
        _, lc = f.leading_term(DIFF_ORDER)
        monic = f.scaled(1 / lc)
        assert monic.leading_term(DIFF_ORDER)[1] == 1

    def test_vector_space_axioms(self):
        rng = random.Random(11)

        def rand_elem():
            return Element.from_pairs(
                [
                    (Fraction(rng.randint(-5, 5)), (rng.randint(0, 3), rng.randint(0, 3)), rng.randint(0, 1))
                    for _ in range(rng.randint(0, 4))
                ]
            )

        for _ in range(60):
            f, g, h = rand_elem(), rand_elem(), rand_elem()
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            d = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert f + Element() == f
            assert (f + g).scaled(c) == f.scaled(c) + g.scaled(c)
            assert f.scaled(c + d) == f.scaled(c) + f.scaled(d)
            assert f.scaled(c).scaled(d) == f.scaled(c * d)


def random_term(rng, n=3, gens=2, hi=4):
    return Term(rng.randint(0, gens - 1), tuple(rng.randint(0, hi) for _ in range(n)))


class TestAdmissibleOrderAxioms:
    def test_unit_is_minimal(self):
        rng = random.Random(5)
        order = TermOrder((2, 0, 1))
        for _ in range(100):
            t = random_term(rng)
            if any(t.exps):
                assert order.compare(Term(t.gen, (0, 0, 0)), t) == -1

    def test_action_preserves_comparison(self):
        rng = random.Random(6)
        order = TermOrder((2, 0, 1))
        for _ in range(200):
            s, t = random_term(rng), random_term(rng)
            lam = tuple(rng.randint(0, 3) for _ in range(3))
            shifted = lambda u: Term(u.gen, tuple(a + b for a, b in zip(u.exps, lam)))
            assert order.compare(s, t) == order.compare(shifted(s), shifted(t))

    def test_total_order(self):
        rng = random.Random(7)
        order = TermOrder((0, 1, 2))
        for _ in range(200):
            s, t, u = (random_term(rng) for _ in range(3))
            cmp_st, cmp_ts = order.compare(s, t), order.compare(t, s)
            assert cmp_st == -cmp_ts
            assert (cmp_st == 0) == (s == t)
            if order.compare(s, t) <= 0 and order.compare(t, u) <= 0:
                assert order.compare(s, u) <= 0

    def test_leading_term_compatible_with_action(self):
        rng = random.Random(8)
        order = TermOrder((0, 1, 2))
        for _ in range(100):
            f = Element.from_pairs(
                [
                    (Fraction(rng.randint(1, 5)), tuple(rng.randint(0, 3) for _ in range(3)), 0)
                    for _ in range(rng.randint(1, 4))
                ]
            )
            lam = tuple(rng.randint(0, 3) for _ in range(3))
            t, c = f.leading_term(order)
            ts, cs = apply_monomial(lam, f).leading_term(order)
            assert cs == c
            assert ts == Term(t.gen, tuple(a + b for a, b in zip(t.exps, lam)))


class TestShared:
    """Equal elements of a report are one object; the pooling is
    compute_strength's, the element code itself keeps no state."""

    def test_known_element_is_returned(self, monkeypatch):
        monkeypatch.setattr(dimpoly.pipeline, "_pool", {})
        f = el0((1, (1, 0)), (-1, (0, 0)))
        copy = el0((1, (1, 0)), (-1, (0, 0)))
        other = el0((2, (0, 1)))
        system = lambda *rels: Presentation(kind="difference", operators=("x", "t"), unknowns=("u",), relations=rels)
        monic_other = el0((1, (0, 1)))
        doc = compute_strength(system(f, other))
        # the basis holds an entry equal to f and the monic t*u
        assert set(doc.basis) == {f, monic_other}
        assert not any(g is other for g in doc.basis)
        # an equal later report shares the first one's basis
        again = compute_strength(system(copy, other))
        assert again.presentation.relations[0] is copy and again.basis is doc.basis


class TestPresentation:
    def test_negative_exponents_need_inversive(self):
        bad = Element({Term(0, (-1, 0)): Fraction(1)})
        with pytest.raises(ValueError):
            Presentation(kind="differential", operators=("x", "t"), unknowns=("u",), relations=(bad,))
        Presentation(kind="inversive", operators=("x", "t"), unknowns=("u",), relations=(bad,))

    def test_generator_bounds(self):
        bad = Element({Term(3, (0, 0)): Fraction(1)})
        with pytest.raises(ValueError):
            Presentation(kind="difference", operators=("x", "t"), unknowns=("u",), relations=(bad,))

    def test_undeclared_parameter(self):
        rel = el0((parameter_symbol("b"), (1, 0)))
        with pytest.raises(CoefficientError):
            Presentation(
                kind="differential",
                operators=("x", "t"),
                unknowns=("u",),
                relations=(rel,),
                parameter="a",
            )

    def test_name_collision(self):
        with pytest.raises(ValueError):
            Presentation(kind="differential", operators=("x", "u"), unknowns=("u",), relations=())
