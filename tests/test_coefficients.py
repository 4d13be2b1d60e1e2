import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dimpoly import (
    CoefficientError,
    PoleError,
    RationalFunction,
    coeff_str,
    evaluate,
    inverse,
    parameter_symbol,
)
from dimpoly.coefficients import as_coeff

A = parameter_symbol("a")


def rf(num, den=(1,)):
    return RationalFunction("a", num, den)


class TestArithmetic:
    def test_add_common_denominator(self):
        assert 1 / A + 1 == rf((1, 1), (0, 1))  # (a+1)/a

    def test_add_inverse_collapses_to_zero(self):
        assert 2 * A + (-2 * A) == 0
        assert isinstance(2 * A + (-2 * A), Fraction)

    def test_add_doubling_matches_published_coefficient(self):
        x = 1 + 1 / A
        assert x + x == rf((2, 2), (0, 1))  # (2a+2)/a
        assert coeff_str(x + x) == "(2*a+2)/a"

    def test_mul_inverse(self):
        assert (1 / A) * A == 1
        assert (-A) * (-1 / A) == 1
        assert rf((1, 1), (0, 1)) * rf((0, 1), (1, 1)) == 1

    def test_inverse(self):
        assert inverse(A) == 1 / A
        assert inverse(-(1 + A)) == rf((-1,), (1, 1))
        assert inverse(Fraction(1, 2)) == 2

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            inverse(Fraction(0))
        with pytest.raises(ZeroDivisionError):
            A / (A - A)

    def test_eval(self):
        assert evaluate((A + 1) / A, 2) == Fraction(3, 2)
        assert evaluate(Fraction(5), 7) == 5
        with pytest.raises(PoleError):
            evaluate(1 / A, 0)

    def test_parameter_mismatch(self):
        b = parameter_symbol("b")
        with pytest.raises(CoefficientError):
            A + b

    def test_power(self):
        assert A**0 == 1
        assert A**3 == A * A * A
        with pytest.raises(CoefficientError):
            A ** (-1)

    def test_constant_rational_function_equals_fraction(self):
        assert rf((5,)) == Fraction(5)
        assert rf((0,)) == 0


def random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_rf(rng):
    num = [random_rational(rng) for _ in range(rng.randint(1, 3))]
    den = [random_rational(rng) for _ in range(rng.randint(1, 3))]
    if not any(den):
        den[-1] = Fraction(1)
    if not any(num):
        num = [Fraction(1)]
    return rf(tuple(num), tuple(den))


def random_coeff(rng):
    return random_rf(rng) if rng.random() < 0.6 else random_rational(rng)


class TestFieldAxioms:
    def test_axioms_on_random_values(self):
        rng = random.Random(20120201)
        for _ in range(150):
            x, y, z = (random_coeff(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            if x != 0:
                assert x * inverse(x) == 1

    def test_normalization_canonicity(self):
        # two arithmetic routes, one stored representation
        left = (1 + 1 / A) + (1 + 1 / A)
        right = (2 * A + 2) / A
        assert left.num == right.num and left.den == right.den
        third = 2 * (A + 1) / A
        assert left.num == third.num and left.den == third.den

    def test_evaluation_homomorphism(self):
        rng = random.Random(7)
        for _ in range(100):
            x, y = random_coeff(rng), random_coeff(rng)
            v = Fraction(rng.randint(1, 30))  # positive: avoids most poles
            try:
                ex, ey = evaluate(x, v), evaluate(y, v)
                assert evaluate(x + y, v) == ex + ey
                assert evaluate(x * y, v) == ex * ey
            except PoleError:
                continue


class TestRendering:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(-7, 2), "-7/2"),
            (Fraction(5), "5"),
            ((2 * A + 2) / A, "(2*a+2)/a"),
            (1 / A, "1/a"),
            (A, "a"),
            (-A, "-a"),
            (2 * A - 1, "2*a-1"),
            (inverse(-(1 + A)), "-1/(a+1)"),
            (Fraction(1, 2) / A, "(1/2)/a"),
        ],
    )
    def test_coeff_str(self, value, text):
        assert coeff_str(value) == text


# -- canonical form of every operator result -------------------------------
#
# Each result must equal, tuple for tuple, the public constructor applied to
# the unreduced cross-multiplied pair: the fast paths may skip gcds only where
# the reduced form is already known.

small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
scalars = st.one_of(st.integers(-3, 3), small)
# few roots, so that operands often share factors and the Henrici gcds are
# nontrivial
roots = st.lists(st.integers(-1, 2), max_size=3)


def from_roots(c, rs):
    """c * prod(a - r) as an ascending coefficient list."""
    poly = [Fraction(c)]
    for r in rs:
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1]
    return tuple(poly)


rfs = st.one_of(
    st.builds(
        rf,
        st.lists(small, max_size=4).map(tuple),
        st.lists(small, min_size=1, max_size=4).filter(any).map(tuple),
    ),
    st.builds(lambda c, nr, dr: rf(from_roots(c, nr), from_roots(1, dr)), small, roots, roots),
    st.builds(lambda c: rf((c,)), small),  # constant-valued, built directly
)
operands = st.one_of(rfs, scalars)


def raw(x):
    """Unreduced (num, den) lists of a coefficient."""
    if isinstance(x, RationalFunction):
        return list(x.num), list(x.den)
    return [Fraction(x)], [Fraction(1)]


def pmul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def padd(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return [x + sign * y for x, y in zip(a, b)]


def pgcd_degree(a, b):
    """Degree of gcd(a, b) by plain Euclid on trimmed lists."""
    a, b = list(a), list(b)
    while b:
        while a and len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def reference(num, den):
    expected = rf(num, den)
    return expected.constant_value() if expected.is_constant() else expected


def assert_canonical(value, expected):
    if isinstance(expected, Fraction):
        assert type(value) is Fraction and value == expected
        return
    assert type(value) is RationalFunction
    assert (value.parameter, value.num, value.den) == (expected.parameter, expected.num, expected.den)
    assert all(type(c) is Fraction for c in value.num + value.den)
    assert value.den[-1] == 1
    assert not value.num or value.num[-1] != 0
    assert pgcd_degree(value.num, value.den) == 0
    assert not value.is_constant()


BINARY = {
    "add": (lambda x, y: x + y, lambda n1, d1, n2, d2: (padd(pmul(n1, d2), pmul(n2, d1)), pmul(d1, d2))),
    "sub": (lambda x, y: x - y, lambda n1, d1, n2, d2: (padd(pmul(n1, d2), pmul(n2, d1), -1), pmul(d1, d2))),
    "mul": (lambda x, y: x * y, lambda n1, d1, n2, d2: (pmul(n1, n2), pmul(d1, d2))),
    "div": (lambda x, y: x / y, lambda n1, d1, n2, d2: (pmul(n1, d2), pmul(d1, n2))),
}


class TestCanonicalResults:
    @pytest.mark.parametrize("name", sorted(BINARY))
    @given(x=operands, y=operands)
    # 1/(a(a-1)) + 1/(a(a+1)) = 2/(a^2-1): the sum's numerator shares the
    # factor a with gcd(d1, d2), which Henrici's second gcd must cancel
    @example(x=rf((1,), from_roots(1, [0, 1])), y=rf((1,), from_roots(1, [0, -1])))
    def test_binary(self, name, x, y):
        assume(isinstance(x, RationalFunction) or isinstance(y, RationalFunction))
        op, cross = BINARY[name]
        num, den = cross(*raw(x), *raw(y))
        if not any(den):
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            return
        assert_canonical(op(x, y), reference(num, den))

    @given(x=rfs)
    def test_negation(self, x):
        n, d = raw(x)
        assert_canonical(-x, reference([-c for c in n], d))

    @given(x=rfs)
    def test_inverse(self, x):
        n, d = raw(x)
        if not x:
            with pytest.raises(ZeroDivisionError):
                inverse(x)
            return
        assert_canonical(inverse(x), reference(d, n))

    @given(x=rfs, k=st.integers(0, 3))
    def test_power(self, x, k):
        n, d = raw(x)
        num, den = [Fraction(1)], [Fraction(1)]
        for _ in range(k):
            num, den = pmul(num, n), pmul(den, d)
        assert_canonical(x**k, reference(num, den))


class TestEdgeCases:
    ZERO = rf(())

    @pytest.mark.parametrize(
        "op",
        [inverse, lambda z: 1 / z, lambda z: A / z, lambda z: Fraction(2) / z, lambda z: A / 0],
        ids=["inverse", "one_over", "rf_over", "fraction_over", "over_int_zero"],
    )
    def test_division_by_zero_rf(self, op):
        with pytest.raises(ZeroDivisionError):
            op(self.ZERO)

    def test_as_coeff_returns_a_coefficient_as_is(self):
        f, x = Fraction(3, 7), (A + 1) / (A - 2)
        assert as_coeff(f) is f and as_coeff(x) is x
        assert type(as_coeff(2)) is Fraction and as_coeff(2) == 2

    def test_cancellation_returns_fraction(self):
        x = (A + 1) / (A - 2)
        for value in (x - x, x * 0, 0 * x, x + (-x), x * Fraction(0)):
            assert type(value) is Fraction and value == 0

    @pytest.mark.parametrize(
        "op",
        [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x, y: x / y],
        ids=["add", "sub", "mul", "div"],
    )
    @pytest.mark.parametrize(
        "other", [parameter_symbol("b"), 1 / parameter_symbol("b"), RationalFunction("b", (3,))], ids=str
    )
    def test_parameter_mismatch_on_every_path(self, op, other):
        for x in (A, 1 / A, (A + 1) / (A - 2), rf((5,)), self.ZERO):
            with pytest.raises(CoefficientError):
                op(x, other)
