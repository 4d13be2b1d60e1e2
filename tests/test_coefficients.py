import random
import time
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
from dimpoly.coefficients import _add, _divmod, _gcd, _mul, _reduced, _small, _sum, as_coeff

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
            f = Fraction(a[-1]) / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


# -- the polynomial kernel as it was before its shortcuts -----------------------
#
# Division that trims the remainder in every step and always divides by the
# lead, Euclid run down to a zero remainder, and Henrici's sum taking
# gcd(d1, d2) even when d1 == d2.  They serve as oracles for the kernel, and
# reference() normalizes with them, so the operator tests below do not check
# the kernel against itself.  Every division is Fraction division: the kernel
# holds integral coefficients as int, and int / int would give a float.


def _trim_reference(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _divmod_reference(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    dlead = b[-1]
    while len(rem) >= len(b) and _trim_reference(rem):
        rem = list(_trim_reference(rem))
        if len(rem) < len(b):
            break
        shift = len(rem) - len(b)
        factor = Fraction(rem[-1]) / dlead
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem.pop()
    return _trim_reference(quot), _trim_reference(rem)


def _monic_reference(a):
    if not a or a[-1] == 1:
        return a
    lead = a[-1]
    return tuple(Fraction(c) / lead for c in a)


def _gcd_reference(a, b):
    if len(a) == 1 or len(b) == 1:
        return (Fraction(1),)
    while b:
        a, b = b, _divmod_reference(a, b)[1]
    return _monic_reference(a)


def _sum_reference(parameter, n1, d1, n2, d2):
    g = _gcd_reference(d1, d2)
    if len(g) == 1:
        return _reduced(parameter, _add(_mul(n1, d2), _mul(n2, d1)), _mul(d1, d2))
    e1 = _divmod_reference(d1, g)[0]
    t = _add(_mul(n1, _divmod_reference(d2, g)[0]), _mul(n2, e1))
    h = _gcd_reference(t, g)
    if len(h) > 1:
        t, d2 = _divmod_reference(t, h)[0], _divmod_reference(d2, h)[0]
    return _reduced(parameter, t, _mul(e1, d2))


def reference(num, den):
    """Canonical value of num/den, normalized by the reference kernel."""
    num, den = _trim_reference(num), _trim_reference(den)
    g = _gcd_reference(num, den)
    if len(g) > 1:
        num, den = _divmod_reference(num, g)[0], _divmod_reference(den, g)[0]
    lead = den[-1]
    return _reduced("a", tuple(Fraction(c) / lead for c in num), tuple(Fraction(c) / lead for c in den))


def is_canonical(c):
    """The kernel's form of one coefficient: int when integral, else
    Fraction; never a float or an integral Fraction."""
    return type(c) is (int if c.denominator == 1 else Fraction)


def assert_canonical(value, expected):
    if isinstance(expected, Fraction):
        assert type(value) is Fraction and value == expected
        return
    assert type(value) is RationalFunction
    assert (value.parameter, value.num, value.den) == (expected.parameter, expected.num, expected.den)
    assert all(is_canonical(c) for c in value.num + value.den)
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
    # 1/(a^2-1) + a/(a^2-1) = 1/(a-1): equal denominators, and the numerator
    # sum shares the factor a+1 with them
    @example(x=rf((1,), from_roots(1, [1, -1])), y=rf((0, 1), from_roots(1, [1, -1])))
    # Euclid on a^2+1 and a^2+a+1 meets the constant remainder 1 after one
    # step, where the gcd stops
    @example(x=rf((1,), (1, 0, 1)), y=rf((1,), (1, 1, 1)))
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

    # up to k = 9, so that square-and-multiply squares three times
    @given(x=rfs, k=st.integers(0, 9))
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


# -- no float and no integral Fraction in any result ---------------------------

OPERATIONS = {
    "add": lambda x, y, s, k: x + y,
    "sub": lambda x, y, s, k: x - y,
    "mul": lambda x, y, s, k: x * y,
    "div": lambda x, y, s, k: x / y,
    "neg": lambda x, y, s, k: -x,
    "inverse": lambda x, y, s, k: inverse(x),
    "pow": lambda x, y, s, k: x**k,
    "add_scalar": lambda x, y, s, k: x + s,
    "scalar_sub": lambda x, y, s, k: s - x,
    "mul_scalar": lambda x, y, s, k: s * x,
    "div_scalar": lambda x, y, s, k: x / s,
    "scalar_div": lambda x, y, s, k: s / x,
}


class TestCanonicalForm:
    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    @given(x=rfs, y=operands, s=scalars, k=st.integers(0, 5))
    # 2*(a/2 + 1/2) = a + 1: every product of the scaling is integral
    @example(x=rf((Fraction(1, 2), Fraction(1, 2))), y=rf((0, 1)), s=2, k=2)
    # (a/2 + 1/2) + (a/2 - 1/2) = a: every sum is integral
    @example(x=rf((Fraction(1, 2), Fraction(1, 2))), y=rf((Fraction(-1, 2), Fraction(1, 2))), s=Fraction(1, 2), k=0)
    def test_every_result_holds_int_or_non_integral_fraction(self, name, x, y, s, k):
        try:
            value = OPERATIONS[name](x, y, s, k)
        except ZeroDivisionError:
            return
        if isinstance(value, RationalFunction):
            assert not value.is_constant()
            assert all(is_canonical(c) for c in value.num + value.den)
        else:
            assert type(value) is Fraction

    # scalars mix ints, integral Fractions such as 4/2, and other Fractions
    @given(num=st.lists(scalars, max_size=4), den=st.lists(scalars, min_size=1, max_size=4).filter(any))
    @example(num=[Fraction(4, 2), Fraction(1, 2)], den=[Fraction(2), 4])
    def test_public_constructor(self, num, den):
        value = rf(tuple(num), tuple(den))
        assert all(is_canonical(c) for c in value.num + value.den)
        assert value.den[-1] == 1
        if value.is_constant():
            assert type(value.constant_value()) is Fraction


# -- the kernel against the reference kernel ------------------------------------

def kernel_form(coeffs):
    """A coefficient list in the kernel's canonical form."""
    return _trim_reference(map(_small, coeffs))


polys = st.lists(small, max_size=5).map(kernel_form)
# c * prod(a - r) over few roots, so that gcds are often nontrivial
factored = st.builds(from_roots, small.filter(bool), roots).map(kernel_form)
nonzero_polys = st.one_of(polys, factored).filter(bool)
# mostly zero coefficients, zeros inside as well as at the low end
sparse_polys = st.lists(st.one_of(st.just(Fraction(0)), small), max_size=9).map(kernel_form)


@st.composite
def division_inputs(draw):
    """(a, b): b nonzero, monic or not; a arbitrary, an exact multiple of b,
    or a multiple plus a nonzero constant."""
    b = draw(nonzero_polys)
    if draw(st.booleans()):
        b = kernel_form(_monic_reference(b))
    kind = draw(st.sampled_from(["any", "exact", "constant"]))
    if kind == "any":
        return draw(st.one_of(polys, factored)), b
    tail = () if kind == "exact" else (_small(draw(small.filter(bool))),)
    return _add(_mul(draw(polys), b), tail), b


class TestKernel:
    @given(inputs=division_inputs())
    @example(inputs=((1, 2, 3), (1, 2)))
    @example(inputs=(_mul(kernel_form(from_roots(3, [1, 2])), (0, 2)), (0, 2)))
    @example(inputs=((5,), (1, 1)))
    # a non-integral lead: quotient and remainder mix int and Fraction
    @example(inputs=((1, 0, 3), (Fraction(1, 2), Fraction(3, 2))))
    # a monic divisor whose halves leave an integral Fraction in the running
    # remainder, which then becomes a quotient coefficient
    @example(inputs=((0, Fraction(3, 2), 1), (Fraction(1, 2), 1)))
    def test_divmod_matches_the_reference(self, inputs):
        a, b = inputs
        q, r = _divmod(a, b)
        assert (q, r) == _divmod_reference(a, b)
        assert _add(_mul(q, b), r) == a
        assert len(r) < len(b)
        assert all(is_canonical(c) for c in q + r)

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _divmod((1,), ())

    @given(a=st.one_of(polys, factored), b=st.one_of(polys, factored), common=roots)
    # Euclid on a^2+1 and a^2+a+1 stops at the constant remainder 1
    @example(a=(1, 0, 1), b=(1, 1, 1), common=[])
    @example(a=(), b=(2, 4), common=[])
    @example(a=(), b=(), common=[])
    def test_gcd_matches_the_reference(self, a, b, common):
        shared_factor = kernel_form(from_roots(1, common))
        a, b = _mul(a, shared_factor), _mul(b, shared_factor)
        g = _gcd(a, b)
        assert g == _gcd_reference(a, b)
        if g:
            assert g[-1] == 1
            assert _divmod_reference(a, g)[1] == () and _divmod_reference(b, g)[1] == ()

    @given(x=rfs, y=rfs)
    @example(x=rf((1,), from_roots(1, [0, 1])), y=rf((1,), from_roots(1, [0, -1])))
    def test_sum_matches_the_reference(self, x, y):
        assume(isinstance(x, RationalFunction) and isinstance(y, RationalFunction))
        args = ("a", x.num, x.den, y.num, y.den)
        assert_canonical(_sum(*args), _sum_reference(*args))

    @given(x=rfs, s=scalars, k=scalars)
    # 1/(a^2-1) + ((a^2-2)/(a^2-1)) = 1: the numerator sum is the common
    # denominator itself
    @example(x=rf((1,), from_roots(1, [1, -1])), s=-1, k=1)
    # x + (-x) = 0
    @example(x=rf((1,), from_roots(1, [1, -1])), s=-1, k=0)
    def test_sum_with_equal_denominators(self, x, s, k):
        """x and s*x + k share their denominator, so the sum takes the
        equal-denominator path."""
        y = x * s + k
        assume(isinstance(x, RationalFunction) and isinstance(y, RationalFunction))
        assert x.den == y.den
        args = ("a", x.num, x.den, y.num, y.den)
        assert_canonical(_sum(*args), _sum_reference(*args))

    @given(a=sparse_polys, b=sparse_polys)
    @example(a=(0, 0, 1), b=(2, 0, 0, 3))
    # halves whose products and sums are integral
    @example(a=(Fraction(1, 2), Fraction(1, 2)), b=(2, Fraction(-1, 2)))
    def test_mul_of_sparse_factors_is_the_dense_product(self, a, b):
        for x, y in ((a, b), (b, a)):
            product = _mul(x, y)
            assert product == _trim_reference(pmul(list(x), list(y)))
            assert all(is_canonical(c) for c in product)

    def test_sparse_power(self):
        # square-and-multiply on a^k multiplies factors with one nonzero
        # coefficient each; 1,601-coefficient dense products took seconds
        start = time.perf_counter()
        power = A**1600
        assert power == RationalFunction("a", (0,) * 1600 + (1,))
        assert time.perf_counter() - start < 1
