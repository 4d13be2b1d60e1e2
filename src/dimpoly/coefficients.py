"""Exact coefficient arithmetic: rationals and univariate rational functions.

A coefficient is either a ``fractions.Fraction`` or a :class:`RationalFunction`
(a quotient of univariate polynomials over Q in one named symbolic
parameter).  A RationalFunction is kept in one canonical form: ``num`` and
``den`` are tuples of rationals without trailing zeros, ``den`` is monic and
gcd(num, den) = 1.  Inside those tuples an integral coefficient is the
``int`` it equals and only a non-integral one is a Fraction (:func:`_small`,
the rule the reducer rows of :mod:`dimpoly.groebner` and ``PolyQ`` of
:mod:`dimpoly.dimension` follow too; :func:`_canonical` builds such a tuple
from any rationals), because int arithmetic is several times cheaper than
Fraction arithmetic and most coefficients over Q(a) are integers.  An int
and a Fraction of one value compare and hash alike, so equality and hashes
do not depend on the form.  Every division is exact: a coefficient is made
a Fraction before it is divided (:func:`_quo`), never divided as int / int.
Results are normalized only where a Fraction can enter: sums and products
that may involve one, divisions, and the public constructor.  Results that
turn out constant collapse back to Fraction, so Fraction is the canonical
form of every constant value, and ``constant_value``, ``evaluate`` and
``coeff_str`` return or render Fractions.

Reduction costs a polynomial gcd, so arithmetic takes one only where the
operands can share a factor.  With x = n/d canonical and c a nonzero scalar
(``int`` or ``Fraction``), each operation builds its canonical result
directly:

* ``x + c``, ``x - c``, ``c - x``: (±n + c*d)/d; gcd(±n + c*d, d) =
  gcd(n, d) = 1 and d is unchanged, so no gcd runs;
* ``-x``, ``c * x``, ``x / c``: (u*n)/d for a nonzero rational u; a unit
  factor changes no gcd, so no gcd runs;
* ``inverse(x)``, ``1 / x``, ``c / x``: d/n, divided by the leading
  coefficient of n to make it monic; gcd(d, n) = 1, no gcd runs;
* ``x ** k``: n^k/d^k by square-and-multiply; coprime bases give coprime
  powers, no gcd runs;
* ``x * y`` (Henrici's product): only n1 with d2, and n2 with d1, can share
  factors, so gcd(n1, d2) and gcd(n2, d1) are cancelled first and the
  product of the cofactors is reduced and monic; the full gcd of the product
  is skipped;
* ``x + y`` (Henrici's sum): with g = gcd(d1, d2), the sum is
  t/((d1/g)*d2) where t = n1*(d2/g) + n2*(d1/g); a common factor of t and
  the denominator can only divide g, so h = gcd(t, g) is cancelled from t and
  d2 and the full gcd is skipped; when g = 1 the cross-multiplied pair is
  already reduced.  When d1 == d2, g is d1 itself, so its Euclid is skipped:
  t = n1 + n2 and only h = gcd(t, d1) is cancelled, leaving a monic d1/h.
  Subtraction is addition of the negation, division is multiplication by
  the inverse;
* the public constructor ``RationalFunction(parameter, num, den)``
  normalizes any pair with one gcd, skipped when either side is a nonzero
  constant, because that gcd is 1.

The gcd helper itself returns 1 without dividing when either argument is a
nonzero constant, which covers the Henrici gcds with a constant side, and
stops Euclid at the first nonzero constant remainder: the gcd is then 1, and
the one more division and the scaling to monic form that would find it are
skipped.  Polynomial division runs top-down once and trims only at the
end; it divides by the divisor's lead only when that lead is not 1, which
skips every division by a canonical denominator, since those are monic.
None of this changes a result: the canonical form is the same exact value.
Henrici's formulas are in P. Henrici, JACM 3 (1956), and in Knuth, TAOCP
Vol. 2, section 4.5.1; division and Euclid are in section 4.6.1.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "Coeff",
    "CoefficientError",
    "PoleError",
    "RationalFunction",
    "as_coeff",
    "coeff_str",
    "evaluate",
    "inverse",
    "parameter_symbol",
    "signed_sum",
]


class CoefficientError(ValueError):
    """Ill-formed coefficient arithmetic (e.g. mismatched parameter names)."""


class PoleError(ZeroDivisionError):
    """Evaluation point annihilates a denominator."""


# Dense univariate polynomial over Q: tuple of coefficients, ascending
# powers, no trailing zeros, an integral coefficient as int and any other as
# Fraction (see _small).  The zero polynomial is the empty tuple.
_Poly = tuple
_ONE: _Poly = (1,)


def _small(c):
    """An integral ``Fraction`` as the ``int`` it equals; any other value,
    a RationalFunction included, as it is."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _quo(x, y):
    """The exact quotient x / y of rationals, as :func:`_small` holds it."""
    return _small(Fraction(x) / y)


def _trim(coeffs) -> _Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _canonical(coeffs: Iterable) -> _Poly:
    """Any rational coefficients (ints, Fractions, or strings such as
    ``"1/2"``), ascending, as the kernel's canonical tuple."""
    return _trim(_small(Fraction(c)) for c in coeffs)


def _add(a: _Poly, b: _Poly) -> _Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = _small(out[i] + c)
    return _trim(out)


def _neg(a: _Poly) -> _Poly:
    return tuple(-c for c in a)


def _mul(a: _Poly, b: _Poly) -> _Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:  # a sparse factor such as a^k costs only its nonzero terms
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(map(_small, out))


def _divmod(a: _Poly, b: _Poly) -> tuple[_Poly, _Poly]:
    """Quotient and remainder in one top-down pass; the lead of each
    remainder cancels exactly, so it is never computed, and a monic divisor
    needs no division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(b) - 1
    rem = list(a)
    quot = [0] * max(len(a) - n, 0)
    lead = b[-1]
    for shift in range(len(a) - 1 - n, -1, -1):
        factor = rem[shift + n]
        if factor:
            # a running remainder coefficient may be an integral Fraction
            factor = _small(factor) if lead == 1 else _quo(factor, lead)
            quot[shift] = factor
            for i in range(n):
                rem[shift + i] -= factor * b[i]
    return _trim(quot), _trim(map(_small, rem[:n]))


def _monic(a: _Poly) -> _Poly:
    if not a or a[-1] == 1:
        return a
    lead = a[-1]
    return tuple(_quo(c, lead) for c in a)


def _gcd(a: _Poly, b: _Poly) -> _Poly:
    """Monic gcd; 1 without further division as soon as either side or a
    remainder is a nonzero constant."""
    if len(a) == 1:
        return _ONE
    while len(b) > 1:
        a, b = b, _divmod(a, b)[1]
    return _ONE if b else _monic(a)


def _eval(a: _Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def signed_sum(parts: Iterable[tuple[bool, str]], sep: str = "") -> str:
    """Join (negative, body) pairs into a signed sum: tight ``5*t-1``, or
    spaced ``a - b`` with ``sep=" "``; "0" for no parts."""
    pieces = []
    for negative, body in parts:
        if pieces:
            pieces.append(sep + ("-" if negative else "+") + sep)
        elif negative:
            pieces.append("-")
        pieces.append(body)
    return "".join(pieces) or "0"


def _poly_str(a: _Poly, name: str) -> str:
    """Render a univariate polynomial, descending powers, explicit '*'."""
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = name if k == 1 else f"{name}^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append((c < 0, body))
    return signed_sum(parts)


def _n_terms(a: _Poly) -> int:
    return sum(1 for c in a if c != 0)


class RationalFunction:
    """Reduced quotient of univariate polynomials over Q in one parameter.

    Invariants: ``num`` and ``den`` are trimmed tuples of rationals, each
    integral one an ``int`` and every other one a Fraction (int arithmetic is
    several times cheaper); ``den`` is monic and gcd(num, den) = 1, so zero
    is ``((), (1,))``.  The public constructor normalizes any pair;
    arithmetic builds its results through :func:`_reduced` and collapses
    constant values to Fraction, so constants normally never appear as
    RationalFunction.
    """

    __slots__ = ("parameter", "num", "den")

    def __init__(self, parameter: str, num, den=_ONE):
        num, den = _canonical(num), _canonical(den)
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        g = _gcd(num, den)
        if len(g) > 1:
            num = _divmod(num, g)[0]
            den = _divmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = tuple(_quo(c, lead) for c in num)
            den = _monic(den)
        object.__setattr__(self, "parameter", parameter)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- structure ---------------------------------------------------------

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == _ONE

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise CoefficientError(f"{self!r} is not constant")
        return Fraction(self.num[0]) if self.num else Fraction(0)

    def _check(self, other: "RationalFunction") -> None:
        if other.parameter != self.parameter:
            raise CoefficientError(
                f"parameter mismatch: {self.parameter!r} vs {other.parameter!r}"
            )

    def _inverse(self) -> "Coeff":
        if not self.num:
            raise ZeroDivisionError("division by zero coefficient")
        inv = _quo(1, self.num[-1])
        return _reduced(self.parameter, _scale(self.den, inv), _scale(self.num, inv))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalFunction):
            self._check(other)
            return _sum(self.parameter, self.num, self.den, other.num, other.den)
        if isinstance(other, (int, Fraction)):
            return _reduced(self.parameter, _add(self.num, _scale(self.den, other)), self.den)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.parameter, _neg(self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, RationalFunction):
            self._check(other)  # before -other can collapse to a Fraction
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            self._check(other)
            return _product(self.parameter, self.num, self.den, other.num, other.den)
        if isinstance(other, (int, Fraction)):
            return _reduced(self.parameter, _scale(self.num, other), self.den)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RationalFunction):
            self._check(other)
            return self * other._inverse()
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero coefficient")
            return _reduced(self.parameter, _scale(self.num, 1 / Fraction(other)), self.den)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._inverse() * other
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise CoefficientError("coefficient powers must be nonnegative integers")
        num = den = _ONE
        base_num, base_den = self.num, self.den
        while k:
            if k & 1:
                num, den = _mul(num, base_num), _mul(den, base_den)
            k >>= 1
            if k:
                base_num, base_den = _mul(base_num, base_num), _mul(base_den, base_den)
        return _reduced(self.parameter, num, den)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return (
                self.parameter == other.parameter
                and self.num == other.num
                and self.den == other.den
            )
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.parameter, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"RationalFunction({coeff_str(self)!r})"

    def __str__(self):
        return coeff_str(self)


def _reduced(parameter: str, num: _Poly, den: _Poly) -> "Coeff":
    """The trusted constructor: wrap a pair already in canonical form
    without checking it; constant values collapse to Fraction."""
    if not num:
        return Fraction(0)
    if len(num) == 1 and len(den) == 1:
        return Fraction(num[0])
    rf = object.__new__(RationalFunction)
    object.__setattr__(rf, "parameter", parameter)
    object.__setattr__(rf, "num", num)
    object.__setattr__(rf, "den", den)
    return rf


def _scale(a: _Poly, c) -> _Poly:
    return tuple(_small(c * x) for x in a) if c else ()


def _product(parameter: str, n1: _Poly, d1: _Poly, n2: _Poly, d2: _Poly) -> "Coeff":
    """Henrici's product n1/d1 * n2/d2 of reduced fractions."""
    if not n1 or not n2:
        return Fraction(0)
    g1, g2 = _gcd(n1, d2), _gcd(n2, d1)
    if len(g1) > 1:
        n1, d2 = _divmod(n1, g1)[0], _divmod(d2, g1)[0]
    if len(g2) > 1:
        n2, d1 = _divmod(n2, g2)[0], _divmod(d1, g2)[0]
    return _reduced(parameter, _mul(n1, n2), _mul(d1, d2))


def _sum(parameter: str, n1: _Poly, d1: _Poly, n2: _Poly, d2: _Poly) -> "Coeff":
    """Henrici's sum n1/d1 + n2/d2 of reduced fractions."""
    if d1 == d2:
        t = _add(n1, n2)
        if not t:
            return Fraction(0)
        h = _gcd(t, d1)
        if len(h) > 1:
            t, d1 = _divmod(t, h)[0], _divmod(d1, h)[0]
        return _reduced(parameter, t, d1)
    g = _gcd(d1, d2)
    if len(g) == 1:
        return _reduced(parameter, _add(_mul(n1, d2), _mul(n2, d1)), _mul(d1, d2))
    e1 = _divmod(d1, g)[0]
    t = _add(_mul(n1, _divmod(d2, g)[0]), _mul(n2, e1))
    h = _gcd(t, g)
    if len(h) > 1:
        t, d2 = _divmod(t, h)[0], _divmod(d2, h)[0]
    return _reduced(parameter, t, _mul(e1, d2))


Coeff = Union[Fraction, RationalFunction]


def parameter_symbol(name: str) -> RationalFunction:
    """The rational function consisting of the bare parameter."""
    return RationalFunction(name, (Fraction(0), Fraction(1)))


def as_coeff(x) -> Coeff:
    """``x`` itself when it is already a coefficient, else ``Fraction(x)``."""
    if isinstance(x, (Fraction, RationalFunction)):
        return x
    return Fraction(x)


def inverse(c: Coeff) -> Coeff:
    if isinstance(c, RationalFunction):
        return c._inverse()
    if c == 0:
        raise ZeroDivisionError("division by zero coefficient")
    return Fraction(1) / Fraction(c)


def evaluate(c: Coeff, value) -> Fraction:
    """Substitute ``value`` for the parameter, returning an exact rational."""
    if isinstance(c, RationalFunction):
        value = Fraction(value)
        den = _eval(c.den, value)
        if den == 0:
            raise PoleError(f"pole of {c} at {c.parameter}={value}")
        return _eval(c.num, value) / den
    return Fraction(c)


def coeff_str(c: Coeff) -> str:
    """Decimal-free exact rendering, e.g. ``(2*a+2)/a`` or ``-7/2``."""
    if isinstance(c, RationalFunction):
        num = _poly_str(c.num, c.parameter)
        if c.den == _ONE:
            return num
        if _n_terms(c.num) > 1 or any(x.denominator != 1 for x in c.num):
            num = f"({num})"
        den = _poly_str(c.den, c.parameter)
        if _n_terms(c.den) > 1:
            den = f"({den})"
        return f"{num}/{den}"
    return str(Fraction(c))
