"""Dimension polynomials from leading-term staircases.

Given the per-generator antichain of leading-term exponent vectors of an
autoreduced Groebner basis, each antichain spans a monomial ideal whose
Hilbert series has an integer numerator K(t), computed by Bigatti's pivot
recursion.  Writing the summed numerators about t = 1 as
K(t) = sum_i h_i (1 - t)^i, the number of free terms of order <= r is
sum_{i <= n} h_i C(r + n - i, n - i) from the sharp threshold
max(deg K - n, 0) on.  So the polynomial's coefficients in the binomial basis
C(t + d, d) are the integers c_d = h_{n-d}, read off K with integer
arithmetic; the standard polynomial over Q and the invariants (degree,
typical dimension, module dimension) all follow from them.

The independent counting oracle counts the free terms of every order exactly,
without the Hilbert series, by Janet's splitting: x_n^e * s is free exactly
when s is free of the slice of vectors with last exponent <= e.  The slice
changes only at the last exponents that occur, and a dominated vector blocks
nothing new, so no slice needs minimizing.  Validation requires degree <= n
and agreement with one table of oracle counts on n+1 or more orders from the
threshold, which makes the polynomial the exact interpolant of those counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby
from operator import add, itemgetter, sub
from typing import Iterable, Sequence

from .coefficients import _add, _canonical, _eval, _mul, _neg, _poly_str, _scale, _trim, signed_sum
from .dsl import parse_coefficient
from .freemodule import Element, TermOrder

__all__ = [
    "DimPolyReport",
    "MAX_ORACLE_CELLS",
    "OracleBudgetExceeded",
    "PolyQ",
    "Staircase",
    "ValidationRecord",
    "binomial_poly",
    "binomial_str",
    "compare_strength",
    "dimension_polynomial",
    "expand_binomial_basis",
    "free_module_polynomial",
    "free_term_counts",
    "lagrange_interpolate",
    "parse_poly",
    "poly_str",
    "staircase_from_basis",
    "validate_polynomial",
]

MAX_ORACLE_CELLS = 10_000_000
VALIDATION_WINDOW = 5  # orders past the threshold checked even when n is smaller


class OracleBudgetExceeded(ValueError):
    """The counting oracle would hold more than MAX_ORACLE_CELLS counts."""


class PolyQ:
    """Univariate polynomial over Q.  ``coeffs`` is the canonical tuple of the
    coefficient kernel: ascending, no trailing zeros, each integral
    coefficient the ``int`` it equals (see :mod:`dimpoly.coefficients`);
    ``coefficient``, ``leading_coefficient`` and ``p(r)`` return Fractions."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _canonical(coeffs))

    @classmethod
    def _of(cls, coeffs: tuple) -> "PolyQ":
        """Wrap a tuple the kernel returned, already canonical."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("PolyQ is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.coeffs[k] if 0 <= k < len(self.coeffs) else 0)

    def leading_coefficient(self) -> Fraction:
        return self.coefficient(self.degree)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "PolyQ") -> "PolyQ":
        return PolyQ._of(_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return PolyQ._of(_add(self.coeffs, _neg(other.coeffs)))

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        return PolyQ._of(_mul(self.coeffs, other.coeffs))

    def scaled(self, c) -> "PolyQ":
        """The polynomial times the int or Fraction ``c``."""
        return PolyQ._of(_scale(self.coeffs, c))

    def __call__(self, r) -> Fraction:
        return _eval(self.coeffs, r)

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"PolyQ({poly_str(self)!r})"


def poly_str(p: PolyQ) -> str:
    """Descending-power rendering in t with exact rational coefficients."""
    return _poly_str(p.coeffs, "t")


def parse_poly(text: str) -> PolyQ:
    """Parse a polynomial in t, such as the output of :func:`poly_str`.

    The text is a coefficient expression of the system language
    (:func:`dimpoly.dsl.parse_coefficient` with parameter ``t``): integers,
    fractions, ``t``, ``+ - * /``, parentheses and nonnegative ``^``.
    Raises ValueError on a syntax error or a non-polynomial such as ``1/t``.
    """
    value = parse_coefficient(text, "t")
    if isinstance(value, Fraction):
        return PolyQ((value,))
    if len(value.den) > 1:
        raise ValueError(f"not a polynomial in t: {text!r}")
    return PolyQ._of(value.num)


@lru_cache(maxsize=None)
def binomial_poly(n: int) -> PolyQ:
    """The binomial C(t + n, n) expanded as a polynomial in t."""
    p = PolyQ((1,))
    for j in range(n):
        p = p * PolyQ((n - j, 1))
    return p.scaled(Fraction(1, math.factorial(n)))


@dataclass(frozen=True, slots=True)
class Staircase:
    """Per-generator minimal antichains of leading-term exponent vectors."""

    per_generator: tuple[tuple[tuple[int, ...], ...], ...]
    n: int

    @classmethod
    def build(cls, vectors_by_gen: Sequence[Iterable[Sequence[int]]], n: int) -> "Staircase":
        gens = []
        for vectors in vectors_by_gen:
            vs = sorted({tuple(v) for v in vectors})
            for v in vs:
                if len(v) != n:
                    raise ValueError(f"staircase vector {v} has length != {n}")
                if any(k < 0 for k in v):
                    raise ValueError(f"staircase vector {v} has negative entries")
            gens.append(tuple(_minimal_antichain(vs)))
        return cls(tuple(gens), n)


def _minimal_antichain(vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    vectors = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept: list[tuple[int, ...]] = []
    for v in vectors:
        if not any(all(a <= b for a, b in zip(u, v)) for u in kept):
            kept.append(v)
    return kept


def staircase_from_basis(
    basis: Iterable[Element], order: TermOrder, q: int, n: int
) -> Staircase:
    """Group leading-term exponent vectors by generator, minimized."""
    by_gen: list[list[tuple[int, ...]]] = [[] for _ in range(q)]
    for g in basis:
        t, _ = g.leading_term(order)
        by_gen[t.gen].append(t.exps)
    return Staircase.build(by_gen, n)


def dimension_polynomial(stair: Staircase, *, kind: str = "difference") -> "DimPolyReport":
    """Exact count of free terms, as a polynomial report.

    With K(t) = sum_j k_j t^j the summed Hilbert numerators, the
    binomial-basis coefficients are c_d = h_{n-d}, where
    h_i = (-1)^i sum_j k_j C(j, i) is the coefficient of (1 - t)^i in K.
    The polynomial holds from the validity threshold max(deg K - n, 0), and
    the threshold is sharp: when it is positive, the polynomial is off by
    (-1)^n k_deg(K) at the order just below it.

    Each distinct antichain's numerator is computed once and added times
    the number of generators that have it.

    The module dimension is read at degree m, the number of operators of
    the presentation: c_m / 2^m for an inversive staircase (which lives in
    the doubled ring of n = 2m operators) and c_n otherwise.
    """
    n = stair.n
    if kind == "inversive":
        if n % 2:
            raise ValueError("inversive staircases need an even operator count")
        m = n // 2
    else:
        m = n

    numerator: tuple[int, ...] = ()
    for vectors, times in Counter(stair.per_generator).items():
        numerator = _add(numerator, tuple(times * k for k in _hilbert_numerator(vectors)))
    coeffs = _trim(
        (-1) ** (n - d) * sum(k * math.comb(j, n - d) for j, k in enumerate(numerator))
        for d in range(n + 1)
    )
    polynomial = expand_binomial_basis(coeffs)
    delta_dimension = coeffs[m] if len(coeffs) == m + 1 else 0
    if kind == "inversive":
        delta_dimension, remainder = divmod(delta_dimension, 2**m)
        if remainder:
            raise ValueError(
                f"inversive leading coefficient {polynomial.leading_coefficient()} is not "
                f"of the form 2^{m}*a/{m}!"
            )
    return DimPolyReport(
        polynomial=polynomial,
        binomial_coeffs=coeffs,
        degree=max(len(coeffs) - 1, 0),
        typical_dimension=coeffs[-1] if coeffs else 0,
        delta_dimension=delta_dimension,
        validity_threshold=max(len(numerator) - 1 - n, 0),
    )


def _hilbert_numerator(antichain: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Numerator K(t) of the Hilbert series K(t)/(1-t)^n of k[x]/I, where I
    is spanned by the monomials x^v of ``antichain``; ascending integer
    coefficients, () for the unit ideal.

    Bigatti's pivot recursion N(I) = N(I + (p)) + t^deg(p) N(I : p), with
    p = x_i^e for the variable x_i found in most generators of more than one
    variable and e the median of its exponents there.  Every pure power of
    x_i in a minimal I is above that median, so both I + (p) and I : p are
    strictly larger than I and the recursion ends.
    """
    if not antichain:
        return (1,)
    if not all(any(v) for v in antichain):
        return ()
    n = len(antichain[0])
    if all(sum(1 for v in antichain if v[i]) <= 1 for i in range(n)):
        out: tuple[int, ...] = (1,)
        for v in antichain:  # pairwise coprime: product of (1 - t^deg v)
            out = _add(out, (0,) * sum(v) + _neg(out))
        return out
    mixed = [v for v in antichain if sum(1 for a in v if a) > 1]
    i = max(range(n), key=lambda k: sum(1 for v in mixed if v[k]))
    exps = sorted(v[i] for v in mixed if v[i])
    e = exps[len(exps) // 2]
    pivot = tuple(e if k == i else 0 for k in range(n))
    plus = [v for v in antichain if v[i] < e] + [pivot]
    colon = _minimal_antichain(
        [v[:i] + (max(v[i] - e, 0),) + v[i + 1 :] for v in antichain]
    )
    return _add(_hilbert_numerator(plus), (0,) * e + _hilbert_numerator(colon))


@dataclass(frozen=True, slots=True)
class DimPolyReport:
    """Dimension polynomial with binomial-basis form and invariants."""

    polynomial: PolyQ
    binomial_coeffs: tuple[int, ...]
    degree: int
    typical_dimension: int
    delta_dimension: int
    validity_threshold: int


def expand_binomial_basis(coeffs: Sequence[int]) -> PolyQ:
    total = PolyQ()
    for i, c in enumerate(coeffs):
        if c:
            total = total + binomial_poly(i).scaled(c)
    return total


def binomial_str(coeffs: Sequence[int]) -> str:
    """Render sum c_i*C(t+i,i), highest index first."""
    return signed_sum(
        ((c < 0, f"{abs(c)}*C(t+{i},{i})") for i, c in reversed(list(enumerate(coeffs))) if c),
        " ",
    )


def free_module_polynomial(s: int, m: int, kind: str) -> PolyQ:
    """Closed-form dimension polynomial of a free module of rank s.

    Differential/difference: s*C(t+m, m).  Inversive: the alternating sum
    s*sum_k (-1)^(m-k) 2^k C(m,k) C(t+k,k), counting Laurent monomials of
    order <= t.
    """
    if s < 0 or m < 0:
        raise ValueError("rank and operator count must be nonnegative")
    if kind in ("differential", "difference"):
        return expand_binomial_basis([0] * m + [s])
    if kind == "inversive":
        return expand_binomial_basis(
            [s * (-1) ** (m - k) * 2**k * math.comb(m, k) for k in range(m + 1)]
        )
    raise ValueError(f"unknown kind {kind!r}")


def compare_strength(p: PolyQ, q: PolyQ) -> str:
    """Eventual comparison: 'stronger' iff p(r) < q(r) for all large r.

    Smaller dimension polynomial means the p-side system leaves fewer free
    values, i.e. constrains the field more strongly.
    """
    top = max(p.degree, q.degree)
    for k in range(top, -1, -1):
        a, b = p.coefficient(k), q.coefficient(k)
        if a != b:
            return "stronger" if a < b else "weaker"
    return "equal"


# -- counting oracle ---------------------------------------------------------


def free_term_counts(stair: Staircase, r_max: int) -> list[int]:
    """Exact counts of free terms for every order r in 0..r_max.

    Janet's splitting of the last operator: x_n^e * s is free of an
    antichain exactly when s is free of the slice {v[:-1] : v[-1] <= e}, so
    the count of order <= r is the sum over e of the slice's count of order
    <= r - e.  As e grows the slice gains vectors only when e reaches a last
    exponent that occurs, so it is one set on each range a <= e < b between
    them, and that range adds P(r - a) - P(r - b), a window of the running
    sums P of the slice's counts.  On that range the terms s have order
    <= r_max - a, so the slice keeps only vectors of that order or less.
    Each distinct slice is counted once, operator by operator up from none,
    where the one term, the empty product, is free at every order.  A slice
    that holds the zero vector blocks every term, so the ranges stop there.
    No antichain is minimized: a vector above another blocks only terms the
    lower one blocks already, so the free terms are the same.

    Each distinct slice holds one list of r_max + 1 cells: its counts at the
    top level, their running sums below it.  Raises OracleBudgetExceeded as
    soon as the slices found so far need more than MAX_ORACLE_CELLS cells,
    before any count is made.
    """
    if r_max < 0:
        return []
    size = r_max + 1
    tops = [
        frozenset(v for v in antichain if sum(v) <= r_max)
        for antichain in stair.per_generator
        if all(any(v) for v in antichain)  # a zero vector blocks every term
    ]
    # slices[k]: each slice over k operators -> its ranges (a, b, slice over k - 1)
    slices: list[dict] = [{frozenset(): None}] + [{} for _ in range(stair.n)]
    slices[stair.n].update(dict.fromkeys(tops))
    found = sum(map(len, slices))
    _check_budget(found, r_max)
    for k in range(stair.n, 0, -1):
        for antichain in slices[k]:
            slices[k][antichain] = ranges = []
            start, below = 0, {}  # slice vector -> its order
            for e, group in groupby(sorted(antichain, key=itemgetter(-1)), itemgetter(-1)):
                if e > start:
                    ranges.append((start, e, _orders_up_to(below, r_max - start)))
                group = [v[:-1] for v in group]
                if not all(map(any, group)):
                    break  # the zero vector: no term is free from e on
                below.update((v, sum(v)) for v in group)
                start = e
            else:
                ranges.append((start, size, _orders_up_to(below, r_max - start)))
            known = len(slices[k - 1])
            slices[k - 1].update(dict.fromkeys(below for _, _, below in ranges))
            found += len(slices[k - 1]) - known
            _check_budget(found, r_max)
    if not stair.n:
        return [len(tops)] * size  # each top is the empty slice
    # A slice below the top keeps only the running sums of its counts; the
    # empty slice's one term is free at every order.
    running = {frozenset(): range(1, size + 1)}
    for k in range(1, stair.n + 1):
        level = {}
        for antichain, ranges in slices[k].items():
            total = [0] * size
            for a, b, below in ranges:
                window = running[below]
                total[a:] = map(add, total[a:], window)
                total[b:] = map(sub, total[b:], window)
            level[antichain] = total if k == stair.n else list(accumulate(total))
        running = level
    return [sum(c) for c in zip(*(level[t] for t in tops))] if tops else [0] * size


def _check_budget(slices: int, r_max: int) -> None:
    """Refuse a count whose slices hold more than MAX_ORACLE_CELLS counts."""
    cells = slices * (r_max + 1)
    if cells > MAX_ORACLE_CELLS:
        raise OracleBudgetExceeded(
            f"the counting oracle up to r={r_max} needs at least {slices} slices x "
            f"{r_max + 1} orders = {cells} cells, more than the limit of {MAX_ORACLE_CELLS}"
        )


def _orders_up_to(orders: dict, r: int) -> frozenset:
    """The vectors of order <= r: higher ones block no term the slice counts."""
    return frozenset(v for v, d in orders.items() if d <= r)


def lagrange_interpolate(points: Sequence[tuple[int, int]]) -> PolyQ:
    """Exact interpolation through integer points."""
    total = PolyQ()
    xs = [Fraction(x) for x, _ in points]
    for i, (xi, yi) in enumerate(points):
        term = PolyQ((yi,))
        for j, xj in enumerate(xs):
            if j == i:
                continue
            term = term * PolyQ((-xj, 1)).scaled(Fraction(1) / (Fraction(xi) - xj))
        total = total + term
    return total


@dataclass(frozen=True, slots=True)
class ValidationRecord:
    """Result of checking a dimension polynomial against the counting oracle.

    ``checked_range`` is the reported window (r0, r0+5); the check covers
    [r0, r0 + max(5, n)] and deg p <= n, so ``first_mismatch`` may lie past
    the window, and is None when only the degree bound fails.
    """

    checked_range: tuple[int, int]
    ok: bool
    first_mismatch: tuple[int, int, str] | None


def validate_polynomial(report: DimPolyReport, stair: Staircase) -> ValidationRecord:
    """Require deg p <= n and p(r) == oracle count on [r0, r0 + max(5, n)].

    n is the staircase's operator count (doubled when inversive), r0 the
    validity threshold.  This is p matching the counts pointwise on
    [r0, r0+5] and equalling their interpolant at r0..r0+n: that interpolant
    is the only polynomial of degree <= n through those n+1 points, so it is
    p exactly when deg p <= n and p meets the counts there.  ``first_mismatch``
    is (r, count, p(r)) at the first disagreeing r of the range.
    """
    r0 = report.validity_threshold
    n = stair.n
    r_max = r0 + max(VALIDATION_WINDOW, n)
    counts = free_term_counts(stair, r_max)
    first_mismatch = None
    for r in range(r0, r_max + 1):
        expected = report.polynomial(r)
        if expected != counts[r]:
            first_mismatch = (r, counts[r], str(expected))
            break
    return ValidationRecord(
        checked_range=(r0, r0 + VALIDATION_WINDOW),
        ok=report.polynomial.degree <= n and first_mismatch is None,
        first_mismatch=first_mismatch,
    )
