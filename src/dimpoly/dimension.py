"""Dimension polynomials from leading-term staircases.

Given the per-generator antichain of leading-term exponent vectors of an
autoreduced Groebner basis, each antichain spans a monomial ideal whose
Hilbert series has an integer numerator K(t), computed by Bigatti's pivot
recursion.  Writing the summed numerators as sum_j k_j t^j, the number of free
terms of order <= r is sum_j k_j C(r - j + n, n): expanding the binomials
gives the exact dimension polynomial, valid from the sharp threshold
max(deg K - n, 0).  A brute-force lattice enumeration serves as the
independent counting oracle.  Validation requires degree <= n and agreement
with one table of oracle counts on n+1 or more orders from the threshold, which
makes the polynomial the exact interpolant of those counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .coefficients import _add, _eval, _mul, _neg, _poly_str
from .dsl import parse_coefficient
from .freemodule import Element, TermOrder

__all__ = [
    "DimPolyReport",
    "MAX_ORACLE_ROWS",
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
    "free_term_count_oracle",
    "free_term_counts",
    "lagrange_interpolate",
    "parse_poly",
    "poly_str",
    "staircase_from_basis",
    "to_binomial_basis",
    "validate_polynomial",
]

MAX_ORACLE_ROWS = 10_000_000
VALIDATION_WINDOW = 5  # orders past the threshold checked even when n is smaller


class OracleBudgetExceeded(ValueError):
    """The counting oracle would enumerate more than MAX_ORACLE_ROWS terms."""


class PolyQ:
    """Univariate polynomial over Q; coefficients ascending, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PolyQ is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "PolyQ") -> "PolyQ":
        return PolyQ(_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + other.scaled(-1)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        return PolyQ(_mul(self.coeffs, other.coeffs))

    def scaled(self, c) -> "PolyQ":
        c = Fraction(c)
        return PolyQ(x * c for x in self.coeffs)

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
    return PolyQ(value.num)


@lru_cache(maxsize=None)
def binomial_poly(n: int, shift: int = 0) -> PolyQ:
    """The binomial C(t + n - shift, n) expanded as a polynomial in t."""
    p = PolyQ((1,))
    for j in range(n):
        p = p * PolyQ((n - shift - j, 1))
    return p.scaled(Fraction(1, math.factorial(n)))


@dataclass(frozen=True)
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
        if not g:
            continue
        t, _ = g.leading_term(order)
        by_gen[t.gen].append(t.exps)
    return Staircase.build(by_gen, n)


def dimension_polynomial(stair: Staircase, *, kind: str = "difference") -> "DimPolyReport":
    """Exact count of free terms, as a polynomial report.

    The Hilbert numerators K_g(t) of the generators' monomial ideals sum to
    K(t) = sum_j k_j t^j, and the free terms of order <= r number
    sum_j k_j C(r - j + n, n).  Each binomial is a polynomial in r that is
    exact for r >= j - n, so the polynomial holds from the validity threshold
    max(deg K - n, 0).  The threshold is sharp: when it is positive, the
    polynomial is off by (-1)^n k_deg(K) at the order just below it.

    The module dimension is read at degree m, the number of operators of
    the presentation: n // 2 for an inversive staircase (which lives in the
    doubled ring) and n otherwise.
    """
    n = stair.n
    if kind == "inversive":
        if n % 2:
            raise ValueError("inversive staircases need an even operator count")
        m = n // 2
    else:
        m = n

    numerator: tuple[int, ...] = ()
    for vectors in stair.per_generator:
        numerator = _add(numerator, _hilbert_numerator(vectors))
    total = PolyQ()
    for j, k in enumerate(numerator):
        if k:
            total = total + binomial_poly(n, j).scaled(k)
    r0 = max(len(numerator) - 1 - n, 0)
    return _build_report(total, stair, kind, m, r0)


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


@dataclass(frozen=True)
class DimPolyReport:
    """Dimension polynomial with binomial-basis form and invariants."""

    polynomial: PolyQ
    binomial_coeffs: tuple[int, ...]
    degree: int
    delta_type: int
    typical_dimension: int
    delta_dimension: int
    validity_threshold: int
    kind: str
    m: int


def _build_report(p: PolyQ, stair: Staircase, kind: str, m: int, r0: int) -> DimPolyReport:
    coeffs = to_binomial_basis(p)
    d = max(p.degree, 0)
    typical = coeffs[d] if coeffs else 0
    if kind == "inversive":
        if p.degree == m:
            raw = p.leading_coefficient() * math.factorial(m) / (2**m)
            if raw.denominator != 1:
                raise ValueError(
                    f"inversive leading coefficient {p.leading_coefficient()} is not "
                    f"of the form 2^{m}*a/{m}!"
                )
            delta_dim = int(raw)
        else:
            delta_dim = 0
    else:
        delta_dim = coeffs[m] if p.degree == m else 0
    return DimPolyReport(
        polynomial=p,
        binomial_coeffs=coeffs,
        degree=d,
        delta_type=d,
        typical_dimension=typical,
        delta_dimension=delta_dim,
        validity_threshold=r0,
        kind=kind,
        m=m,
    )


def to_binomial_basis(p: PolyQ) -> tuple[int, ...]:
    """Coefficients c_0..c_d with p = sum c_i * C(t+i, i); integers for any
    integer-valued polynomial, by top-down elimination."""
    if not p:
        return ()
    out = [0] * (p.degree + 1)
    work = p
    for i in range(p.degree, -1, -1):
        c = work.coefficient(i) * math.factorial(i)
        if c.denominator != 1:
            raise ValueError(f"{p} is not integer-valued: c_{i} = {c}")
        out[i] = int(c)
        if out[i]:
            work = work - binomial_poly(i).scaled(out[i])
    if work:
        raise AssertionError("binomial elimination left a nonzero remainder")
    return tuple(out)


def expand_binomial_basis(coeffs: Sequence[int]) -> PolyQ:
    total = PolyQ()
    for i, c in enumerate(coeffs):
        if c:
            total = total + binomial_poly(i).scaled(c)
    return total


def binomial_str(coeffs: Sequence[int]) -> str:
    """Render sum c_i*C(t+i,i), highest index first."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        parts.append((sign, f"{abs(c)}*C(t+{i},{i})"))
    if not parts:
        return "0"
    text = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def free_module_polynomial(s: int, m: int, kind: str) -> PolyQ:
    """Closed-form dimension polynomial of a free module of rank s.

    Differential/difference: s*C(t+m, m).  Inversive: the alternating sum
    s*sum_k (-1)^(m-k) 2^k C(m,k) C(t+k,k), counting Laurent monomials of
    order <= t.
    """
    if s < 0 or m < 0:
        raise ValueError("rank and operator count must be nonnegative")
    if kind in ("differential", "difference"):
        return binomial_poly(m).scaled(s)
    if kind == "inversive":
        total = PolyQ()
        for k in range(m + 1):
            c = Fraction((-1) ** (m - k) * 2**k * math.comb(m, k))
            total = total + binomial_poly(k).scaled(c)
        return total.scaled(s)
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


def free_term_count_oracle(stair: Staircase, r: int) -> int:
    """Exhaustive count of terms of order <= r free of every staircase vector."""
    if r < 0:
        return 0
    vectors = list(_exponents_up_to(stair.n, r))
    count = 0
    for antichain in stair.per_generator:
        for v in vectors:
            if not any(all(a <= b for a, b in zip(u, v)) for u in antichain):
                count += 1
    return count


def _exponents_up_to(n: int, r: int):
    if n == 0:
        yield ()
        return
    for k in range(r + 1):
        for rest in _exponents_up_to(n - 1, r - k):
            yield (k,) + rest


def _grid_up_to(n: int, r: int) -> np.ndarray:
    """All exponent vectors of sum <= r as an (N, n) int32 array."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int32)
    prev = _grid_up_to(n - 1, r)
    sums = prev.sum(axis=1, dtype=np.int64)
    grid = np.empty((math.comb(r + n, n), n), dtype=np.int32)
    end = 0
    for k in range(r + 1):  # block k: first exponent k, then the rows of prev of sum <= r - k
        start, end = end, end + math.comb(r - k + n - 1, n - 1)
        grid[start:end, 0] = k
        np.compress(sums <= r - k, prev, axis=0, out=grid[start:end, 1:])
    return grid


def free_term_counts(stair: Staircase, r_max: int) -> list[int]:
    """Oracle counts for every r in 0..r_max, from one shared enumeration.

    Raises OracleBudgetExceeded before allocating when the enumeration would
    hold more than MAX_ORACLE_ROWS exponent vectors.
    """
    if r_max < 0:
        return []
    rows = math.comb(r_max + stair.n, stair.n)
    if rows > MAX_ORACLE_ROWS:
        raise OracleBudgetExceeded(
            f"the counting oracle up to r={r_max} over {stair.n} operators needs "
            f"{rows} rows, more than the limit of {MAX_ORACLE_ROWS}"
        )
    grid = _grid_up_to(stair.n, r_max)
    sums = grid.sum(axis=1, dtype=np.int64)
    per_sum = np.zeros(r_max + 1, dtype=np.int64)
    for antichain in stair.per_generator:
        blocked = np.zeros(len(grid), dtype=bool)
        for v in antichain:
            if sum(v) <= r_max:  # a higher vector divides no term of the grid
                blocked |= (grid >= np.asarray(v, dtype=np.int32)).all(axis=1)
        per_sum += np.bincount(sums[~blocked], minlength=r_max + 1)
    return [int(x) for x in np.cumsum(per_sum)]


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


@dataclass(frozen=True)
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
