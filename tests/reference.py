"""Reference implementations that the tests compare the package against.

None of these is used by the CLI or the library:

* :func:`free_term_count_oracle` counts free terms by enumerating every term
  of order <= r, the brute force that :func:`dimpoly.free_term_counts` must
  agree with;
* :func:`to_binomial_basis` recovers binomial-basis coefficients from a
  polynomial by top-down elimination, independently of the Hilbert numerator
  that :func:`dimpoly.dimension_polynomial` reads them from;
* :func:`project_element` is the inverse of the inversive embedding;
* :func:`s_polynomial`, :func:`reduce_element` and :func:`autoreduce` expose
  single steps of completion on unpacked elements, through the same reducer
  that :func:`dimpoly.buchberger` runs;
* :func:`searched_leading_terms` finds each element's leading term by
  :meth:`TermOrder.key`, and :func:`staircase_by_search` builds a staircase
  from those terms: the reference for the leading terms that
  :class:`dimpoly.GroebnerBasis` carries out of completion;
* :func:`hilbert_numerator` and :func:`minimal_antichain` are Bigatti's
  recursion and the minimization on exponent tuples, the reference for the
  packed ints :mod:`dimpoly.dimension` runs them on.
"""

import math

from dimpoly import Element, PolyQ, Staircase, Term, TermOrder, staircase_from_basis
from dimpoly.coefficients import _add, _neg
from dimpoly.dimension import binomial_poly
from dimpoly.groebner import _autoreduce_tracked, _divisors, _Layout, _reduce, _s_poly, _track, _Tracked


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


def project_element(f: Element, m: int) -> Element:
    """Inverse translation N^2m -> Z^m; colliding terms have coefficients
    summed, so the pairing relations project to zero."""
    return Element.from_pairs(
        (c, tuple(t.exps[i] - t.exps[m + i] for i in range(m)), t.gen) for t, c in f.terms.items()
    )


def s_polynomial(g1: Element, g2: Element, order: TermOrder) -> Element:
    """S-polynomial of g1 and g2; zero when the leading generators differ."""
    layout = _Layout(order.sequence)
    a, b = _Tracked(layout.rows(g1), layout), _Tracked(layout.rows(g2), layout)
    if a.gen != b.gen:
        return Element()
    return layout.element(_s_poly(a, b, layout.lcm(a.head, b.head))[0])


def reduce_element(f: Element, basis, order: TermOrder) -> Element:
    """Rewrite the leading term of f modulo ``basis`` until irreducible, the
    first divisor in list order first."""
    layout = _Layout(order.sequence)
    divisors = _divisors(_track(basis, layout))
    return layout.element(_reduce(layout.rows(f), None, divisors, layout, full=False)[0])


def autoreduce(basis, order: TermOrder) -> list[Element]:
    """Minimal monic form of a Groebner basis, deterministically sorted."""
    layout = _Layout(order.sequence)
    return _autoreduce_tracked(_track(basis, layout), layout)[0]


def searched_leading_terms(basis, order: TermOrder) -> list[Term]:
    """The leading term of each element, searched by the order's key."""
    return [g.leading_term(order)[0] for g in basis]


def minimal_antichain(vectors) -> list[tuple[int, ...]]:
    """The vectors no other one divides, in ascending (order, vector) order."""
    vectors = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept: list[tuple[int, ...]] = []
    for v in vectors:
        if not any(all(a <= b for a, b in zip(u, v)) for u in kept):
            kept.append(v)
    return kept


def hilbert_numerator(antichain) -> tuple[int, ...]:
    """Numerator K(t) of the Hilbert series K(t)/(1-t)^n of k[x]/I, where I
    is spanned by the monomials x^v of the minimal ``antichain``; ascending
    integer coefficients, () for the unit ideal.

    Bigatti's pivot recursion N(I) = N(I + (p)) + t^deg(p) N(I : p), with
    p = x_i^e for the variable x_i found in most generators of more than one
    variable and e the median of its exponents there.
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
    colon = minimal_antichain([v[:i] + (max(v[i] - e, 0),) + v[i + 1 :] for v in antichain])
    return _add(hilbert_numerator(plus), (0,) * e + hilbert_numerator(colon))


def staircase_by_search(basis, order: TermOrder, q: int, n: int) -> Staircase:
    """The staircase of ``basis`` built from searched leading terms."""
    return staircase_from_basis(searched_leading_terms(basis, order), q, n)
