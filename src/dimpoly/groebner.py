"""Reduction, S-polynomials, and Buchberger completion in free modules over
commutative operator rings.

Every rewrite goes through one reducer, :func:`_reduce`.  It works over
:class:`_Tracked` entries, which cache each basis element's leading term and
coefficient, and it always takes the first divisor in list order; the
published reduction chains of the worked examples depend on that rule.  In
head mode (:func:`reduce_element`, the completion loop, the Groebner test) it
stops at the first irreducible leading term.  In full mode
(:func:`normal_form`, :func:`autoreduce`) it sets that term aside and keeps
reducing the tail.  When given a cofactor vector it updates it with every
step, so each completed element can be expressed over the input list.
A cofactor vector is itself an :class:`Element`, of the free module whose
generator i stands for the i-th input (zero inputs keep their position), and
it takes the same monomial shifts, scalings and differences as the element it
tracks; ``combine(cof, inputs)`` from :mod:`dimpoly.freemodule` expands it
back to that element.

:func:`autoreduce` also makes every element monic and sorts the basis into a
deterministic canonical form.

:func:`buchberger` selects pairs by the normal strategy: a queue keyed by
(lcm total degree, insertion index).  A popped pair (i, j) is skipped by
Buchberger's chain criterion when some other element k on the same
generator has a leading term dividing lcm(lt_i, lt_j) and the pairs (i, k)
and (k, j) were popped before it, whether they were reduced or skipped.  Its
S-polynomial then has a representation below that lcm through theirs, so
skipping it keeps the result a Groebner basis.  With a ``trace``
(``--trace``) every pair is reduced, so the trace replays the unpruned
completion that published reduction chains follow.  ``pairs_processed``
counts pairs formed, whether reduced or skipped; at most
``MAX_PAIRS_FORMED`` are formed before :class:`CompletionBudgetExceeded` is
raised.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .coefficients import Coeff, inverse
from .freemodule import Element, Term, TermOrder, apply_monomial, divides, quotient

__all__ = [
    "CompletionBudgetExceeded",
    "GroebnerBasis",
    "MAX_PAIRS_FORMED",
    "autoreduce",
    "buchberger",
    "is_groebner_basis",
    "normal_form",
    "reduce_element",
    "s_polynomial",
]

# Completion refuses to form more critical pairs than this.  The largest
# built-in (the potential forward scheme) forms 327.
MAX_PAIRS_FORMED = 100_000


class CompletionBudgetExceeded(ValueError):
    """Completion would form more than ``MAX_PAIRS_FORMED`` critical pairs."""


def s_polynomial(g1: Element, g2: Element, order: TermOrder) -> Element:
    """S-polynomial of g1 and g2; zero when the leading generators differ."""
    return _s_poly(_Tracked(g1, order), _Tracked(g2, order))[0]


def reduce_element(f: Element, basis: Sequence[Element], order: TermOrder) -> Element:
    """Rewrite the leading term of f modulo ``basis`` until irreducible.

    Divisors are tried in list order (first match).
    """
    return _reduce(f, None, _track(basis, order), order, full=False)[0]


def normal_form(f: Element, basis: Sequence[Element], order: TermOrder) -> Element:
    """Fully reduce every term of f modulo ``basis`` (tail reduction included)."""
    return _reduce(f, None, _track(basis, order), order, full=True)[0]


@dataclass(frozen=True)
class GroebnerBasis:
    """Autoreduced monic Groebner basis plus completion statistics.

    ``completed_size`` counts the basis as the completion loop left it
    (inputs plus every nonzero remainder), before redundant elements are
    dropped; published computations often report that larger set.
    ``pairs_processed`` counts every pair formed; ``pairs_pruned`` is how
    many of them the chain criterion skipped without reducing (always 0 when
    completion ran with a trace).  ``cofactors``, when tracked, holds for
    each basis element its cofactor vector: an :class:`Element` whose
    generator i stands for the i-th input, zero inputs included, so that
    ``combine(cofactors[k], inputs) == elements[k]``.
    """

    elements: tuple[Element, ...]
    order: TermOrder
    pairs_processed: int
    reduction_steps: int
    completed_size: int = 0
    pairs_pruned: int = 0
    cofactors: tuple[Element, ...] | None = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def leading_terms(self) -> list[Term]:
        return [g.leading_term(self.order)[0] for g in self.elements]


class _Tracked:
    """Working pair of (element, cofactor vector) inside the completion."""

    __slots__ = ("elem", "lt", "lc", "cof")

    def __init__(self, elem: Element, order: TermOrder, cof=None):
        self.elem = elem
        self.lt, self.lc = elem.leading_term(order)
        self.cof = cof


def _track(basis: Sequence[Element], order: TermOrder) -> list[_Tracked]:
    return [_Tracked(g, order) for g in basis if g]


def _s_poly(a: _Tracked, b: _Tracked):
    """S-polynomial of two entries and, when tracked, its cofactor vector."""
    if a.lt.gen != b.lt.gen:
        return Element(), None
    lcm = tuple(max(x, y) for x, y in zip(a.lt.exps, b.lt.exps))
    u1 = tuple(l - x for l, x in zip(lcm, a.lt.exps))
    u2 = tuple(l - x for l, x in zip(lcm, b.lt.exps))
    inv1, inv2 = inverse(a.lc), inverse(b.lc)
    s = apply_monomial(u1, a.elem).scaled(inv1) - apply_monomial(u2, b.elem).scaled(inv2)
    cof = None
    if a.cof is not None:
        cof = apply_monomial(u1, a.cof).scaled(inv1) - apply_monomial(u2, b.cof).scaled(inv2)
    return s, cof


def _reduce(f: Element, cof, basis: list[_Tracked], order: TermOrder, full: bool, chain=None):
    """The one reduction loop: rewrite f modulo ``basis``.

    The first entry in list order whose leading term divides the current
    leading term is used.  Head mode stops at the first irreducible leading
    term; full mode moves it to the remainder and continues with the tail.
    ``cof`` (when not None) is updated alongside, and ``chain`` (when given)
    receives the index of each divisor used.  Returns (remainder, cof, steps).
    """
    done: dict[Term, Coeff] = {}
    steps = 0
    r = f
    while r:
        t, c = r.leading_term(order)
        for i, g in enumerate(basis):
            if divides(g.lt, t):
                break
        else:
            if not full:
                break
            done[t] = c
            r = r - Element({t: c})
            continue
        lam = quotient(t, g.lt)
        factor = c * inverse(g.lc)
        r = r - apply_monomial(lam, g.elem).scaled(factor)
        if cof is not None:
            cof = cof - apply_monomial(lam, g.cof).scaled(factor)
        if chain is not None:
            chain.append(i)
        steps += 1
    return (Element(done) if full else r), cof, steps


def buchberger(
    generators: Iterable[Element],
    order: TermOrder,
    *,
    track_cofactors: bool = False,
    trace: Callable[[str], None] | None = None,
    render: Callable[[Element], str] | None = None,
) -> GroebnerBasis:
    """Complete ``generators`` to a Groebner basis, then autoreduce.

    Deterministic: pairs are processed in (lcm total degree, insertion index)
    order and zero input relations are skipped.  Elements are kept
    unnormalized during the loop and made monic only at the end.  Without a
    ``trace`` the chain criterion skips redundant pairs; with one, every
    pair is reduced and reported.
    """
    show = render if render is not None else repr
    basis: list[_Tracked] = []
    for i, g in enumerate(generators):
        if g:
            entry = _Tracked(g, order)
            if track_cofactors:
                entry.cof = Element({Term(i, (0,) * len(entry.lt.exps)): 1})
            basis.append(entry)

    heap: list[tuple[int, int, int, int]] = []
    formed = 0

    def push_pairs(j: int):
        nonlocal formed
        for i in range(j):
            if basis[i].lt.gen == basis[j].lt.gen:
                if formed == MAX_PAIRS_FORMED:
                    raise CompletionBudgetExceeded(
                        f"completion would form more than {MAX_PAIRS_FORMED} pairs"
                    )
                lcm_deg = sum(max(a, b) for a, b in zip(basis[i].lt.exps, basis[j].lt.exps))
                heapq.heappush(heap, (lcm_deg, formed, i, j))
                formed += 1

    for j in range(len(basis)):
        push_pairs(j)

    handled: set[tuple[int, int]] = set()
    pairs_processed = pairs_pruned = reduction_steps = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pairs_processed += 1
        handled.add((i, j))
        if trace is None and _chain_redundant(basis, handled, i, j):
            pairs_pruned += 1
            continue
        s, cof = _s_poly(basis[i], basis[j])
        if not s:
            if trace:
                trace(f"pair ({i + 1},{j + 1}): S = 0")
            continue
        chain: list[int] | None = [] if trace else None
        r, cof, steps = _reduce(s, cof, basis, order, full=False, chain=chain)
        reduction_steps += steps
        if trace:
            via = ", ".join(f"g{k + 1}" for k in chain) or "-"
            tail = f"added g{len(basis) + 1}" if r else "reduced to 0"
            trace(f"pair ({i + 1},{j + 1}): S = {show(s)}; via [{via}]; {tail}")
        if r:
            basis.append(_Tracked(r, order, cof))
            push_pairs(len(basis) - 1)

    completed_size = len(basis)
    elements, cofactors = _autoreduce_tracked(basis, order)
    return GroebnerBasis(
        elements=tuple(elements),
        order=order,
        pairs_processed=pairs_processed,
        reduction_steps=reduction_steps,
        completed_size=completed_size,
        pairs_pruned=pairs_pruned,
        cofactors=tuple(cofactors) if track_cofactors else None,
    )


def _chain_redundant(basis: list[_Tracked], handled: set[tuple[int, int]], i: int, j: int) -> bool:
    """Chain criterion for pair (i, j), i < j: some k other than i and j has
    lt_k dividing lcm(lt_i, lt_j), and (i, k) and (k, j) are handled."""
    a, b = basis[i].lt, basis[j].lt
    lcm = Term(a.gen, tuple(map(max, a.exps, b.exps)))
    for k, g in enumerate(basis):
        if (
            k != i
            and k != j
            and divides(g.lt, lcm)
            and (min(i, k), max(i, k)) in handled
            and (min(k, j), max(k, j)) in handled
        ):
            return True
    return False


def _autoreduce_tracked(basis: list[_Tracked], order: TermOrder):
    # Minimality: drop elements whose leading term is divisible by another's.
    # Ascending scan guarantees divisors are kept before their multiples.
    kept: list[_Tracked] = []
    for g in sorted(basis, key=lambda w: order.key(w.lt)):
        if not any(divides(h.lt, g.lt) for h in kept):
            kept.append(g)

    reduced: list[tuple[Element, Element | None, Term]] = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        # Tail reduction: the head is irreducible modulo the others, so full
        # mode only rewrites lower terms.
        elem, cof, _ = _reduce(g.elem, g.cof, others, order, full=True)
        lt, lc = elem.leading_term(order)
        inv = inverse(lc)
        elem = elem.scaled(inv)
        if cof is not None:
            cof = cof.scaled(inv)
        reduced.append((elem, cof, lt))

    reduced.sort(key=lambda item: (item[2].gen, order.key(item[2])))
    elements = [item[0] for item in reduced]
    cofactors = [item[1] for item in reduced]
    return elements, cofactors


def autoreduce(basis: Sequence[Element], order: TermOrder) -> list[Element]:
    """Minimal monic form of a Groebner basis, deterministically sorted."""
    return _autoreduce_tracked(_track(basis, order), order)[0]


def is_groebner_basis(basis: Sequence[Element], order: TermOrder) -> bool:
    """Buchberger criterion: every pairwise S-polynomial reduces to zero."""
    tracked = _track(basis, order)
    for i, a in enumerate(tracked):
        for b in tracked[i + 1 :]:
            s, _ = _s_poly(a, b)
            if s and _reduce(s, None, tracked, order, full=False)[0]:
                return False
    return True
