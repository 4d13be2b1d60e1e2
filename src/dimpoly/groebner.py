"""Reduction, S-polynomials, and Buchberger completion in free modules over
commutative operator rings.

Every rewrite goes through one reducer, :func:`_reduce`.  It works over
:class:`_Tracked` entries, which hold each basis element made monic when it
enters, with its leading term cached, and it always takes the first divisor
in list order; the published reduction chains of the worked examples
depend on that rule.  It changes the remainder in place: one term ->
coefficient dict, with its terms in a heap keyed by the negated
:meth:`TermOrder.key`, computed once per term, so the leading term is the
heap top; a cancelled term's entry is skipped when popped (lazy deletion).  In
head mode (:func:`reduce_element`, the completion loop, the Groebner test) it
stops at the first irreducible leading term.  In full mode
(:func:`normal_form`, :func:`autoreduce`) it sets that term aside and keeps
reducing the tail.  When given a cofactor vector it updates it with every
step, so each completed element can be expressed over the input list.
A cofactor vector is itself an :class:`Element`, of the free module whose
generator i stands for the i-th input (zero inputs keep their position), and
it takes the same monomial shifts, scalings and differences as the element it
tracks; ``combine(cof, inputs)`` from :mod:`dimpoly.freemodule` expands it
back to that element.  A monic entry makes an S-polynomial a plain
difference of shifts and a reduction factor the coefficient being cancelled,
so a leading coefficient is divided out once per entry instead of in every
pair and step.  S-polynomials and reductions do not change when an element
is multiplied by a nonzero constant, so this leaves every result as it is.

:func:`autoreduce` also makes every element monic and sorts the basis into a
deterministic canonical form.

:func:`buchberger` selects pairs by the normal strategy: a queue keyed by
(lcm total degree, insertion index).  A popped pair (i, j) is skipped by
Buchberger's chain criterion when some other element k on the same
generator has a leading term dividing lcm(lt_i, lt_j) and the pairs (i, k)
and (k, j) were popped before it, whether they were reduced or skipped.  Its
S-polynomial then has a representation below that lcm through theirs, so
skipping it keeps the result a Groebner basis.  With a ``trace``
(``--trace``) every pair is reduced and reported to it as data, so the trace
replays the unpruned completion that published reduction chains follow.
``pairs_processed`` counts pairs formed, whether reduced or skipped; at most
``MAX_PAIRS_FORMED`` are formed before :class:`CompletionBudgetExceeded` is
raised.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import neg
from typing import Callable, Iterable, Sequence

from .coefficients import Coeff, inverse
from .freemodule import Element, Term, TermOrder, apply_monomial, divides, quotient, shared

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


@dataclass(frozen=True, slots=True)
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
    """Working pair of (element, cofactor vector) inside the completion, both
    scaled by the inverse leading coefficient so that the element is monic,
    with the element's leading term."""

    __slots__ = ("elem", "lt", "cof")

    def __init__(self, elem: Element, order: TermOrder, cof=None):
        self.lt, lc = elem.leading_term(order)
        if lc != 1:
            inv = inverse(lc)
            elem = elem.scaled(inv)
            cof = cof and cof.scaled(inv)
        self.elem = elem
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
    s = apply_monomial(u1, a.elem) - apply_monomial(u2, b.elem)
    cof = None
    if a.cof is not None:
        cof = apply_monomial(u1, a.cof) - apply_monomial(u2, b.cof)
    return s, cof


def _reduce(f: Element, cof, basis: list[_Tracked], order: TermOrder, full: bool, chain=None):
    """The one reduction loop: rewrite f modulo ``basis``.

    The first entry in list order whose leading term divides the current
    leading term is used.  Head mode stops at the first irreducible leading
    term; full mode moves it to the remainder and continues with the tail.
    ``cof`` (when not None) is updated alongside, and ``chain`` (when given)
    receives the index of each divisor used.  Returns (remainder, cof, steps).

    The remainder is one mutable term -> coefficient dict, changed in place.
    Its terms sit in a heap ordered by the negated ``order.key``, computed
    once when a term enters, so the heap top is the leading term.  A term
    that cancels is deleted from the dict and its heap entry is skipped when
    popped (lazy deletion); a term that comes back is pushed again.  A step
    subtracts c * x^lam * g term by term, where c is the coefficient being
    cancelled (g is monic): O(|g| log |r|) instead of rescanning and copying
    the whole remainder.
    """
    key = order.key
    rem: dict[Term, Coeff] = dict(f.terms)
    heap = [(tuple(map(neg, key(t))), t) for t in rem]
    heapq.heapify(heap)
    done: dict[Term, Coeff] = {}
    steps = 0
    while heap:
        t = heapq.heappop(heap)[1]
        c = rem.get(t)
        if c is None:
            continue
        for i, g in enumerate(basis):
            if divides(g.lt, t):
                break
        else:
            if not full:
                break
            done[t] = rem.pop(t)
            continue
        lam = quotient(t, g.lt)
        for s, d in apply_monomial(lam, g.elem).terms.items():
            x = rem.get(s)
            if x is None:
                rem[s] = -(c * d)
                heapq.heappush(heap, (tuple(map(neg, key(s))), s))
            elif x := x - c * d:
                rem[s] = x
            else:
                del rem[s]
        if cof is not None:
            cof = cof - apply_monomial(lam, g.cof).scaled(c)
        if chain is not None:
            chain.append(i)
        steps += 1
    return Element(done if full else rem), cof, steps


def buchberger(
    generators: Iterable[Element],
    order: TermOrder,
    *,
    track_cofactors: bool = False,
    trace: Callable[[int, int, Element, list[int] | None, int | None], None] | None = None,
) -> GroebnerBasis:
    """Complete ``generators`` to a Groebner basis, then autoreduce.

    Deterministic: pairs are processed in (lcm total degree, insertion index)
    order and zero input relations are skipped.  Every element is made monic
    when it enters the basis (see :class:`_Tracked`).  Without a
    ``trace`` the chain criterion skips redundant pairs; with one, every
    pair is reduced and reported as ``trace(i, j, s, chain, added)``: the
    0-based pair, its S-polynomial, the basis indices of the divisors used
    (None when S = 0), and the index the remainder is added at (None when it
    reduced to 0).  The call comes before the remainder is added.
    """
    generators = list(generators)
    zero = (0,) * len(order.sequence)
    basis = [
        _Tracked(g, order, Element({Term(i, zero): 1}) if track_cofactors else None)
        for i, g in enumerate(generators)
        if g
    ]

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
                trace(i, j, s, None, None)
            continue
        chain: list[int] | None = [] if trace else None
        r, cof, steps = _reduce(s, cof, basis, order, full=False, chain=chain)
        reduction_steps += steps
        if trace:
            trace(i, j, s, chain, len(basis) if r else None)
        if r:
            basis.append(_Tracked(r, order, cof))
            push_pairs(len(basis) - 1)

    completed_size = len(basis)
    elements, cofactors = _autoreduce_tracked(basis, order, generators)
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


def _autoreduce_tracked(basis: list[_Tracked], order: TermOrder, known: Iterable[Element]):
    """Minimal, tail-reduced and sorted form of the monic ``basis``; a result
    equal to an element of ``known`` is that object, any other is pooled
    (see :func:`shared`)."""
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
        # mode only rewrites lower terms and the result stays monic.
        elem, cof, _ = _reduce(g.elem, g.cof, others, order, full=True)
        reduced.append((elem, cof, g.lt))

    reduced.sort(key=lambda item: (item[2].gen, order.key(item[2])))
    elements = shared((item[0] for item in reduced), known=known)
    return elements, [item[1] for item in reduced]


def autoreduce(basis: Sequence[Element], order: TermOrder) -> list[Element]:
    """Minimal monic form of a Groebner basis, deterministically sorted."""
    return _autoreduce_tracked(_track(basis, order), order, basis)[0]


def is_groebner_basis(basis: Sequence[Element], order: TermOrder) -> bool:
    """Buchberger criterion: every pairwise S-polynomial reduces to zero."""
    tracked = _track(basis, order)
    for i, a in enumerate(tracked):
        for b in tracked[i + 1 :]:
            s, _ = _s_poly(a, b)
            if s and _reduce(s, None, tracked, order, full=False)[0]:
                return False
    return True
