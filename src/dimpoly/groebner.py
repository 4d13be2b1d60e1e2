"""Reduction, S-polynomials, and Buchberger completion in free modules over
commutative operator rings.

Inside completion a term is one Python int.  For an order with n operators
the int has n + 2 fields of ``FIELD_BITS`` bits; from the top they hold the
total order, the generator, and the exponents in ``order.sequence``:

    [ total | gen | e[sequence[0]] | ... | e[sequence[n - 1]] ]

This is :meth:`TermOrder.key` written in base 2**FIELD_BITS, so comparing
two packed terms compares their keys.  The top bit of every field is a guard
bit and is always 0 in a packed term, so every field stays below
2**(FIELD_BITS - 1).  Shifting a term by an operator monomial is one
addition, and the shift that carries lt(g) to t is ``t - lt(g)`` itself.
With G the mask of all guard bits, ``((t | G) - lt(g)) & G == G`` is true
iff no field of lt(g) exceeds the same field of t: each field then
subtracts without borrowing from the next one, and its guard survives.
On one generator that is "lt(g) divides t".  Completion reads everything
it keeps about a leading term off the packed int: an entry's generator is
its field, and an S-polynomial's lcm is taken on the packed heads, the
larger of each exponent field selected by the same guard-bit test and the
total summed from the chosen fields by one multiplication
(:meth:`_Layout.lcm`).  Packing refuses a negative exponent, a generator
index or a total order at or above 2**(FIELD_BITS - 1) with a ValueError
that names the term.  Packed inputs and S-polynomial lcms are checked this
way.  Reduction never raises a total above its leading term's, so no later
sum can carry into a guard bit.  Each entry point (:func:`normal_form`,
:func:`buchberger`, :func:`is_groebner_basis`) builds the :class:`_Layout`
of its order once, packs its inputs and passes the layout down; none is
kept between calls.  Elements leave this module unpacked, each term once,
as :class:`Element` with ``Fraction`` or :class:`RationalFunction`
coefficients.  Inside, an integral ``Fraction`` is held as the ``int`` it
equals, because int arithmetic is several times cheaper; the one helper for
that rule, ``_small``, lives in :mod:`dimpoly.coefficients`, whose
polynomial kernel follows it too.

Every rewrite goes through one reducer, :func:`_reduce`.  It works over
:class:`_Tracked` entries.  Each entry holds a basis element made monic when
it enters, as its packed leading term and the packed rows of its other
terms.  The reducer always takes the first divisor in list order, scanning
only the entries on the term's generator; the published reduction chains of
the worked examples depend on that rule.  Those per-generator divisor lists
(:func:`_divisors`) are built once per basis, and the completion loop
appends each new entry to them as it enters the basis.  The reducer changes
the remainder in place: one packed term -> coefficient dict, with its terms
in a heap of negated packed terms, so the leading term is the heap top; a
cancelled term's entry is skipped when popped (lazy deletion).  In head mode
(the completion loop, the Groebner test) it stops at the first irreducible
leading term.  In full mode (:func:`normal_form`, the final autoreduction)
it sets that term aside and keeps reducing the tail.
Every packed sum, the S-polynomial and each step's remainder and cofactor,
goes through one merge loop, :func:`_subtract`.  A monic entry makes an
S-polynomial a plain difference of shifts and a reduction factor the
coefficient being cancelled, so a leading coefficient is divided out once
per entry instead of in every pair and step.  S-polynomials and reductions
do not change when an element is multiplied by a nonzero constant, so this
leaves every result as it is.

Given a cofactor vector, the reducer updates it with every step, so each
completed element can be expressed over the input list.  A cofactor vector
is an element of the free module whose generator i stands for the i-th
input (zero inputs keep their position); ``combine(cof, inputs)`` from
:mod:`dimpoly.freemodule` expands it back to the element it tracks.  Inside
completion it is packed rows with the input index as generator, takes the
element's packed shifts, scalings and differences, and is unpacked once, as
the autoreduced basis leaves.  Its orders are not bounded by the element's,
but each cofactor term a reduction forms is an entry's term plus one shift
(``lcm - lt`` or ``t - lt(g)``) whose fields are below 2**(FIELD_BITS - 1),
so while entries have clear guard bits no field carries into the next;
:func:`_reduce` raises ValueError on a cofactor with a guard bit set before
it becomes an entry or leaves the module.

The final autoreduction drops every element whose leading term another
one divides, reduces the tails of the rest and sorts the basis into a
deterministic canonical form, each element monic.

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
import struct
from dataclasses import dataclass
from operator import attrgetter, itemgetter, lshift
from typing import Callable, Iterable, Sequence

from .coefficients import Coeff, _small, as_coeff, inverse
from .freemodule import Element, Term, TermOrder, _raw

__all__ = [
    "CompletionBudgetExceeded",
    "FIELD_BITS",
    "GroebnerBasis",
    "MAX_PAIRS_FORMED",
    "buchberger",
    "is_groebner_basis",
    "normal_form",
]

# Completion refuses to form more critical pairs than this.  The largest
# built-in (the potential forward scheme) forms 327.
MAX_PAIRS_FORMED = 100_000

# Width of each field of a packed term, guard bit included.
FIELD_BITS = 32
_LIMIT = 1 << (FIELD_BITS - 1)
_MASK = (1 << FIELD_BITS) - 1
_FORMAT = {8: "B", 16: "H", 32: "I", 64: "Q"}  # struct code of one field


class CompletionBudgetExceeded(ValueError):
    """Completion would form more than ``MAX_PAIRS_FORMED`` critical pairs."""


def normal_form(f: Element, basis: Sequence[Element], order: TermOrder) -> Element:
    """Fully reduce every term of f modulo ``basis`` (tail reduction included)."""
    layout = _Layout(order.sequence)
    divisors = _divisors(_track(basis, layout))
    return layout.element(_reduce(layout.rows(f), None, divisors, layout, full=True)[0])


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


class _Layout:
    """Packing of the terms of one ``order.sequence`` (see the module
    docstring): ``shifts[i]`` is the bit offset of operator i's field."""

    __slots__ = ("shifts", "gen_shift", "guards", "exp_mask", "exp_guards", "ones", "fields", "exps")

    def __init__(self, sequence: tuple[int, ...]):
        n = len(sequence)
        shifts = [0] * n
        for k, i in enumerate(sequence):
            shifts[i] = FIELD_BITS * (n - 1 - k)
        self.shifts = tuple(shifts)
        self.gen_shift = FIELD_BITS * n
        self.guards = sum(_LIMIT << (FIELD_BITS * k) for k in range(n + 2))
        self.exp_mask = (1 << self.gen_shift) - 1
        self.exp_guards = self.guards & self.exp_mask
        # one 1 in each of fields 1..n: a product's field n sums fields 0..n-1
        self.ones = sum(1 << (FIELD_BITS * k) for k in range(1, n + 1))
        # big-endian fields from the top: total, gen, then ``sequence`` order
        self.fields = struct.Struct(f">{n + 2}{_FORMAT[FIELD_BITS]}").unpack
        at = [2 + sequence.index(i) for i in range(n)]
        self.exps = itemgetter(*at) if n > 1 else itemgetter(slice(2, None))

    def pack(self, t: Term) -> int:
        exps = t.exps
        if min(exps, default=0) < 0:
            raise ValueError(f"cannot pack term {t}: negative exponent")
        total = sum(exps)
        if total >= _LIMIT or not 0 <= t.gen < _LIMIT:
            raise ValueError(
                f"cannot pack term {t}: total order and generator index must be "
                f"below 2**{FIELD_BITS - 1}"
            )
        return (total << FIELD_BITS | t.gen) << self.gen_shift | sum(map(lshift, exps, self.shifts))

    def unpack(self, packed: int) -> Term:
        fields = self.fields(packed.to_bytes(FIELD_BITS // 8 * (len(self.shifts) + 2), "big"))
        return Term(fields[1], self.exps(fields))

    def lcm(self, s: int, t: int) -> int:
        """Packed lcm of packed s and t, on s's generator.  The guard of each
        exponent field of ``(s | G) - t`` survives iff s's field is the larger
        (module docstring), and one product by ``ones`` sums the fields into
        the total.  Each input's total is below 2**(FIELD_BITS - 1), so every
        partial sum fits its field and none carries.  A total at or above
        2**(FIELD_BITS - 1) raises pack's ValueError, naming the lcm."""
        m, g = self.exp_mask, self.exp_guards
        s_e, t_e = s & m, t & m
        larger = ((s_e | g) - t_e) & g
        larger -= larger >> (FIELD_BITS - 1)  # each selected field's value bits
        e = t_e ^ ((s_e ^ t_e) & larger)
        total = (e * self.ones >> self.gen_shift) & _MASK
        gen = s & (_MASK << self.gen_shift)
        if total >= _LIMIT:
            self.pack(self.unpack(gen | e))  # raises: the total does not fit
        return total << (self.gen_shift + FIELD_BITS) | gen | e

    def rows(self, f: Element) -> dict[int, Coeff]:
        """The terms of f packed, an integral Fraction as its int."""
        return {self.pack(t): _small(c) for t, c in f.terms.items()}

    def element(self, rows: dict[int, Coeff]) -> Element:
        """Rows, which never hold a zero, unpacked: each term once."""
        return _raw({self.unpack(t): as_coeff(c) for t, c in rows.items()})


class _Tracked:
    """One basis element inside the completion, made monic: its leading term
    packed as ``head`` and that term's generator as ``gen``, the packed rows
    of its other terms as ``tail``, and the packed rows of its cofactor
    vector, scaled alike."""

    __slots__ = ("gen", "head", "tail", "cof")

    def __init__(self, rows: dict[int, Coeff], layout: _Layout, cof=None):
        """``rows`` are packed rows of ``layout`` (see :func:`_reduce`), ``cof`` rows or None."""
        self.head = head = max(rows)
        self.gen = (head >> layout.gen_shift) & _MASK
        lc = rows[head]
        if lc == -1:
            rows = {t: -c for t, c in rows.items()}
            cof = cof and {t: _small(-c) for t, c in cof.items()}
        elif lc != 1:
            inv = inverse(lc)
            rows = {t: c * inv for t, c in rows.items()}
            cof = cof and {t: _small(c * inv) for t, c in cof.items()}
        self.tail = tuple((t, _small(c)) for t, c in rows.items() if t != head)
        self.cof = cof


def _track(basis: Sequence[Element], layout: _Layout) -> list[_Tracked]:
    return [_Tracked(layout.rows(g), layout) for g in basis if g]


# Per generator, (packed leading term, basis index, entry) in list order.
_Divisors = dict[int, list[tuple[int, int, _Tracked]]]


def _add_divisor(divisors: _Divisors, i: int, g: _Tracked) -> None:
    divisors.setdefault(g.gen, []).append((g.head, i, g))


def _divisors(basis: Sequence[_Tracked]) -> _Divisors:
    """The divisor lists of ``basis`` that :func:`_reduce` scans."""
    divisors: _Divisors = {}
    for i, g in enumerate(basis):
        _add_divisor(divisors, i, g)
    return divisors


def _subtract(rows: dict, terms: Iterable, c: Coeff | None, shift: int, heap=None) -> dict:
    """``rows -= c * x^shift * terms`` in place, and return ``rows``: the one
    merge loop for packed sums.  ``terms`` are (packed term, coefficient)
    pairs and ``shift`` is a packed shift; ``c`` None subtracts the terms as
    they are, with no product by 1.  A term that cancels is deleted; each
    new term is pushed negated on ``heap`` when one is given."""
    for t, d in terms:
        t += shift
        if c is not None:
            d = c * d
        x = rows.get(t)
        if x is None:
            rows[t] = -d
            if heap is not None:
                heapq.heappush(heap, -t)
        elif x := x - d:
            rows[t] = x
        else:
            del rows[t]
    return rows


def _s_poly(a: _Tracked, b: _Tracked, lcm: int):
    """Packed S-polynomial of two entries on one generator, given the packed
    lcm of their leading terms, and, when tracked, its packed cofactor.  The
    leading terms cancel and are never formed."""
    u1, u2 = lcm - a.head, lcm - b.head
    s = _subtract({t + u1: c for t, c in a.tail}, b.tail, None, u2)
    if a.cof is None:
        return s, None
    return s, _subtract({t + u1: c for t, c in a.cof.items()}, b.cof.items(), None, u2)


def _reduce(rows: dict, cof, divisors: _Divisors, layout: _Layout, full: bool, chain=None):
    """The one reduction loop: rewrite the packed rows ``rows`` (a dict from
    packed term to coefficient) modulo the basis whose divisor lists
    (:func:`_divisors`) are ``divisors``.

    The first entry in list order whose leading term divides the current
    leading term is used.  Head mode stops at the first irreducible leading
    term; full mode moves it to the remainder and continues with the tail.
    The remainder comes back as packed rows; ``cof`` is packed rows or None,
    updated alongside.  Neither input is changed.
    ``chain`` (when given) receives the index of each divisor used.  Returns
    (remainder, cof, steps); a cofactor with a guard bit set raises
    ValueError instead (see the module docstring).

    The remainder and its heap are as in the module docstring; a term that
    comes back after cancelling is pushed again.  A step deletes the leading
    term and subtracts c * x^lam * (tail of g) by :func:`_subtract`, where c
    is the coefficient being cancelled (g is monic) and lam is the packed
    shift: O(|g| log |r|) instead of rescanning the whole remainder.
    """
    rem = dict(rows)
    cof = None if cof is None else dict(cof)
    heap = [-t for t in rem]
    heapq.heapify(heap)
    pop = heapq.heappop
    guards, gen_shift = layout.guards, layout.gen_shift
    done: dict[int, Coeff] = {}
    steps = 0
    while heap:
        t = -pop(heap)
        c = rem.get(t)
        if c is None:
            continue
        tg = t | guards
        for h, i, g in divisors.get((t >> gen_shift) & _MASK, ()):
            if (tg - h) & guards == guards:
                break
        else:
            if not full:
                break
            done[t] = rem.pop(t)
            continue
        lam = t - h
        del rem[t]
        _subtract(rem, g.tail, c, lam, heap)
        if cof is not None:
            _subtract(cof, g.cof.items(), c, lam)
        if chain is not None:
            chain.append(i)
        steps += 1
    if cof and max(cof) & guards:  # a field at its guard puts the total, the top one, there
        t = layout.unpack(max(cof))
        raise ValueError(f"cofactor term {t}: total order reached 2**{FIELD_BITS - 1}")
    return (done if full else rem), cof, steps


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
    layout = _Layout(order.sequence)
    zero = (0,) * len(order.sequence)
    basis = [
        _Tracked(layout.rows(g), layout, {layout.pack(Term(i, zero)): 1} if track_cofactors else None)
        for i, g in enumerate(generators)
        if g
    ]
    divisors = _divisors(basis)

    # (lcm total order, insertion index, i, j, packed lcm)
    heap: list[tuple[int, int, int, int, int]] = []
    formed = 0
    total_shift = layout.gen_shift + FIELD_BITS

    def push_pairs(j: int):
        nonlocal formed
        gen, head = basis[j].gen, basis[j].head
        for i in range(j):
            if basis[i].gen == gen:
                if formed == MAX_PAIRS_FORMED:
                    raise CompletionBudgetExceeded(
                        f"completion would form more than {MAX_PAIRS_FORMED} pairs"
                    )
                lcm = layout.lcm(basis[i].head, head)
                heapq.heappush(heap, (lcm >> total_shift, formed, i, j, lcm))
                formed += 1

    for j in range(len(basis)):
        push_pairs(j)

    handled: set[tuple[int, int]] = set()
    pairs_processed = pairs_pruned = reduction_steps = 0
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        pairs_processed += 1
        handled.add((i, j))
        if trace is None and _chain_redundant(divisors[basis[i].gen], handled, i, j, lcm, layout.guards):
            pairs_pruned += 1
            continue
        s, cof = _s_poly(basis[i], basis[j], lcm)
        if not s:
            if trace:
                trace(i, j, Element(), None, None)
            continue
        chain: list[int] | None = [] if trace else None
        r, cof, steps = _reduce(s, cof, divisors, layout, full=False, chain=chain)
        reduction_steps += steps
        if trace:
            trace(i, j, layout.element(s), chain, len(basis) if r else None)
        if r:
            basis.append(_Tracked(r, layout, cof))
            _add_divisor(divisors, len(basis) - 1, basis[-1])
            push_pairs(len(basis) - 1)

    completed_size = len(basis)
    elements, cofactors = _autoreduce_tracked(basis, layout)
    return GroebnerBasis(
        elements=tuple(elements),
        order=order,
        pairs_processed=pairs_processed,
        reduction_steps=reduction_steps,
        completed_size=completed_size,
        pairs_pruned=pairs_pruned,
        cofactors=tuple(cofactors) if track_cofactors else None,
    )


def _chain_redundant(divisors: list, handled: set, i: int, j: int, lcm: int, guards: int) -> bool:
    """Chain criterion for pair (i, j), i < j, with packed lcm(lt_i, lt_j),
    the divisor list of their generator and the layout's guard bits: some k
    other than i and j has lt_k dividing it, and (i, k) and (k, j) are
    handled."""
    lcm |= guards
    for h, k, _ in divisors:
        if (
            (lcm - h) & guards == guards
            and k != i
            and k != j
            and (min(i, k), max(i, k)) in handled
            and (min(k, j), max(k, j)) in handled
        ):
            return True
    return False


def _autoreduce_tracked(basis: list[_Tracked], layout: _Layout):
    """Minimal, tail-reduced and sorted form of the monic ``basis``, and its cofactors."""
    # Minimality: drop elements whose leading term is divisible by another's.
    # Ascending scan guarantees divisors are kept before their multiples.
    guards = layout.guards
    kept: list[_Tracked] = []
    heads: dict[int, list[int]] = {}  # generator -> kept heads on it
    for g in sorted(basis, key=attrgetter("head")):
        on_gen = heads.setdefault(g.gen, [])
        t = g.head | guards
        if not any((t - h) & guards == guards for h in on_gen):
            on_gen.append(g.head)
            kept.append(g)

    # Tail reduction: the head is irreducible modulo the others, so only the
    # tail is reduced, in full mode, and the result stays monic.  The tail
    # and every term a step brings in lie below the head, and no multiple of
    # g's own head does, so g can stay in the divisor lists all of kept share.
    divisors = _divisors(kept)
    reduced: list[tuple[Element, Element | None, _Tracked]] = []
    for g in kept:
        rows, cof, _ = _reduce(dict(g.tail), g.cof, divisors, layout, full=True)
        cof = cof if cof is None else layout.element(cof)
        reduced.append((layout.element({g.head: 1, **rows}), cof, g))

    reduced.sort(key=lambda item: (item[2].gen, item[2].head))
    return [item[0] for item in reduced], [item[1] for item in reduced]


def is_groebner_basis(basis: Sequence[Element], order: TermOrder) -> bool:
    """Buchberger criterion: every pairwise S-polynomial reduces to zero."""
    layout = _Layout(order.sequence)
    tracked = _track(basis, layout)
    divisors = _divisors(tracked)
    for i, a in enumerate(tracked):
        for b in tracked[i + 1 :]:
            if a.gen != b.gen:
                continue
            s, _ = _s_poly(a, b, layout.lcm(a.head, b.head))
            if s and _reduce(s, None, divisors, layout, full=False)[0]:
                return False
    return True
