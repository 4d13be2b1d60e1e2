import itertools
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

import dimpoly.groebner
import dimpoly.pipeline
from dimpoly import (
    CompletionBudgetExceeded,
    Element,
    Presentation,
    Term,
    TermOrder,
    apply_monomial,
    buchberger,
    combine,
    divides,
    is_groebner_basis,
    normal_form,
    staircase_from_basis,
)
from dimpoly.builtin_systems import builtin_scheme, builtin_system
from dimpoly.coefficients import inverse
from dimpoly.freemodule import quotient
from dimpoly.coefficients import RationalFunction
from dimpoly.dimension import _Packing
from dimpoly.groebner import (
    FIELD_BITS,
    _divisors,
    _Layout,
    _minimal_antichain,
    _reduce,
    _track,
    _Tracked,
)
from dimpoly.pipeline import compute_strength

from conftest import (
    A,
    FORWARD_BASIS,
    FORWARD_INPUTS,
    G1,
    G2,
    G3,
    G4,
    S_G1_G2,
    SIGMA_ORDER,
    el,
    el0,
)
from reference import autoreduce, free_term_count_oracle, minimal_antichain, reduce_element, s_polynomial

DIFF_ORDER = TermOrder((0, 1))


class TestReduce:
    def test_published_reduction_step(self):
        # S(g1,g2) loses its head against g2 and stops, leaving the published
        # irreducible remainder that became g4
        got = reduce_element(S_G1_G2, [G2], SIGMA_ORDER)
        assert got == G4

    def test_self_reduction(self):
        assert not reduce_element(G1, [G1], SIGMA_ORDER)

    def test_no_divisor_is_identity(self):
        e = el0((1, (0, 0)))
        dx = el0((1, (1, 0)))
        assert reduce_element(e, [dx], TermOrder((0, 1))) == e

    def test_head_only(self):
        # the tail keeps reducible terms; only the leading term is rewritten
        f = el0((1, (2, 0, 0, 0)), (1, (1, 0, 1, 0)), (1, (0, 0, 0, 0)))
        r = reduce_element(f, [el0((1, (2, 0, 0, 0)), (-1, (1, 0, 1, 0)))], SIGMA_ORDER)
        assert r == el0((2, (1, 0, 1, 0)), (1, (0, 0, 0, 0)))

    def test_remainder_head_is_irreducible_and_no_larger(self):
        rng = random.Random(17)
        basis = [G1, G2, G3]
        lts = [g.leading_term(SIGMA_ORDER)[0] for g in basis]
        for _ in range(40):
            f = Element.from_pairs(
                [
                    (Fraction(rng.randint(-3, 3)), tuple(rng.randint(0, 2) for _ in range(4)), 0)
                    for _ in range(rng.randint(1, 5))
                ]
            )
            r = reduce_element(f, basis, SIGMA_ORDER)
            if r:
                t, _ = r.leading_term(SIGMA_ORDER)
                assert not any(divides(lt, t) for lt in lts)
                if f:
                    assert SIGMA_ORDER.key(t) <= SIGMA_ORDER.key(f.leading_term(SIGMA_ORDER)[0])


class TestSPolynomial:
    def test_published_s_poly_of_saturation_pair(self):
        expected = el0((1, (1, 0, 1, 0)), (-1, (0, 1, 0, 1)))
        assert s_polynomial(G2, G3, SIGMA_ORDER) == expected

    def test_published_s_poly_g1_g2(self):
        assert s_polynomial(G1, G2, SIGMA_ORDER) == S_G1_G2

    def test_distinct_generators_vanish(self):
        f = Element({Term(0, (1, 0)): Fraction(1)})
        g = Element({Term(1, (0, 1)): Fraction(1)})
        assert not s_polynomial(f, g, DIFF_ORDER)

    def test_self_pair_vanishes(self):
        assert not s_polynomial(G1, G1, SIGMA_ORDER)


class TestBuchberger:
    def test_singleton_heat_equation(self):
        f = el0((1, (0, 1)), (-A, (2, 0)))
        gb = buchberger([f], DIFF_ORDER)
        assert len(gb) == 1 and gb.completed_size == 1
        t, c = gb.elements[0].leading_term(DIFF_ORDER)
        assert t == Term(0, (2, 0)) and c == 1
        # spans the same line
        assert not reduce_element(f, list(gb.elements), DIFF_ORDER)

    def test_heads_on_different_generators_are_both_kept(self):
        # x*u passes the guard-bit test against x^2*v on every field, the
        # generator field too: the minimality scan must run per generator
        inputs = [el((1, (1,), 0)), el((1, (2,), 1))]
        gb = buchberger(inputs, TermOrder((0,)))
        assert gb.elements == tuple(inputs)

    def test_diffusion_forward_completion(self):
        gb = buchberger(FORWARD_INPUTS, SIGMA_ORDER)
        assert len(gb) == 6
        assert gb.completed_size == 6
        want = {
            Term(0, (2, 0, 0, 0)),
            Term(0, (1, 0, 1, 0)),
            Term(0, (0, 1, 0, 1)),
            Term(0, (0, 1, 1, 0)),
            Term(0, (1, 0, 0, 1)),
            Term(0, (0, 0, 2, 1)),
        }
        assert set(gb.leads) == want
        # reduced basis is monic and equals the published set up to scaling
        for g in gb.elements:
            assert g.leading_term(SIGMA_ORDER)[1] == 1
        published_monic = {
            f.scaled(1 / f.leading_term(SIGMA_ORDER)[1]) for f in FORWARD_BASIS
        }
        assert set(gb.elements) == published_monic

    def test_result_shares_parts_with_inputs(self, monkeypatch):
        # the report's basis equals buchberger's, and a second report of the
        # same system shares the first one's terms
        monkeypatch.setattr(dimpoly.pipeline, "_pool", {})
        p = Presentation(
            kind="difference", operators=("x", "t", "y", "s"), unknowns=("u",), relations=FORWARD_INPUTS, parameter="a"
        )
        doc = compute_strength(p, order_names=("x", "t", "y", "s"))
        assert doc.basis.elements == buchberger(FORWARD_INPUTS, SIGMA_ORDER).elements
        gb = doc.basis
        again = compute_strength(p, order_names=("x", "t", "y", "s")).basis
        assert again.elements == gb.elements
        for f, g in zip(gb.elements, again.elements):
            assert all(s is t for s, t in zip(f.terms, g.terms))

    def test_divisor_lists_built_once_per_completion(self, monkeypatch):
        # the completion loop appends each new entry to its divisor lists;
        # it used to rebuild them from the whole basis at every reduction
        built = []
        real = dimpoly.groebner._divisors
        monkeypatch.setattr(dimpoly.groebner, "_divisors", lambda basis: built.append(len(basis)) or real(basis))
        gb = buchberger(FORWARD_INPUTS, SIGMA_ORDER, trace=lambda *pair: None)
        # one build for the completion loop, one for autoreduction
        assert built == [len(FORWARD_INPUTS), gb.completed_size]

    def test_zero_inputs_dropped(self):
        gb1 = buchberger([G1, Element(), G2, G3], SIGMA_ORDER)
        gb2 = buchberger([G1, G2, G3], SIGMA_ORDER)
        assert gb1.elements == gb2.elements

    def test_empty_input(self):
        gb = buchberger([], SIGMA_ORDER)
        assert gb.elements == ()

    def test_idempotence(self):
        gb = buchberger(FORWARD_INPUTS, SIGMA_ORDER)
        again = buchberger(gb.elements, SIGMA_ORDER)
        assert set(again.leads) == set(gb.leads)
        assert again.elements == gb.elements

    def test_rank_two_coprime_heads_still_pair(self):
        # x*e1 + e2 and y*e1 have coprime leading monomials, yet their
        # S-polynomial y*e2 is a new irreducible element: the coprime
        # criterion does not hold in modules of rank > 1
        g1 = el((1, (1, 0), 0), (1, (0, 0), 1))
        g2 = el((1, (0, 1), 0))
        gb = buchberger([g1, g2], DIFF_ORDER)
        assert len(gb) == 3
        assert Term(1, (0, 1)) in gb.leads
        assert not is_groebner_basis([g1, g2], DIFF_ORDER)

    def test_cofactors_expand_exactly(self):
        inputs = list(FORWARD_INPUTS)
        gb = buchberger(inputs, SIGMA_ORDER, track_cofactors=True)
        assert gb.cofactors is not None
        for g, cof in zip(gb.elements, gb.cofactors):
            assert combine(cof, inputs) == g

    def test_cofactors_number_inputs_by_position(self):
        # zero inputs keep their place in the numbering of the cofactors
        inputs = [Element(), FORWARD_INPUTS[0], Element(), *FORWARD_INPUTS[1:]]
        gb = buchberger(inputs, SIGMA_ORDER, track_cofactors=True)
        assert gb.elements == buchberger(FORWARD_INPUTS, SIGMA_ORDER).elements
        for g, cof in zip(gb.elements, gb.cofactors):
            assert combine(cof, inputs) == g
            assert {t.gen for t in cof.terms} <= {1, 3, 4}

    @pytest.mark.parametrize("scheme", [None, "forward", "symmetric"])
    @pytest.mark.parametrize("name", ["diffusion", "maxwell", "potential"])
    def test_builtin_cofactors_expand_to_the_untracked_basis(self, name, scheme):
        doc = compute_strength(
            builtin_system(name),
            system_name=name,
            scheme=builtin_scheme(name, scheme) if scheme else None,
            scheme_name=scheme,
        )
        inputs = list(doc.working.relations)
        gb = buchberger(inputs, doc.basis.order, track_cofactors=True)
        assert gb.elements == doc.basis.elements
        assert len(gb.cofactors) == len(gb.elements)
        for g, cof in zip(gb.elements, gb.cofactors):
            assert combine(cof, inputs) == g

    def test_trace_emitted(self):
        records = []
        buchberger(FORWARD_INPUTS, SIGMA_ORDER, trace=lambda *pair: records.append(pair))
        assert records and all(i < j for i, j, *_ in records)
        assert any(added is not None for *_, added in records)

    def test_trace_reproduces_published_reduction_chains(self):
        # every worked pair of the diffusion forward completion, with the
        # exact divisor sequence of its published reduction chain (0-based:
        # the literature's pair (1,3) is (0, 2) here) and the index of the
        # element it added, None when it reduced to 0
        records = []
        buchberger(FORWARD_INPUTS, SIGMA_ORDER, trace=lambda *pair: records.append(pair))
        chains = {(i, j): (chain, added) for i, j, _, chain, added in records}
        expected = {
            (0, 1): ([1], 3),
            (0, 2): ([2, 2, 0, 2], None),
            (0, 3): ([0, 0, 1, 3, 1, 3], None),
            (1, 2): ([1, 2], None),
            (1, 3): ([0, 1], None),
            (2, 3): ([], 4),
            (0, 4): ([1, 1, 2], None),
            (1, 4): ([], 5),
        }
        for pair, outcome in expected.items():
            assert chains[pair] == outcome, pair


class TestPairPruning:
    def test_trace_replays_every_pair(self):
        traced = buchberger(FORWARD_INPUTS, SIGMA_ORDER, trace=lambda *pair: None)
        pruned = buchberger(FORWARD_INPUTS, SIGMA_ORDER)
        assert traced.pairs_pruned == 0
        assert pruned.pairs_pruned > 0
        assert pruned.elements == traced.elements
        assert pruned.pairs_processed == traced.pairs_processed == 15

    def test_pruning_may_change_the_completed_set(self):
        # a skipped pair only has a representation below its lcm; its
        # S-polynomial need not head-reduce to zero, so the unpruned run can
        # add an element (and form pairs) that the pruned run never sees
        inputs = [
            el0((-3, (1, 1)), (1, (2, 0))),
            el0((2, (0, 0)), (-1, (2, 0))),
            el0((1, (1, 2)), (Fraction(1, 2), (2, 0))),
            el0((-1, (0, 2)), (Fraction(-3, 2), (1, 2)), (-3, (2, 1))),
        ]
        pruned = buchberger(inputs, DIFF_ORDER)
        replay = buchberger(inputs, DIFF_ORDER, trace=lambda *pair: None)
        assert pruned.elements == replay.elements
        assert is_groebner_basis(list(pruned.elements), DIFF_ORDER)
        assert (pruned.completed_size, pruned.pairs_processed) == (8, 28)
        assert (replay.completed_size, replay.pairs_processed) == (9, 36)

    def test_pair_budget(self, monkeypatch):
        # maxwell forward forms 230 pairs
        monkeypatch.setattr(dimpoly.groebner, "MAX_PAIRS_FORMED", 100)
        with pytest.raises(CompletionBudgetExceeded, match="more than 100 pairs"):
            compute_strength(builtin_system("maxwell"), scheme=builtin_scheme("maxwell", "forward"))


class TestIsGroebnerBasis:
    def test_published_forward_basis(self):
        assert is_groebner_basis(list(FORWARD_BASIS), SIGMA_ORDER)

    def test_incomplete_set(self):
        assert not is_groebner_basis([G1, G2], SIGMA_ORDER)

    def test_singleton(self):
        assert is_groebner_basis([G1], SIGMA_ORDER)


class TestAutoreduce:
    def test_divisible_head_dropped(self):
        dx = el0((1, (1, 0)))
        dx2 = el0((1, (2, 0)))
        assert autoreduce([dx, dx2], DIFF_ORDER) == [dx]

    def test_published_basis_is_already_reduced(self):
        reduced = autoreduce(list(FORWARD_BASIS), SIGMA_ORDER)
        assert len(reduced) == 6
        lts = [g.leading_term(SIGMA_ORDER)[0] for g in reduced]
        for s, t in itertools.permutations(lts, 2):
            assert not divides(s, t)
        for g in reduced:
            assert g.leading_term(SIGMA_ORDER)[1] == 1

    def test_tail_reduction(self):
        # the tail term x*y is rewritten modulo the second element
        f = el0((1, (2, 0)), (1, (1, 1)))
        g = el0((1, (1, 1)), (-1, (0, 1)))
        reduced = autoreduce([f, g], DIFF_ORDER)
        assert el0((1, (2, 0)), (1, (0, 1))) in reduced

    def test_deterministic_output_order(self):
        a = autoreduce(list(FORWARD_BASIS), SIGMA_ORDER)
        b = autoreduce(list(reversed(FORWARD_BASIS)), SIGMA_ORDER)
        assert a == b


class TestConfluenceOnBasis:
    def test_normal_form_independent_of_divisor_choice(self):
        gb = list(buchberger(FORWARD_INPUTS, SIGMA_ORDER).elements)
        rng = random.Random(23)
        for _ in range(25):
            f = Element.from_pairs(
                [
                    (Fraction(rng.randint(-4, 4)), tuple(rng.randint(0, 3) for _ in range(4)), 0)
                    for _ in range(rng.randint(1, 6))
                ]
            )
            baseline = normal_form(f, gb, SIGMA_ORDER)
            for _ in range(4):
                shuffled = gb[:]
                rng.shuffle(shuffled)
                assert normal_form(f, shuffled, SIGMA_ORDER) == baseline

    def test_head_reduction_canonical_parts(self):
        # head-only rewriting leaves a strategy-dependent tail, but whether
        # the remainder vanishes, and its leading term and coefficient when
        # it does not, are determined by the module alone
        gb = list(buchberger(FORWARD_INPUTS, SIGMA_ORDER).elements)
        rng = random.Random(24)
        for _ in range(40):
            f = Element.from_pairs(
                [
                    (Fraction(rng.randint(-4, 4)), tuple(rng.randint(0, 3) for _ in range(4)), 0)
                    for _ in range(rng.randint(1, 6))
                ]
            )
            baseline = reduce_element(f, gb, SIGMA_ORDER)
            for _ in range(4):
                shuffled = gb[:]
                rng.shuffle(shuffled)
                other = reduce_element(f, shuffled, SIGMA_ORDER)
                assert bool(other) == bool(baseline)
                if baseline:
                    assert other.leading_term(SIGMA_ORDER) == baseline.leading_term(SIGMA_ORDER)

    def test_each_step_strictly_decreases_the_head(self):
        # termination witness: replay single rewriting steps
        gb = list(buchberger(FORWARD_INPUTS, SIGMA_ORDER).elements)
        cached = [(g,) + g.leading_term(SIGMA_ORDER) for g in gb]
        rng = random.Random(25)
        from dimpoly import apply_monomial, quotient
        from dimpoly.coefficients import inverse

        for _ in range(30):
            r = Element.from_pairs(
                [
                    (Fraction(rng.randint(-4, 4)), tuple(rng.randint(0, 3) for _ in range(4)), 0)
                    for _ in range(rng.randint(1, 6))
                ]
            )
            steps = 0
            while r:
                t, c = r.leading_term(SIGMA_ORDER)
                hit = next(((g, tg, cg) for g, tg, cg in cached if divides(tg, t)), None)
                if hit is None:
                    break
                g, tg, cg = hit
                r = r - apply_monomial(quotient(t, tg), g).scaled(c * inverse(cg))
                steps += 1
                if r:
                    assert SIGMA_ORDER.key(r.leading_term(SIGMA_ORDER)[0]) < SIGMA_ORDER.key(t)
                assert steps < 500


# -- independent linear-algebra oracle ----------------------------------------


def _echelon_pivot_orders(rows, column_key):
    """Gaussian elimination over Q; returns the order of each pivot column."""
    pivots: dict[Term, dict[Term, Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row, key=column_key)
            if lead in pivots:
                other = pivots[lead]
                factor = row[lead] / other[lead]
                for t, c in other.items():
                    s = row.get(t, Fraction(0)) - factor * c
                    if s:
                        row[t] = s
                    else:
                        row.pop(t, None)
            else:
                pivots[lead] = row
                break
    return [sum(t.exps) for t in pivots]


def linear_free_counts(inputs, m, r_top, slack=8):
    """dim of the order filtration of the quotient module, by row reduction.

    Spans every shifted generator up to order r_top+slack, then counts echelon
    pivots of order <= r for each r: rows whose leading entry (in an
    order-descending column layout) falls inside the order-r block form a
    basis of the intersection with that block.
    """
    r_cap = r_top + slack
    rows = []
    for f in inputs:
        if not f:
            continue
        deg_f = max(sum(t.exps) for t in f.terms)
        for lam in itertools.product(range(r_cap + 1), repeat=m):
            if sum(lam) + deg_f <= r_cap:
                rows.append(apply_monomial(lam, f).terms)
    # columns descending by order so pivot order bounds the whole row
    column_key = lambda t: (-sum(t.exps), t.gen, t.exps)
    pivot_orders = _echelon_pivot_orders(rows, column_key)
    from math import comb

    counts = []
    for r in range(r_top + 1):
        inside = sum(1 for o in pivot_orders if o <= r)
        counts.append(comb(r + m, m) - inside)
    return counts


def random_system(rng, m=2, max_terms=3, hi=2):
    out = []
    for _ in range(rng.randint(1, 3)):
        f = Element.from_pairs(
            [
                (
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    tuple(rng.randint(0, hi) for _ in range(m)),
                    0,
                )
                for _ in range(rng.randint(1, max_terms))
            ]
        )
        if f:
            out.append(f)
    return out


class TestLinearAlgebraOracle:
    def test_staircase_counts_match_row_reduction(self):
        rng = random.Random(42)
        order = TermOrder((0, 1))
        checked = 0
        for _ in range(30):
            inputs = random_system(rng)
            if not inputs:
                continue
            gb = buchberger(inputs, order)
            stair = staircase_from_basis(gb.leads, q=1, n=2)
            expected = linear_free_counts(inputs, m=2, r_top=6)
            got = [free_term_count_oracle(stair, r) for r in range(7)]
            assert got == expected, f"inputs={inputs}"
            checked += 1
        assert checked >= 25

    def test_random_cofactors_expand(self):
        rng = random.Random(44)
        order = TermOrder((0, 1))
        for _ in range(15):
            inputs = random_system(rng)
            if not inputs:
                continue
            gb = buchberger(inputs, order, track_cofactors=True)
            for g, cof in zip(gb.elements, gb.cofactors):
                assert combine(cof, inputs) == g


# -- property tests over rank-2 modules ----------------------------------------

_terms = st.tuples(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 1),
)
_elements = st.lists(_terms, min_size=1, max_size=3).map(Element.from_pairs)
_systems = st.lists(_elements.filter(bool), min_size=1, max_size=3)


@given(inputs=_systems, f=_elements)
def test_rank_two_completion_properties(inputs, f):
    gb = buchberger(inputs, DIFF_ORDER, track_cofactors=True)
    elements = list(gb.elements)
    assert is_groebner_basis(elements, DIFF_ORDER)
    assert all(not normal_form(g, elements, DIFF_ORDER) for g in inputs)
    lts = gb.leads
    for t in normal_form(f, elements, DIFF_ORDER).terms:
        assert not any(divides(lt, t) for lt in lts)
    assert autoreduce(elements, DIFF_ORDER) == elements
    for g, cof in zip(elements, gb.cofactors):
        assert combine(cof, inputs) == g
    # the chain criterion changes which pairs are reduced; on this domain it
    # also leaves pairs formed and completed size as they are, which is not a
    # theorem (see test_pruning_may_change_the_completed_set).  A traced run
    # replays the unpruned completion and reports every pair.
    records = []
    replay = buchberger(inputs, DIFF_ORDER, trace=lambda *pair: records.append(pair))
    assert replay.pairs_pruned == 0
    assert gb.elements == replay.elements
    assert gb.completed_size == replay.completed_size
    assert gb.pairs_processed == replay.pairs_processed == len(records)
    assert gb.reduction_steps <= replay.reduction_steps
    assert 0 <= gb.pairs_pruned <= gb.pairs_processed


# -- the heap reducer against the rescanning loop it replaced -------------------


def _reference_reduce(f, cof, basis, order, full, chain):
    """The reduction loop before the heap and before monic entries: find the
    leading term by scanning the whole remainder at every step, and subtract
    whole elements divided by their leading coefficients."""
    done = {}
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
        factor = c * inverse(g.elem.leading_term(order)[1])
        r = r - apply_monomial(lam, g.elem).scaled(factor)
        if cof is not None:
            cof = cof - apply_monomial(lam, g.cof).scaled(factor)
        chain.append(i)
        steps += 1
    return (Element(done) if full else r), cof, steps


_over_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_over_qa = st.one_of(_over_q, st.sampled_from([A, -A, 2 * A, A + 1, 1 / A, (A - 1) / (A + 2)]))


@st.composite
def _reduction_inputs(draw):
    """(f, basis, order) with at most 3 operators and 2 generators."""
    n = draw(st.integers(1, 3))
    q = draw(st.integers(1, 2))
    coeff = draw(st.sampled_from([_over_q, _over_qa]))
    term = st.tuples(coeff, st.tuples(*[st.integers(0, 2)] * n), st.integers(0, q - 1))
    element = st.lists(term, min_size=1, max_size=4).map(Element.from_pairs)
    basis = draw(st.lists(element.filter(bool), min_size=1, max_size=3))
    return draw(element), basis, TermOrder(tuple(draw(st.permutations(range(n)))))


# y cancels in the first step (by x^2 + y - x) and comes back in the second
# (by x - y): the heap still holds its first entry when it is pushed again.
_RETURNING = (
    el0((1, (2, 0)), (1, (0, 1))),
    [el0((1, (2, 0)), (1, (0, 1)), (-1, (1, 0))), el0((1, (1, 0)), (-1, (0, 1)))],
    DIFF_ORDER,
)


# Exponents above 255, so no exponent or total fits one byte: x^300*y reduces
# by x^256 - y^255 to x^44*y^256, and y^257 by y^257 + 3*x^44 in full mode.
_WIDE = (
    el0((1, (300, 1)), (2, (0, 257))),
    [el0((1, (256, 0)), (-1, (0, 255))), el0((1, (0, 257)), (3, (44, 0)))],
    DIFF_ORDER,
)


def _element(entry, layout):
    """The monic element an entry holds, unpacked."""
    return layout.element({entry.head: 1, **dict(entry.tail)})


def _originals(basis, order, cofs=None):
    """Entries that keep each element as given, leading coefficient and all."""
    cofs = cofs or [None] * len(basis)
    return [SimpleNamespace(elem=g, lt=g.leading_term(order)[0], cof=u) for g, u in zip(basis, cofs)]


@given(inputs=_reduction_inputs(), full=st.booleans(), tracked=st.booleans())
@example(inputs=_RETURNING, full=False, tracked=True)
@example(inputs=_RETURNING, full=True, tracked=False)
@example(inputs=_WIDE, full=True, tracked=True)
def test_reduce_matches_the_rescanning_loop(inputs, full, tracked):
    """The heap reducer over monic entries agrees with the rescanning loop
    over the original elements, which divides by their leading coefficients
    at every step."""
    f, basis, order = inputs
    layout = _Layout(order.sequence)
    zero = (0,) * len(order.sequence)
    cofs = [Element({Term(k, zero): 1}) for k in range(len(basis) + 1)] if tracked else None
    # cofactors enter the reducer as packed rows and are unpacked to compare
    entries = [_Tracked(layout.rows(g), layout, cofs and layout.rows(cofs[k])) for k, g in enumerate(basis)]
    assert all(_element(g, layout).leading_term(order)[1] == 1 for g in entries)
    cof = cofs and cofs[-1]
    chain, want_chain = [], []
    r, rows, steps = _reduce(layout.rows(f), cof and layout.rows(cof), _divisors(entries), layout, full, chain)
    got = layout.element(r), (None if rows is None else layout.element(rows)), steps
    assert got == _reference_reduce(f, cof, _originals(basis, order, cofs), order, full, want_chain)
    assert chain == want_chain


def test_returning_term_is_reduced_in_two_steps():
    f, basis, order = _RETURNING
    layout = _Layout(order.sequence)
    chain = []
    r, _, steps = _reduce(layout.rows(f), None, _divisors(_track(basis, layout)), layout, False, chain)
    assert (layout.element(r), steps, chain) == (el0((1, (0, 1))), 2, [0, 1])


# -- monic entries: a leading coefficient is divided out once, on entry ---------


def _reference_s_poly(g1, g2, order):
    """The S-polynomial with both shifts divided by their leading
    coefficients, as it was formed before entries were monic."""
    (t1, c1), (t2, c2) = g1.leading_term(order), g2.leading_term(order)
    if t1.gen != t2.gen:
        return Element()
    lcm = Term(t1.gen, tuple(map(max, t1.exps, t2.exps)))
    return apply_monomial(quotient(lcm, t1), g1).scaled(inverse(c1)) - apply_monomial(
        quotient(lcm, t2), g2
    ).scaled(inverse(c2))


def _reference_is_groebner(basis, order):
    originals = _originals(basis, order)
    return all(
        not _reference_reduce(_reference_s_poly(a.elem, b.elem, order), None, originals, order, False, [])[0]
        for i, a in enumerate(originals)
        for b in originals[i + 1 :]
    )


_SCALES = [2, Fraction(-1, 3), A, -A, A + 1, 1 / (A + 1)]


class TestMonicEntries:
    def test_entry_is_monic_with_its_cofactor_scaled_alike(self):
        g = el0((A + 1, (1, 0)), (2 * A, (0, 1)), (-1, (0, 0)))
        cof = el0((1, (0, 0)))
        layout = _Layout(DIFF_ORDER.sequence)
        entry = _Tracked(layout.rows(g), layout, layout.rows(cof))
        assert _element(entry, layout) == g.scaled(1 / (A + 1))
        assert layout.element(entry.cof) == cof.scaled(1 / (A + 1))
        assert layout.unpack(entry.head) == Term(0, (1, 0))
        monic = _Tracked(layout.rows(_element(entry, layout)), layout, entry.cof)
        assert monic.tail == entry.tail and monic.cof is entry.cof

    def test_cofactors_expand_over_q_a_with_non_monic_heads(self):
        # u = generator 0, v = generator 1; operators x, y
        inputs = [
            el((A + 1, (1, 0), 1), (1, (0, 1), 0), (-1, (0, 0), 0)),
            el((2 * A, (0, 1), 1), (1, (1, 0), 0)),
            el((1 / (A + 1), (1, 1), 0), (-A, (0, 0), 1)),
        ]
        assert all(g.leading_term(DIFF_ORDER)[1] != 1 for g in inputs)
        gb = buchberger(inputs, DIFF_ORDER, track_cofactors=True)
        assert len(gb) > 1
        for g, cof in zip(gb.elements, gb.cofactors):
            assert g.leading_term(DIFF_ORDER)[1] == 1
            assert combine(cof, inputs) == g
        assert is_groebner_basis(list(gb.elements), DIFF_ORDER)
        assert all(not normal_form(g, list(gb.elements), DIFF_ORDER) for g in inputs)

    @pytest.mark.parametrize("scale", _SCALES, ids=str)
    def test_scaled_published_completion(self, scale):
        # scaling the inputs changes neither the basis nor a pair of the trace
        scaled = [g.scaled(scale) for g in FORWARD_INPUTS]
        records, want = [], []
        gb = buchberger(scaled, SIGMA_ORDER, trace=lambda *pair: records.append(pair))
        published = buchberger(FORWARD_INPUTS, SIGMA_ORDER, trace=lambda *pair: want.append(pair))
        assert gb == published and records == want
        basis = [g.scaled(scale) for g in FORWARD_BASIS]
        assert is_groebner_basis(basis, SIGMA_ORDER) and _reference_is_groebner(basis, SIGMA_ORDER)

    @given(inputs=_reduction_inputs(), scale=st.sampled_from(_SCALES))
    def test_non_monic_inputs_give_the_same_results(self, inputs, scale):
        f, basis, order = inputs
        scaled = [g.scaled(scale) for g in basis]
        want = _reference_s_poly(basis[0], basis[-1], order)
        assert s_polynomial(basis[0], basis[-1], order) == want
        assert s_polynomial(scaled[0], scaled[-1], order) == want
        want = _reference_reduce(f, None, _originals(basis, order), order, True, [])[0]
        assert normal_form(f, basis, order) == want == normal_form(f, scaled, order)
        want = _reference_is_groebner(basis, order)
        assert is_groebner_basis(basis, order) == want == is_groebner_basis(scaled, order)


# -- packed terms: one int per term inside completion ---------------------------


@st.composite
def _packed_terms(draw):
    """(order, s, t, lam): up to 8 operators, up to 3 generators, exponents up
    to 10^5 and a random operator sequence; t is often s shifted by lam."""
    n = draw(st.integers(0, 8))
    q = draw(st.integers(1, 3))
    order = TermOrder(tuple(draw(st.permutations(range(n)))))
    exps = st.tuples(*[st.integers(0, 10**5)] * n)
    s, lam = Term(draw(st.integers(0, q - 1)), draw(exps)), draw(exps)
    if draw(st.booleans()):
        t = Term(s.gen, tuple(a + b for a, b in zip(s.exps, lam)))
    else:
        t = Term(draw(st.integers(0, q - 1)), draw(exps))
    return order, s, t, lam


@given(_packed_terms())
def test_packed_terms_agree_with_the_term_functions(terms):
    order, s, t, lam = terms
    layout = _Layout(order.sequence)
    ps, pt = layout.pack(s), layout.pack(t)
    assert layout.unpack(ps) == s and layout.unpack(pt) == t
    assert (ps < pt, ps == pt) == (order.key(s) < order.key(t), order.key(s) == order.key(t))
    # s divides t iff their lcm is t
    assert (layout.lcm(ps, pt) == pt) == divides(s, t)
    assert (layout.lcm(pt, ps) == ps) == divides(t, s)
    (shifted,) = apply_monomial(lam, Element({s: 1})).terms
    assert layout.unpack(ps + layout.pack(Term(0, lam))) == shifted
    if divides(s, t):
        assert pt - ps == layout.pack(Term(0, quotient(t, s)))


@given(_packed_terms(), st.integers(0, 7), st.integers(1, 10**5), st.integers(0, 10**5))
def test_packing_refuses_what_does_not_fit(terms, at, minus, over):
    order, s, _, _ = terms
    layout = _Layout(order.sequence)
    n = len(s.exps)
    limit = 1 << (FIELD_BITS - 1)
    if n:
        at %= n
        negative = Term(s.gen, s.exps[:at] + (-minus,) + s.exps[at + 1 :])
        with pytest.raises(ValueError, match="negative exponent"):
            layout.pack(negative)
        rest = sum(s.exps) - s.exps[at]
        widest = Term(s.gen, s.exps[:at] + (limit - 1 - rest,) + s.exps[at + 1 :])
        assert layout.unpack(layout.pack(widest)) == widest
        too_wide = Term(s.gen, s.exps[:at] + (limit + over - rest,) + s.exps[at + 1 :])
        with pytest.raises(ValueError, match=r"cannot pack term Term\(gen="):
            layout.pack(too_wide)
    with pytest.raises(ValueError, match="generator index"):
        layout.pack(Term(limit + over, s.exps))


@st.composite
def _antichain_inputs(draw):
    """(sequence, generator, vectors): up to 6 operators in a random
    sequence, one generator and up to 10 small exponent vectors."""
    n = draw(st.integers(1, 6))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=10))
    return tuple(draw(st.permutations(range(n)))), draw(st.integers(0, 3)), vectors


@given(_antichain_inputs())
def test_one_antichain_scan_serves_both_packings(drawn):
    # completion's packing (one generator) and the staircase's keep the
    # reference's vectors, each ascending in its own packed order
    sequence, gen, vectors = drawn
    want = minimal_antichain(vectors)
    layout = _Layout(sequence)
    packed = {layout.pack(Term(gen, v)): v for v in vectors}
    kept = [packed[t] for t in _minimal_antichain(packed, layout.guards)]
    assert kept == sorted(want, key=lambda v: layout.pack(Term(gen, v)))
    packing = _Packing(len(sequence), max(map(sum, vectors), default=0))
    packed = {packing.pack(v): v for v in vectors}
    assert [packed[x] for x in _minimal_antichain(packed, packing.guards)] == want


@st.composite
def _lcm_terms(draw):
    """(order, s, t): 1 to 8 operators, a random sequence, and two packable
    terms of any total, so that their lcm's total may reach the limit."""
    n = draw(st.integers(1, 8))
    order = TermOrder(tuple(draw(st.permutations(range(n)))))

    def term():
        total = draw(st.integers(0, (1 << (FIELD_BITS - 1)) - 1))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
        return Term(draw(st.integers(0, 3)), tuple(b - a for a, b in zip([0, *cuts], [*cuts, total])))

    return order, term(), term()


@given(_lcm_terms())
@example(terms=(TermOrder((1, 0)), Term(1, ((1 << (FIELD_BITS - 1)) - 1, 0)), Term(2, (0, 1))))
def test_packed_lcm_is_the_fieldwise_max(terms):
    order, s, t = terms
    layout = _Layout(order.sequence)
    lcm = Term(s.gen, tuple(map(max, s.exps, t.exps)))
    try:
        want = layout.pack(lcm)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            layout.lcm(layout.pack(s), layout.pack(t))
    else:
        assert layout.lcm(layout.pack(s), layout.pack(t)) == want


def test_lcm_total_of_exactly_the_limit_is_refused_on_its_generator():
    limit = 1 << (FIELD_BITS - 1)
    layout = _Layout((2, 0, 1))
    s, t = Term(3, (limit - 5, 0, 4)), Term(3, (0, 1, 0))
    lcm = re.escape(str(Term(3, (limit - 5, 1, 4))))
    with pytest.raises(ValueError, match=f"cannot pack term {lcm}: total order"):
        layout.lcm(layout.pack(s), layout.pack(t))
    # one below the limit packs
    assert layout.unpack(layout.lcm(layout.pack(s), layout.pack(Term(3, (0, 0, 3))))) == s


@pytest.mark.parametrize("exps", [(), (7,), (7, 0), (1, 2, 3)])
def test_unpack_round_trips_at_every_width(exps):
    # with one operator the exponents are a 1-tuple, not the bare field
    for sequence in itertools.permutations(range(len(exps))):
        layout = _Layout(sequence)
        term = Term(2, exps)
        assert layout.unpack(layout.pack(term)) == term
        assert type(layout.unpack(layout.pack(term)).exps) is tuple


def test_entry_with_leading_coefficient_minus_one_holds_ints():
    layout = _Layout(DIFF_ORDER.sequence)
    g = el0((-1, (1, 0)), (3, (0, 1)), (Fraction(-1, 2), (0, 0)))
    entry = _Tracked(layout.rows(g), layout, {layout.pack(Term(0, (0, 0))): Fraction(-2)})
    assert _element(entry, layout) == -g and layout.element(entry.cof) == el0((2, (0, 0)))
    assert [type(c) for _, c in entry.tail] == [int, Fraction]
    assert [type(c) for c in entry.cof.values()] == [int]


def test_completion_refuses_an_lcm_beyond_the_field_width():
    # each input packs, but the lcm of their leading terms has total 2^31
    top = (1 << (FIELD_BITS - 1)) - 1
    inputs = [el0((1, (top, 0))), el0((1, (top - 1, 1)))]
    layout = _Layout(DIFF_ORDER.sequence)
    heads = [layout.pack(Term(0, (top, 0))), layout.pack(Term(0, (top - 1, 1)))]
    assert [_Tracked(layout.rows(g), layout).head for g in inputs] == heads
    lcm = re.escape(str(Term(0, (top, 1))))
    with pytest.raises(ValueError, match=f"cannot pack term {lcm}"):
        buchberger(inputs, DIFF_ORDER)
    with pytest.raises(ValueError, match=f"cannot pack term {lcm}"):
        s_polynomial(*inputs, DIFF_ORDER)


def test_cofactor_beyond_the_field_width_is_refused():
    # the entry's cofactor has a term of total 2^31 - 1; the first step of
    # reducing x^2 by x - 1 shifts it by x, to total 2^31
    top = (1 << (FIELD_BITS - 1)) - 1
    layout = _Layout(DIFF_ORDER.sequence)
    f, start = layout.rows(el0((1, (2, 0)))), {layout.pack(Term(1, (0, 0))): 1}
    for edge, fits in ((top - 1, True), (top, False)):
        cof = {layout.pack(Term(0, (edge, 0))): 1}
        divisors = _divisors([_Tracked(layout.rows(el0((1, (1, 0)), (-1, (0, 0)))), layout, cof)])
        if fits:
            _, rows, steps = _reduce(f, start, divisors, layout, full=False)
            assert steps == 2 and layout.unpack(max(rows)) == Term(0, (top, 0))
        else:
            wide = re.escape(str(Term(0, (top + 1, 0))))
            with pytest.raises(ValueError, match=f"cofactor term {wide}: total order reached 2\\*\\*31"):
                _reduce(f, start, divisors, layout, full=False)


# -- no int coefficient leaves the reducer --------------------------------------


def _coefficient_types(elements):
    return {type(c) for f in elements if f is not None for c in f.terms.values()}


@pytest.mark.parametrize(
    "inputs, order",
    [
        (FORWARD_INPUTS, SIGMA_ORDER),
        (
            [el0((2, (1, 1)), (-4, (0, 0))), el0((1, (2, 0)), (3, (0, 1))), el0((6, (0, 2)), (-2, (1, 0)))],
            DIFF_ORDER,
        ),
    ],
    ids=["over-q-a", "over-q"],
)
def test_every_coefficient_leaves_as_fraction_or_rational_function(inputs, order):
    # integral coefficients are ints inside the reducer; the report pool of
    # dimpoly.pipeline keys on type, so an int escaping would split it
    traced = []
    gb = buchberger(inputs, order, track_cofactors=True, trace=lambda *pair: traced.append(pair[2]))
    f = Element.from_pairs([(3, (2,) * len(order.sequence), 0), (-2, (1,) * len(order.sequence), 0)])
    out = [*gb.elements, *gb.cofactors, *traced, normal_form(f, inputs, order), reduce_element(f, inputs, order)]
    out += [s_polynomial(g, h, order) for g in inputs for h in inputs]
    zero = (0,) * len(order.sequence)
    layout = _Layout(order.sequence)
    for full in (False, True):
        # cofactors are packed rows inside the reducer
        entries = [_Tracked(layout.rows(g), layout, layout.rows(u)) for g, u in zip(gb.elements, gb.cofactors)]
        start = layout.rows(Element({Term(len(inputs), zero): 1}))
        r, cof, _ = _reduce(layout.rows(f), start, _divisors(entries), layout, full)
        out += [layout.element(r), layout.element(cof)]
    assert any(g.terms for g in out)
    assert _coefficient_types(out) <= {Fraction, RationalFunction}
