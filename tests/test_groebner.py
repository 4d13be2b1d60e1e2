import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import dimpoly.groebner
from dimpoly import (
    CompletionBudgetExceeded,
    Element,
    Term,
    TermOrder,
    apply_monomial,
    autoreduce,
    buchberger,
    combine,
    divides,
    is_groebner_basis,
    normal_form,
    reduce_element,
    s_polynomial,
    staircase_from_basis,
    free_term_count_oracle,
)
from dimpoly.builtin_systems import builtin_scheme, builtin_system
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
        assert set(gb.leading_terms()) == want
        # reduced basis is monic and equals the published set up to scaling
        for g in gb.elements:
            assert g.leading_term(SIGMA_ORDER)[1] == 1
        published_monic = {
            f.scaled(1 / f.leading_term(SIGMA_ORDER)[1]) for f in FORWARD_BASIS
        }
        assert set(gb.elements) == published_monic

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
        assert set(again.leading_terms()) == set(gb.leading_terms())
        assert again.elements == gb.elements

    def test_rank_two_coprime_heads_still_pair(self):
        # x*e1 + e2 and y*e1 have coprime leading monomials, yet their
        # S-polynomial y*e2 is a new irreducible element: the coprime
        # criterion does not hold in modules of rank > 1
        g1 = el((1, (1, 0), 0), (1, (0, 0), 1))
        g2 = el((1, (0, 1), 0))
        gb = buchberger([g1, g2], DIFF_ORDER)
        assert len(gb) == 3
        assert Term(1, (0, 1)) in gb.leading_terms()
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

    def test_trace_emitted(self):
        lines = []
        buchberger(FORWARD_INPUTS, SIGMA_ORDER, trace=lines.append)
        assert lines and all(line.startswith("pair (") for line in lines)
        assert any("added" in line for line in lines)

    def test_trace_reproduces_published_reduction_chains(self):
        # every worked pair of the diffusion forward completion, with the
        # exact divisor sequence of its published reduction chain
        lines = []
        buchberger(FORWARD_INPUTS, SIGMA_ORDER, trace=lines.append)
        chains = {line.split(":")[0].strip(): line for line in lines}
        expected = {
            "pair (1,2)": ("via [g2]", "added g4"),
            "pair (1,3)": ("via [g3, g3, g1, g3]", "reduced to 0"),
            "pair (1,4)": ("via [g1, g1, g2, g4, g2, g4]", "reduced to 0"),
            "pair (2,3)": ("via [g2, g3]", "reduced to 0"),
            "pair (2,4)": ("via [g1, g2]", "reduced to 0"),
            "pair (3,4)": ("via [-]", "added g5"),
            "pair (1,5)": ("via [g2, g2, g3]", "reduced to 0"),
            "pair (2,5)": ("via [-]", "added g6"),
        }
        for pair, (chain, outcome) in expected.items():
            line = chains[pair]
            assert chain in line and outcome in line, line


class TestPairPruning:
    def test_trace_replays_every_pair(self):
        traced = buchberger(FORWARD_INPUTS, SIGMA_ORDER, trace=lambda _: None)
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
        replay = buchberger(inputs, DIFF_ORDER, trace=lambda _: None)
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
            stair = staircase_from_basis(gb.elements, order, q=1, n=2)
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
    lts = gb.leading_terms()
    for t in normal_form(f, elements, DIFF_ORDER).terms:
        assert not any(divides(lt, t) for lt in lts)
    assert autoreduce(elements, DIFF_ORDER) == elements
    for g, cof in zip(elements, gb.cofactors):
        assert combine(cof, inputs) == g
    # the chain criterion changes which pairs are reduced; on this domain it
    # also leaves pairs formed and completed size as they are, which is not a
    # theorem (see test_pruning_may_change_the_completed_set).  A traced run
    # replays the unpruned completion and reports every pair.
    lines = []
    replay = buchberger(inputs, DIFF_ORDER, trace=lines.append)
    assert replay.pairs_pruned == 0
    assert gb.elements == replay.elements
    assert gb.completed_size == replay.completed_size
    assert gb.pairs_processed == replay.pairs_processed == len(lines)
    assert gb.reduction_steps <= replay.reduction_steps
    assert 0 <= gb.pairs_pruned <= gb.pairs_processed
