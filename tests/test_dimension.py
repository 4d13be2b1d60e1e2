import dataclasses
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import dimpoly.dimension as dimension
from dimpoly import (
    OracleBudgetExceeded,
    PolyQ,
    RationalFunction,
    Staircase,
    TermOrder,
    buchberger,
    compare_strength,
    dimension_polynomial,
    expand_binomial_basis,
    free_module_polynomial,
    free_term_counts,
    parse_poly,
    poly_str,
    staircase_from_basis,
    validate_polynomial,
)
from dimpoly.dimension import MAX_ORACLE_CELLS, binomial_poly, lagrange_interpolate

from conftest import A, FORWARD_INPUTS, SIGMA_ORDER, el0
from reference import free_term_count_oracle, to_binomial_basis

# Leading-term exponent vectors read off the published diffusion bases.
FORWARD_STAIRCASE = Staircase.build(
    [[(2, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 2, 1)]], 4
)
SYMMETRIC_STAIRCASE = Staircase.build(
    [[(1, 0, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 2, 1)]], 4
)
HEAT_STAIRCASE = Staircase.build([[(2, 0)]], 2)


class TestStaircase:
    def test_from_heat_basis(self):
        order = TermOrder((0, 1))
        gb = buchberger([el0((1, (0, 1)), (-A, (2, 0)))], order)
        stair = staircase_from_basis(gb.elements, order, q=1, n=2)
        assert stair.per_generator == (((2, 0),),)

    def test_from_forward_basis(self):
        gb = buchberger(FORWARD_INPUTS, SIGMA_ORDER)
        stair = staircase_from_basis(gb.elements, SIGMA_ORDER, q=1, n=4)
        assert set(stair.per_generator[0]) == set(FORWARD_STAIRCASE.per_generator[0])

    def test_minimization(self):
        stair = Staircase.build([[(1, 0), (2, 0)]], 2)
        assert stair.per_generator == (((1, 0),),)

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            Staircase.build([[(1, -1)]], 2)
        with pytest.raises(ValueError):
            Staircase.build([[(1, 0, 0)]], 2)


class TestOracle:
    def test_heat_count(self):
        assert free_term_count_oracle(HEAT_STAIRCASE, 3) == 7

    def test_free_count(self):
        stair = Staircase.build([[]], 2)
        assert free_term_count_oracle(stair, 2) == 6

    def test_unit_vector_blocks_everything(self):
        stair = Staircase.build([[(0, 0)]], 2)
        assert all(free_term_count_oracle(stair, r) == 0 for r in range(6))

    def test_batched_counts_match_single(self):
        rng = random.Random(100)
        for _ in range(15):
            n = rng.randint(1, 4)
            stair = Staircase.build(
                [
                    [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 3))]
                    for _ in range(rng.randint(1, 2))
                ],
                n,
            )
            counts = free_term_counts(stair, 8)
            assert counts == [free_term_count_oracle(stair, r) for r in range(9)]
        # one staircase with vectors of order exactly r and r + 1, counted
        # to both orders
        r = 40
        stair = Staircase.build([[(r, 0, 0), (19, 21, 0), (1, 1, r - 1)], [(0, 0, r + 1)], []], 3)
        assert free_term_counts(stair, r + 1)[r:] == [free_term_count_oracle(stair, s) for s in (r, r + 1)]

    def test_budget_refused_before_enumerating(self):
        # 8 operators to r = 30 are C(38, 8) = 48.9M terms, but only one slice
        # per operator and the empty one: 9 x 31 cells
        stair = Staircase.build([[(30,) + (0,) * 7]], 8)
        assert free_term_counts(stair, 30)[30] == dimension_polynomial(stair).polynomial(30)
        assert free_term_counts(stair, 2) == [1, 9, 45]
        # 9 x 1,200,001 cells: refused before any count is made
        assert 9 * 1_200_001 > MAX_ORACLE_CELLS
        tracemalloc.start()
        try:
            with pytest.raises(OracleBudgetExceeded, match="9 slices"):
                free_term_counts(stair, 1_200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_many_unknowns_refused(self):
        # one operator to r = 10^6 is 10^6 + 1 terms, but sixteen unknowns
        # make 16 slices besides the empty one, each of 10^6 + 1 counts
        stair = Staircase.build([[(j + 1,)] for j in range(16)], 1)
        start = time.perf_counter()
        with pytest.raises(OracleBudgetExceeded, match="17 slices"):
            free_term_counts(stair, 10**6)
        assert time.perf_counter() - start < 1
        assert free_term_counts(stair, 20)[-1] == sum(range(1, 17))

    def test_orders_beyond_int16(self):
        # one operator: the cell budget admits orders far above 2^15
        stair = Staircase.build([[(37000,)], [(50000,)], []], 1)
        counts = free_term_counts(stair, 40000)
        assert counts[-1] == free_term_count_oracle(stair, 40000) == 37000 + 2 * 40001
        assert counts[36999] == free_term_count_oracle(stair, 36999)
        # vectors of order above r_max divide none of the counted terms
        assert free_term_counts(stair, 5) == [3 * (r + 1) for r in range(6)]

    def test_one_operator_is_linear_in_r(self):
        # the cell budget admits r up to 4,999,999 on this staircase of two
        # slices; building the grid with a Python loop per order took 15 s
        # at r = 9,999,999 on a 2-CPU Xeon
        start = time.perf_counter()
        counts = free_term_counts(Staircase.build([[(3,)]], 1), 2_000_000)
        assert counts[-1] == 3 and counts[:4] == [1, 2, 3, 3]
        assert type(counts[-1]) is int
        assert time.perf_counter() - start < 5

    def test_row_budget_in_little_memory(self):
        # at the old row budget (8 operators, r = 23: 7,888,725 terms) the
        # enumeration peaked near 87 MB; the count holds a few lists of r + 1
        stair = Staircase.build([[(3,) + (0,) * 7]], 8)
        tracemalloc.start()
        try:
            counts = free_term_counts(stair, 23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts[-1] == sum(math.comb(30 - e, 7) for e in range(3))
        assert peak < 2**20

    def test_one_list_per_slice(self):
        # the empty slice's running sums are a range, and the top slice keeps
        # only its counts: about 7 words per order at the peak, where a
        # counts list and a running-sums list per slice took 12
        r = 50_000
        tracemalloc.start()
        try:
            counts = free_term_counts(Staircase.build([[(3,)]], 1), r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts[-1] == 3
        assert peak < 9 * 8 * (r + 1)

    def test_many_operators(self):
        # one slice per operator, counted without recursing 1,500 deep
        stair = Staircase.build([[(1,) + (0,) * 1499], []], 1500)
        assert free_term_counts(stair, 1) == [2, 3001]


class TestDimensionPolynomial:
    def test_heat(self):
        report = dimension_polynomial(HEAT_STAIRCASE, kind="differential")
        assert report.polynomial == parse_poly("2*t+1")
        assert report.validity_threshold == 0

    def test_diffusion_forward(self):
        report = dimension_polynomial(FORWARD_STAIRCASE, kind="inversive")
        assert report.polynomial == parse_poly("5*t")

    def test_diffusion_symmetric(self):
        report = dimension_polynomial(SYMMETRIC_STAIRCASE, kind="inversive")
        assert report.polynomial == parse_poly("4*t")

    def test_wide_antichain(self):
        # 26 vectors: 2^26 subsets for inclusion-exclusion, no cap here
        stair = Staircase.build([[(i, 26 - i) for i in range(26)]], 2)
        report = dimension_polynomial(stair, kind="difference")
        assert report.polynomial == parse_poly("t+326")
        assert report.validity_threshold == 25
        counts = free_term_counts(stair, 29)
        assert all(report.polynomial(r) == counts[r] for r in range(25, 30))

    def test_matches_oracle_exhaustively_small(self):
        grid = list(itertools.product(range(3), repeat=2))
        for k in range(3):
            for vectors in itertools.combinations(grid, k):
                stair = Staircase.build([list(vectors)], 2)
                report = dimension_polynomial(stair, kind="difference")
                r0 = report.validity_threshold
                counts = free_term_counts(stair, r0 + 4)
                for r in range(r0, r0 + 5):
                    assert report.polynomial(r) == counts[r]

    def test_matches_oracle_random(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randint(3, 4)
            q = rng.randint(1, 2)
            stair = Staircase.build(
                [
                    [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 4))]
                    for _ in range(q)
                ],
                n,
            )
            report = dimension_polynomial(stair, kind="difference")
            r0 = report.validity_threshold
            counts = free_term_counts(stair, r0 + 3)
            for r in range(r0, r0 + 4):
                assert report.polynomial(r) == counts[r]

    def test_dominated_vector_invariance(self):
        rng = random.Random(102)
        for _ in range(25):
            n = rng.randint(2, 4)
            vectors = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            base = dimension_polynomial(Staircase.build([vectors], n), kind="difference")
            bump = tuple(v + rng.randint(0, 2) for v in vectors[0])
            grown = dimension_polynomial(Staircase.build([vectors + [bump]], n), kind="difference")
            assert base.polynomial == grown.polynomial

    def test_new_minimal_vector_never_increases(self):
        rng = random.Random(103)
        for _ in range(25):
            n = rng.randint(2, 3)
            vectors = [tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(rng.randint(0, 3))]
            extra = tuple(rng.randint(0, 3) for _ in range(n))
            base = dimension_polynomial(Staircase.build([vectors], n), kind="difference")
            more = dimension_polynomial(Staircase.build([vectors + [extra]], n), kind="difference")
            assert compare_strength(more.polynomial, base.polynomial) in ("stronger", "equal")


def shifted_binomial(n, f):
    """C(t + n - f, n) expanded as a polynomial in t."""
    p = PolyQ((1,))
    for j in range(n):
        p = p * PolyQ((n - f - j, 1))
    return p.scaled(Fraction(1, math.factorial(n)))


def inclusion_exclusion(stair):
    """The polynomial as a signed sum of C(t + n - f, n) over every subset of
    each antichain, f the degree of the subset's lcm."""
    total = PolyQ()
    for antichain in stair.per_generator:
        for size in range(len(antichain) + 1):
            for subset in itertools.combinations(antichain, size):
                f = sum(map(max, zip(*subset)))
                total = total + shifted_binomial(stair.n, f).scaled((-1) ** size)
    return total


@st.composite
def staircases(draw, max_n=4, max_vectors=8):
    n = draw(st.integers(1, max_n))
    vector = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(st.lists(vector, max_size=max_vectors), min_size=1, max_size=2))
    return Staircase.build(gens, n)


@st.composite
def sparse_staircases(draw):
    """Staircases at the doubled-ring shape of the scheme cases: up to eight
    operators, each vector with at most three nonzero exponents."""
    n = draw(st.integers(1, 8))
    support = st.lists(st.integers(0, n - 1), max_size=3, unique=True)
    exponents = st.lists(st.integers(1, 4), min_size=3, max_size=3)

    def vector(cols, es):
        v = [0] * n
        for c, e in zip(cols, es):
            v[c] = e
        return tuple(v)

    vectors = st.builds(vector, support, exponents)
    gens = draw(st.lists(st.lists(vectors, max_size=6), min_size=1, max_size=2))
    return Staircase.build(gens, n)


class TestOracleTable:
    @given(staircases(), st.integers(0, 8))
    def test_equals_single_counts(self, stair, r_max):
        counts = free_term_counts(stair, r_max)
        assert counts == [free_term_count_oracle(stair, r) for r in range(r_max + 1)]

    @given(sparse_staircases(), st.integers(0, 6))
    def test_doubled_ring_shape(self, stair, r_max):
        counts = free_term_counts(stair, r_max)
        assert counts == [free_term_count_oracle(stair, r) for r in range(r_max + 1)]

    def test_independent_of_the_symbolic_route(self, monkeypatch):
        expected = [free_term_count_oracle(FORWARD_STAIRCASE, r) for r in range(7)]
        for name in ("_hilbert_numerator", "_minimal_antichain", "_add", "_eval", "_mul", "_neg"):
            monkeypatch.setattr(dimension, name, None)
        assert free_term_counts(FORWARD_STAIRCASE, 6) == expected

    def test_zero_vector_blocks_every_row(self):
        zero = (0,) * 8
        stair = Staircase.build([[zero, (1,) + (0,) * 7]], 8)
        assert free_term_counts(stair, 4) == [0] * 5
        # another generator's free terms are still counted
        stair = Staircase.build([[zero], [(0,) * 7 + (1,)]], 8)
        assert free_term_counts(stair, 4) == [math.comb(r + 7, 7) for r in range(5)]

    def test_no_operators(self):
        # one term, the empty product, at every order
        assert free_term_counts(Staircase.build([[], []], 0), 3) == [2] * 4
        assert free_term_counts(Staircase.build([[()]], 0), 3) == [0] * 4
        assert free_term_count_oracle(Staircase.build([[]], 0), 3) == 1

    def test_vectors_above_r_max_block_nothing(self):
        stair = Staircase.build([[(5, 0, 0), (0, 2, 2), (1, 1, 1)]], 3)
        free = [math.comb(r + 3, 3) for r in range(5)]
        assert free_term_counts(stair, 2) == free[:3]
        assert free_term_counts(stair, 4) == [free_term_count_oracle(stair, r) for r in range(5)]
        assert free_term_counts(stair, 4)[3] == free[3] - 1


class TestHilbertNumerator:
    @given(staircases())
    def test_random_staircases(self, stair):
        report = dimension_polynomial(stair, kind="difference")
        assert report.polynomial == inclusion_exclusion(stair)
        n, r0 = stair.n, report.validity_threshold
        counts = free_term_counts(stair, r0 + n + 2)
        assert all(report.polynomial(r) == counts[r] for r in range(r0, r0 + n + 3))
        # never above the sum of componentwise maxima, and sharp
        old_bound = max((sum(map(max, zip(*a))) for a in stair.per_generator if a), default=0)
        assert r0 <= old_bound
        if r0 > 0:
            assert report.polynomial(r0 - 1) != counts[r0 - 1]


    @given(staircases(), st.lists(st.integers(0, 1), min_size=1, max_size=6))
    def test_repeated_antichains_are_counted_once(self, stair, picks):
        gens = tuple(stair.per_generator[i % len(stair.per_generator)] for i in picks)
        repeated = Staircase(gens, stair.n)
        calls = []
        real = dimension._hilbert_numerator
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dimension, "_hilbert_numerator", lambda a: calls.append(a) or real(a))
            report = dimension_polynomial(repeated, kind="difference")
        # the recursion passes lists; each distinct antichain comes once
        assert sorted(a for a in calls if type(a) is tuple) == sorted(set(gens))
        # the reference sums generator by generator
        numerator, total = (), PolyQ()
        for antichain in gens:
            numerator = dimension._add(numerator, real(antichain))
            alone = dimension_polynomial(Staircase((antichain,), stair.n), kind="difference")
            total = total + alone.polynomial
        assert report.polynomial == total
        assert report.validity_threshold == max(len(numerator) - 1 - stair.n, 0)


class TestIntegerRoute:
    """The binomial-basis coefficients read off the Hilbert numerator agree
    with the rational elimination of the standard polynomial."""

    @given(staircases())
    def test_coefficients_match_elimination(self, stair):
        report = dimension_polynomial(stair, kind="difference")
        coeffs = report.binomial_coeffs
        assert coeffs == to_binomial_basis(report.polynomial)
        assert expand_binomial_basis(coeffs) == report.polynomial
        assert report.typical_dimension == (coeffs[-1] if coeffs else 0)
        assert report.degree == max(len(coeffs) - 1, 0)

    @given(staircases().filter(lambda stair: stair.n % 2 == 0))
    def test_inversive_fraction_law(self, stair):
        # module dimension lc * m! / 2^m at degree m, an error when not integral
        m = stair.n // 2
        p = dimension_polynomial(stair, kind="difference").polynomial
        law = p.leading_coefficient() * math.factorial(m) / 2**m
        if p.degree == m and law.denominator != 1:
            with pytest.raises(ValueError, match="not of the form"):
                dimension_polynomial(stair, kind="inversive")
        else:
            report = dimension_polynomial(stair, kind="inversive")
            assert report.delta_dimension == (int(law) if p.degree == m else 0)


class TestBinomialBasis:
    def test_affine(self):
        assert to_binomial_basis(parse_poly("2*t+1")) == (-1, 2)

    def test_pure_binomial(self):
        assert to_binomial_basis(binomial_poly(4)) == (0, 0, 0, 0, 1)

    def test_zero(self):
        assert to_binomial_basis(PolyQ()) == ()

    def test_non_integer_valued_rejected(self):
        with pytest.raises(ValueError):
            to_binomial_basis(PolyQ((0, Fraction(1, 2))))

    def test_round_trip_random(self):
        rng = random.Random(104)
        for _ in range(60):
            coeffs = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 6)))
            p = expand_binomial_basis(coeffs)
            back = to_binomial_basis(p)
            assert expand_binomial_basis(back) == p


class TestInvariants:
    def test_field_system_module_dimension_both_routes(self):
        quartic = parse_poly("1/4*t^4+19/6*t^3+55/4*t^2+137/6*t+12")
        coeffs = to_binomial_basis(quartic)
        assert coeffs[4] == 6
        # leading-coefficient law in the doubled picture: a = lead * m! / 2^m
        lead = Fraction(4)
        assert lead * 24 / 16 == 6

    def test_low_degree_has_zero_module_dimension(self):
        report = dimension_polynomial(HEAT_STAIRCASE, kind="differential")
        assert report.degree == 1
        assert report.typical_dimension == 2
        assert report.delta_dimension == 0

    def test_inversive_integrality_law(self):
        report = dimension_polynomial(FORWARD_STAIRCASE, kind="inversive")
        assert report.delta_dimension == 0  # degree 1 < m

    def test_free_inversive_full_degree(self):
        stair = Staircase.build([[]], 4)  # doubled ring of a free rank-1 module
        report = dimension_polynomial(stair, kind="inversive")
        assert report.degree == 4
        # counting all of N^4 is not a Laurent-orbit count; the law does not
        # apply to a saturation-free staircase, so build one with saturation
        sat = Staircase.build([[(1, 0, 1, 0), (0, 1, 0, 1)]], 4)
        sat_report = dimension_polynomial(sat, kind="inversive")
        assert sat_report.polynomial == free_module_polynomial(1, 2, "inversive")
        assert sat_report.delta_dimension == 1


class TestFreeModulePolynomials:
    def test_differential_closed_form(self):
        assert free_module_polynomial(1, 2, "differential") == parse_poly("1/2*t^2+3/2*t+1")

    def test_inversive_matches_lattice_enumeration(self):
        p = free_module_polynomial(1, 2, "inversive")
        assert p == parse_poly("2*t^2+2*t+1")
        for t in range(9):
            lattice = sum(
                1
                for v in itertools.product(range(-t, t + 1), repeat=2)
                if abs(v[0]) + abs(v[1]) <= t
            )
            assert p(t) == lattice

    def test_rank_scales(self):
        assert free_module_polynomial(3, 0, "differential") == PolyQ((3,))
        assert free_module_polynomial(2, 1, "inversive") == parse_poly("4*t+2")


class TestCompareStrength:
    def test_diffusion_schemes(self):
        assert compare_strength(parse_poly("4*t"), parse_poly("5*t")) == "stronger"

    def test_field_system_schemes(self):
        sym = parse_poly("4*t^4+56/3*t^3+36*t^2+64/3*t+22")
        fwd = parse_poly("4*t^4+18*t^3+35*t^2+31*t+12")
        assert compare_strength(sym, fwd) == "weaker"
        assert compare_strength(fwd, sym) == "stronger"

    def test_equal(self):
        assert compare_strength(parse_poly("2*t+1"), parse_poly("2*t+1")) == "equal"

    def test_degree_dominates(self):
        assert compare_strength(parse_poly("t^2"), parse_poly("100*t+5")) == "weaker"

    def test_consistent_with_large_evaluation(self):
        rng = random.Random(105)
        for _ in range(40):
            p = expand_binomial_basis(tuple(rng.randint(0, 5) for _ in range(4)))
            q = expand_binomial_basis(tuple(rng.randint(0, 5) for _ in range(4)))
            verdict = compare_strength(p, q)
            at = 10**3
            if verdict == "stronger":
                assert p(at) < q(at)
            elif verdict == "weaker":
                assert p(at) > q(at)
            else:
                assert p(at) == q(at)


class TestValidation:
    def test_heat_window(self):
        report = dimension_polynomial(HEAT_STAIRCASE, kind="differential")
        record = validate_polynomial(report, HEAT_STAIRCASE)
        assert record.ok and record.checked_range == (0, 5)
        counts = free_term_counts(HEAT_STAIRCASE, 2)
        assert lagrange_interpolate(list(enumerate(counts))) == report.polynomial

    def test_zero_staircase(self):
        stair = Staircase.build([[(0, 0)]], 2)
        report = dimension_polynomial(stair, kind="difference")
        assert not report.polynomial
        record = validate_polynomial(report, stair)
        assert record.ok

    def test_mismatch_reported(self):
        report = dimension_polynomial(HEAT_STAIRCASE, kind="differential")
        tampered = dataclasses.replace(report, polynomial=report.polynomial + PolyQ((1,)))
        record = validate_polynomial(tampered, HEAT_STAIRCASE)
        assert not record.ok
        assert record.first_mismatch is not None
        r, count, value = record.first_mismatch
        assert r == 0 and count == 1 and value == "2"
        # n = 6 > 5: p meets the counts on [r0, r0+5] and first differs at r0+6
        stair = Staircase.build([[(1,) * 6]], 6)
        report = dimension_polynomial(stair, kind="difference")
        r0 = report.validity_threshold
        bump = PolyQ((1,))
        for r in range(r0, r0 + 6):
            bump = bump * PolyQ((-r, 1))
        tampered = dataclasses.replace(report, polynomial=report.polynomial + bump)
        assert validate_polynomial(report, stair).ok
        record = validate_polynomial(tampered, stair)
        assert not record.ok and record.checked_range == (r0, r0 + 5)
        r, count, value = record.first_mismatch
        assert r == r0 + 6 and value == str(report.polynomial(r) + 720)


def legacy_validation_ok(report, stair):
    """The two-part check: p against the counts on [r0, r0+5], and the
    interpolant of the counts at r0..r0+n against p coefficient-exactly."""
    r0, n, p = report.validity_threshold, stair.n, report.polynomial
    counts = free_term_counts(stair, r0 + max(5, n))
    pointwise = all(p(r) == counts[r] for r in range(r0, r0 + 6))
    interpolated = lagrange_interpolate([(r, counts[r]) for r in range(r0, r0 + n + 1)])
    return pointwise and interpolated == p


class TestSingleCheck:
    @given(staircases(max_n=3, max_vectors=4))
    def test_equals_interpolation_check(self, stair):
        report = dimension_polynomial(stair, kind="difference")
        r0, n, p = report.validity_threshold, stair.n, report.polynomial
        vanishing = PolyQ((1,))
        for r in range(r0, r0 + max(5, n) + 1):
            vanishing = vanishing * PolyQ((-r, 1))
        for q in (p, p + PolyQ((1,)), p + vanishing):
            tampered = dataclasses.replace(report, polynomial=q)
            record = validate_polynomial(tampered, stair)
            assert record.ok == legacy_validation_ok(tampered, stair)
            assert record.ok == (q == p)
        # the degree bound alone rejects a polynomial that meets every count
        high = validate_polynomial(dataclasses.replace(report, polynomial=p + vanishing), stair)
        assert not high.ok and high.first_mismatch is None


class TestPolyQ:
    @given(st.lists(st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=3), max_size=5))
    def test_coeffs_are_the_kernel_tuple(self, values):
        # one normalizer: the same tuple, types included, as a RationalFunction's
        p = PolyQ(values)
        trimmed = list(values)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert p.coeffs == tuple(trimmed)
        assert list(map(type, p.coeffs)) == list(map(type, RationalFunction("a", values).num))
        for q in (p, p + p, p - PolyQ((1, 1)), p * p, p.scaled(Fraction(1, 3)), parse_poly(poly_str(p))):
            assert not q.coeffs or q.coeffs[-1] != 0
            assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in q.coeffs)

    def test_accessors_return_fractions(self):
        for p in (PolyQ((2, 3)), PolyQ((Fraction(1, 2), 4)), PolyQ(), binomial_poly(3)):
            assert type(p.coefficient(0)) is Fraction
            assert type(p.coefficient(7)) is Fraction
            assert type(p.leading_coefficient()) is Fraction
            assert type(p(5)) is Fraction and type(p(Fraction(1, 3))) is Fraction
        assert PolyQ((2, 3)).coeffs == (2, 3) and type(PolyQ(("4/2",)).coeffs[0]) is int

    def test_dimension_polynomial_holds_ints(self):
        p = dimension_polynomial(FORWARD_STAIRCASE).polynomial
        assert p.coeffs == (0, 5) and all(type(c) is int for c in p.coeffs)


class TestPolyStrings:
    def test_round_trip(self):
        rng = random.Random(106)
        for _ in range(80):
            p = PolyQ(
                Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(rng.randint(0, 5))
            )
            assert parse_poly(poly_str(p)) == p

    def test_coefficient_grammar(self):
        assert parse_poly("(t+1)^2 - 1/2*t") == parse_poly("t^2+3/2*t+1")
        assert parse_poly(" 2 * t ") == parse_poly("2*t")

    @pytest.mark.parametrize("text", ["1/t", "t/(t+1)", "2*t+", "2t", "", "s"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_poly(text)

    def test_interpolation_recovers(self):
        p = parse_poly("15*t^3-7/2*t^2+43/2*t+2")
        points = [(r, p(r)) for r in range(4, 9)]
        assert lagrange_interpolate(points) == p
