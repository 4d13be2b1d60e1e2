"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with pytest -s; always printed on failure).

Published regression targets are asserted exactly.  Two published polynomials
contain typos that exact counting adjudicates; the corrected values are
frozen here and derived again at runtime (see also the README notes):

  * potential forward: printed with two quadratic terms; the true polynomial
    is 15*t^3 - 7/2*t^2 + 43/2*t + 2 (cubic 15 and constant 2 as printed).
  * field-system symmetric: printed linear coefficient 4 would make the
    polynomial non integer-valued, which no counting function allows; the
    true linear coefficient is 64/3.
"""

import functools
import itertools
import json
import time
from fractions import Fraction

import pytest

from dimpoly import (
    Element,
    PolyQ,
    Term,
    builtin_system,
    compare_strength,
    compute_strength,
    dimension_polynomial,
    free_module_polynomial,
    free_term_counts,
    is_groebner_basis,
    parse_poly,
    rule_spec,
)
from dimpoly.builtin_systems import builtin_scheme
from dimpoly.cli import main as cli_main
from dimpoly.dimension import Staircase, lagrange_interpolate
from dimpoly.freemodule import Presentation
from dimpoly.schemes import RULES

from reference import free_term_count_oracle, to_binomial_basis


def criterion(n, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n:2d} FAIL: {label}")
                raise
            print(f"ACCEPTANCE {n:2d} PASS: {label}")

        return run

    return wrap


def timed_compute(name, scheme_name=None, **kwargs):
    p = builtin_system(name)
    scheme = builtin_scheme(name, scheme_name) if scheme_name else None
    start = time.perf_counter()
    doc = compute_strength(
        p, system_name=name, scheme=scheme, scheme_name=scheme_name, **kwargs
    )
    return doc, time.perf_counter() - start


@pytest.fixture(scope="module")
def maxwell_forward():
    return timed_compute("maxwell", "forward")


@pytest.fixture(scope="module")
def maxwell_symmetric():
    return timed_compute("maxwell", "symmetric")


@pytest.fixture(scope="module")
def potential_forward():
    return timed_compute("potential", "forward")


@criterion(1, "diffusion differential polynomial is 2t+1 in under 0.1s")
def test_criterion_01():
    doc, elapsed = timed_compute("diffusion")
    assert doc.dim.polynomial == parse_poly("2*t+1")
    assert doc.validation.ok
    assert elapsed < 0.1


@criterion(2, "diffusion forward scheme: 5t with the published 6-element basis, under 1s")
def test_criterion_02():
    doc, elapsed = timed_compute("diffusion", "forward")
    assert doc.dim.polynomial == parse_poly("5*t")
    assert len(doc.basis) == 6
    want = {
        Term(0, (2, 0, 0, 0)),
        Term(0, (1, 0, 1, 0)),
        Term(0, (0, 1, 0, 1)),
        Term(0, (0, 1, 1, 0)),
        Term(0, (1, 0, 0, 1)),
        Term(0, (0, 0, 2, 1)),
    }
    assert set(doc.basis.leads) == want
    assert elapsed < 1.0


@criterion(3, "diffusion symmetric scheme: 4t, published leading terms, stronger than forward")
def test_criterion_03():
    sym, _ = timed_compute("diffusion", "symmetric")
    assert sym.dim.polynomial == parse_poly("4*t")
    want = {
        Term(0, (0, 0, 2, 1)),
        Term(0, (0, 1, 1, 0)),
        Term(0, (0, 1, 0, 1)),
        Term(0, (1, 0, 0, 0)),
    }
    assert set(sym.basis.leads) == want
    fwd, _ = timed_compute("diffusion", "forward")
    assert compare_strength(sym.dim.polynomial, fwd.dim.polynomial) == "stronger"


@criterion(4, "field-system differential polynomial, coefficient-exact, under 5s")
def test_criterion_04():
    doc, elapsed = timed_compute("maxwell")
    assert doc.dim.polynomial == parse_poly("1/4*t^4+19/6*t^3+55/4*t^2+137/6*t+12")
    assert doc.validation.ok
    assert elapsed < 5.0


@criterion(5, "field-system forward scheme: exact quartic, 80-element completed basis, under 120s")
def test_criterion_05(maxwell_forward):
    doc, elapsed = maxwell_forward
    assert doc.dim.polynomial == parse_poly("4*t^4+18*t^3+35*t^2+31*t+12")
    # the published basis keeps every pairing relation and has 80 elements;
    # autoreduction drops the 8 whose heads the original relations divide
    assert doc.basis.completed_size == 80
    assert len(doc.basis) == 72
    assert is_groebner_basis(list(doc.basis.elements), doc.basis.order)
    assert doc.validation.ok
    assert elapsed < 120.0


@criterion(6, "field-system symmetric scheme: oracle-corrected quartic, forward stronger, under 300s")
def test_criterion_06(maxwell_forward, maxwell_symmetric):
    doc, elapsed = maxwell_symmetric
    printed = parse_poly("4*t^4+56/3*t^3+36*t^2+4*t+22")
    # the printed linear coefficient cannot be right: the printed polynomial
    # is not integer-valued, so it cannot count anything
    with pytest.raises(ValueError):
        to_binomial_basis(printed)
    assert printed(1) == Fraction(254, 3)
    corrected = parse_poly("4*t^4+56/3*t^3+36*t^2+64/3*t+22")
    assert doc.dim.polynomial == corrected
    # all unambiguous printed coefficients match
    for k, value in ((4, 4), (3, Fraction(56, 3)), (2, 36), (0, 22)):
        assert doc.dim.polynomial.coefficient(k) == value
    # exact counting adjudicates the linear term
    assert doc.validation.ok
    r0, n = doc.dim.validity_threshold, doc.staircase.n
    counts = free_term_counts(doc.staircase, r0 + n)
    assert lagrange_interpolate([(r, counts[r]) for r in range(r0, r0 + n + 1)]) == corrected
    # structural soundness of the basis behind the corrected value: it is a
    # genuine basis of the scheme's module, and the polynomial is invariant
    # under a different admissible order
    assert is_groebner_basis(list(doc.basis.elements), doc.basis.order)
    from dimpoly.groebner import normal_form

    assert all(
        not normal_form(f, doc.basis.elements, doc.basis.order) for f in doc.working.relations
    )
    reordered = compute_strength(
        builtin_system("maxwell"),
        system_name="maxwell",
        scheme=builtin_scheme("maxwell", "symmetric"),
        scheme_name="symmetric",
        order_names=("t", "z", "y", "x"),
    )
    assert reordered.dim.polynomial == corrected
    fwd, _ = maxwell_forward
    assert compare_strength(fwd.dim.polynomial, doc.dim.polynomial) == "stronger"
    assert elapsed < 300.0


@criterion(7, "potential differential: exact cubic and the published 5 leading terms")
def test_criterion_07():
    doc, _ = timed_compute("potential")
    assert doc.dim.polynomial == parse_poly("t^3+11/2*t^2+17/2*t+4")
    want = {
        Term(0, (2, 0, 0, 0)),
        Term(1, (2, 0, 0, 0)),
        Term(2, (2, 0, 0, 0)),
        Term(3, (2, 0, 0, 0)),
        Term(3, (0, 0, 0, 1)),
    }
    assert set(doc.basis.leads) == want
    assert len(doc.basis) == 5


@criterion(8, "potential schemes: oracle-adjudicated forward cubic; symmetric exact")
def test_criterion_08(potential_forward):
    fwd, _ = potential_forward
    p = fwd.dim.polynomial
    # printed coefficients that are unambiguous
    assert p.coefficient(3) == 15
    assert p.coefficient(0) == 2
    # the full polynomial must equal the interpolation of exact counts
    r0 = fwd.dim.validity_threshold
    counts = free_term_counts(fwd.staircase, r0 + 8)
    interpolated = lagrange_interpolate([(r, counts[r]) for r in range(r0, r0 + 9)])
    assert p == interpolated
    # corrected middle coefficients, frozen (see module docstring and README)
    assert p == parse_poly("15*t^3-7/2*t^2+43/2*t+2")
    assert fwd.validation.ok

    sym, _ = timed_compute("potential", "symmetric")
    assert sym.dim.polynomial == parse_poly("16*t^3-8*t^2+24*t+8")
    assert sym.validation.ok


@criterion(9, "free modules reproduce the closed forms for s,m in {1,2,3}")
def test_criterion_09():
    for m in (1, 2, 3):
        ops = tuple(f"x{i}" for i in range(m))
        for s in (1, 2, 3):
            uns = tuple(f"u{i}" for i in range(s))
            free_diff = Presentation(kind="differential", operators=ops, unknowns=uns, relations=())
            doc = compute_strength(free_diff, system_name="free")
            assert doc.dim.polynomial == free_module_polynomial(s, m, "differential")
            free_inv = Presentation(kind="inversive", operators=ops, unknowns=uns, relations=())
            doc = compute_strength(free_inv, system_name="free")
            assert doc.dim.polynomial == free_module_polynomial(s, m, "inversive")
    assert free_module_polynomial(1, 2, "inversive") == parse_poly("2*t^2+2*t+1")


@criterion(10, "closed-form count equals the enumeration oracle on 200 random staircases, under 60s")
def test_criterion_10():
    import random

    rng = random.Random(201202)
    start = time.perf_counter()
    for case in range(200):
        n = rng.randint(1, 4)
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
        counts = free_term_counts(stair, r0 + 6)
        for r in range(r0, r0 + 7):
            assert report.polynomial(r) == counts[r], (stair, r)
        if case % 20 == 0:
            assert counts[r0 + 6] == free_term_count_oracle(stair, r0 + 6)
    assert time.perf_counter() - start < 60.0


@criterion(11, "field-system module dimension is 6 by both invariant routes")
def test_criterion_11(maxwell_forward):
    diff, _ = timed_compute("maxwell")
    assert diff.dim.degree == 4
    assert to_binomial_basis(diff.dim.polynomial)[4] == 6
    assert diff.dim.delta_dimension == 6
    fwd, _ = maxwell_forward
    lead = fwd.dim.polynomial.leading_coefficient()
    assert lead * 24 / 2**4 == 6
    assert fwd.dim.delta_dimension == 6


@criterion(12, "JSON reports are byte-identical across consecutive runs")
def test_criterion_12(capsys):
    cases = [
        ("compute", "--builtin", "diffusion", "--json"),
        ("compute", "--builtin", "maxwell", "--json"),
        ("compute", "--builtin", "potential", "--json"),
        ("compute", "--builtin", "diffusion", "--scheme", "forward", "--json"),
        ("compute", "--builtin", "diffusion", "--scheme", "symmetric", "--json"),
    ]
    for argv in cases:
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second and first
        json.loads(first)


def test_validity_threshold_is_sharp(maxwell_forward, maxwell_symmetric, potential_forward):
    # the Hilbert-numerator bound max(deg K - n, 0) on the nine built-in
    # cases; where it is positive the polynomial misses the count just below
    cached = {
        ("maxwell", "forward"): maxwell_forward[0],
        ("maxwell", "symmetric"): maxwell_symmetric[0],
        ("potential", "forward"): potential_forward[0],
    }
    want = {
        "diffusion": (0, 1, 1),
        "maxwell": (0, 0, 2),
        "potential": (0, 1, 3),
    }
    for name, thresholds in want.items():
        for scheme_name, r0 in zip((None, "forward", "symmetric"), thresholds):
            doc = cached.get((name, scheme_name)) or timed_compute(name, scheme_name)[0]
            assert doc.dim.validity_threshold == r0, (name, scheme_name)
            assert doc.validation.ok
            if r0 > 0:
                below = free_term_counts(doc.staircase, r0 - 1)[r0 - 1]
                assert doc.dim.polynomial(r0 - 1) != below, (name, scheme_name)


def test_low_order_counts_pinned(maxwell_forward, maxwell_symmetric, potential_forward):
    # exact oracle counts from order 0 on the six scheme staircases, below
    # the validity threshold too; from the threshold on they are the
    # polynomial's values
    cached = {
        ("maxwell", "forward"): maxwell_forward[0],
        ("maxwell", "symmetric"): maxwell_symmetric[0],
        ("potential", "forward"): potential_forward[0],
    }
    want = {
        ("maxwell", "forward"): [12, 100, 422, 1230],
        ("maxwell", "symmetric"): [12, 100, 422, 1238],
        ("potential", "forward"): [4, 35, 151, 440, 992],
        ("potential", "symmetric"): [4, 35, 151, 440, 1000],
        ("diffusion", "forward"): [1, 5, 10],
        ("diffusion", "symmetric"): [1, 4, 8],
    }
    for (name, scheme_name), expected in want.items():
        doc = cached.get((name, scheme_name)) or timed_compute(name, scheme_name)[0]
        counts = free_term_counts(doc.staircase, len(expected) - 1)
        assert counts == expected, (name, scheme_name)
        r0 = doc.dim.validity_threshold
        assert all(doc.dim.polynomial(r) == counts[r] for r in range(r0, len(counts)))


def test_completion_counters_pinned(maxwell_forward, maxwell_symmetric, potential_forward):
    # pairs formed and completed sizes on the nine built-in cases; the chain
    # criterion prunes pairs without changing either
    cached = {
        ("maxwell", "forward"): maxwell_forward[0],
        ("maxwell", "symmetric"): maxwell_symmetric[0],
        ("potential", "forward"): potential_forward[0],
    }
    want = {
        "diffusion": ((0, 1), (15, 6), (10, 5)),
        "maxwell": ((2, 8), (230, 80), (152, 64)),
        "potential": ((10, 8), (327, 53), (186, 40)),
    }
    total = 0
    for name, counters in want.items():
        for scheme_name, expected in zip((None, "forward", "symmetric"), counters):
            doc = cached.get((name, scheme_name)) or timed_compute(name, scheme_name)[0]
            assert (doc.basis.pairs_processed, doc.basis.completed_size) == expected, (name, scheme_name)
            total += doc.basis.pairs_processed
    assert total == 932
    assert potential_forward[0].basis.pairs_pruned > 0


def test_maxwell_rule_assignments_fall_into_three_classes():
    # all 256 assignments of the four rules to x, y, z, t: only the number of
    # central operators (central and central2 agree on Maxwell's first-order
    # derivatives) decides the polynomial
    p = builtin_system("maxwell")
    want = {
        0: "4*t^4+18*t^3+35*t^2+31*t+12",  # the forward scheme's
        1: "4*t^4+56/3*t^3+34*t^2+88/3*t+14",
        2: "4*t^4+56/3*t^3+36*t^2+64/3*t+22",  # the symmetric scheme's
    }
    for rules in itertools.product(sorted(RULES), repeat=len(p.operators)):
        doc = compute_strength(p, scheme=rule_spec(dict(zip(p.operators, rules)), p.operators))
        central = sum(rule.startswith("central") for rule in rules)
        assert doc.dim.polynomial == parse_poly(want[min(central, 2)]), rules
        assert doc.validation.ok


# The 19 of potential's 35 orbits of rule assignments that complete in under
# 0.1 s each, by their sorted representative, with the polynomial of each.
POTENTIAL_ORBITS = {
    ("backward", "backward", "backward", "backward"): "15*t^3-7/2*t^2+43/2*t+2",
    ("backward", "backward", "backward", "central"): "16*t^3-9*t^2+30*t-1",
    ("backward", "backward", "backward", "forward"): "15*t^3-7/2*t^2+43/2*t+2",
    ("backward", "backward", "central", "central"): "16*t^3-8*t^2+24*t+8",
    ("backward", "backward", "central", "central2"): "32/3*t^3+46*t^2-506/3*t+247",
    ("backward", "backward", "central", "forward"): "16*t^3-9*t^2+30*t-1",
    ("backward", "backward", "forward", "forward"): "15*t^3-7/2*t^2+43/2*t+2",
    ("backward", "central", "central", "central"): "16*t^3-8*t^2+24*t+8",
    ("backward", "central", "central", "central2"): "32/3*t^3+48*t^2-560/3*t+288",
    ("backward", "central", "central", "forward"): "16*t^3-8*t^2+24*t+8",
    ("backward", "central", "forward", "forward"): "16*t^3-9*t^2+30*t-1",
    ("backward", "forward", "forward", "forward"): "15*t^3-7/2*t^2+43/2*t+2",
    ("central", "central", "central", "central"): "16*t^3-8*t^2+24*t+8",
    ("central", "central", "central", "central2"): "32/3*t^3+48*t^2-560/3*t+288",
    ("central", "central", "central", "forward"): "16*t^3-8*t^2+24*t+8",
    ("central", "central", "central2", "forward"): "32/3*t^3+48*t^2-560/3*t+288",
    ("central", "central", "forward", "forward"): "16*t^3-8*t^2+24*t+8",
    ("central", "forward", "forward", "forward"): "16*t^3-9*t^2+30*t-1",
    ("forward", "forward", "forward", "forward"): "15*t^3-7/2*t^2+43/2*t+2",
}


def test_potential_rule_assignments_are_symmetric_in_the_pairs():
    # permuting the pairs (x_i, u_i) maps potential to itself, so the reverse
    # of a representative gives the representative's polynomial
    p = builtin_system("potential")
    for rules, want in POTENTIAL_ORBITS.items():
        reverse = rules[::-1]
        doc = compute_strength(p, scheme=rule_spec(dict(zip(p.operators, reverse)), p.operators))
        assert doc.dim.polynomial == parse_poly(want), reverse
        assert doc.validation.ok


def test_potential_is_invariant_under_each_reflection():
    # x_i -> -x_i followed by u_i -> -u_i maps each relation of potential to
    # itself up to sign.  With relation (b) of test_metamorphic.py (backward
    # on x_i is forward on the system with every odd power of x_i negated),
    # this is why swapping forward and backward on an operator never changes
    # potential's polynomial.  No completion runs here.
    p = builtin_system("potential")
    for i in range(len(p.operators)):
        for f in p.relations:
            g = Element({t: -c if t.exps[i] % 2 != (t.gen == i) else c for t, c in f.terms.items()})
            assert g in (f, f.scaled(-1)), (p.operators[i], f)


@pytest.mark.parametrize("operator", builtin_system("potential").operators)
def test_potential_backward_on_one_operator_is_forward(operator):
    p = builtin_system("potential")
    rules = {op: "backward" if op == operator else "forward" for op in p.operators}
    doc = compute_strength(p, scheme=rule_spec(rules, p.operators))
    assert doc.dim.polynomial == parse_poly("15*t^3-7/2*t^2+43/2*t+2")
    assert doc.validation.ok
