import gc
import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

import dimpoly.pipeline
from dimpoly import (
    Presentation,
    RationalFunction,
    Term,
    builtin_system,
    compute_strength,
    expand_binomial_basis,
    parse_poly,
    parse_system,
    report_from_json,
    report_to_json,
    report_to_text,
)
from dimpoly.builtin_systems import builtin_scheme
from dimpoly.dimension import dimension_polynomial, staircase_from_basis
from dimpoly.freemodule import _raw
from dimpoly.groebner import buchberger
from dimpoly.inversive import embed_presentation
from dimpoly.pipeline import compare_reports, resolve_order
from dimpoly.schemes import discretize, rule_spec

from output_digest import benchmark_cases, compute_case
from reference import autoreduce, searched_leading_terms, staircase_by_search


@pytest.fixture(scope="module")
def heat_report():
    return compute_strength(builtin_system("diffusion"), system_name="diffusion")


@pytest.fixture(scope="module")
def forward_report():
    return compute_strength(
        builtin_system("diffusion"),
        system_name="diffusion",
        scheme=builtin_scheme("diffusion", "forward"),
        scheme_name="forward",
    )


class TestComputeStrength:
    def test_heat(self, heat_report):
        assert heat_report.dim.polynomial == parse_poly("2*t+1")
        assert heat_report.validation.ok

    def test_forward_scheme(self, forward_report):
        assert forward_report.dim.polynomial == parse_poly("5*t")
        assert len(forward_report.basis) == 6

    def test_polynomial_is_order_independent(self):
        p = builtin_system("diffusion")
        a = compute_strength(p, order_names=("x", "t"))
        b = compute_strength(p, order_names=("t", "x"))
        assert a.dim.polynomial == b.dim.polynomial

    def test_scheme_requires_differential(self):
        p = Presentation(kind="difference", operators=("x",), unknowns=("u",), relations=())
        with pytest.raises(ValueError):
            compute_strength(p, scheme=builtin_scheme("diffusion", "forward"))

    def test_difference_kind_runs_without_embedding(self):
        from dimpoly import parse_system

        src = "kind difference\noperators x t\nunknowns u\nrelation t*u - x^2*u\n"
        p = parse_system(src).presentation
        doc = compute_strength(p, system_name="shifted")
        assert doc.working is doc.presentation is p  # no operator doubling, no copy
        assert doc.dim.polynomial == parse_poly("2*t+1")
        assert doc.validation.ok

    def test_inversive_source_enters_pipeline_directly(self):
        from dimpoly import parse_system

        # the diffusion symmetric scheme written out as an inversive system
        src = (
            "kind inversive\noperators x t\nparameter a\nunknowns u\n"
            "relation t*u - a*x*u - a*x^-1*u + (2*a - 1)*u\n"
        )
        doc = compute_strength(parse_system(src).presentation, system_name="direct")
        assert doc.working.operators == ("ax", "at", "bx", "bt")
        assert doc.dim.polynomial == parse_poly("4*t")
        assert doc.validation.ok

    def test_resolve_order_validates(self):
        p = builtin_system("diffusion")
        with pytest.raises(ValueError):
            resolve_order(p, ("x", "q"))
        with pytest.raises(ValueError):
            resolve_order(p, ("x",))
        with pytest.raises(ValueError, match="exactly once"):
            resolve_order(p, ("x", "t", "t"))


# A case shaped like the benchmark sweeps: two unknowns, per-operator rules.
SWEEP_STYLE = (
    "kind differential\noperators x y t\nunknowns u v\n"
    "relation t*u + (1/2)*x^2*v + (-3)*x*u\nrelation t*v + 2*y*u + x*y*v\n"
)
SWEEP_RULES = {"x": "central", "y": "central2", "t": "forward"}


class TestRepeatedCase:
    """Reports kept from repeated runs of one input share their parts, so
    keeping many reports costs little more than keeping one."""

    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(dimpoly.pipeline, "_pool", {})  # a fresh pool
        return dimpoly.pipeline._pool

    @pytest.fixture
    def run(self, pool):
        p = parse_system(SWEEP_STYLE).presentation
        scheme = rule_spec(SWEEP_RULES, p.operators)
        return lambda: compute_strength(p, scheme=scheme)

    def test_second_run_returns_the_same_parts(self, run):
        first, again = run(), run()
        assert len(first.basis) == len(again.basis) > 1
        assert all(f is g for f, g in zip(first.basis.elements, again.basis.elements))
        assert again.working.operators is first.working.operators
        assert again.working is first.working
        assert again.basis is first.basis and again.dim is first.dim
        assert again.basis.order is first.basis.order
        assert again.staircase is first.staircase
        assert again.dim.polynomial is first.dim.polynomial
        assert again.dim.binomial_coeffs is first.dim.binomial_coeffs
        assert again.validation is first.validation
        assert again.scheme_description is first.scheme_description
        assert again is not first and again.presentation is first.presentation

    def test_equal_terms_and_coefficients_become_one_object(self, pool):
        p = parse_system(SWEEP_STYLE).presentation
        docs = [
            compute_strength(p, scheme=rule_spec(rules, p.operators))
            for rules in (SWEEP_RULES, {"x": "forward", "y": "backward", "t": "forward"})
        ]
        elements = [g for doc in docs for g in (*doc.working.relations, *doc.basis)]
        terms, coeffs = {}, {}
        for g in elements:
            for t, c in g.terms.items():
                assert terms.setdefault(t, t) is t
                assert coeffs.setdefault((type(c), c), c) is c
        # the two reports have different bases with terms in common
        assert docs[0].basis != docs[1].basis
        assert set(docs[0].basis.elements[0].terms) & {t for g in docs[1].basis for t in g.terms}

    def test_basis_element_equal_to_a_working_relation_is_that_relation(self, pool):
        p = parse_system(SWEEP_STYLE).presentation
        sweep = compute_strength(p, scheme=rule_spec(SWEEP_RULES, p.operators))
        src = "kind {}\noperators x t\nunknowns u\nrelation x*u - t*u\n"
        shift, plain = (
            compute_strength(parse_system(src.format(kind)).presentation)
            for kind in ("inversive", "difference")
        )
        for doc in (sweep, shift):
            kept = [g for g in doc.basis if g in doc.working.relations]
            assert kept and all(any(g is f for f in doc.working.relations) for g in kept)
        # the embedded relation too, not only the saturation relations; the
        # caller's presentation is not pooled, so a system that is not
        # doubled gets a basis only equal to its relations
        assert any(g is shift.working.relations[0] for g in shift.basis)
        assert plain.working is plain.presentation
        assert plain.basis.elements == plain.presentation.relations

    def test_int_and_fraction_coefficients_are_pooled_apart(self, run):
        doc = run()
        pooled_ones = [c for g in doc.basis for c in g.terms.values() if c == 1]
        assert pooled_ones and {type(c) for c in pooled_ones} == {Fraction}
        # a working relation whose int coefficients equal pooled Fractions
        m = doc.working.num_operators
        with_int = _raw({Term(0, (9,) * m): 1, Term(0, (0,) * m): -1})
        twin = replace(doc.working, relations=(*doc.working.relations, with_int))
        pooled = dimpoly.pipeline._shared(twin)
        assert pooled.relations[-1] is not with_int
        assert [type(c) for c in pooled.relations[-1].terms.values()] == [int, int]
        # and a Fraction pooled after it stays a Fraction
        again = compute_strength(
            builtin_system("diffusion"), scheme=builtin_scheme("diffusion", "forward")
        )
        assert {type(c) for g in again.basis for c in g.terms.values()} == {Fraction, RationalFunction}

    def test_staircase_vectors_are_the_basis_exponents(self, run):
        # the staircase is read off the shared basis, so its vectors are
        # that basis's exponent tuples, not equal copies
        for doc in (run(), run()):
            leads = [g.leading_term(doc.basis.order)[0].exps for g in doc.basis]
            vectors = [v for vs in doc.staircase.per_generator for v in vs]
            assert vectors and all(any(v is e for e in leads) for v in vectors)

    def test_kept_reports_retain_little(self, run):
        run(), run()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [run() for _ in range(10)]
            gc.collect()
            per_report = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
        finally:
            if started:
                tracemalloc.stop()
        assert per_report < 2048


class TestLeadingTerms:
    """The leading terms completion hands out with its elements are the ones
    a search by the order's key finds, and the pipeline's staircase, built
    from them, is the one the searched terms give, order included."""

    @pytest.mark.parametrize("workload", ["builtin-nine", "sweep-rational"])
    def test_equal_to_the_search(self, workload):
        for case in benchmark_cases(workload, 1):
            doc = compute_case(case)
            basis, working = doc.basis, doc.working
            assert list(basis.leads) == searched_leading_terms(basis, basis.order)
            assert doc.staircase == staircase_by_search(
                basis, basis.order, working.num_unknowns, working.num_operators
            )


class TestStagesKeepNoState:
    """Only compute_strength pools report parts; the stages return plain values."""

    def test_stage_calls_leave_the_pool_alone(self, monkeypatch):
        monkeypatch.setattr(dimpoly.pipeline, "_pool", {})
        p = builtin_system("diffusion")
        scheme = builtin_scheme("diffusion", "forward")
        doc = compute_strength(p, scheme=scheme)
        pooled = dict(dimpoly.pipeline._pool)
        assert pooled and doc.presentation is p

        working = embed_presentation(discretize(p, scheme))
        gb = buchberger(working.relations, doc.basis.order)
        reduced = autoreduce(gb.elements, gb.order)
        stair = staircase_from_basis(searched_leading_terms(reduced, gb.order), q=1, n=4)
        dim = dimension_polynomial(stair, kind="inversive")
        assert dimpoly.pipeline._pool == pooled
        # equal to the report's parts, but copies of their own
        assert (working, gb, dim) == (doc.working, doc.basis, doc.dim)
        assert working.operators is not doc.working.operators
        assert working.relations[0] is not doc.working.relations[0]
        assert not any(f is g for f, g in zip(reduced, doc.basis))
        assert dim.polynomial is not doc.dim.polynomial

    def test_embeddings_build_their_own_saturation_relations(self):
        source = discretize(builtin_system("diffusion"), builtin_scheme("diffusion", "forward"))
        first, second = embed_presentation(source), embed_presentation(source)
        assert first.relations == second.relations
        assert not any(f is g for f, g in zip(first.relations, second.relations))


class TestJsonReport:
    def test_schema(self, forward_report):
        data = json.loads(report_to_json(forward_report))
        assert list(data) == ["system", "scheme", "groebner", "polynomial", "validation"]
        assert data["scheme"] == "forward"
        assert data["groebner"]["size"] == "6"
        assert data["polynomial"]["standard"] == "5*t"
        assert data["polynomial"]["validity_threshold"] == "1"
        assert data["polynomial"]["delta_type"] == data["polynomial"]["degree"] == "1"
        assert data["validation"]["ok"] is True
        # all leaf numbers are exact strings
        assert all(isinstance(v, str) for v in data["polynomial"].values())
        assert all(isinstance(v, str) for v in data["groebner"].values())

    def test_determinism(self, forward_report):
        again = compute_strength(
            builtin_system("diffusion"),
            system_name="diffusion",
            scheme=builtin_scheme("diffusion", "forward"),
            scheme_name="forward",
        )
        assert report_to_json(forward_report) == report_to_json(again)

    def test_polynomial_strings_reparse(self, forward_report):
        label, polynomial = report_from_json(report_to_json(forward_report))
        assert label == "forward"
        assert polynomial == forward_report.dim.polynomial
        binomial = forward_report.dim.binomial_coeffs
        assert expand_binomial_basis(binomial) == forward_report.dim.polynomial

    def test_text_report_tail(self, heat_report, forward_report):
        assert report_to_text(heat_report).rstrip().endswith("phi(t) = 2*t+1")
        assert report_to_text(forward_report).rstrip().endswith("psi(t) = 5*t")

    def test_scheme_line(self):
        p = builtin_system("diffusion")
        for spec, name, line in (
            (builtin_scheme("diffusion", "symmetric"), "symmetric", "scheme: symmetric [x=central+k2 t=forward]"),
            (
                rule_spec({"x": "central2", "t": "backward"}, p.operators),
                "x=central2,t=backward",
                "scheme: x=central2,t=backward [x=central+k2 t=backward]",
            ),
        ):
            doc = compute_strength(p, system_name="diffusion", scheme=spec, scheme_name=name)
            assert line in report_to_text(doc).splitlines()


class TestCompareReports:
    def test_scheme_labels(self, forward_report):
        sym = compute_strength(
            builtin_system("diffusion"),
            system_name="diffusion",
            scheme=builtin_scheme("diffusion", "symmetric"),
            scheme_name="symmetric",
        )
        forward = report_from_json(report_to_json(forward_report))
        symmetric = report_from_json(report_to_json(sym))
        # the stronger report on either side
        assert compare_reports(forward, symmetric) == "symmetric is stronger"
        assert compare_reports(symmetric, forward) == "symmetric is stronger"

    def test_equal(self, heat_report):
        loaded = report_from_json(report_to_json(heat_report))
        assert compare_reports(loaded, loaded) == "diffusion and diffusion have equal strength"
