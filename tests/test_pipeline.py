import json

import pytest

from dimpoly import (
    Presentation,
    builtin_system,
    compute_strength,
    expand_binomial_basis,
    parse_poly,
    report_from_json,
    report_to_json,
    report_to_text,
)
from dimpoly.builtin_systems import builtin_scheme
from dimpoly.pipeline import compare_reports, resolve_order
from dimpoly.schemes import rule_spec


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
        doc = compute_strength(parse_system(src).presentation, system_name="shifted")
        assert doc.working is doc.presentation  # no operator doubling
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


class TestJsonReport:
    def test_schema(self, forward_report):
        data = json.loads(report_to_json(forward_report))
        assert list(data) == ["system", "scheme", "groebner", "polynomial", "validation"]
        assert data["scheme"] == "forward"
        assert data["groebner"]["size"] == "6"
        assert data["polynomial"]["standard"] == "5*t"
        assert data["polynomial"]["validity_threshold"] == "1"
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
        data = report_from_json(report_to_json(forward_report))
        assert data["_polynomial"] == forward_report.dim.polynomial
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
        left = report_from_json(report_to_json(forward_report))
        right = report_from_json(report_to_json(sym))
        verdict = compare_reports(left, right)
        assert verdict.relation == "weaker"
        assert verdict.stronger_label == "symmetric"
        assert verdict.describe() == "symmetric is stronger"

    def test_equal(self, heat_report):
        data = report_from_json(report_to_json(heat_report))
        verdict = compare_reports(data, data)
        assert verdict.relation == "equal"
        assert "equal strength" in verdict.describe()
