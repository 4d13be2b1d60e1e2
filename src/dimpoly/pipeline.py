"""End-to-end strength computation and report rendering.

The pipeline: (differential + scheme => discretize) -> (inversive => embed
with saturation) -> Buchberger completion -> leading-term staircase ->
dimension polynomial -> oracle validation.  Everything downstream of the
inputs is deterministic, and the JSON report serializes all numbers as exact
strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .dimension import (
    DimPolyReport,
    Staircase,
    ValidationRecord,
    binomial_str,
    compare_strength,
    dimension_polynomial,
    parse_poly,
    poly_str,
    staircase_from_basis,
    validate_polynomial,
)
from .dsl import render_element
from .freemodule import Presentation, TermOrder
from .groebner import GroebnerBasis, buchberger
from .inversive import embed_presentation
from .schemes import SchemeSpec, discretize

__all__ = [
    "ReportDocument",
    "compare_reports",
    "compute_strength",
    "report_from_json",
    "report_to_json",
    "report_to_text",
]


@dataclass(frozen=True)
class ReportDocument:
    """Full result of one strength computation."""

    system_name: str
    presentation: Presentation
    scheme_name: str | None
    scheme_description: str | None
    working: Presentation  # the ring the Groebner computation ran in
    basis: GroebnerBasis
    staircase: Staircase
    dim: DimPolyReport
    validation: ValidationRecord

    @property
    def label(self) -> str:
        return self.scheme_name or self.system_name


def resolve_order(p: Presentation, order_names: tuple[str, ...] | None) -> TermOrder:
    """Order layout: total degree, then generator, then the given operator
    sequence (declaration order when unspecified)."""
    if not order_names:
        return p.default_order()
    index = {name: i for i, name in enumerate(p.operators)}
    missing = [n for n in order_names if n not in index]
    if missing:
        raise ValueError(f"order references undeclared operators {missing}")
    if len(set(order_names)) != len(p.operators):
        raise ValueError("order must list every operator exactly once")
    return TermOrder(tuple(index[n] for n in order_names))


def compute_strength(
    p: Presentation,
    *,
    system_name: str = "system",
    scheme: SchemeSpec | None = None,
    scheme_name: str | None = None,
    order_names: tuple[str, ...] | None = None,
    trace: Callable[[str], None] | None = None,
) -> ReportDocument:
    """Run the full pipeline on a presentation."""
    original = p
    if scheme is not None:
        p = discretize(p, scheme)

    kind = p.kind
    m = p.num_operators
    if kind == "inversive":
        working = embed_presentation(p)
        base_order = resolve_order(p, order_names)
        # the doubled ring compares forward-block exponents first, in the
        # same operator sequence, then the inverse block
        seq = base_order.sequence
        order = TermOrder(tuple(seq) + tuple(m + i for i in seq))
    else:
        working = p
        order = resolve_order(p, order_names)

    render = None
    if trace is not None:
        render = lambda f: render_element(working, f, order)
    gb = buchberger(working.relations, order, trace=trace, render=render)
    stair = staircase_from_basis(
        gb.elements, order, q=working.num_unknowns, n=working.num_operators
    )
    dim = dimension_polynomial(stair, kind=kind)
    validation = validate_polynomial(dim, stair)
    return ReportDocument(
        system_name=system_name,
        presentation=original,
        scheme_name=scheme_name,
        scheme_description=scheme.describe() if scheme else None,
        working=working,
        basis=gb,
        staircase=stair,
        dim=dim,
        validation=validation,
    )


def report_to_json(doc: ReportDocument) -> str:
    p = doc.presentation
    payload = {
        "system": {
            "name": doc.system_name,
            "kind": p.kind,
            "operators": list(p.operators),
            "parameter": p.parameter,
            "unknowns": list(p.unknowns),
            "relations": [render_element(p, rel) for rel in p.relations],
        },
        "scheme": doc.scheme_name,
        "groebner": {
            "size": str(len(doc.basis)),
            "pairs": str(doc.basis.pairs_processed),
        },
        "polynomial": {
            "standard": poly_str(doc.dim.polynomial),
            "binomial": binomial_str(doc.dim.binomial_coeffs),
            "degree": str(doc.dim.degree),
            "delta_type": str(doc.dim.delta_type),
            "typical_dimension": str(doc.dim.typical_dimension),
            "delta_dimension": str(doc.dim.delta_dimension),
            "validity_threshold": str(doc.dim.validity_threshold),
        },
        "validation": {
            "checked_range": [str(r) for r in doc.validation.checked_range],
            "ok": doc.validation.ok,
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def report_to_text(doc: ReportDocument) -> str:
    p = doc.presentation
    lines = [f"system: {doc.system_name} ({p.kind})"]
    lines.append("operators: " + " ".join(p.operators))
    if p.parameter:
        lines.append(f"parameter: {p.parameter}")
    lines.append("unknowns: " + " ".join(p.unknowns))
    for rel in p.relations:
        lines.append("  relation " + render_element(p, rel))
    if doc.scheme_name or doc.scheme_description:
        lines.append(f"scheme: {doc.scheme_name or ''} [{doc.scheme_description}]")
    lines.append(
        f"groebner basis: {len(doc.basis)} elements after autoreduction, "
        f"{doc.basis.completed_size} completed "
        f"({doc.basis.pairs_processed} pairs, {doc.basis.pairs_pruned} pruned, "
        f"{doc.basis.reduction_steps} reduction steps)"
    )
    for g in doc.basis:
        lines.append("  " + render_element(doc.working, g, doc.basis.order))
    lines.append(
        "invariants: degree {0.degree}, typical dimension {0.typical_dimension}, "
        "module dimension {0.delta_dimension}".format(doc.dim)
    )
    lines.append("binomial form: " + binomial_str(doc.dim.binomial_coeffs))
    v = doc.validation
    lines.append(
        f"validation: oracle agreement on r in [{v.checked_range[0]}, {v.checked_range[1]}]"
        f" and interpolation: {'ok' if v.ok else 'FAILED'}"
    )
    name = "phi" if p.kind == "differential" and doc.scheme_description is None else "psi"
    lines.append(f"{name}(t) = {poly_str(doc.dim.polynomial)}")
    return "\n".join(lines) + "\n"


def report_from_json(text: str) -> dict:
    """Load a JSON report, re-parsing the polynomial exactly."""
    data = json.loads(text)
    data["_polynomial"] = parse_poly(data["polynomial"]["standard"])
    return data


@dataclass(frozen=True)
class ComparisonVerdict:
    relation: str  # stronger | weaker | equal
    stronger_label: str | None
    left_label: str
    right_label: str

    def describe(self) -> str:
        if self.relation == "equal":
            return f"{self.left_label} and {self.right_label} have equal strength"
        return f"{self.stronger_label} is stronger"


def compare_reports(left: dict, right: dict) -> ComparisonVerdict:
    """Verdict naming the stronger (eventually smaller) of two reports."""

    def label(data: dict) -> str:
        return data.get("scheme") or data["system"]["name"]

    rel = compare_strength(left["_polynomial"], right["_polynomial"])
    stronger = None
    if rel == "stronger":
        stronger = label(left)
    elif rel == "weaker":
        stronger = label(right)
    return ComparisonVerdict(
        relation=rel,
        stronger_label=stronger,
        left_label=label(left),
        right_label=label(right),
    )
