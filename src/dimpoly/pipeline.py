"""End-to-end strength computation and report rendering.

The pipeline: (differential + scheme => discretize) -> (inversive => embed
with saturation) -> Buchberger completion -> leading-term staircase ->
dimension polynomial -> oracle validation.  Everything downstream of the
inputs is deterministic, and the JSON report serializes all numbers as exact
strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

from .dimension import (
    DimPolyReport,
    PolyQ,
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
from .dsl import DslError, render_element
from .freemodule import Element, Presentation, Term, TermOrder, _raw
from .groebner import GroebnerBasis, buchberger
from .inversive import doubled_order, embed_presentation
from .schemes import SchemeSpec, discretize

__all__ = [
    "ReportDocument",
    "compare_reports",
    "compute_strength",
    "report_from_json",
    "report_to_json",
    "report_to_text",
]


@dataclass(frozen=True, slots=True)
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


def resolve_order(p: Presentation, order_names: tuple[str, ...] | None) -> TermOrder:
    """Order layout: total degree, then generator, then the given operator
    sequence (declaration order when unspecified)."""
    if order_names is None:
        return p.default_order()
    index = {name: i for i, name in enumerate(p.operators)}
    missing = [n for n in order_names if n not in index]
    if missing:
        raise ValueError(f"order references undeclared operators {missing}")
    if sorted(order_names) != sorted(p.operators):
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
    """Run the full pipeline on a presentation; the report's parts are shared
    with equal parts of earlier reports (see :func:`_shared`)."""
    source = p if scheme is None else discretize(p, scheme)
    working, order = source, resolve_order(source, order_names)
    if source.kind == "inversive":
        working = embed_presentation(source)
        order = doubled_order(order, source.num_operators)

    on_pair = None
    if trace is not None:
        on_pair = lambda *pair: trace(_trace_line(working, order, *pair))
    gb = buchberger(working.relations, order, trace=on_pair)
    # a basis element equal to a working relation becomes that relation, and
    # the staircase is read off the shared basis's leading terms, so its
    # vectors are that basis's exponent tuples
    if working is not p:
        working = _shared(working)
    gb = _shared(gb)
    stair = staircase_from_basis(gb.leads, q=working.num_unknowns, n=working.num_operators)
    dim = dimension_polynomial(stair, kind=source.kind)
    validation = validate_polynomial(dim, stair)
    return ReportDocument(
        system_name=system_name,
        presentation=p,
        scheme_name=scheme_name,
        scheme_description=_shared(scheme.describe()) if scheme else None,
        working=working,
        basis=gb,
        staircase=_shared(stair),
        dim=_shared(dim),
        validation=_shared(validation),
    )


# The immutable report parts equal reports share (see _shared); emptied past 2^16.
_pool: dict = {}
# The fields shared one by one inside a shared value; other values are shared whole.
_PARTS = {
    Presentation: ("operators", "relations"),
    GroebnerBasis: ("elements", "order", "leads"),
    DimPolyReport: ("polynomial", "binomial_coeffs"),
}


def _shared(x):
    """The pooled value equal to ``x``, pooling ``x`` when there is none, so
    that many kept reports cost little more than one.  A tuple of elements
    or of terms, each element's terms and coefficients, and the _PARTS
    fields are shared one by one."""
    if type(x) is tuple and x and isinstance(x[0], (Element, Term)):
        return tuple(map(_shared, x))
    found = _pool.get((type(x), x))
    if found is None:
        if isinstance(x, Element):
            x = _raw({_shared(t): _shared(c) for t, c in x.terms.items()})
        elif type(x) in _PARTS:
            x = replace(x, **{name: _shared(getattr(x, name)) for name in _PARTS[type(x)]})
        if len(_pool) > 1 << 16:
            _pool.clear()
        found = _pool[type(x), x] = x  # the key holds the pooled value, not a copy
    return found


def _trace_line(working: Presentation, order: TermOrder, i, j, s, chain, added) -> str:
    """One ``--trace`` line for a pair as :func:`buchberger` reports it,
    numbering pairs and basis elements from 1 as the published chains do."""
    if chain is None:
        return f"pair ({i + 1},{j + 1}): S = 0"
    via = ", ".join(f"g{k + 1}" for k in chain) or "-"
    tail = "reduced to 0" if added is None else f"added g{added + 1}"
    return f"pair ({i + 1},{j + 1}): S = {render_element(working, s, order)}; via [{via}]; {tail}"


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
            "delta_type": str(doc.dim.degree),
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
    if v.first_mismatch is not None:
        r, count, value = v.first_mismatch
        lines.append(f"  first mismatch at r={r}: oracle count {count}, p(r) = {value}")
    elif not v.ok:
        lines.append(f"  degree {doc.dim.degree} exceeds the operator count n = {doc.staircase.n}")
    name = "phi" if p.kind == "differential" and doc.scheme_description is None else "psi"
    lines.append(f"{name}(t) = {poly_str(doc.dim.polynomial)}")
    return "\n".join(lines) + "\n"


def report_from_json(text: str) -> tuple[str, PolyQ]:
    """The label and the exactly re-parsed polynomial of a JSON report.  A
    ValueError "not a dimpoly report: ..." names text that is not JSON, a
    missing or mistyped field, the column of ``polynomial.standard`` at
    which it does not parse, or a ``polynomial.standard`` that parses to no
    polynomial in t."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("not a dimpoly report: nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a dimpoly report: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("not a dimpoly report: expected a JSON object")
    polynomial, system = data.get("polynomial"), data.get("system")
    if not isinstance(polynomial, dict) or not isinstance(polynomial.get("standard"), str):
        raise ValueError("not a dimpoly report: polynomial.standard must be a string")
    label = data.get("scheme") or (system.get("name") if isinstance(system, dict) else None)
    if not isinstance(label, str) or not label:
        raise ValueError("not a dimpoly report: scheme or system.name must give a label")
    try:
        return label, parse_poly(polynomial["standard"])
    except DslError as exc:  # its position is in the string, not in the file
        raise ValueError(f"not a dimpoly report: polynomial.standard, column {exc.col}: {exc.reason}") from None
    except ValueError as exc:  # parses, but is no polynomial, such as 1/t
        raise ValueError(f"not a dimpoly report: polynomial.standard: {exc}") from None


def compare_reports(left: tuple[str, PolyQ], right: tuple[str, PolyQ]) -> str:
    """Sentence naming the stronger (eventually smaller) of two reports, each
    a (label, polynomial) pair from :func:`report_from_json`."""
    (left_label, p), (right_label, q) = left, right
    relation = compare_strength(p, q)
    if relation == "equal":
        return f"{left_label} and {right_label} have equal strength"
    return f"{left_label if relation == 'stronger' else right_label} is stronger"
