"""Golden reports and completion traces of the nine built-in cases (3 systems
x {PDE, forward, symmetric}) and of small systems over Q(a), compared byte
for byte.

The report files are the output of ``dimpoly compute --builtin S [--scheme P]
[--json]``.  The text report lists every element of the autoreduced basis, so
these pins catch a change in the basis as well as in the polynomial.  The
traces are the stderr of ``dimpoly compute --builtin S [--scheme P] --trace``:
``traces.sha256`` holds the sha256 and line count of all nine, and
``diffusion-forward.trace`` holds one in full, so a failure there shows a
readable diff.

The ``qa-*.sys`` files are systems in the input language whose coefficients
are drawn from a, -a, 2*a, 1/2*a, a+1 and 1/(a+1), each discretized by the
per-operator rules on its ``# rules`` line; every basis element of their
reports has coefficients in Q(a).  Their reports are the output of ``dimpoly
compute tests/golden/qa-NAME.sys --rule OP=RULE ... [--json]``, and their
traces are pinned in ``traces.sha256`` like the built-ins'.  After an
intended change to the output, regenerate the files with those commands.
"""

import hashlib
from pathlib import Path

import pytest

from dimpoly import (
    RationalFunction,
    builtin_scheme,
    builtin_system,
    compute_strength,
    parse_system,
    report_to_json,
    report_to_text,
    rule_spec,
)

GOLDEN = Path(__file__).parent / "golden"
CASES = [
    (system, scheme)
    for system in ("diffusion", "maxwell", "potential")
    for scheme in (None, "forward", "symmetric")
]


@pytest.fixture(scope="module")
def documents():
    return {
        (system, scheme): compute_strength(
            builtin_system(system),
            system_name=system,
            scheme=builtin_scheme(system, scheme) if scheme else None,
            scheme_name=scheme,
        )
        for system, scheme in CASES
    }


@pytest.mark.parametrize("render, suffix", [(report_to_json, "json"), (report_to_text, "txt")])
@pytest.mark.parametrize("system, scheme", CASES)
def test_report_matches_golden(documents, system, scheme, render, suffix):
    path = GOLDEN / f"{system}-{scheme or 'pde'}.{suffix}"
    assert render(documents[(system, scheme)]) == path.read_text()


TRACE_TABLE = {
    case: (digest, int(lines))
    for digest, lines, case in (
        row.split() for row in (GOLDEN / "traces.sha256").read_text().splitlines()
        if not row.startswith("#")
    )
}


@pytest.mark.parametrize("system, scheme", CASES)
def test_trace_matches_golden(system, scheme):
    lines = []
    compute_strength(
        builtin_system(system),
        system_name=system,
        scheme=builtin_scheme(system, scheme) if scheme else None,
        scheme_name=scheme,
        trace=lines.append,
    )
    text = "".join(line + "\n" for line in lines)
    case = f"{system}-{scheme or 'pde'}"
    full = GOLDEN / f"{case}.trace"
    if full.exists():
        assert text == full.read_text()
    assert (hashlib.sha256(text.encode()).hexdigest(), len(lines)) == TRACE_TABLE[case]


PARAMETRIC = sorted(path.stem for path in GOLDEN.glob("qa-*.sys"))


def compute_parametric(name, **options):
    """What ``dimpoly compute`` does with the file and its ``# rules`` line."""
    text = (GOLDEN / f"{name}.sys").read_text()
    rules = dict(item.split("=") for item in text.splitlines()[1].split()[2:])
    p = parse_system(text).presentation
    return compute_strength(
        p,
        system_name=name,
        scheme=rule_spec(rules, p.operators),
        scheme_name=",".join(f"{op}={rule}" for op, rule in rules.items()),
        **options,
    )


@pytest.fixture(scope="module")
def parametric_documents():
    return {name: compute_parametric(name) for name in PARAMETRIC}


def test_parametric_pins_cover_q_a(parametric_documents):
    assert len(PARAMETRIC) == 6
    for name, doc in parametric_documents.items():
        assert name in TRACE_TABLE
        coeffs = [c for g in doc.basis for c in g.terms.values()]
        assert any(isinstance(c, RationalFunction) for c in coeffs), name


@pytest.mark.parametrize("render, suffix", [(report_to_json, "json"), (report_to_text, "txt")])
@pytest.mark.parametrize("name", PARAMETRIC)
def test_parametric_report_matches_golden(parametric_documents, name, render, suffix):
    assert render(parametric_documents[name]) == (GOLDEN / f"{name}.{suffix}").read_text()


@pytest.mark.parametrize("name", PARAMETRIC)
def test_parametric_trace_matches_golden(name):
    lines = []
    compute_parametric(name, trace=lines.append)
    text = "".join(line + "\n" for line in lines)
    assert (hashlib.sha256(text.encode()).hexdigest(), len(lines)) == TRACE_TABLE[name]
