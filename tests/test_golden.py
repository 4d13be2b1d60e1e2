"""Golden reports and completion traces of the nine built-in cases (3 systems
x {PDE, forward, symmetric}), compared byte for byte.

The report files are the output of ``dimpoly compute --builtin S [--scheme P]
[--json]``.  The text report lists every element of the autoreduced basis, so
these pins catch a change in the basis as well as in the polynomial.  The
traces are the stderr of ``dimpoly compute --builtin S [--scheme P] --trace``:
``traces.sha256`` holds the sha256 and line count of all nine, and
``diffusion-forward.trace`` holds one in full, so a failure there shows a
readable diff.  After an intended change to the output, regenerate the files
with those commands.
"""

import hashlib
from pathlib import Path

import pytest

from dimpoly import (
    builtin_scheme,
    builtin_system,
    compute_strength,
    report_to_json,
    report_to_text,
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
