"""Golden reports of the nine built-in cases (3 systems x {PDE, forward,
symmetric}), compared byte for byte.

The files are the output of ``dimpoly compute --builtin S [--scheme P]
[--json]``.  The text report lists every element of the autoreduced basis, so
these pins catch a change in the basis as well as in the polynomial.  After an
intended change to the output, regenerate the files with that command.
"""

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
