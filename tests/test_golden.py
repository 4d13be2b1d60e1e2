"""Golden reports and completion traces of the nine built-in cases (3 systems
x {PDE, forward, symmetric}) and of small systems in the input language,
compared byte for byte.

The report files are the output of ``dimpoly compute --builtin S [--scheme P]
[--json]``.  The text report lists every element of the autoreduced basis, so
these pins catch a change in the basis as well as in the polynomial.  The
traces are the stderr of ``dimpoly compute --builtin S [--scheme P] --trace``:
``traces.sha256`` holds the sha256 and line count of all nine, and
``diffusion-forward.trace`` holds one in full, so a failure there shows a
readable diff.

The ``*.sys`` files are systems in the input language, each discretized by
the per-operator rules on its ``# rules`` line.  In the ``qa-*`` ones the
coefficients are drawn from a, -a, 2*a, 1/2*a, a+1 and 1/(a+1), and every
basis element of their reports has coefficients in Q(a).  ``q-pairing`` is
over Q: its pair (2,4) joins the pairing relation a_x*b_x*v - v, whose
counterpart a_x*b_x*u - u is in the basis, and an element whose leading
monomial is coprime to a_x*b_x; the pair still adds an element when it is
reduced, so a criterion that skipped such pairs would move its counts.
Their reports are the output of ``dimpoly compute tests/golden/NAME.sys
--rule OP=RULE ... [--json]``, and their traces are pinned in
``traces.sha256`` like the built-ins'.  ``digests.txt`` holds the lines
``tests/output_digest.py`` prints, one digest of every output of each
benchmark workload and seed; builtin-nine's is checked here, and CI checks
all six.  After an intended change to the output, regenerate every file with
``PYTHONPATH=src python tests/regenerate_golden.py``, which computes the
cases this module checks.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dimpoly import RationalFunction, report_to_json, report_to_text

from output_digest import WORKLOADS, digest_lines
from regenerate_golden import (
    CASES,
    DIGESTS,
    GOLDEN,
    SYSTEMS,
    case_name,
    compute_builtin,
    compute_file,
    trace_lines,
)


@pytest.fixture(scope="module")
def documents():
    return {case: compute_builtin(*case) for case in CASES}


@pytest.mark.parametrize("render, suffix", [(report_to_json, "json"), (report_to_text, "txt")])
@pytest.mark.parametrize("system, scheme", CASES)
def test_report_matches_golden(documents, system, scheme, render, suffix):
    path = GOLDEN / f"{case_name(system, scheme)}.{suffix}"
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
    lines = trace_lines(compute_builtin, system, scheme)
    text = "".join(line + "\n" for line in lines)
    case = case_name(system, scheme)
    full = GOLDEN / f"{case}.trace"
    if full.exists():
        assert text == full.read_text()
    assert (hashlib.sha256(text.encode()).hexdigest(), len(lines)) == TRACE_TABLE[case]


PARAMETRIC = [name for name in SYSTEMS if name.startswith("qa-")]


@pytest.fixture(scope="module")
def system_documents():
    return {name: compute_file(name) for name in SYSTEMS}


def test_parametric_pins_cover_q_a(system_documents):
    assert len(PARAMETRIC) == 6
    assert set(SYSTEMS) <= set(TRACE_TABLE)
    for name in PARAMETRIC:
        doc = system_documents[name]
        coeffs = [c for g in doc.basis for c in g.terms.values()]
        assert any(isinstance(c, RationalFunction) for c in coeffs), name


@pytest.mark.parametrize("render, suffix", [(report_to_json, "json"), (report_to_text, "txt")])
@pytest.mark.parametrize("name", SYSTEMS)
def test_parametric_report_matches_golden(system_documents, name, render, suffix):
    assert render(system_documents[name]) == (GOLDEN / f"{name}.{suffix}").read_text()


@pytest.mark.parametrize("name", SYSTEMS)
def test_parametric_trace_matches_golden(name):
    lines = trace_lines(compute_file, name)
    text = "".join(line + "\n" for line in lines)
    assert (hashlib.sha256(text.encode()).hexdigest(), len(lines)) == TRACE_TABLE[name]


def test_pair_with_coprime_heads_adds_an_element(system_documents):
    # g2 = 1/2*at*v - 1/2*bt*v - ax*u - bx*u - u and g4 = ax*bx*v - v
    text = report_to_text(system_documents["q-pairing"])
    assert "7 elements after autoreduction, 9 completed (16 pairs, 6 pruned," in text
    lines = trace_lines(compute_file, "q-pairing")
    assert lines[2].startswith("pair (2,4): S = ")
    assert lines[2].endswith("via [g4, g1, g1, g1, g1, g7, g7, g5]; added g9")


def test_regeneration_reproduces_the_goldens(tmp_path):
    # every golden file but the digests, which take the whole benchmark to
    # recompute: the test below and CI check those
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    paths = str(tests.parent / "src") + os.pathsep + str(tests)
    env["PYTHONPATH"] = paths + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else paths
    code = "import sys; from pathlib import Path; import regenerate_golden as r; r.write_goldens(Path(sys.argv[1]))"
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True, timeout=120)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(
        path.name for path in GOLDEN.iterdir() if path.suffix != ".sys" and path.name != DIGESTS
    )
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_output_digest_is_reproducible():
    # two runs of output_digest.py on builtin-nine, under different string
    # hash seeds, print the same digest of every output
    script = Path(__file__).with_name("output_digest.py")
    src = str(Path(__file__).resolve().parent.parent / "src")
    printed = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        argv = [sys.executable, str(script), "--workload", "builtin-nine", "--seed", "1"]
        printed.append(subprocess.run(argv, env=env, check=True, capture_output=True, text=True, timeout=120).stdout)
    assert printed[0] == printed[1]
    assert printed[0].startswith("builtin-nine seed=1 ") and len(printed[0].split()[-1]) == 64


def test_builtin_nine_digest_matches_golden():
    # digests.txt lists every workload at seeds 1 and 7 in the order
    # output_digest.py prints them; builtin-nine's is the cheap one to check
    lines = (GOLDEN / DIGESTS).read_text().splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        f"{workload} seed={seed}" for workload in WORKLOADS for seed in (1, 7)
    ]
    assert list(digest_lines(["builtin-nine"], [1])) == lines[:1]
