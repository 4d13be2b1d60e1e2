"""Grammar-driven fuzzing of the command line: every system text and every
report, well-formed or broken, must end in a documented exit code (0-4)
within a time limit, and never in a traceback.

The texts are drawn from the input language's own grammar (kind, operators,
parameter and unknowns lines, relations of signed terms with coefficient
expressions and operator powers), then broken on purpose: stray tokens,
exponents past their limits or negative outside kind inversive, undeclared
names, deep nesting, repeated or missing lines.  Each goes through
``cli.main`` in-process.  Legal operator exponents stay small: a large legal
one such as ``x^2000`` under a scheme is a slow input, not a malformed one.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dimpoly.cli import main
from dimpoly.dsl import MAX_NESTING, MAX_OPERATOR_EXPONENT
from dimpoly.freemodule import KINDS

# Generous: a drawn case takes milliseconds; this catches a runaway one.
TIME_LIMIT_S = 20
# A failure is shrunk but not explained: explaining these long choice
# sequences took minutes when a mutated CLI let every error escape.
PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink)


OPERATORS = ("x", "y", "t")
UNKNOWNS = ("u", "v")
STRAY = ("@", "=", "**", ")", "(", "^", "+", "1.5", "é", "x^", "--", "/", "*u", "#")
# One flaw per text, or None for a well-formed one.  The test runs once per
# flaw: a derandomized draw from one list of them reached some in 1 of 100.
FLAWS = (None, "stray", "line", "undeclared", "exponent", "nesting", "kind", "coefficient")


def coefficients(atoms):
    """Coefficient expressions over ``atoms``: sums, products, quotients and
    powers, in parentheses."""
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
            st.tuples(inner, st.sampled_from("023")).map(lambda p: f"({p[0]})^{p[1]}"),
        ),
        max_leaves=4,
    )


@st.composite
def terms(draw, operators, unknowns, parameter, kind, flaw=None):
    """``[coefficient *] operator powers * unknown``, with ``flaw`` in it."""
    atoms = ["1", "2", "(-3)", "3/4"] + ([parameter] if parameter else [])
    parts = [draw(coefficients(atoms))] if draw(st.booleans()) else []
    powers = ["", "^0", "^2"] + (["^-1"] if kind == "inversive" else [])
    for op in draw(st.lists(st.sampled_from(operators), max_size=3)):
        parts.append(op + draw(st.sampled_from(powers)))
    parts.append(draw(st.sampled_from(unknowns)))
    if flaw == "undeclared":
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(["w", "b", "z9"])))
    elif flaw == "exponent":
        big = draw(st.sampled_from([MAX_OPERATOR_EXPONENT + 1, 10**30]))
        parts.insert(0, f"{draw(st.sampled_from(operators))}^{draw(st.sampled_from([-1, big]))}")
    elif flaw == "nesting":  # at the limit or past it
        depth = draw(st.integers(MAX_NESTING - 2, MAX_NESTING + 2))
        parts.insert(0, "(" * depth + "2" + ")" * depth)
    elif flaw == "coefficient":
        parts.insert(0, draw(st.sampled_from(["1/0", "(1 - 1)^-1", "(2)^101", "(1/(2 - 2))"])))
    return "*".join(parts)


@st.composite
def system_texts(draw, flaw):
    """A system text and its operators: well-formed, or with ``flaw``."""
    kind = "wave" if flaw == "kind" else draw(st.sampled_from(KINDS))
    operators = tuple(draw(st.lists(st.sampled_from(OPERATORS), min_size=1, max_size=3, unique=True)))
    unknowns = tuple(draw(st.lists(st.sampled_from(UNKNOWNS), min_size=1, max_size=2, unique=True)))
    parameter = "a" if draw(st.booleans()) else None
    lines = [
        f"kind {kind}",
        "operators " + " ".join(operators),
        *([f"parameter {parameter}"] if parameter else []),
        "unknowns " + " ".join(unknowns),
    ]
    for k in range(draw(st.integers(1, 2))):
        body = draw(st.lists(terms(operators, unknowns, parameter, kind), min_size=1, max_size=3))
        if k == 0:
            body[0] = draw(terms(operators, unknowns, parameter, kind, flaw))
        text = body[0]
        for term in body[1:]:
            text += draw(st.sampled_from([" + ", " - ", " = "])) + term
        if k == 0 and flaw == "stray":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(STRAY)) + text[at:]
        lines.append("relation " + text)
    if flaw == "line":  # a missing, repeated or unknown line
        at = draw(st.integers(0, len(lines) - 1))
        lines[at : at + 1] = draw(st.sampled_from([[], [lines[at]] * 2, ["wave x"]]))
    return "\n".join(lines) + "\n", operators


def _options(operators):
    time_op, space = operators[-1], operators[:-1]
    return st.sampled_from(
        [
            ["compute"],
            ["compute", "--json"],
            ["compute", "--trace"],
            ["compute", "--scheme", "forward"],
            ["compute", "--scheme", "symmetric"],
            ["compute", "--rule", f"{time_op}=backward", *[f"--rule={op}=central" for op in space]],
            ["compute", "--order", ",".join(reversed(operators))],
            ["oracle-check", "--r", "3"],
            ["oracle-check", "--scheme", "forward", "--r", "-1"],
        ]
    )


def run_cli(*argv):
    """``cli.main`` in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def assert_documented(code, out, err, seconds):
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in out and "Traceback" not in err
    assert seconds < TIME_LIMIT_S
    if code == 1:
        assert err.startswith(("error: ", "usage: "))


@pytest.mark.parametrize("flaw", FLAWS)
@settings(max_examples=20, phases=PHASES)
@given(data=st.data())
def test_system_texts_end_in_a_documented_exit_code(tmp_path_factory, flaw, data):
    text, operators = data.draw(system_texts(flaw))
    path = tmp_path_factory.mktemp("fuzz") / "case.sys"
    path.write_text(text, encoding="utf-8")
    command, *options = data.draw(_options(operators))
    assert_documented(*run_cli(command, str(path), *options))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_REPORT = {"system": {"name": "heat"}, "scheme": "forward", "polynomial": {"standard": "2*t+1"}}


@st.composite
def report_texts(draw):
    """A report with its label or polynomial redrawn or removed, or a broken
    JSON text."""
    report = json.loads(json.dumps(_REPORT))
    field = draw(st.sampled_from(["polynomial", "standard", "scheme", "system", None]))
    if field == "standard":
        standard = coefficients(["1", "2", "1/2", "t", "1/0", "(" * (MAX_NESTING + 1) + "t"])
        report["polynomial"]["standard"] = draw(standard | json_values)
    elif field is not None:
        report[field] = draw(json_values)
    text = json.dumps(report)
    return draw(
        st.sampled_from(
            [text, text[: len(text) // 2], "[" * 50_000, "{} {}", text.replace('"', "'"), "NaN"]
        )
    )


@settings(max_examples=60, phases=PHASES)
@given(left=report_texts(), right=report_texts())
def test_report_texts_end_in_a_documented_exit_code(tmp_path_factory, left, right):
    folder = tmp_path_factory.mktemp("reports")
    (folder / "left.json").write_text(left, encoding="utf-8")
    (folder / "right.json").write_text(right, encoding="utf-8")
    assert_documented(*run_cli("compare", str(folder / "left.json"), str(folder / "right.json")))
