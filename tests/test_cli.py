import json
import os
import subprocess
import sys
import time

import pytest

import dimpoly.dimension
import dimpoly.groebner
from dimpoly.cli import main

DIFFUSION_SRC = """\
kind differential
operators x t
parameter a
unknowns u
relation t*u - a * x^2 * u
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_symmetric_text_report(self, capsys):
        code, out, _ = run(capsys, "compute", "--builtin", "diffusion", "--scheme", "symmetric")
        assert code == 0
        assert out.rstrip().endswith("psi(t) = 4*t")

    def test_json_deterministic(self, capsys):
        code, out1, _ = run(capsys, "compute", "--builtin", "diffusion", "--json")
        assert code == 0
        code, out2, _ = run(capsys, "compute", "--builtin", "diffusion", "--json")
        assert out1 == out2
        data = json.loads(out1)
        assert data["polynomial"]["standard"] == "2*t+1"

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "heat.sys"
        path.write_text(DIFFUSION_SRC)
        code, out, _ = run(capsys, "compute", str(path))
        assert code == 0
        assert out.rstrip().endswith("phi(t) = 2*t+1")
        assert "system: heat" in out

    def test_order_beyond_int16(self, capsys, tmp_path):
        path = tmp_path / "shift.sys"
        path.write_text("kind difference\noperators x\nunknowns u\nrelation x^40000*u - u\n")
        code, out, _ = run(capsys, "compute", str(path))
        assert code == 0
        assert "[39999, 40004] and interpolation: ok" in out
        assert out.rstrip().endswith("psi(t) = 40000")

    def test_relation_past_the_term_bound_exits_1(self, capsys, tmp_path):
        # x^2000 discretizes to 2,002 terms; x^2498 to 2,501, past the bound
        path = tmp_path / "long.sys"
        path.write_text("kind differential\noperators x t\nunknowns u\nrelation t*u - x^2498*u\n")
        code, out, err = run(capsys, "compute", str(path), "--scheme", "forward")
        assert (code, out) == (1, "")
        assert "2501 terms, more than MAX_DISCRETIZED_TERMS (2500)" in err

    def test_runs_without_numpy(self):
        # numpy made unimportable before the package loads
        script = (
            "import sys; sys.modules['numpy'] = None\n"
            "from dimpoly.cli import main\n"
            "sys.exit(main(['compute', '--builtin', 'maxwell', '--scheme', 'symmetric']))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.rstrip().endswith("= 4*t^4+56/3*t^3+36*t^2+64/3*t+22")

    def test_per_operator_rules_match_preset(self, capsys):
        code, out1, _ = run(
            capsys, "compute", "--builtin", "diffusion", "--rule", "x=central2", "--rule", "t=forward", "--json"
        )
        assert code == 0
        code, out2, _ = run(capsys, "compute", "--builtin", "diffusion", "--scheme", "symmetric", "--json")
        left, right = json.loads(out1), json.loads(out2)
        assert left["polynomial"] == right["polynomial"]
        assert left["scheme"] == "x=central2,t=forward"

    def test_order_option(self, capsys):
        code, out, _ = run(capsys, "compute", "--builtin", "diffusion", "--scheme", "forward", "--json")
        default = json.loads(out)["polynomial"]
        code, out, _ = run(
            capsys, "compute", "--builtin", "diffusion", "--scheme", "forward", "--order", "t,x", "--json"
        )
        assert code == 0
        assert json.loads(out)["polynomial"] == default

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run(
            capsys, "compute", "--builtin", "diffusion", "--scheme", "forward", "--trace"
        )
        assert code == 0
        assert "pair (" in err and "pair (" not in out

    def test_validation_failure_exits_2(self, capsys, monkeypatch):
        import dimpoly.pipeline as pipeline
        from dimpoly.dimension import ValidationRecord

        for record, detail in [
            (ValidationRecord((0, 5), False, (3, 7, "8")), "  first mismatch at r=3: oracle count 7, p(r) = 8\n"),
            (ValidationRecord((0, 5), False, None), "  degree 1 exceeds the operator count n = 2\n"),
        ]:
            monkeypatch.setattr(pipeline, "validate_polynomial", lambda report, stair, record=record: record)
            code, out, _ = run(capsys, "compute", "--builtin", "diffusion")
            assert code == 2
            assert "FAILED\n" + detail in out
        # a passing run prints no such line
        monkeypatch.undo()
        code, out, _ = run(capsys, "compute", "--builtin", "diffusion")
        assert code == 0
        assert "mismatch" not in out and "exceeds" not in out


class TestErrors:
    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "compute", "--builtin", "wave")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "compute", "/nonexistent/system.sys")
        assert code == 1
        assert "No such file" in err

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "compute")
        assert code == 1

    @pytest.mark.parametrize("command", [["compute"], ["oracle-check", "--r", "2"]])
    def test_file_not_utf8_exits_1(self, capsys, tmp_path, command):
        path = tmp_path / "e.sys"
        path.write_bytes(DIFFUSION_SRC.encode() + b"# caf\xe9\n")
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path} is not UTF-8 text (")

    def test_both_inputs(self, capsys, tmp_path):
        path = tmp_path / "x.sys"
        path.write_text(DIFFUSION_SRC)
        code, _, err = run(capsys, "compute", str(path), "--builtin", "diffusion")
        assert code == 1

    def test_malformed_rule(self, capsys):
        code, _, err = run(capsys, "compute", "--builtin", "diffusion", "--rule", "xcentral2")
        assert code == 1

    def test_repeated_rule_operator(self, capsys, tmp_path):
        # the first rule used to vanish from the scheme and its label
        path = tmp_path / "heat.sys"
        path.write_text(DIFFUSION_SRC)
        code, out, err = run(capsys, "compute", str(path), "--rule", "x=forward", "--rule", "x=central")
        assert code == 1
        assert not out and err == "error: rule given more than once for operator 'x'\n"

    @pytest.mark.parametrize("order", [",", ""])
    def test_order_naming_no_operator(self, capsys, order):
        # an order that names nothing is refused, not read as the default
        code, out, err = run(capsys, "compute", "--builtin", "diffusion", "--order", order)
        assert code == 1
        assert not out and err == "error: order must list every operator exactly once\n"

    def test_scheme_and_rule_conflict(self, capsys):
        code, _, err = run(
            capsys, "compute", "--builtin", "diffusion", "--scheme", "forward", "--rule", "x=central"
        )
        assert code == 1

    def test_undeclared_order(self, capsys):
        code, out, err = run(capsys, "compute", "--builtin", "diffusion", "--order", "t,q")
        assert code == 1
        assert err == "error: order references undeclared operators ['q']\n"

    @pytest.mark.parametrize("builtin, order", [("diffusion", "x,t,t"), ("maxwell", "x,y,z,t,t")])
    def test_repeated_order_operator(self, capsys, builtin, order):
        code, out, err = run(
            capsys, "compute", "--builtin", builtin, "--scheme", "forward", "--order", order
        )
        assert code == 1
        assert not out and err == "error: order must list every operator exactly once\n"

    @pytest.mark.parametrize("case", ["json-arrays", "report-parentheses", "system-parentheses"])
    def test_deep_nesting_exits_1(self, capsys, tmp_path, case):
        code, out, _ = run(capsys, "compute", "--builtin", "diffusion", "--json")
        good = tmp_path / "good.json"
        good.write_text(out)
        bad = tmp_path / "bad"
        if case == "json-arrays":
            bad.write_text("[" * 100_000 + "]" * 100_000)
        elif case == "report-parentheses":
            bad.write_text(json.dumps(_with_standard(json.loads(out), "(" * 3000 + "t" + ")" * 3000)))
        else:
            bad.write_text(DIFFUSION_SRC.replace("a * x^2", "(" * 3000 + "a" + ")" * 3000 + "*x^2"))
        argv = ("compute", str(bad)) if case == "system-parentheses" else ("compare", str(bad), str(good))
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "coefficient,message",
        [
            ("((a+1)^100)^100", "line 5, column 18: coefficient degree 10000"),
            ("*".join(["(a+1)^100"] * 16), "line 5, column 17: coefficient degree 200"),
        ],
        ids=["nested-power", "sixteen-factors"],
    )
    def test_coefficient_degree_exits_1(self, capsys, tmp_path, coefficient, message):
        # refused from the operands' degrees, before the arithmetic runs
        path = tmp_path / "bad.sys"
        path.write_text(DIFFUSION_SRC.replace("a * x^2", coefficient + "*x^2"))
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", str(path))
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err == f"error: {message} exceeds the limit of 100\n"

    def test_parse_error_position(self, capsys, tmp_path):
        path = tmp_path / "bad.sys"
        path.write_text(DIFFUSION_SRC.replace("operators x t", "operators x"))
        code, _, err = run(capsys, "compute", str(path))
        assert code == 1
        assert "line 5" in err


class TestCompare:
    def test_diffusion_schemes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compute", "--builtin", "diffusion", "--scheme", "forward", "--json")
        (tmp_path / "forward.json").write_text(out)
        capsys.readouterr()
        code, out, _ = run(capsys, "compute", "--builtin", "diffusion", "--scheme", "symmetric", "--json")
        (tmp_path / "symmetric.json").write_text(out)
        code, out, _ = run(capsys, "compare", str(tmp_path / "forward.json"), str(tmp_path / "symmetric.json"))
        assert code == 0
        assert out.strip() == "symmetric is stronger"

    def test_report_not_utf8_exits_1(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compute", "--builtin", "diffusion", "--json")
        good = tmp_path / "good.json"
        good.write_text(out)
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe" + out.encode("utf-16-le"))  # a UTF-16 report
        for pair in ((good, bad), (bad, good)):
            code, out, err = run(capsys, "compare", *map(str, pair))
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {bad} is not UTF-8 text (")

    def test_report_not_json_names_its_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("forward is stronger\n")
        code, out, err = run(capsys, "compare", str(bad), str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: not a dimpoly report: Expecting value: line 1 column 1 (char 0)\n"

    def test_report_without_polynomial_names_its_path(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compute", "--builtin", "diffusion", "--json")
        good = tmp_path / "good.json"
        good.write_text(out)
        data = json.loads(out)
        del data["polynomial"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for pair in ((good, bad), (bad, good)):
            code, out, err = run(capsys, "compare", *map(str, pair))
            assert (code, out) == (1, "")
            assert err == f"error: {bad}: not a dimpoly report: polynomial.standard must be a string\n"

    def test_unparsable_polynomial_names_its_column(self, capsys, tmp_path):
        # the position is a column of the polynomial string, not of the file
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"polynomial": {"standard": "2*t+"}, "scheme": "s"}))
        code, out, err = run(capsys, "compare", str(bad), str(bad))
        assert (code, out) == (1, "")
        want = "not a dimpoly report: polynomial.standard, column 5: unexpected 'end of line'"
        assert err == f"error: {bad}: {want}\n"

    def test_non_polynomial_names_its_field(self, capsys, tmp_path):
        # 1/t parses as a coefficient, but is not a polynomial in t
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"polynomial": {"standard": "1/t"}, "scheme": "s"}))
        code, out, err = run(capsys, "compare", str(bad), str(bad))
        assert (code, out) == (1, "")
        want = "not a dimpoly report: polynomial.standard: not a polynomial in t: '1/t'"
        assert err == f"error: {bad}: {want}\n"

    @pytest.mark.parametrize(
        "tamper, message",
        [
            pytest.param(lambda data: _with_standard(data, "2*t+"), "unexpected", id="2*t+"),
            pytest.param(lambda data: _with_standard(data, "1/t"), "not a polynomial", id="1/t"),
            pytest.param(lambda data: [], "not a dimpoly report: ", id="list"),
            pytest.param(
                lambda data: {"polynomial": "x"},
                "not a dimpoly report: polynomial.standard",
                id="polynomial-string",
            ),
            pytest.param(
                lambda data: {"polynomial": {"standard": 5}},
                "not a dimpoly report: polynomial.standard",
                id="standard-number",
            ),
            pytest.param(
                lambda data: {"polynomial": data["polynomial"], "scheme": None},
                "not a dimpoly report: scheme or system.name",
                id="no-label",
            ),
        ],
    )
    def test_bad_polynomial_exits_1(self, capsys, tmp_path, tamper, message):
        code, out, _ = run(capsys, "compute", "--builtin", "diffusion", "--json")
        good = tmp_path / "good.json"
        good.write_text(out)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tamper(json.loads(out))))
        for pair in ((good, bad), (bad, good)):
            code, out, err = run(capsys, "compare", *map(str, pair))
            assert code == 1
            assert out == ""
            assert err.startswith("error: ")
            assert message in err
            assert "Traceback" not in err


def _with_standard(data, standard):
    data["polynomial"]["standard"] = standard
    return data


class TestOracleCheck:
    def test_heat_at_r4(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--builtin", "diffusion", "--r", "4")
        assert code == 0
        assert "oracle count at r=4: 9" in out
        assert "polynomial value at r=4: 9" in out

    def test_order_beyond_int16(self, capsys, tmp_path):
        path = tmp_path / "shift.sys"
        path.write_text("kind difference\noperators x\nunknowns u\nrelation x^3*u - u\n")
        code, out, _ = run(capsys, "oracle-check", str(path), "--r", "40000")
        assert code == 0
        assert "oracle count at r=40000: 3" in out

    def test_below_threshold_notes(self, capsys):
        code, out, _ = run(
            capsys, "oracle-check", "--builtin", "diffusion", "--scheme", "forward", "--r", "0"
        )
        assert code == 0  # r below the validity threshold never fails the check

    def test_oracle_budget_exits_3(self, capsys, monkeypatch):
        # diffusion has 3 slices: 3 x 10,000,001 cells, refused before counting
        code, _, err = run(capsys, "oracle-check", "--builtin", "diffusion", "--r", "10000000")
        assert code == 3
        assert "limit" in err
        # validating diffusion counts up to r = 5: 3 slices x 6 orders = 18 cells
        monkeypatch.setattr(dimpoly.dimension, "MAX_ORACLE_CELLS", 17)
        code, out, err = run(capsys, "compute", "--builtin", "diffusion")
        assert code == 3
        assert not out and "limit of 17" in err

    def test_many_operators_within_budget(self, capsys, tmp_path):
        # the heat equation in six space dimensions validates to r = 15 over
        # 14 doubled operators, C(29, 14) = 77,558,760 terms but few slices
        path = tmp_path / "heat6.sys"
        path.write_text(
            "kind differential\noperators x1 x2 x3 x4 x5 x6 t\nunknowns u\n"
            "relation t*u - x1^2*u - x2^2*u - x3^2*u - x4^2*u - x5^2*u - x6^2*u\n"
        )
        for scheme in ("forward", "symmetric"):
            code, out, _ = run(capsys, "compute", str(path), "--scheme", scheme, "--json")
            assert code == 0 and json.loads(out)["validation"]["ok"] is True
        # 48,903,492 terms of order <= 30 over maxwell's 8 doubled operators
        code, out, _ = run(capsys, "oracle-check", "--builtin", "maxwell", "--scheme", "forward", "--r", "30")
        assert code == 0 and "oracle count at r=30: 3758442" in out

    def test_completion_budget_exits_4(self, capsys, monkeypatch):
        # maxwell forward forms 230 pairs
        monkeypatch.setattr(dimpoly.groebner, "MAX_PAIRS_FORMED", 100)
        code, out, err = run(capsys, "compute", "--builtin", "maxwell", "--scheme", "forward")
        assert code == 4
        assert not out and "more than 100 pairs" in err

    def test_agrees_with_validation_block(self, capsys):
        for args in (
            ("--builtin", "diffusion"),
            ("--builtin", "diffusion", "--scheme", "forward"),
            ("--builtin", "diffusion", "--scheme", "symmetric"),
            ("--builtin", "potential"),
        ):
            code, out, _ = run(capsys, "compute", *args, "--json")
            data = json.loads(out)
            r0 = int(data["polynomial"]["validity_threshold"])
            code2, out2, _ = run(capsys, "oracle-check", *args, "--r", str(r0 + 1))
            assert (code2 == 0) == data["validation"]["ok"]


AB_SRC = """\
kind differential
operators a b
unknowns u
relation a*u - b^2*u
"""


class TestSchemeAliasesFollowBuiltin:
    """Per-built-in scheme aliases apply to --builtin only, never to a file
    that happens to share a built-in's name."""

    def _pair(self, capsys, tmp_path, src, names, *argv):
        outs = []
        for name in names:
            path = tmp_path / f"{name}.txt"
            path.write_text(src)
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
            assert code == 0, err
            outs.append(out.replace(f"system: {name} ", "system: NAME "))
        return outs

    def test_compute_builtin_named_file_uses_preset(self, capsys, tmp_path):
        heat, diffusion = self._pair(
            capsys, tmp_path, DIFFUSION_SRC, ("heat", "diffusion"), "compute", "--scheme", "symmetric"
        )
        assert diffusion == heat
        assert "scheme: symmetric [x=central t=central]" in diffusion
        assert diffusion.rstrip().endswith("psi(t) = 8*t-4")

    def test_compute_foreign_operators_under_builtin_name(self, capsys, tmp_path):
        waves, maxwell = self._pair(
            capsys, tmp_path, AB_SRC, ("waves", "maxwell"), "compute", "--scheme", "forward"
        )
        assert maxwell == waves
        assert maxwell.rstrip().endswith("psi(t) = 5*t")

    def test_oracle_check_builtin_named_file_uses_preset(self, capsys, tmp_path):
        heat, diffusion = self._pair(
            capsys, tmp_path, DIFFUSION_SRC, ("heat", "diffusion"),
            "oracle-check", "--scheme", "symmetric", "--r", "4",
        )
        assert diffusion == heat == "oracle count at r=4: 28\npolynomial value at r=4: 28\n"

    def test_oracle_check_foreign_operators_under_builtin_name(self, capsys, tmp_path):
        waves, maxwell = self._pair(
            capsys, tmp_path, AB_SRC, ("waves", "maxwell"), "oracle-check", "--scheme", "forward", "--r", "4"
        )
        assert maxwell == waves == "oracle count at r=4: 20\npolynomial value at r=4: 20\n"


class TestListBuiltins:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "list-builtins")
        assert code == 0
        assert out.split() == ["diffusion", "maxwell", "potential"]
