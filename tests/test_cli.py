import json

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

    def test_per_operator_rules_match_preset(self, capsys):
        code, out1, _ = run(
            capsys, "compute", "--builtin", "diffusion", "--rule", "x=central2", "--rule", "t=forward", "--json"
        )
        assert code == 0
        code, out2, _ = run(capsys, "compute", "--builtin", "diffusion", "--scheme", "symmetric", "--json")
        left, right = json.loads(out1), json.loads(out2)
        assert left["polynomial"] == right["polynomial"]
        assert left["scheme"] == "x=central2,t=forward"

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run(
            capsys, "compute", "--builtin", "diffusion", "--scheme", "forward", "--trace"
        )
        assert code == 0
        assert "pair (" in err and "pair (" not in out

    def test_validation_failure_exits_2(self, capsys, monkeypatch):
        import dimpoly.pipeline as pipeline
        from dimpoly.dimension import ValidationRecord

        def fake_validate(report, stair):
            return ValidationRecord((0, 5), False, (0, 0, "1"))

        monkeypatch.setattr(pipeline, "validate_polynomial", fake_validate)
        code, out, _ = run(capsys, "compute", "--builtin", "diffusion")
        assert code == 2
        assert "FAILED" in out


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

    def test_both_inputs(self, capsys, tmp_path):
        path = tmp_path / "x.sys"
        path.write_text(DIFFUSION_SRC)
        code, _, err = run(capsys, "compute", str(path), "--builtin", "diffusion")
        assert code == 1

    def test_malformed_rule(self, capsys):
        code, _, err = run(capsys, "compute", "--builtin", "diffusion", "--rule", "xcentral2")
        assert code == 1

    def test_scheme_and_rule_conflict(self, capsys):
        code, _, err = run(
            capsys, "compute", "--builtin", "diffusion", "--scheme", "forward", "--rule", "x=central"
        )
        assert code == 1

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

    @pytest.mark.parametrize("standard", ["2*t+", "1/t"])
    def test_bad_polynomial_exits_1(self, capsys, tmp_path, standard):
        code, out, _ = run(capsys, "compute", "--builtin", "diffusion", "--json")
        good = tmp_path / "good.json"
        good.write_text(out)
        data = json.loads(out)
        data["polynomial"]["standard"] = standard
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for pair in ((good, bad), (bad, good)):
            code, out, err = run(capsys, "compare", *map(str, pair))
            assert code == 1
            assert out == ""
            assert err.startswith("error: ")


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
        # C(100002, 2) ~ 5e9 rows: refused before the grid is built
        code, _, err = run(capsys, "oracle-check", "--builtin", "diffusion", "--r", "100000")
        assert code == 3
        assert "limit" in err
        # validating diffusion enumerates C(7, 2) = 21 rows
        monkeypatch.setattr(dimpoly.dimension, "MAX_ORACLE_ROWS", 20)
        code, out, err = run(capsys, "compute", "--builtin", "diffusion")
        assert code == 3
        assert not out and "limit of 20" in err

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
