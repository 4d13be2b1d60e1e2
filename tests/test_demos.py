"""Smoke test: every narrative script under demos/ runs to completion, and the
three worked systems print the polynomials of the README table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The README's built-in regression targets: differential, forward, symmetric.
README_POLYNOMIALS = {
    "diffusion": ("2*t+1", "5*t", "4*t"),
    "maxwell": (
        "1/4*t^4+19/6*t^3+55/4*t^2+137/6*t+12",
        "4*t^4+18*t^3+35*t^2+31*t+12",
        "4*t^4+56/3*t^3+36*t^2+64/3*t+22",
    ),
    "potential": (
        "t^3+11/2*t^2+17/2*t+4",
        "15*t^3-7/2*t^2+43/2*t+2",
        "16*t^3-8*t^2+24*t+8",
    ),
}


def test_worked_demos_present():
    assert set(README_POLYNOMIALS) <= {d.stem for d in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.rstrip() for line in proc.stdout.splitlines()]
    for poly in README_POLYNOMIALS.get(demo.stem, ()):
        # whole-polynomial match: "5*t" must not be found inside "15*t"
        assert any(line.endswith((f": {poly}", f"= {poly}")) for line in lines), poly
