"""Tests of the benchmark itself: input generation, tracing and the gate.

Run with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import RULE_NAMES, SWEEP_SHAPES, builtin_cases, sweep_cases  # noqa: E402

dp = run.load_program()


def _texts(workload, seed):
    return [(c.text, c.rules) for c in sweep_cases(workload, seed)]


@pytest.mark.parametrize("workload", sorted(SWEEP_SHAPES))
def test_same_seed_same_inputs(workload):
    assert _texts(workload, 7) == _texts(workload, 7)
    hashes = [c.text_hash for c in sweep_cases(workload, 7)]
    assert hashes == [c.text_hash for c in sweep_cases(workload, 7)]


@pytest.mark.parametrize("workload", sorted(SWEEP_SHAPES))
def test_different_seed_different_inputs(workload):
    assert _texts(workload, 7) != _texts(workload, 8)


@pytest.mark.parametrize("workload", sorted(SWEEP_SHAPES))
def test_every_pass_covers_the_same_design(workload):
    def design(seed):
        return sorted((tuple(c.props["rules"].values()), tuple(c.props["space_terms"])) for c in sweep_cases(workload, seed))

    assert design(3) == design(4)
    for (n_ops, n_unknowns), per_rules in SWEEP_SHAPES[workload].items():
        shape = [c for c in sweep_cases(workload, 3) if (c.props["operators"], c.props["unknowns"]) == (n_ops, n_unknowns)]
        assert len(shape) == 4**n_ops * per_rules
        for position in range(n_ops):
            rules = [tuple(c.props["rules"].values())[position] for c in shape]
            assert {rules.count(r) for r in RULE_NAMES} == {len(shape) // 4}


def test_sweep_texts_parse_with_one_relation_per_unknown():
    for workload in SWEEP_SHAPES:
        for spec in sweep_cases(workload, 1)[:20]:
            p = dp.parse_system(spec.text).presentation
            assert p.operators[-1] == "t"
            assert len(p.relations) == p.num_unknowns == spec.props["unknowns"]
            assert (p.parameter == "a") == (workload == "sweep-parametric")


def _small_cases():
    specs = [s for s in builtin_cases() if s.builtin == "diffusion"]
    for workload in SWEEP_SHAPES:
        specs += [s for s in sweep_cases(workload, 5) if s.props["operators"] == 2][:3]
    return run.build_inputs(dp, specs)


def test_traced_and_untraced_reports_are_identical():
    cases = _small_cases()
    plain = [run.run_case(dp, c)[1] for c in cases]
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = [run.run_case_traced(dp, c, tracer)[1] for c in cases]
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"groebner.completion", "dimension.validate", "dimension.oracle", "pipeline.report"} <= names
    # patches are removed on exit
    import dimpoly.pipeline

    assert dimpoly.pipeline.buchberger is dp.buchberger


def test_span_self_time_excludes_children():
    cases = _small_cases()[:2]
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        for c in cases:
            run.run_case_traced(dp, c, tracer)
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        assert s.self_time >= -1e-9
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.case == s.case
            assert parent.start <= s.start and s.end <= parent.end
    layers = tracing.case_layers([s for s in tracer.spans if s.case == cases[1].index])
    assert layers["groebner.pairs"] >= layers["groebner.zero_reductions"] >= 0
    assert layers["dimension.validate_s"] >= layers["dimension.oracle_s"]


def test_gate_accepts_correct_results():
    cases = _small_cases()
    for case in cases:
        doc, text = run.run_case(dp, case)
        assert run.check_case(dp, case.spec, doc, text) == []


def test_gate_rejects_a_wrong_expected_polynomial():
    case = _small_cases()[1]  # diffusion, forward scheme: 5*t
    doc, text = run.run_case(dp, case)
    wrong = dataclasses.replace(case.spec, expected="5*t+1")
    problems = run.check_case(dp, wrong, doc, text)
    assert problems and "differs from the expected" in problems[0]


def test_gate_rejects_wrong_basis_sizes():
    case = _small_cases()[1]
    doc, text = run.run_case(dp, case)
    wrong = dataclasses.replace(case.spec, basis_sizes=(80, 72))
    assert any("basis sizes" in p for p in run.check_case(dp, wrong, doc, text))


def test_gate_rejects_a_basis_that_is_not_groebner():
    case = _small_cases()[1]
    doc, text = run.run_case(dp, case)
    truncated = dataclasses.replace(
        doc, basis=dataclasses.replace(doc.basis, elements=doc.basis.elements[:-1])
    )
    problems = run.check_case(dp, case.spec, truncated, text)
    assert any("reduce to 0" in p or "Buchberger" in p for p in problems)


def test_quantile_interpolates():
    assert run.quantile([1.0], 0.9) == 1.0
    assert run.quantile([0.0, 10.0], 0.9) == pytest.approx(9.0)
    assert run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
