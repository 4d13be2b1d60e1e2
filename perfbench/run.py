#!/usr/bin/env python3
"""Stage-level benchmark of dimpoly.

One run times ``compute_strength`` followed by ``report_to_json`` on every
case of one workload, which is what ``dimpoly compute --json`` does per input.
It is a closed loop: one client in one process, one case after another.
The program is loaded from ``src/`` of the checkout this file sits in.

    python3 perfbench/run.py --workload sweep-rational --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs an untraced
round, then a traced one, and reports the per-layer metrics.  ``--workload
all`` runs every workload in its own process and prints one table.  Every
result is checked outside the timed region; the last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-case
records, spans and the environment are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, CaseSpec, workload_cases  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Set-up probes taken before and after the timed passes: the host's speed
# shifts within a run, so the median draws on both ends of it.
SETUP_PROBES = (3, 2)
# Passes of at most this many cases re-time their cheap cases (see timed_round).
RESAMPLE_MAX_CASES = 32
RESAMPLE_BELOW_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_p50_s": "s",
    "case_p90_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "groebner.completion_s": "s",
    "groebner.pairs": "count",
    "groebner.zero_reductions": "count",
    "groebner.useful_pair_ratio": "ratio",
    "groebner.reduction_steps": "count",
    "groebner.completed_size": "count",
    "groebner.basis_size": "count",
    "coefficients.max_bits": "bits",
    "coefficients.max_param_degree": "degree",
    "dimension.staircase_s": "s",
    "dimension.polynomial_s": "s",
    "dimension.antichain_max": "count",
    "dimension.subsets": "count",
    "dimension.validate_s": "s",
    "dimension.oracle_s": "s",
    "dimension.interpolate_s": "s",
    "dimension.threshold": "count",
    "dimension.oracle_rows": "rows_computed",
    "dsl.parse_s": "s",
    "schemes.discretize_s": "s",
    "schemes.terms_out": "count",
    "inversive.embed_s": "s",
    "inversive.relations_out": "count",
    "pipeline.self_s": "s",
    "pipeline.report_s": "s",
    "trace.overhead_s": "s",
}
# Layer values that are maxima over a pass rather than sums.
MAX_LAYERS = ("coefficients.max_bits", "coefficients.max_param_degree", "dimension.antichain_max")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_program():
    """Import dimpoly from this checkout's sources, never from elsewhere."""
    package = SRC / "dimpoly"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found at {package}")
    pin_threads()
    sys.path.insert(0, str(SRC))
    import dimpoly

    if Path(dimpoly.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported dimpoly from {dimpoly.__file__}, not {package}")
    return dimpoly


@dataclass
class Case:
    """A parsed input ready for ``compute_strength``."""

    index: int
    spec: CaseSpec
    presentation: object
    scheme: object
    scheme_name: str | None
    system_name: str


def build_inputs(dp, specs: list[CaseSpec], tracer: tracing.Tracer | None = None) -> list[Case]:
    """Parse every input text (or load the built-in) and resolve its scheme."""
    cases = []
    for i, spec in enumerate(specs):
        if tracer is not None:
            tracer.case = i
        with tracer.span("dsl.parse") if tracer else nullcontext():
            if spec.builtin is not None:
                p = dp.builtin_system(spec.builtin)
            else:
                p = dp.parse_system(spec.text).presentation
        if spec.builtin is not None:
            scheme = dp.builtin_scheme(spec.builtin, spec.scheme) if spec.scheme else None
            cases.append(Case(i, spec, p, scheme, spec.scheme, spec.builtin))
        else:
            label = ",".join(f"{op}={rule}" for op, rule in spec.rules)
            scheme = dp.rule_spec(dict(spec.rules), p.operators)
            cases.append(Case(i, spec, p, scheme, label, f"case{i}"))
    return cases


def run_case(dp, case: Case):
    doc = dp.compute_strength(
        case.presentation,
        system_name=case.system_name,
        scheme=case.scheme,
        scheme_name=case.scheme_name,
    )
    return doc, dp.report_to_json(doc)


def run_case_traced(dp, case: Case, tracer: tracing.Tracer):
    tracer.case = case.index
    with tracer.span("case"):
        with tracer.span("pipeline.compute_strength"):
            doc = dp.compute_strength(
                case.presentation,
                system_name=case.system_name,
                scheme=case.scheme,
                scheme_name=case.scheme_name,
            )
        with tracer.span("pipeline.report"):
            text = dp.report_to_json(doc)
    return doc, text


@dataclass
class Round:
    """One timed pass over every case."""

    case_times: list[float]  # per case: mean over its executions in the pass
    results: list  # (doc, json text) per case, from its first execution
    spans: list  # the round's spans, when traced
    executions: int

    @property
    def wall(self) -> float:
        """Time for one pass, each case counted once."""
        return sum(self.case_times)


def _execute(dp, case: Case, tracer):
    t0 = time.perf_counter()
    try:
        out = run_case(dp, case) if tracer is None else run_case_traced(dp, case, tracer)
    except Exception as exc:  # a failed case is counted, not fatal
        out = (None, f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, out


def timed_round(dp, cases: list[Case], tracer=None, check=None) -> Round:
    """Every case once.  On a short untraced pass, each case cheaper than
    RESAMPLE_BELOW_S is executed again after every later case, so its latency
    is a mean over executions spread across the whole pass rather than one
    sample of a few milliseconds taken at one moment of the host's load.
    ``check(case, result)`` runs untimed after each case; interleaving it
    spreads the timed executions over a longer stretch of the host's load."""
    resample = tracer is None and len(cases) <= RESAMPLE_MAX_CASES
    samples: list[list[float]] = [[] for _ in cases]
    results = []
    cheap: list[Case] = []
    first_span = len(tracer.spans) if tracer else 0
    for case in cases:
        seconds, out = _execute(dp, case, tracer)
        samples[case.index].append(seconds)
        results.append(out)
        if check is not None:
            check(case, out)
        if resample:
            for earlier in cheap:
                samples[earlier.index].append(_execute(dp, earlier, None)[0])
            if seconds < RESAMPLE_BELOW_S:
                cheap.append(case)
    spans = tracer.spans[first_span:] if tracer else []
    return Round([statistics.fmean(x) for x in samples], results, spans, sum(map(len, samples)))


def timed_rounds(dp, cases: list[Case], seconds: float, tracer=None, check=None) -> list[Round]:
    """Whole passes while the next one is expected to fit in ``seconds``;
    always at least one.  ``check`` sees the first pass's results."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(timed_round(dp, cases, tracer, None if rounds else check))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


# -- correctness gate ----------------------------------------------------------


def check_case(dp, spec: CaseSpec, doc, text: str) -> list[str]:
    """Problems with one result; empty when it is certified correct."""
    if doc is None:
        return [f"raised {text}"]
    problems = []
    poly = dp.poly_str(doc.dim.polynomial)
    if spec.expected is not None and poly != spec.expected:
        problems.append(f"polynomial {poly} differs from the expected {spec.expected}")
    if spec.basis_sizes is not None:
        sizes = (doc.basis.completed_size, len(doc.basis))
        if sizes != spec.basis_sizes:
            problems.append(f"basis sizes {sizes} differ from the expected {spec.basis_sizes}")
    if not doc.validation.ok:
        problems.append("oracle validation failed")
    if json.loads(text)["polynomial"]["standard"] != poly:
        problems.append("JSON report disagrees with the computed polynomial")
    elements, order = doc.basis.elements, doc.basis.order
    if not dp.is_groebner_basis(elements, order):
        problems.append("basis fails the Buchberger criterion")
    if any(dp.normal_form(rel, elements, order) for rel in doc.working.relations):
        problems.append("a working relation does not reduce to 0 modulo the basis")
    return problems


def repeat_problems(rounds: list[Round]) -> dict[int, str]:
    """Cases whose report differs between passes (traced ones included)."""
    first = [text for _, text in rounds[0].results]
    out = {}
    for r in rounds[1:]:
        for i, (_, text) in enumerate(r.results):
            if text != first[i]:
                out[i] = "a repeated pass produced a different report"
    return out


# -- metrics -------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (the 'inclusive' method)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Set-up time, from fresh interpreters: import plus building inputs."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    dp = load_program()
    build_inputs(dp, workload_cases(workload, seed))
    print(repr(time.perf_counter() - t0))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_totals(spans: list[tracing.Span]) -> dict[int, dict]:
    """Per-case layer values, indexed by case."""
    by_case: dict[int, list[tracing.Span]] = {}
    for s in spans:
        by_case.setdefault(s.case, []).append(s)
    return {case: tracing.case_layers(ss) for case, ss in by_case.items()}


def pass_layers(per_case: dict, n_cases: int) -> dict:
    total: dict[str, float] = {}
    for i in range(n_cases):
        for k, v in per_case.get(i, {}).items():
            total[k] = max(total.get(k, 0), v) if k in MAX_LAYERS else total.get(k, 0) + v
    return total


def environment() -> dict:
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def case_record(case: Case, doc, seconds: float) -> dict:
    record = {
        "index": case.index,
        "name": case.spec.name,
        "text_hash": case.spec.text_hash,
        **case.spec.props,
        "rules": dict(case.spec.rules) if case.spec.rules else case.spec.props.get("scheme"),
        "seconds": seconds,
    }
    if doc is None:
        return record
    stair = doc.staircase.per_generator
    return {
        **record,
        "polynomial": str(doc.dim.polynomial),
        "pairs": doc.basis.pairs_processed,
        "reduction_steps": doc.basis.reduction_steps,
        "completed_size": doc.basis.completed_size,
        "basis_size": len(doc.basis),
        "antichain_max": max((len(a) for a in stair), default=0),
        "threshold": doc.dim.validity_threshold,
        "validation_ok": doc.validation.ok,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = [] if trace else measure_setup(workload, seed, SETUP_PROBES[0])
    dp = load_program()
    specs = workload_cases(workload, seed)
    tracer = tracing.Tracer() if trace else None
    cases = build_inputs(dp, specs, tracer)
    parse_spans = list(tracer.spans) if tracer else []

    failures: dict[int, list[str]] = {}

    def check(case: Case, result) -> None:
        problems = check_case(dp, case.spec, *result)
        if problems:
            failures[case.index] = problems

    rounds = timed_rounds(dp, cases, seconds, check=check)
    traced_rounds = []
    if tracer is not None:
        with tracing.patched(tracer):
            traced_rounds = timed_rounds(dp, cases, seconds, tracer)
    if not trace:
        setup += measure_setup(workload, seed, SETUP_PROBES[1])
    for idx, problem in repeat_problems(rounds + traced_rounds).items():
        failures.setdefault(idx, []).append(problem)
    attempted = len(cases)
    failed = len(failures)

    walls = [r.wall for r in rounds]
    case_times = [t for r in rounds for t in r.case_times]
    records = [case_record(c, doc, rounds[0].case_times[c.index]) for c, (doc, _) in zip(cases, rounds[0].results)]
    for idx, problems in failures.items():
        records[idx]["problems"] = problems
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "case_p50_s": quantile(case_times, 0.5),
            "case_p90_s": quantile(case_times, 0.9),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    else:
        per_case = [layer_totals(r.spans) for r in traced_rounds]
        for idx, layers in per_case[0].items():
            records[idx]["layers"] = layers
        round_layers = [pass_layers(c, attempted) for c in per_case]
        layers = {
            name: statistics.median(r.get(name, 0) for r in round_layers) for name in PER_LAYER
        }
        first = round_layers[0]
        pairs = first.get("groebner.pairs", 0)
        layers["groebner.useful_pair_ratio"] = first.get("groebner.added", 0) / pairs if pairs else 0.0
        layers["dsl.parse_s"] = sum(s.duration for s in parse_spans)
        layers["trace.overhead_s"] = statistics.median(r.wall for r in traced_rounds) - statistics.median(walls)
        metrics = layers
        units = PER_LAYER

    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "client": "closed loop, 1 client, 1 process",
        "rounds": len(rounds),
        "executions": sum(r.executions for r in rounds),
        "round_wall_s": walls,
        "wall_quartiles_s": quartiles(walls),
        "case_quartiles_s": quartiles(case_times),
        "case_samples": len(case_times),
        "setup_samples_s": setup,
        "fail_ratio": failed / attempted,
        "failures": {str(k): v for k, v in failures.items()},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "cases": records,
    }
    if tracer is not None:
        summary["traced_round_wall_s"] = [r.wall for r in traced_rounds]
        summary["spans"] = [s.as_dict() for s in tracer.spans]
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(summary, indent=1, default=str) + "\n")
    summary["out_file"] = str(out_file.relative_to(ROOT))
    return summary


def print_report(summary: dict) -> None:
    env = summary["environment"]
    print(
        f"# {summary['workload']} seed={summary['seed']} trace={summary['trace']}: "
        f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, cpu {env['cpu']}"
    )
    q = summary["wall_quartiles_s"]
    c = summary["case_quartiles_s"]
    print(f"#   passes {summary['rounds']}: wall quartiles {q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f} s")
    print(
        f"#   case latency {summary['case_samples']} samples ({summary['executions']} executions): "
        f"quartiles {c[0]:.5f} / {c[1]:.5f} / {c[2]:.5f} s"
    )
    for name, m in summary["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {summary['fail_ratio']:.6g} ratio")
    for idx, problems in summary["failures"].items():
        print(f"#   FAILED case {idx}: {'; '.join(problems)}")
    print(f"#   details: {summary['out_file']}")


def result_line(summary: dict) -> str:
    attempted = len(summary["cases"])
    failed = len(summary["failures"])
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": summary["metrics"],
        }
    )


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, so peak memory belongs to it."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--seconds",
                str(seconds),
                "--trace",
                str(trace),
            ],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\n# workload, metric, value, unit")
    for workload, result in rows:
        for name, m in result["metrics"].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        print(f"{workload} fail_ratio {result['failed'] / result['attempted']:.6g} ratio")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "dimpoly" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    pin_threads()
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(summary)
    print(result_line(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
