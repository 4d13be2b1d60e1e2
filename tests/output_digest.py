"""Print one sha256 per benchmark workload and seed over every output of its cases.

    PYTHONPATH=src python tests/output_digest.py [--workload W ...] [--seed S ...]

The cases are those of ``perfbench/workloads.py``, built into inputs by the
benchmark's own ``build_inputs`` and each computed as ``dimpoly compute``
computes it.  A case contributes, in this order: its untraced JSON and text
reports, its ``--trace`` lines, and the JSON and text reports of the traced
run.  A failing case contributes its error instead.  Run it on two
checkouts to check that a change leaves every output as it was: equal
digests mean equal outputs.  By default it covers every workload at seeds 1
and 7; builtin-nine does not depend on the seed.  Those six lines are
committed as ``tests/golden/digests.txt``, which ``tests/regenerate_golden.py``
rewrites: ``PYTHONPATH=src python tests/output_digest.py | diff -
tests/golden/digests.txt`` checks every output of the benchmark at once.
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import dimpoly  # noqa: E402
from run import build_inputs  # noqa: E402
from workloads import WORKLOADS, workload_cases  # noqa: E402


def benchmark_cases(workload: str, seed: int) -> list:
    """The cases of one workload and seed, built into inputs as the benchmark builds them."""
    return build_inputs(dimpoly, workload_cases(workload, seed))


def compute_case(case, **options):
    """One benchmark case, computed as ``dimpoly compute`` computes it."""
    return dimpoly.compute_strength(
        case.presentation,
        system_name=case.system_name,
        scheme=case.scheme,
        scheme_name=case.scheme_name,
        **options,
    )


def case_outputs(case) -> list[str]:
    """The outputs of one benchmark case, as ``dimpoly compute`` gives them."""
    out = []
    try:
        doc = compute_case(case)
        out += [dimpoly.report_to_json(doc), dimpoly.report_to_text(doc)]
        doc = compute_case(case, trace=out.append)
        out += [dimpoly.report_to_json(doc), dimpoly.report_to_text(doc)]
    except ValueError as exc:  # a budget refusal is an output too
        out.append(f"error: {type(exc).__name__}: {exc}")
    return out


def digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for case in benchmark_cases(workload, seed):
        for text in case_outputs(case):
            h.update(text.encode())
            h.update(b"\0")
    return h.hexdigest()


def digest_lines(workloads=WORKLOADS, seeds=(1, 7)):
    """One line ``WORKLOAD seed=S SHA256`` per workload and seed, as printed."""
    for workload in workloads:
        for seed in seeds:
            yield f"{workload} seed={seed} {digest(workload, seed)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", action="append", type=int)
    args = parser.parse_args(argv)
    for line in digest_lines(args.workload or WORKLOADS, args.seed or (1, 7)):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
