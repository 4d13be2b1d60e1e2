"""Rewrite the golden files that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/regenerate_golden.py [FOLDER]

For every case below it writes the JSON and text report, ``traces.sha256``
(the sha256 and line count of each case's ``--trace`` stderr) and the full
traces named in ``FULL_TRACES``, into FOLDER, ``tests/golden`` by default.
The ``*.sys`` inputs are read from ``tests/golden`` and never written.  Run
it after an intended change to the output, and review the diff.

The cases are the nine built-ins (3 systems x {PDE, forward, symmetric}),
each as ``dimpoly compute --builtin S [--scheme P]`` gives it, and every
``tests/golden/*.sys`` system, as ``dimpoly compute NAME.sys --rule OP=RULE
...`` gives it with the rules of its ``# rules`` line.
"""

import hashlib
import sys
from pathlib import Path

from dimpoly import (
    builtin_scheme,
    builtin_system,
    compute_strength,
    parse_system,
    report_to_json,
    report_to_text,
    rule_spec,
)

GOLDEN = Path(__file__).parent / "golden"
CASES = [
    (system, scheme)
    for system in ("diffusion", "maxwell", "potential")
    for scheme in (None, "forward", "symmetric")
]
SYSTEMS = sorted(path.stem for path in GOLDEN.glob("*.sys"))
FULL_TRACES = ("diffusion-forward",)
TRACE_HEADER = (
    "# sha256 of `dimpoly compute --builtin S [--scheme P] --trace` stderr (`dimpoly compute "
    "qa-NAME.sys --rule ... --trace` for the Q(a) pins), its line count, and the case"
)


def case_name(system, scheme):
    return f"{system}-{scheme or 'pde'}"


def compute_builtin(system, scheme, **options):
    """What ``dimpoly compute --builtin SYSTEM [--scheme SCHEME]`` computes."""
    return compute_strength(
        builtin_system(system),
        system_name=system,
        scheme=builtin_scheme(system, scheme) if scheme else None,
        scheme_name=scheme,
        **options,
    )


def compute_file(name, **options):
    """What ``dimpoly compute`` does with the file and its ``# rules`` line."""
    text = (GOLDEN / f"{name}.sys").read_text()
    rules = dict(item.split("=") for item in text.splitlines()[1].split()[2:])
    p = parse_system(text).presentation
    return compute_strength(
        p,
        system_name=name,
        scheme=rule_spec(rules, p.operators),
        scheme_name=",".join(f"{op}={rule}" for op, rule in rules.items()),
        **options,
    )


def trace_lines(compute, *args):
    """The ``--trace`` stderr of a case, one line per pair."""
    lines = []
    compute(*args, trace=lines.append)
    return lines


def pinned():
    """(name, compute function, its arguments) of every case, in the row
    order of ``traces.sha256``: the built-ins, the Q(a) systems, the rest."""
    systems = sorted(SYSTEMS, key=lambda name: not name.startswith("qa-"))
    return [(case_name(*case), compute_builtin, case) for case in CASES] + [
        (name, compute_file, (name,)) for name in systems
    ]


def write_goldens(folder: Path) -> None:
    rows = [TRACE_HEADER]
    for name, compute, args in pinned():
        doc = compute(*args)
        (folder / f"{name}.json").write_text(report_to_json(doc))
        (folder / f"{name}.txt").write_text(report_to_text(doc))
        lines = trace_lines(compute, *args)
        text = "".join(line + "\n" for line in lines)
        if name in FULL_TRACES:
            (folder / f"{name}.trace").write_text(text)
        rows.append(f"{hashlib.sha256(text.encode()).hexdigest()} {len(lines)} {name}")
    (folder / "traces.sha256").write_text("".join(row + "\n" for row in rows))


if __name__ == "__main__":
    write_goldens(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
