"""Command-line interface.

Exit codes: 0 success, 1 input or usage error (a parser limit, or a relation
that would discretize to more than MAX_DISCRETIZED_TERMS terms), 2
mathematical validation mismatch (the computed polynomial disagreed with the
counting oracle), 3 the counting oracle would exceed its size limit
(MAX_ORACLE_CELLS counts), 4 Groebner completion would form more than
MAX_PAIRS_FORMED critical pairs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .builtin_systems import BUILTIN_NAMES, builtin_scheme, builtin_system
from .dimension import OracleBudgetExceeded, free_term_counts
from .dsl import parse_system
from .groebner import CompletionBudgetExceeded
from .pipeline import (
    compare_reports,
    compute_strength,
    report_from_json,
    report_to_json,
    report_to_text,
)
from .schemes import named_scheme, rule_spec

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dimpoly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_args(cmd):
        cmd.add_argument("file", nargs="?", help="system source file")
        cmd.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a built-in system")
        cmd.add_argument("--scheme", help="difference scheme preset to apply first")
        cmd.add_argument(
            "--rule",
            action="append",
            default=[],
            metavar="OP=RULE",
            help="per-operator rule (forward|backward|central|central2); implies a scheme",
        )
        cmd.add_argument("--order", help="comma-separated operator sequence for the term order")

    compute = sub.add_parser("compute", help="compute a dimension polynomial report")
    add_system_args(compute)
    compute.add_argument("--json", action="store_true", help="emit the JSON report")
    compute.add_argument(
        "--trace", action="store_true", help="log every pair of the unpruned completion to stderr"
    )

    compare = sub.add_parser("compare", help="compare two JSON reports by strength")
    compare.add_argument("left")
    compare.add_argument("right")

    oracle = sub.add_parser("oracle-check", help="compare polynomial value and oracle count")
    add_system_args(oracle)
    oracle.add_argument("--r", type=int, required=True, help="filtration order to check")

    sub.add_parser("list-builtins", help="list built-in system names")
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # its args[0] is only the codec name
        raise ValueError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_report(path: str):
    text = _read(path)
    try:
        return report_from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc.args[0]}") from None


def _load_system(args):
    if args.builtin and args.file:
        raise ValueError("give either a file or --builtin, not both")
    if args.builtin:
        return args.builtin, builtin_system(args.builtin)
    if not args.file:
        raise ValueError("no input: give a file or --builtin")
    return Path(args.file).stem, parse_system(_read(args.file)).presentation


def _resolve_scheme(args, presentation):
    if args.scheme and args.rule:
        raise ValueError("--scheme and --rule are mutually exclusive")
    if args.scheme:
        if args.builtin:
            return builtin_scheme(args.builtin, args.scheme), args.scheme
        return named_scheme(args.scheme, presentation.operators), args.scheme
    if args.rule:
        assignments = {}
        for item in args.rule:
            op, sep, rule = item.partition("=")
            if not sep:
                raise ValueError(f"malformed --rule {item!r}, expected OP=RULE")
            if op in assignments:
                raise ValueError(f"rule given more than once for operator {op!r}")
            assignments[op] = rule
        label = ",".join(f"{op}={rule}" for op, rule in assignments.items())
        return rule_spec(assignments, presentation.operators), label
    return None, None


def _parse_order(args):
    if args.order is None:
        return None
    return tuple(n.strip() for n in args.order.split(",") if n.strip())


def _compute(args, **options):
    """Load the input, resolve its scheme and term order, and run the pipeline."""
    name, presentation = _load_system(args)
    scheme, scheme_name = _resolve_scheme(args, presentation)
    return compute_strength(
        presentation,
        system_name=name,
        scheme=scheme,
        scheme_name=scheme_name,
        order_names=_parse_order(args),
        **options,
    )


def _cmd_compute(args) -> int:
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    doc = _compute(args, trace=trace)
    sys.stdout.write((report_to_json if args.json else report_to_text)(doc))
    return 0 if doc.validation.ok else 2


def _cmd_compare(args) -> int:
    print(compare_reports(_read_report(args.left), _read_report(args.right)))
    return 0


def _cmd_oracle_check(args) -> int:
    if args.r < 0:
        raise ValueError("--r must be nonnegative")
    doc = _compute(args)
    count = free_term_counts(doc.staircase, args.r)[args.r]
    value = doc.dim.polynomial(args.r)
    r0 = doc.dim.validity_threshold
    print(f"oracle count at r={args.r}: {count}")
    print(f"polynomial value at r={args.r}: {value}")
    if args.r < r0 and count != value:
        print(f"note: r is below the validity threshold {r0}; disagreement is expected")
        return 0
    return 0 if count == value else 2


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {"compute": _cmd_compute, "compare": _cmd_compare, "oracle-check": _cmd_oracle_check}
    try:
        if args.command == "list-builtins":
            print("\n".join(BUILTIN_NAMES))
            return 0
        return commands[args.command](args)
    except OracleBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CompletionBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:  # DslError is a ValueError
        message = exc.args[0] if exc.args and not isinstance(exc, OSError) else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
