"""Workload definitions: the nine built-in cases and the seeded scheme sweeps.

A case is what a user hands ``dimpoly compute --json``: an input text in the
system language plus a per-operator rule assignment (or a built-in name and
scheme preset).  Everything here is plain data; nothing imports ``dimpoly``,
so the generators can run before the program is loaded.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("builtin-nine", "sweep-rational", "sweep-parametric")

RULE_NAMES = ("forward", "backward", "central", "central2")

# Space operators in declaration order; the time operator is declared last.
SPACE_OPERATORS = ("x", "y")
TIME_OPERATOR = "t"
UNKNOWNS = ("u", "v")

RATIONAL_COEFFS = ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2")
PARAMETRIC_COEFFS = ("a", "-a", "2*a", "1/2*a", "a+1")

# Shapes (operator count, unknown count) of each sweep, each with how many
# space-term counts it pairs with every per-operator rule assignment: all of
# them (3 per unknown) gives the full design, 1 cycles through them across the
# rule assignments.  Every pass therefore covers every scheme in the same
# proportions; only the terms, their targets and their coefficients come from
# the seed.  Three operators with two unknowns is left out: its cost is
# heavy-tailed (single cases take 8 s over Q and 23 s over Q(a), against
# medians for that shape of 0.1 s and 0.35 s), so a pass total would follow
# the seed more than the program.  Over Q(a), two unknowns carry that tail
# already with two operators, so that sweep keeps one unknown.
SWEEP_SHAPES = {
    "sweep-rational": {(2, 1): 6, (2, 2): 9, (3, 1): 6},
    "sweep-parametric": {(2, 1): 3, (3, 1): 3},
}
TERM_COUNTS = (1, 2, 3)

# The README's regression table: (system, scheme or None for the PDE).
BUILTIN_EXPECTED = {
    ("diffusion", None): "2*t+1",
    ("diffusion", "forward"): "5*t",
    ("diffusion", "symmetric"): "4*t",
    ("maxwell", None): "1/4*t^4+19/6*t^3+55/4*t^2+137/6*t+12",
    ("maxwell", "forward"): "4*t^4+18*t^3+35*t^2+31*t+12",
    ("maxwell", "symmetric"): "4*t^4+56/3*t^3+36*t^2+64/3*t+22",
    ("potential", None): "t^3+11/2*t^2+17/2*t+4",
    ("potential", "forward"): "15*t^3-7/2*t^2+43/2*t+2",
    ("potential", "symmetric"): "16*t^3-8*t^2+24*t+8",
}

# Published basis sizes: (completed size, autoreduced size).
BUILTIN_BASIS_SIZES = {("maxwell", "forward"): (80, 72)}


@dataclass(frozen=True)
class CaseSpec:
    """One input as the program receives it, plus what the gate expects."""

    name: str
    text: str | None  # system-language source; None for a built-in
    builtin: str | None  # built-in system name
    scheme: str | None  # built-in scheme preset
    rules: tuple[tuple[str, str], ...]  # per-operator rule names (sweeps)
    expected: str | None = None  # polynomial the gate requires, if known
    basis_sizes: tuple[int, int] | None = None
    props: dict = field(default_factory=dict, compare=False)

    @property
    def text_hash(self) -> str:
        source = self.text if self.text is not None else f"{self.builtin}:{self.scheme}"
        return hashlib.sha256(source.encode()).hexdigest()[:16]


def builtin_cases() -> list[CaseSpec]:
    """The README's 3 systems x {PDE, forward, symmetric}, in table order."""
    cases = []
    for (system, scheme), poly in BUILTIN_EXPECTED.items():
        cases.append(
            CaseSpec(
                name=f"{system}/{scheme or 'pde'}",
                text=None,
                builtin=system,
                scheme=scheme,
                rules=(),
                expected=poly,
                basis_sizes=BUILTIN_BASIS_SIZES.get((system, scheme)),
                props={"system": system, "scheme": scheme or "pde"},
            )
        )
    return cases


def _space_monomials(space: tuple[str, ...]) -> list[tuple[int, ...]]:
    """Exponent vectors over the space operators with total order <= 2."""
    out = []
    for total in range(3):
        if len(space) == 1:
            out.append((total,))
        else:
            for i in range(total + 1):
                out.append((total - i, i))
    return out


def _monomial_text(exps: tuple[int, ...], space: tuple[str, ...]) -> str:
    parts = []
    for op, k in zip(space, exps):
        if k == 1:
            parts.append(op)
        elif k > 1:
            parts.append(f"{op}^{k}")
    return "*".join(parts)


def _sweep_case(
    rng: random.Random,
    workload: str,
    index: int,
    rule_names: tuple[str, ...],
    term_counts: tuple[int, ...],
) -> CaseSpec:
    parametric = workload == "sweep-parametric"
    space = SPACE_OPERATORS[: len(rule_names) - 1]
    operators = space + (TIME_OPERATOR,)
    unknowns = UNKNOWNS[: len(term_counts)]
    coeffs = PARAMETRIC_COEFFS if parametric else RATIONAL_COEFFS
    candidates = [(e, u) for e in _space_monomials(space) for u in unknowns]
    lines = [
        f"# {workload} case {index}",
        "kind differential",
        "operators " + " ".join(operators),
    ]
    if parametric:
        lines.append("parameter a")
    lines.append("unknowns " + " ".join(unknowns))
    max_order = 0
    for u, k in zip(unknowns, term_counts):
        pieces = [f"{TIME_OPERATOR}*{u}"]
        for exps, target in rng.sample(candidates, k):
            max_order = max(max_order, sum(exps))
            mono = _monomial_text(exps, space)
            factor = f"{mono}*{target}" if mono else target
            pieces.append(f"({rng.choice(coeffs)})*{factor}")
        lines.append("relation " + " + ".join(pieces))
    rules = tuple(zip(operators, rule_names))
    return CaseSpec(
        name=f"{workload}/{index}",
        text="\n".join(lines) + "\n",
        builtin=None,
        scheme=None,
        rules=rules,
        props={
            "operators": len(operators),
            "unknowns": len(unknowns),
            "space_terms": list(term_counts),
            "max_space_order": max_order,
            "rules": dict(rules),
        },
    )


def sweep_design(workload: str) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """(rule per operator, space terms per relation) of every case in a pass."""
    design = []
    for (n_ops, n_unknowns), per_rules in SWEEP_SHAPES[workload].items():
        term_counts = list(itertools.product(TERM_COUNTS, repeat=n_unknowns))
        for i, rule_names in enumerate(itertools.product(RULE_NAMES, repeat=n_ops)):
            for j in range(per_rules):
                design.append((rule_names, term_counts[(i * per_rules + j) % len(term_counts)]))
    return design


def sweep_cases(workload: str, seed: int) -> list[CaseSpec]:
    """Seeded sweep inputs: the same (workload, seed) gives the same texts."""
    rng = random.Random(f"{workload}:{seed}")
    design = sweep_design(workload)
    rng.shuffle(design)
    return [_sweep_case(rng, workload, i, rules, terms) for i, (rules, terms) in enumerate(design)]


def workload_cases(workload: str, seed: int) -> list[CaseSpec]:
    if workload == "builtin-nine":
        return builtin_cases()
    if workload in SWEEP_SHAPES:
        return sweep_cases(workload, seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
