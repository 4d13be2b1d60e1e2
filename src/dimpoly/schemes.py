"""Discretization of differential presentations by per-operator finite
difference rules.

Each derivation maps to a Laurent polynomial in the matching translation
operator on a unit grid: forward s-1, backward 1-s^-1, central (s-s^-1)/2.
A power of a derivation maps to the same power of that image.  The one
exception is the rule ``central2``: it is ``central`` except that the square
maps to the order-2 central stencil s-2+s^-1 of a second derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .coefficients import Coeff
from .freemodule import Element, Presentation, Term

__all__ = [
    "RULES",
    "SchemeSpec",
    "discretize",
    "forward_scheme",
    "named_scheme",
    "rule_spec",
    "stencil_image",
    "symmetric_scheme",
    "symmetric_space_forward_time",
]

# One-variable Laurent polynomial: shift exponent -> coefficient.
Stencil = dict[int, Coeff]

RULES: dict[str, Stencil] = {
    "forward": {1: Fraction(1), 0: Fraction(-1)},
    "backward": {0: Fraction(1), -1: Fraction(-1)},
    "central": {1: Fraction(1, 2), -1: Fraction(-1, 2)},
    "central2": {1: Fraction(1, 2), -1: Fraction(-1, 2)},
}

_CENTRAL2_SQUARE: Stencil = {1: Fraction(1), 0: Fraction(-2), -1: Fraction(1)}


def _stencil_mul(a: Stencil, b: Stencil) -> Stencil:
    out: Stencil = {}
    for i, ca in a.items():
        for j, cb in b.items():
            s = out.get(i + j, Fraction(0)) + ca * cb
            if s:
                out[i + j] = s
            else:
                out.pop(i + j, None)
    return out


@dataclass(frozen=True)
class SchemeSpec:
    """The rule (a key of `RULES`) applied to each operator."""

    rules: Mapping[str, str]

    def __post_init__(self):
        for op, rule in self.rules.items():
            if rule not in RULES:
                raise ValueError(f"unknown rule {rule!r} for operator {op!r}")

    def describe(self) -> str:
        """``op=rule`` pairs; ``central2`` shows as ``central+k2``, the
        central rule with its own stencil for the square."""
        return " ".join(
            f"{op}={'central+k2' if rule == 'central2' else rule}" for op, rule in self.rules.items()
        )


def stencil_image(rule: str, k: int) -> Stencil:
    """Image of the k-th power of one derivation under a rule."""
    if k < 0:
        raise ValueError("derivation powers are nonnegative")
    if k == 0:
        return {0: Fraction(1)}
    if rule == "central2" and k == 2:
        return dict(_CENTRAL2_SQUARE)
    base = RULES[rule]
    out = dict(base)
    for _ in range(k - 1):
        out = _stencil_mul(out, base)
    return out


def discretize(p: Presentation, spec: SchemeSpec) -> Presentation:
    """Replace every derivation power by its difference stencil, yielding an
    inversive presentation over the same operator and generator names."""
    if p.kind != "differential":
        raise ValueError(f"can only discretize differential presentations, got {p.kind!r}")
    missing = [op for op in p.operators if op not in spec.rules]
    if missing:
        raise ValueError(f"scheme gives no rule for operators {missing}")
    m = p.num_operators
    new_relations = []
    for rel in p.relations:
        acc: dict[Term, Coeff] = {}
        for t, c in rel.terms.items():
            # product of the per-operator stencils, as a Laurent monomial sum
            expansion: dict[tuple[int, ...], Coeff] = {(): Fraction(1)}
            for i in range(m):
                op = p.operators[i]
                image = stencil_image(spec.rules[op], t.exps[i])
                grown: dict[tuple[int, ...], Coeff] = {}
                for prefix, cp in expansion.items():
                    for shift, cs in image.items():
                        key = prefix + (shift,)
                        s = grown.get(key, Fraction(0)) + cp * cs
                        if s:
                            grown[key] = s
                        else:
                            grown.pop(key, None)
                expansion = grown
            for exps, cs in expansion.items():
                key = Term(t.gen, exps)
                s = acc.get(key, Fraction(0)) + c * cs
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        new_relations.append(Element(acc))
    return Presentation(
        kind="inversive",
        operators=p.operators,
        unknowns=p.unknowns,
        relations=tuple(new_relations),
        parameter=p.parameter,
    )


def forward_scheme(operators: tuple[str, ...]) -> SchemeSpec:
    return SchemeSpec(rules={op: "forward" for op in operators})


def symmetric_scheme(operators: tuple[str, ...]) -> SchemeSpec:
    """All-central substitution (monomial-wise powers of (s-s^-1)/2)."""
    return SchemeSpec(rules={op: "central" for op in operators})


def symmetric_space_forward_time(operators: tuple[str, ...]) -> SchemeSpec:
    """Order-2 central stencil in every space operator, forward in time; the
    last declared operator is taken as time."""
    if not operators:
        raise ValueError("need at least one operator")
    rules = {op: "central2" for op in operators[:-1]}
    rules[operators[-1]] = "forward"
    return SchemeSpec(rules=rules)


_PRESETS = {
    "forward": forward_scheme,
    "symmetric": symmetric_scheme,
    "symmetric-space-forward-time": symmetric_space_forward_time,
}


def named_scheme(name: str, operators: tuple[str, ...]) -> SchemeSpec:
    """Resolve a preset scheme name."""
    if name not in _PRESETS:
        raise ValueError(f"unknown scheme {name!r}; presets: {sorted(_PRESETS)}")
    return _PRESETS[name](operators)


def rule_spec(assignments: Mapping[str, str], operators: tuple[str, ...]) -> SchemeSpec:
    """Build a scheme from per-operator rule names (forward | backward |
    central | central2); operators without an assignment default to forward."""
    spec = SchemeSpec(rules={op: assignments.get(op, "forward") for op in operators})
    unknown_ops = set(assignments) - set(operators)
    if unknown_ops:
        raise ValueError(f"rules reference undeclared operators {sorted(unknown_ops)}")
    return spec
