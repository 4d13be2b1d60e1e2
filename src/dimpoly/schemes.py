"""Discretization of differential presentations by per-operator finite
difference rules.

Each derivation maps to a Laurent polynomial in the matching translation
operator on a unit grid: forward s-1, backward 1-s^-1, central (s-s^-1)/2.
A power of a derivation maps to the same power of that image.  The one
exception is the rule ``central2``: it is ``central`` except that the square
maps to the order-2 central stencil s-2+s^-1 of a second derivative.

Stencils are multiplied as one-generator :class:`Element`s, by
:func:`~dimpoly.freemodule.combine`, the same arithmetic that expands
Groebner cofactors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .coefficients import Coeff
from .freemodule import Element, Presentation, Term, combine

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
    return {t.exps[0]: c for t, c in _stencil(rule, k, 0, 1).terms.items()}


@lru_cache(maxsize=256)
def _stencil(rule: str, k: int, i: int, m: int) -> Element:
    """Image of the k-th power of derivation i of m under a rule, as a
    one-generator element over the m translation operators."""
    if k < 0:
        raise ValueError("derivation powers are nonnegative")

    def lift(stencil: Stencil) -> Element:
        return Element({Term(0, (0,) * i + (s,) + (0,) * (m - i - 1)): c for s, c in stencil.items()})

    if rule == "central2" and k == 2:
        return lift(_CENTRAL2_SQUARE)
    base = lift(RULES[rule])
    out = lift({0: Fraction(1)})
    for _ in range(k):
        out = combine(base, [out])
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
        image = Element()
        for t, c in rel.terms.items():
            # the product of the per-operator stencils, applied to c * e_gen
            term = Element({Term(t.gen, (0,) * m): c})
            for i, k in enumerate(t.exps):
                if k:
                    term = combine(_stencil(spec.rules[p.operators[i]], k, i, m), [term])
            image = image + term
        new_relations.append(image)
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
