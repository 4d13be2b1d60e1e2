"""Discretization of differential presentations by per-operator finite
difference rules.

Each derivation maps to a Laurent polynomial in the matching translation
operator on a unit grid: forward s-1, backward 1-s^-1, central (s-s^-1)/2.
A power of a derivation maps to the same power of that image.  The one
exception is the rule ``central2``: it is ``central`` except that the square
maps to the order-2 central stencil s-2+s^-1 of a second derivative.

A preset scheme is a named rule table: one rule for every space operator and
one for the time operator, the last one declared.  Every scheme, preset or
not, is built by :func:`rule_spec`.

Every rule's stencil is a*s^p - a*s^q, so its k-th power is the binomial
expansion, each coefficient C(k, j) * a^k * (-1)^(k-j) got from the one
before by a small factor: k + 1 terms and no k-fold product.  The stencils
of one term are multiplied into one dict keyed by exponent vector, which is
added to its relation by :func:`~dimpoly.freemodule._accumulate`.  Stencils
are built on every call, and nothing is kept between calls.  A term with
exponents k_i so gives at most prod(k_i + 1) terms; :func:`discretize`
refuses a relation whose terms add up past ``MAX_DISCRETIZED_TERMS``, before
any stencil is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .coefficients import Coeff
from .freemodule import Presentation, Term, _accumulate, _raw

__all__ = [
    "MAX_DISCRETIZED_TERMS",
    "RULES",
    "SchemeSpec",
    "discretize",
    "named_scheme",
    "rule_spec",
]

# Completion memory grows as the square of a relation's length: under forward,
# t*u - x^2000*u (2,002 terms) reaches the pair budget in 348 MB, x^3000 in
# 630 MB and x^9997 in 4.9 GB.
MAX_DISCRETIZED_TERMS = 2_500

# One-variable Laurent polynomial: shift exponent -> coefficient.
Stencil = dict[int, Coeff]

# Each rule is a*s^p - a*s^q with p > q, the form _stencil expands.
RULES: dict[str, Stencil] = {
    "forward": {1: Fraction(1), 0: Fraction(-1)},
    "backward": {0: Fraction(1), -1: Fraction(-1)},
    "central": {1: Fraction(1, 2), -1: Fraction(-1, 2)},
    "central2": {1: Fraction(1, 2), -1: Fraction(-1, 2)},
}

_CENTRAL2_SQUARE: Stencil = {1: Fraction(1), 0: Fraction(-2), -1: Fraction(1)}

# preset name -> (rule of every space operator, rule of the time operator)
PRESETS: dict[str, tuple[str, str]] = {
    "forward": ("forward", "forward"),
    "symmetric": ("central", "central"),
    "symmetric-space-forward-time": ("central2", "forward"),
}


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


def _stencil(rule: str, k: int) -> Stencil:
    """Image of the k-th power of a derivation under a rule, shifts in
    descending order (see the module docstring)."""
    if rule == "central2" and k == 2:
        return _CENTRAL2_SQUARE
    (p, a), (q, _) = RULES[rule].items()  # p > q
    stencil, c = {}, a**k
    for j in range(k, -1, -1):  # c = C(k, j) * a^k * (-1)^(k-j)
        stencil[p * j + q * (k - j)] = c
        c = c * -j / (k - j + 1)
    return stencil


def discretize(p: Presentation, spec: SchemeSpec) -> Presentation:
    """Replace every derivation power by its difference stencil, yielding an
    inversive presentation over the same operator and generator names.
    Raises ValueError on a relation past ``MAX_DISCRETIZED_TERMS``."""
    if p.kind != "differential":
        raise ValueError(f"can only discretize differential presentations, got {p.kind!r}")
    missing = [op for op in p.operators if op not in spec.rules]
    if missing:
        raise ValueError(f"scheme gives no rule for operators {missing}")
    for n, rel in enumerate(p.relations, 1):
        size = sum(math.prod(k + 1 for k in t.exps) for t in rel.terms)
        if size > MAX_DISCRETIZED_TERMS:
            raise ValueError(
                f"relation {n} would discretize to up to {size} terms, more than "
                f"MAX_DISCRETIZED_TERMS ({MAX_DISCRETIZED_TERMS})"
            )
    rules = [spec.rules[op] for op in p.operators]
    new_relations = []
    for rel in p.relations:
        image: dict[Term, Coeff] = {}
        for t, c in rel.terms.items():
            # c times the product of the per-operator stencils, by exponent
            # vector; a product by 1 is skipped, as in _accumulate
            term = {(0,) * len(rules): c}
            for i, k in enumerate(t.exps):
                if k:
                    term = {
                        e[:i] + (s,) + e[i + 1 :]: x if d == 1 else d * x
                        for s, d in _stencil(rules[i], k).items() for e, x in term.items()
                    }
            _accumulate(image, _raw({Term(t.gen, e): x for e, x in term.items()}))
        new_relations.append(_raw(image))
    return Presentation(
        kind="inversive",
        operators=p.operators,
        unknowns=p.unknowns,
        relations=tuple(new_relations),
        parameter=p.parameter,
    )


def named_scheme(name: str, operators: tuple[str, ...]) -> SchemeSpec:
    """Resolve a preset scheme name over the given operators."""
    if name not in PRESETS:
        raise ValueError(f"unknown scheme {name!r}; presets: {sorted(PRESETS)}")
    space, time = PRESETS[name]
    rules = [space] * (len(operators) - 1) + [time]
    return rule_spec(dict(zip(operators, rules)), operators)


def rule_spec(assignments: Mapping[str, str], operators: tuple[str, ...]) -> SchemeSpec:
    """Build a scheme from per-operator rule names (forward | backward |
    central | central2); operators without an assignment default to forward."""
    spec = SchemeSpec(rules={op: assignments.get(op, "forward") for op in operators})
    unknown_ops = set(assignments) - set(operators)
    if unknown_ops:
        raise ValueError(f"rules reference undeclared operators {sorted(unknown_ops)}")
    return spec
