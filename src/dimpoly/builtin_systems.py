"""Catalog of built-in systems.

Each entry is defined in the input language and parsed once, on first use,
so the catalog doubles as a parser exercise.  Per-system scheme aliases pin
what "forward" and "symmetric" mean for that system: the diffusion
equation's symmetric scheme is second-order central in space with a forward
time difference, while the field systems use the all-central substitution.
"""

from __future__ import annotations

from functools import cache

from .dsl import parse_system
from .freemodule import Presentation
from .schemes import SchemeSpec, named_scheme

__all__ = ["BUILTIN_NAMES", "builtin_scheme", "builtin_system"]


_DIFFUSION = """
# heat flow in one spatial dimension, constant diffusion coefficient
kind differential
operators x t
parameter a
unknowns u
relation t*u - a * x^2 * u
"""

_MAXWELL = """
# source-free electromagnetic field: e = E, h = H, d = D, b = B components
kind differential
operators x y z t
unknowns p1 p2 p3 p4 p5 p6 p7 p8 p9 p10 p11 p12
relation x*p7 + y*p8 + z*p9
relation x*p10 + y*p11 + z*p12
relation y*p3 - z*p2 + t*p10
relation y*p6 - z*p5 - t*p7
relation z*p1 - x*p3 + t*p11
relation z*p4 - x*p6 - t*p8
relation x*p2 - y*p1 + t*p12
relation x*p5 - y*p4 - t*p9
"""

_POTENTIAL = """
# electromagnetic field given by its four-potential, Lorenz-type constraint
kind differential
operators x1 x2 x3 x4
unknowns u1 u2 u3 u4
relation x1*u1 + x2*u2 + x3*u3 + x4*u4
relation x2^2*u1 - x1*x2*u2 + x3^2*u1 - x1*x3*u3 + x4^2*u1 - x1*x4*u4
relation x1^2*u2 - x2*x1*u1 + x3^2*u2 - x2*x3*u3 + x4^2*u2 - x2*x4*u4
relation x1^2*u3 - x3*x1*u1 + x2^2*u3 - x3*x2*u2 + x4^2*u3 - x3*x4*u4
relation x1^2*u4 - x4*x1*u1 + x2^2*u4 - x4*x2*u2 + x3^2*u4 - x4*x3*u3
"""

_SOURCES = {
    "diffusion": _DIFFUSION,
    "maxwell": _MAXWELL,
    "potential": _POTENTIAL,
}

BUILTIN_NAMES = tuple(sorted(_SOURCES))

# (built-in, scheme name) -> the preset that name stands for on that system
_ALIASES = {("diffusion", "symmetric"): "symmetric-space-forward-time"}


@cache
def builtin_system(name: str) -> Presentation:
    """The named built-in presentation (immutable, so one parse serves every
    caller)."""
    if name not in _SOURCES:
        raise KeyError(f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    return parse_system(_SOURCES[name]).presentation


def builtin_scheme(name: str, scheme: str) -> SchemeSpec:
    """Resolve a scheme name for a built-in, honoring per-system aliases."""
    return named_scheme(_ALIASES.get((name, scheme), scheme), builtin_system(name).operators)
