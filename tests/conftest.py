"""Shared builders: the worked diffusion elements double as fixtures in
several suites."""

from fractions import Fraction

import pytest
from hypothesis import settings

from dimpoly import Element, TermOrder, parameter_symbol

# Property tests draw a fixed, small sample so the suite stays deterministic
# and inside its time budget.
settings.register_profile(
    "dimpoly", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("dimpoly")

A = parameter_symbol("a")


def el(*terms):
    """Element from (coefficient, exponent vector, generator) triples."""
    return Element.from_pairs([(c, tuple(exps), gen) for c, exps, gen in terms])


def el0(*pairs):
    """Single-generator element from (coefficient, exponent vector) pairs."""
    return Element.from_pairs([(c, tuple(exps), 0) for c, exps in pairs])


# Diffusion equation, doubled difference ring (ax, at, bx, bt): the forward
# scheme generators and the completed basis, exactly as published.
G1 = el0((1, (0, 1, 0, 0)), (-A, (2, 0, 0, 0)), (2 * A, (1, 0, 0, 0)), (-(1 + A), (0, 0, 0, 0)))
G2 = el0((1, (1, 0, 1, 0)), (-1, (0, 0, 0, 0)))
G3 = el0((1, (0, 1, 0, 1)), (-1, (0, 0, 0, 0)))
G4 = el0(
    (-1 / A, (0, 1, 1, 0)),
    (1 + 1 / A, (0, 0, 1, 0)),
    (1, (1, 0, 0, 0)),
    (-2, (0, 0, 0, 0)),
)
G5 = el0(
    (A, (1, 0, 0, 1)),
    (A + 1, (0, 0, 1, 1)),
    (-1, (0, 0, 1, 0)),
    (-2 * A, (0, 0, 0, 1)),
)
G6 = el0(
    (-(1 + 1 / A), (0, 0, 2, 1)),
    (1 / A, (0, 0, 2, 0)),
    (2, (0, 0, 1, 1)),
    (-1, (0, 0, 0, 1)),
)

FORWARD_INPUTS = (G1, G2, G3)
FORWARD_BASIS = (G1, G2, G3, G4, G5, G6)

# S(G1, G2) as published, before any reduction.
S_G1_G2 = el0(
    (-2, (1, 0, 1, 0)),
    (-1 / A, (0, 1, 1, 0)),
    (1 + 1 / A, (0, 0, 1, 0)),
    (1, (1, 0, 0, 0)),
)

SIGMA_ORDER = TermOrder((0, 1, 2, 3))


@pytest.fixture
def sigma_order():
    return SIGMA_ORDER
