"""Shared builders: the worked diffusion elements double as fixtures in
several suites."""

from contextlib import contextmanager
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


@contextmanager
def counting_copies(monkeypatch):
    """Inside the block, append to the yielded list the number of terms each
    call of ``Element.__init__``, ``__add__`` or ``__sub__`` copies.  Adding
    n terms to a growing element one by one copies about n^2/2 terms; a
    count, unlike a wall-clock ratio, does not follow the host's load."""
    copied = []
    sizes = {
        "__init__": lambda self, terms=None: len(terms or ()),
        "__add__": lambda self, other: len(self.terms) + len(other.terms),
        "__sub__": lambda self, other: len(self.terms) + len(other.terms),
    }
    with monkeypatch.context() as patch:
        for name, size in sizes.items():

            def counted(self, *args, method=getattr(Element, name), size=size):
                copied.append(size(self, *args))
                return method(self, *args)

            patch.setattr(Element, name, counted)
        yield copied


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
