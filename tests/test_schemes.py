import math
import random
from fractions import Fraction

import pytest

from dimpoly import (
    Element,
    Presentation,
    SchemeSpec,
    Term,
    builtin_system,
    discretize,
    forward_scheme,
    named_scheme,
    rule_spec,
    stencil_image,
    symmetric_scheme,
    symmetric_space_forward_time,
)

from conftest import A, el0

H = Fraction(1, 2)
Q = Fraction(1, 4)


class TestStencilImage:
    def test_forward_square(self):
        assert stencil_image("forward", 2) == {2: 1, 1: -2, 0: 1}

    def test_central_square_without_override(self):
        assert stencil_image("central", 2) == {2: Q, 0: -H, -2: Q}

    def test_central_square_with_override(self):
        assert stencil_image("central2", 2) == {1: 1, 0: -2, -1: 1}

    def test_power_zero_is_identity(self):
        assert stencil_image("forward", 0) == {0: 1}

    def test_backward(self):
        assert stencil_image("backward", 1) == {0: 1, -1: -1}

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            stencil_image("forward", -1)


def heat() -> Presentation:
    return builtin_system("diffusion")


class TestDiscretize:
    def test_heat_forward(self):
        got = discretize(heat(), forward_scheme(("x", "t")))
        assert got.kind == "inversive"
        want = el0((1, (0, 1)), (-A, (2, 0)), (2 * A, (1, 0)), (-(1 + A), (0, 0)))
        assert got.relations == (want,)

    def test_heat_space_symmetric(self):
        got = discretize(heat(), symmetric_space_forward_time(("x", "t")))
        want = el0((1, (0, 1)), (-A, (1, 0)), (-A, (-1, 0)), (2 * A - 1, (0, 0)))
        assert got.relations == (want,)

    def test_constant_relation_unchanged(self):
        rel = el0((5, (0, 0)))
        p = Presentation(kind="differential", operators=("x", "t"), unknowns=("u",), relations=(rel,))
        got = discretize(p, forward_scheme(("x", "t")))
        assert got.relations == (rel,)

    def test_requires_differential(self):
        p = Presentation(kind="difference", operators=("x",), unknowns=("u",), relations=())
        with pytest.raises(ValueError):
            discretize(p, forward_scheme(("x",)))

    def test_missing_rule(self):
        with pytest.raises(ValueError):
            discretize(heat(), SchemeSpec(rules={"x": "forward"}))

    def test_forward_equals_binomial_substitution_on_builtins(self):
        # independent route: d^k -> sum_j (-1)^(k-j) C(k,j) s^j, per operator
        for name in ("diffusion", "maxwell", "potential"):
            p = builtin_system(name)
            got = discretize(p, forward_scheme(p.operators))
            for rel, drel in zip(p.relations, got.relations):
                acc: dict[Term, object] = {}
                for t, c in rel.terms.items():
                    images = [
                        [( j, Fraction((-1) ** (k - j)) * math.comb(k, j)) for j in range(k + 1)]
                        for k in t.exps
                    ]
                    def expand(i, exps, coeff):
                        if i == len(images):
                            key = Term(t.gen, tuple(exps))
                            acc[key] = acc.get(key, Fraction(0)) + c * coeff
                            return
                        for j, cj in images[i]:
                            expand(i + 1, exps + [j], coeff * cj)
                    expand(0, [], Fraction(1))
                assert drel == Element(acc)

    def test_linearity(self):
        rng = random.Random(12)
        spec = symmetric_scheme(("x", "t"))

        def rand_rel():
            return Element.from_pairs(
                [
                    (Fraction(rng.randint(-4, 4)), (rng.randint(0, 2), rng.randint(0, 2)), 0)
                    for _ in range(rng.randint(1, 4))
                ]
            )

        def run(rel):
            p = Presentation(kind="differential", operators=("x", "t"), unknowns=("u",), relations=(rel,))
            return discretize(p, spec).relations[0]

        for _ in range(25):
            f, g = rand_rel(), rand_rel()
            c = Fraction(rng.randint(-3, 3))
            assert run(f + g) == run(f) + run(g)
            assert run(f.scaled(c)) == run(f).scaled(c)


class TestSpecs:
    def test_presets(self):
        assert named_scheme("forward", ("x", "t")).rules == {"x": "forward", "t": "forward"}
        assert named_scheme("symmetric", ("x", "t")).rules == {"x": "central", "t": "central"}
        mixed = named_scheme("symmetric-space-forward-time", ("x", "y", "t"))
        assert mixed.rules == {"x": "central2", "y": "central2", "t": "forward"}
        with pytest.raises(ValueError):
            named_scheme("upwind", ("x",))

    def test_rule_spec(self):
        spec = rule_spec({"x": "central2", "t": "forward"}, ("x", "t"))
        assert spec.rules == {"x": "central2", "t": "forward"}
        # unspecified operators default to forward
        assert rule_spec({}, ("x",)).rules == {"x": "forward"}
        with pytest.raises(ValueError):
            rule_spec({"q": "forward"}, ("x",))
        with pytest.raises(ValueError):
            rule_spec({"x": "upwind"}, ("x",))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SchemeSpec(rules={"x": "upwind"})
