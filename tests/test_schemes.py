import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import dimpoly.schemes
from dimpoly import (
    Element,
    Presentation,
    SchemeSpec,
    Term,
    builtin_scheme,
    builtin_system,
    combine,
    discretize,
    named_scheme,
    rule_spec,
)
from dimpoly.schemes import _CENTRAL2_SQUARE, MAX_DISCRETIZED_TERMS, RULES, _stencil

from conftest import A, counting_copies, el0

H = Fraction(1, 2)
Q = Fraction(1, 4)


def stencil_image(rule: str, k: int) -> dict[int, Fraction]:
    """The image of x^k*u under one rule, as shift exponent -> coefficient."""
    p = Presentation(kind="differential", operators=("x",), unknowns=("u",), relations=(el0((1, (k,))),))
    (image,) = discretize(p, rule_spec({"x": rule}, ("x",))).relations
    return {t.exps[0]: c for t, c in image.terms.items()}


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

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_closed_form_equals_repeated_combine(self, rule):
        # the k successive products the binomial theorem replaced, as x_1^k
        # of x_0, x_1, x_2; the terms also come in the same order
        def lift(stencil):
            return Element({Term(0, (0, s, 0)): c for s, c in stencil.items()})

        want = lift({0: Fraction(1)})
        for k in range(13):
            got = _stencil(rule, k)
            if rule == "central2" and k == 2:
                assert lift(got) == lift(_CENTRAL2_SQUARE)
            else:
                assert list(lift(got).terms.items()) == list(want.terms.items())
                assert all(type(c) is Fraction for c in got.values())
            want = combine(lift(RULES[rule]), [want])

    def test_every_rule_is_a_difference_of_two_shifts(self):
        # _stencil expands a*s^p - a*s^q with p > q
        for rule, stencil in RULES.items():
            (p, a), (q, b) = stencil.items()
            assert p > q and b == -a, rule

    def test_high_power_forms_no_product(self):
        # the k + 1 binomial coefficients come one from the other, and no
        # element product is formed: schemes does not import combine
        assert not hasattr(dimpoly.schemes, "combine")
        got = _stencil("central", 2000)
        assert len(got) == 2001
        assert got[0] == Fraction(math.comb(2000, 1000), 2**2000)

    def test_high_power_keeps_nothing_after_the_call(self):
        # stencils are built on every call: once the image of central x^2000
        # is dropped, none of its 2001 coefficients stays allocated
        p = Presentation(kind="differential", operators=("x",), unknowns=("u",), relations=(el0((1, (2000,))),))
        spec = rule_spec({"x": "central"}, ("x",))
        tracemalloc.start()
        try:
            (image,) = discretize(p, spec).relations
            assert len(image.terms) == 2001
            del image
            gc.collect()  # a full collection also empties the tuple free lists
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024


class TestTermBound:
    def discretize(self, *relations):
        p = Presentation(kind="differential", operators=("x", "t"), unknowns=("u",), relations=relations)
        return discretize(p, named_scheme("forward", p.operators)).relations

    def test_counted_from_the_exponents_before_any_stencil(self, monkeypatch):
        # (49 + 1) * (49 + 1) terms are admitted, and so is t*u - x^2000*u
        (image,) = self.discretize(el0((1, (49, 49))))
        assert len(image.terms) == MAX_DISCRETIZED_TERMS == 2500
        (image,) = self.discretize(el0((1, (0, 1)), (-1, (2000, 0))))
        assert len(image.terms) == 2002
        # relation 1 needs a stencil, but relation 2 is refused before it
        monkeypatch.setattr(dimpoly.schemes, "_stencil", None)  # a call would raise
        want = r"relation 2 would discretize to up to 2501 terms, more than MAX_DISCRETIZED_TERMS \(2500\)"
        with pytest.raises(ValueError, match=want):
            self.discretize(el0((1, (1, 0))), el0((1, (2500, 0))))


def heat() -> Presentation:
    return builtin_system("diffusion")


class TestDiscretize:
    def test_heat_forward(self):
        got = discretize(heat(), named_scheme("forward", ("x", "t")))
        assert got.kind == "inversive"
        want = el0((1, (0, 1)), (-A, (2, 0)), (2 * A, (1, 0)), (-(1 + A), (0, 0)))
        assert got.relations == (want,)

    def test_heat_space_symmetric(self):
        got = discretize(heat(), named_scheme("symmetric-space-forward-time", ("x", "t")))
        want = el0((1, (0, 1)), (-A, (1, 0)), (-A, (-1, 0)), (2 * A - 1, (0, 0)))
        assert got.relations == (want,)

    def test_constant_relation_unchanged(self):
        rel = el0((5, (0, 0)))
        p = Presentation(kind="differential", operators=("x", "t"), unknowns=("u",), relations=(rel,))
        got = discretize(p, named_scheme("forward", ("x", "t")))
        assert got.relations == (rel,)

    def test_requires_differential(self):
        p = Presentation(kind="difference", operators=("x",), unknowns=("u",), relations=())
        with pytest.raises(ValueError):
            discretize(p, named_scheme("forward", ("x",)))

    def test_missing_rule(self):
        with pytest.raises(ValueError):
            discretize(heat(), SchemeSpec(rules={"x": "forward"}))

    def test_forward_equals_binomial_substitution_on_builtins(self):
        # independent route: d^k -> sum_j (-1)^(k-j) C(k,j) s^j, per operator
        for name in ("diffusion", "maxwell", "potential"):
            p = builtin_system(name)
            got = discretize(p, named_scheme("forward", p.operators))
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
        spec = named_scheme("symmetric", ("x", "t"))

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
        # the last declared operator is time, also when it is the only one
        assert named_scheme("symmetric-space-forward-time", ("t",)).rules == {"t": "forward"}
        for preset in ("forward", "symmetric", "symmetric-space-forward-time"):
            assert named_scheme(preset, ()).rules == {}
        with pytest.raises(ValueError, match="unknown scheme 'upwind'"):
            named_scheme("upwind", ("x",))
        want = {
            ("diffusion", "forward"): "x=forward t=forward",
            ("diffusion", "symmetric"): "x=central+k2 t=forward",
            ("diffusion", "symmetric-space-forward-time"): "x=central+k2 t=forward",
            ("maxwell", "forward"): "x=forward y=forward z=forward t=forward",
            ("maxwell", "symmetric"): "x=central y=central z=central t=central",
            ("maxwell", "symmetric-space-forward-time"): "x=central+k2 y=central+k2 z=central+k2 t=forward",
            ("potential", "forward"): "x1=forward x2=forward x3=forward x4=forward",
            ("potential", "symmetric"): "x1=central x2=central x3=central x4=central",
            ("potential", "symmetric-space-forward-time"): "x1=central+k2 x2=central+k2 x3=central+k2 x4=forward",
        }
        for (name, preset), described in want.items():
            assert builtin_scheme(name, preset).describe() == described
        # an unknown built-in is reported before the scheme name is looked at
        with pytest.raises(KeyError):
            builtin_scheme("wave", "upwind")
        with pytest.raises(ValueError):
            builtin_scheme("maxwell", "upwind")

    def test_rule_spec(self):
        spec = rule_spec({"x": "central2", "t": "forward"}, ("x", "t"))
        assert spec.rules == {"x": "central2", "t": "forward"}
        # unspecified operators default to forward
        assert rule_spec({}, ("x",)).rules == {"x": "forward"}
        with pytest.raises(ValueError):
            rule_spec({"q": "forward"}, ("x",))
        with pytest.raises(ValueError):
            rule_spec({"x": "upwind"}, ("x",))

    def test_long_relation_discretizes_in_linear_time(self, monkeypatch):
        # a relation is collected in one term dict, so discretizing copies
        # or merges each term a bounded number of times, not once per later
        # term; 4n terms stay within MAX_DISCRETIZED_TERMS
        n = 600
        p = Presentation(
            kind="differential",
            operators=("x", "y"),
            unknowns=tuple(f"u{k}" for k in range(n)),
            relations=(Element({Term(k, (1, 1)): Fraction(1) for k in range(n)}),),
        )
        # each term's stencil product is merged into the relation once
        merged = []

        def accumulate(acc, f, *args, merge=dimpoly.schemes._accumulate):
            merged.append(len(f.terms))
            return merge(acc, f, *args)

        monkeypatch.setattr(dimpoly.schemes, "_accumulate", accumulate)
        with counting_copies(monkeypatch) as copied:
            (image,) = discretize(p, rule_spec({}, p.operators)).relations
        # forward in x and y: (x - 1)(y - 1) u_k
        signs = {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1}
        assert image == Element({Term(k, e): Fraction(c) for k in range(n) for e, c in signs.items()})
        assert n <= sum(copied) + sum(merged) <= 3 * len(image.terms)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SchemeSpec(rules={"x": "upwind"})
