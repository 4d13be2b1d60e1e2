import random
from fractions import Fraction

import pytest

import dimpoly.pipeline
from dimpoly import (
    Element,
    Presentation,
    Term,
    compute_strength,
    embed_element,
    embed_presentation,
    saturation_relations,
    sigma_operator_names,
    term_order,
)

from conftest import A, G2, G3, el0
from reference import project_element


class TestEmbed:
    def test_mixed_signs(self):
        f = el0((1, (-1, 1)))
        assert embed_element(f, 2) == el0((1, (0, 1, 1, 0)))

    def test_symmetric_scheme_generator(self):
        # d_t e - a d_x e - a d_x^(-1) e + (2a-1) e
        f = el0((1, (0, 1)), (-A, (1, 0)), (-A, (-1, 0)), (2 * A - 1, (0, 0)))
        want = el0((1, (0, 1, 0, 0)), (-A, (1, 0, 0, 0)), (-A, (0, 0, 1, 0)), (2 * A - 1, (0, 0, 0, 0)))
        assert embed_element(f, 2) == want

    def test_identity_on_unit(self):
        e = el0((1, (0, 0)))
        assert embed_element(e, 2) == el0((1, (0, 0, 0, 0)))

    def test_order_preserved_and_injective(self):
        rng = random.Random(9)
        seen = {}
        for _ in range(300):
            t = Term(rng.randint(0, 2), tuple(rng.randint(-3, 3) for _ in range(3)))
            (s,) = embed_element(Element({t: Fraction(1)}), 3).terms
            assert term_order(s) == term_order(t)
            assert seen.setdefault(s, t) == t  # distinct terms embed distinctly


class TestProject:
    def test_net_shift(self):
        assert project_element(el0((1, (2, 0, 1, 0))), 2) == el0((1, (1, 0)))

    def test_saturation_relation_in_kernel(self):
        assert not project_element(G2, 2)
        assert not project_element(G3, 2)

    def test_section_property(self):
        rng = random.Random(10)
        for _ in range(80):
            f = Element.from_pairs(
                [
                    (Fraction(rng.randint(-5, 5)), tuple(rng.randint(-3, 3) for _ in range(2)), rng.randint(0, 1))
                    for _ in range(rng.randint(0, 4))
                ]
            )
            assert project_element(embed_element(f, 2), 2) == f


class TestSaturation:
    def test_diffusion_pair(self):
        assert saturation_relations(2, 1) == [G2, G3]

    def test_field_system_count(self):
        rels = saturation_relations(4, 12)
        assert len(rels) == 48
        for f in rels:
            assert not project_element(f, 4)

    def test_empty_operator_set(self):
        assert saturation_relations(0, 3) == []

    def test_embeddings_share_relations(self, monkeypatch):
        # equal reports share their doubled systems, the saturation
        # relations included
        monkeypatch.setattr(dimpoly.pipeline, "_pool", {})
        rel = el0((1, (1, -1)), (-1, (0, 0)))
        p = Presentation(kind="inversive", operators=("x", "t"), unknowns=("u",), relations=(rel,))
        first, second = (compute_strength(p).working.relations for _ in range(2))
        assert first == second == embed_presentation(p).relations
        assert all(x is y for x, y in zip(first[1:], second[1:]))
        assert first[0].terms.keys() == second[0].terms.keys()
        assert all(s is t for s, t in zip(first[0].terms, second[0].terms))


class TestEmbedPresentation:
    def test_names_and_relations(self):
        f = el0((1, (0, 1)), (-A, (1, 0)), (-A, (-1, 0)), (2 * A - 1, (0, 0)))
        p = Presentation(
            kind="inversive", operators=("x", "t"), unknowns=("u",), relations=(f,), parameter="a"
        )
        sp = embed_presentation(p)
        assert sp.kind == "difference"
        assert sp.operators == ("ax", "at", "bx", "bt")
        assert len(sp.relations) == 3  # embedded + two pairing relations
        assert sp.relations[1:] == (G2, G3)

    def test_rejects_other_kinds(self):
        p = Presentation(kind="differential", operators=("x",), unknowns=("u",), relations=())
        with pytest.raises(ValueError):
            embed_presentation(p)

    def test_sigma_names(self):
        assert sigma_operator_names(("x", "y")) == ("ax", "ay", "bx", "by")
