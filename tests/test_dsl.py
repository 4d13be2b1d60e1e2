import random
from fractions import Fraction

import pytest

from dimpoly import (
    DslError,
    Element,
    Presentation,
    RationalFunction,
    Term,
    builtin_system,
    coeff_str,
    parse_coefficient,
    parse_system,
    render_element,
    render_system,
)
import dimpoly.builtin_systems
from dimpoly.builtin_systems import BUILTIN_NAMES, builtin_scheme

from conftest import A, counting_copies, el0

DIFFUSION_SRC = """\
kind differential
operators x t
parameter a
unknowns u
relation t*u - a * x^2 * u
"""


class TestParse:
    def test_diffusion_document(self):
        doc = parse_system(DIFFUSION_SRC)
        p = doc.presentation
        assert p.kind == "differential"
        assert p.operators == ("x", "t") and p.unknowns == ("u",) and p.parameter == "a"
        assert p.relations == (el0((1, (0, 1)), (-A, (2, 0))),)
        assert doc.relation_lines == (5,)

    def test_equation_normalized(self):
        eq = parse_system(DIFFUSION_SRC.replace("t*u - a * x^2 * u", "t*u = a*x^2*u"))
        assert eq.presentation == parse_system(DIFFUSION_SRC).presentation

    def test_comments_and_blanks(self):
        src = "# heat\n\nkind differential\noperators x t # ops\nparameter a\nunknowns u\nrelation t*u - a*x^2*u\n"
        assert parse_system(src).presentation == parse_system(DIFFUSION_SRC).presentation

    def test_undeclared_operator(self):
        src = DIFFUSION_SRC.replace("operators x t", "operators x")
        with pytest.raises(DslError) as err:
            parse_system(src)
        assert "undeclared identifier 't'" in str(err.value)
        assert "line 5" in str(err.value)
        # the bare reason is kept apart from the position
        assert str(err.value) == f"line {err.value.line}, column {err.value.col}: {err.value.reason}"
        assert err.value.reason == "undeclared identifier 't'"

    def test_negative_exponent_needs_inversive(self):
        src = DIFFUSION_SRC.replace("x^2", "x^-1")
        with pytest.raises(DslError) as err:
            parse_system(src)
        assert "inversive" in str(err.value)
        ok = src.replace("kind differential", "kind inversive")
        rel = parse_system(ok).presentation.relations[0]
        assert rel == el0((1, (0, 1)), (-A, (-1, 0)))

    def test_single_parameter_only(self):
        src = DIFFUSION_SRC.replace("parameter a", "parameter a\nparameter b")
        with pytest.raises(DslError) as err:
            parse_system(src)
        assert "at most one parameter" in str(err.value)

    def test_unknowns_are_linear(self):
        src = DIFFUSION_SRC.replace("t*u", "t*u^2")
        with pytest.raises(DslError):
            parse_system(src)

    def test_term_needs_unknown(self):
        src = DIFFUSION_SRC + "relation x*u - 5\n"
        with pytest.raises(DslError) as err:
            parse_system(src)
        assert "no unknown" in str(err.value)

    def test_one_unknown_per_term(self):
        src = DIFFUSION_SRC.replace("unknowns u", "unknowns u v").replace("t*u", "t*u*v")
        with pytest.raises(DslError):
            parse_system(src)

    def test_unknown_directive(self):
        with pytest.raises(DslError):
            parse_system("kind differential\nwhatever x\n")

    def test_unknown_kind(self):
        with pytest.raises(DslError) as err:
            parse_system(DIFFUSION_SRC.replace("kind differential", "kind wave"))
        assert str(err.value) == "line 1, column 6: unknown kind 'wave'"

    @pytest.mark.parametrize(
        "src,message",
        [
            ("kind differential\nkind difference\n", "line 2, column 1: duplicate kind line"),
            ("operators x\nunknowns u\n", "line 1, column 1: missing kind line"),
            ("kind differential\nunknowns u\n", "line 1, column 1: missing operators line"),
            ("kind differential\noperators x\n", "line 1, column 1: missing unknowns line"),
            ("kind differential\noperators\n", "line 2, column 1: expected at least one operator name"),
            ("kind differential\noperators x\nunknowns 2u\n", "line 3, column 1: invalid unknown name '2u'"),
            ("kind differential\nparameter a b\n", "line 2, column 1: a system may declare at most one parameter"),
        ],
    )
    def test_directive_error(self, src, message):
        with pytest.raises(DslError) as err:
            parse_system(src)
        assert str(err.value) == message

    def test_duplicate_names(self):
        with pytest.raises(DslError):
            parse_system("kind differential\noperators x x\nunknowns u\nrelation x*u\n")

    def test_lexical_error_position(self):
        with pytest.raises(DslError) as err:
            parse_system(DIFFUSION_SRC.replace("t*u - a", "t*u ? a"))
        assert err.value.line == 5

    def test_division_in_terms(self):
        src = DIFFUSION_SRC.replace("a * x^2 * u", "a/2 * x^2*u + 1/2*u")
        rel = parse_system(src).presentation.relations[0]
        assert rel == el0((1, (0, 1)), (-A / 2, (2, 0)), (Fraction(1, 2), (0, 0)))

    def test_parenthesized_coefficients(self):
        src = DIFFUSION_SRC.replace("a * x^2 * u", "(2*a - 1)*x*u - (1 + 1/a)*u")
        rel = parse_system(src).presentation.relations[0]
        assert rel == el0((1, (0, 1)), (-(2 * A - 1), (1, 0)), (-(1 + 1 / A), (0, 0)))

    def test_long_relation_parses_in_linear_time(self, monkeypatch):
        # a sum collects its terms in one dict, so parsing copies each term a
        # bounded number of times, not once per later term
        n = 8000
        terms = " + ".join(f"x^{k}*u" for k in range(1, n + 1))
        src = f"kind differential\noperators x\nunknowns u\nrelation {terms}\n"
        with counting_copies(monkeypatch) as copied:
            rel = parse_system(src).presentation.relations[0]
        assert rel == Element({Term(0, (k,)): Fraction(1) for k in range(1, n + 1)})
        assert n <= sum(copied) <= 3 * n


TABLE_SRC = "kind {kind}\noperators x t\nparameter a\nunknowns u v\nrelation {rel}\n"


class TestExpressionTable:
    """Exact messages and positions of every expression-parser error, and the
    canonical rendering of accepted non-canonical forms."""

    @pytest.mark.parametrize(
        "rel,message",
        [
            ("t*u - b*u", "line 5, column 7: undeclared identifier 'b'"),
            ("(b+1)*u", "line 5, column 2: undeclared coefficient identifier 'b'"),
            ("u/x", "line 5, column 3: undeclared coefficient identifier 'x'"),
            ("x^-1*u", "line 5, column 1: negative exponent on 'x': only kind=inversive permits them"),
            ("u^2", "line 5, column 2: unknowns enter relations linearly"),
            ("t*u + x", "line 5, column 8: term has no unknown"),
            ("u*v", "line 5, column 3: a term may contain only one unknown"),
            ("u/0", "line 5, column 3: division by zero"),
            ("u/(a-a)", "line 5, column 3: division by zero"),
            ("(a+1*u", "line 5, column 6: missing ')' before unknown 'u'"),
            ("(a+1)*(a*t*u", "line 5, column 10: missing ')' before operator 't'"),
            ("u*(a+1", "line 5, column 7: expected ')', found 'end of line'"),
            ("(a+1)*u)", "line 5, column 8: unexpected ')'"),
            ("x^a*u", "line 5, column 3: expected an integer exponent"),
            ("a^-1*u", "line 5, column 4: coefficient powers must be nonnegative"),
            ("t*u +", "line 5, column 6: unexpected 'end of line'"),
            ("- - u", "line 5, column 3: unexpected '-'"),
            ("t*u = = u", "line 5, column 7: unexpected '='"),
            ("x*u - a^1600*u", "line 5, column 9: coefficient power 1600 exceeds the limit of 100"),
            ("(a+1)^101*u", "line 5, column 7: coefficient power 101 exceeds the limit of 100"),
            ("((a+1)^100)^20*u", "line 5, column 12: coefficient degree 2000 exceeds the limit of 100"),
            ("(a+1)^100*(a+1)^100*u", "line 5, column 11: coefficient degree 200 exceeds the limit of 100"),
            ("u/(a+1)^100/(a-1)", "line 5, column 13: coefficient degree 101 exceeds the limit of 100"),
            ("(a^100+1/(a+1))*u", "line 5, column 8: coefficient degree 101 exceeds the limit of 100"),
            ("u/(a+1)^60 + u/(a-1)^60", "line 5, column 14: coefficient degree 120 exceeds the limit of 100"),
            ("u/(a+1)^60 = u/(a-1)^60", "line 5, column 12: coefficient degree 120 exceeds the limit of 100"),
            ("x^1000000*u - t*u", "line 5, column 3: operator exponent 1000000 exceeds the limit of 100000"),
            (
                "x^100000*x^100000*u",
                "line 5, column 10: operator exponent 200000 of 'x' in one term exceeds the limit of 100000",
            ),
            pytest.param(
                "t*u - " + "7" * 5000 + "*u",
                "line 5, column 7: integer literal longer than 1000 digits",
                id="coefficient-5000-digits",
            ),
            pytest.param(
                "t^" + "1" * 5000 + "*u",
                "line 5, column 3: integer literal longer than 1000 digits",
                id="exponent-5000-digits",
            ),
            pytest.param(
                "(" * 101 + "1" + ")" * 101 + "*u",
                "line 5, column 101: parentheses nested deeper than 100",
                id="nesting-101",
            ),
        ],
    )
    def test_error(self, rel, message):
        with pytest.raises(DslError) as err:
            parse_system(TABLE_SRC.format(kind="differential", rel=rel))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "kind,rel,rendered",
        [
            ("differential", "x*2*u", "2*x*u"),
            ("differential", "(a+1)^2*u", "(a^2+2*a+1)*u"),
            ("differential", "u/2 + x*v/a", "1/a*x*v + 1/2*u"),
            ("differential", "2^3*u", "8*u"),
            ("differential", "a^0*u", "u"),
            ("differential", "+t*u = x*u - u", "-x*u + t*u + u"),
            ("inversive", "x^-2*t*u", "x^-2*t*u"),
            ("differential", "x^100000*u - a^100*v", "x^100000*u - a^100*v"),
            ("differential", "x^60000*t*x^40000*u", "x^100000*t*u"),
            ("differential", "a^50*a^50*u - (a^100+1)/a^100*v", "-((a^100+1)/a^100)*v + a^100*u"),
            ("inversive", "x^100000*x^-100000*x^-100000*u", "x^-100000*u"),
            pytest.param("differential", "9" * 1000 + "*u", "9" * 1000 + "*u", id="coefficient-1000-digits"),
            pytest.param("differential", "(" * 100 + "2" + ")" * 100 + "*u", "2*u", id="nesting-100"),
        ],
    )
    def test_accepted(self, kind, rel, rendered):
        p = parse_system(TABLE_SRC.format(kind=kind, rel=rel)).presentation
        assert render_element(p, p.relations[0]) == rendered

    @pytest.mark.parametrize(
        "text,message",
        [
            ("(1+a", "line 1, column 5: expected ')', found 'end of line'"),
            ("1/(a-a)", "line 1, column 3: division by zero"),
            ("2 a", "line 1, column 3: unexpected 'a'"),
        ],
    )
    def test_coefficient_error(self, text, message):
        with pytest.raises(DslError) as err:
            parse_coefficient(text, "a")
        assert str(err.value) == message


class TestCoefficientLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("-7/2", Fraction(-7, 2)),
            ("1/2", Fraction(1, 2)),
            ("(2*a+2)/a", (2 * A + 2) / A),
            ("2*a-1", 2 * A - 1),
            ("(1/2)/a", Fraction(1, 2) / A),
            ("a^2 + 1", A * A + 1),
            ("-(1+a)", -(1 + A)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_coefficient(text, "a") == value

    def test_render_parse_round_trip(self):
        rng = random.Random(31)
        for _ in range(60):
            num = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
            den = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
            if not any(num) or not any(den):
                continue
            c = RationalFunction("a", num, den)
            c = c if isinstance(c, RationalFunction) else c
            assert parse_coefficient(coeff_str(c), "a") == c

    def test_undeclared_parameter_rejected(self):
        with pytest.raises(DslError):
            parse_coefficient("a+1", None)


class TestRender:
    def test_round_trip_on_builtins(self):
        for name in BUILTIN_NAMES:
            p = builtin_system(name)
            text = render_system(p)
            assert parse_system(text).presentation == p
            # canonical form is a fixpoint
            assert render_system(parse_system(text).presentation) == text

    def test_round_trip_fuzzed(self):
        rng = random.Random(32)
        kinds = ("differential", "difference", "inversive")
        for _ in range(60):
            kind = kinds[rng.randrange(3)]
            m, q = rng.randint(1, 3), rng.randint(1, 2)
            ops = tuple(f"d{i}" for i in range(m))
            uns = tuple(f"w{i}" for i in range(q))
            parameter = "a" if rng.random() < 0.5 else None
            lo = -2 if kind == "inversive" else 0

            def coeff():
                if parameter and rng.random() < 0.4:
                    c = RationalFunction(
                        "a",
                        tuple(Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 2))),
                        tuple(Fraction(rng.randint(1, 4)) for _ in range(rng.randint(1, 2))),
                    )
                    if c:
                        return c
                return Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((-1, 1))

            relations = []
            for _ in range(rng.randint(1, 3)):
                f = Element.from_pairs(
                    [
                        (coeff(), tuple(rng.randint(lo, 3) for _ in range(m)), rng.randrange(q))
                        for _ in range(rng.randint(1, 4))
                    ]
                )
                if f:
                    relations.append(f)
            if not relations:
                continue
            p = Presentation(
                kind=kind, operators=ops, unknowns=uns, relations=tuple(relations), parameter=parameter
            )
            assert parse_system(render_system(p)).presentation == p

    def test_render_element_shapes(self):
        p = builtin_system("diffusion")
        assert render_element(p, p.relations[0]) == "-a*x^2*u + t*u"
        assert render_element(p, Element()) == "0"
        assert render_element(p, el0((1, (0, 0)))) == "u"
        assert render_element(p, el0((-1, (0, 0)))) == "-u"
        assert render_element(p, el0((2 * A - 1, (1, 0)))) == "(2*a-1)*x*u"


class TestBuiltins:
    def test_catalog(self):
        assert BUILTIN_NAMES == ("diffusion", "maxwell", "potential")
        assert len(builtin_system("maxwell").relations) == 8
        assert builtin_system("maxwell").unknowns == tuple(f"p{i}" for i in range(1, 13))
        assert len(builtin_system("potential").relations) == 5
        assert len(builtin_system("diffusion").relations) == 1

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_system("wave")

    def test_potential_relations_match_construction(self):
        # relation 0: sum_j d_j u_j ; relation i: sum_j (d_j^2 u_i - d_i d_j u_j)
        p = builtin_system("potential")

        def unit(i):
            e = [0, 0, 0, 0]
            e[i] = 1
            return tuple(e)

        first = Element.from_pairs([(1, unit(j), j) for j in range(4)])
        assert p.relations[0] == first
        for i in range(4):
            pairs = []
            for j in range(4):
                if j == i:
                    continue
                sq = [0, 0, 0, 0]
                sq[j] = 2
                mixed = [0, 0, 0, 0]
                mixed[i] += 1
                mixed[j] += 1
                pairs.append((1, tuple(sq), i))
                pairs.append((-1, tuple(mixed), j))
            assert p.relations[i + 1] == Element.from_pairs(pairs)

    def test_each_builtin_parsed_once(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_system(text)

        monkeypatch.setattr(dimpoly.builtin_systems, "parse_system", counting)
        builtin_system.cache_clear()
        for name in BUILTIN_NAMES:
            builtin_system(name)
            for scheme in ("forward", "symmetric"):
                builtin_scheme(name, scheme)
        assert len(calls) == 3

    def test_diffusion_scheme_alias(self):
        sym = builtin_scheme("diffusion", "symmetric")
        assert sym.rules == {"x": "central2", "t": "forward"}
        fwd = builtin_scheme("maxwell", "symmetric")
        assert set(fwd.rules.values()) == {"central"}
