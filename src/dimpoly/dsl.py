"""Line-oriented input language for systems, plus canonical rendering.

A system document looks like::

    kind differential
    operators x t
    parameter a
    unknowns u
    relation t*u - a * x^2 * u

`#` starts a comment.  Relations are +/- separated sums of terms
``[coefficient *] operator-powers [*] unknown``; an ``lhs = rhs`` equation is
normalized to ``lhs - rhs``.  Coefficient literals are integers, fractions
``p/q`` and parenthesized +,-,*,/ expressions over the single declared
parameter with nonnegative integer ``^``.  Operator exponents may be negative
only when the kind is ``inversive``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .coefficients import Coeff, RationalFunction, coeff_str, parameter_symbol
from .freemodule import Element, Presentation, Term, TermOrder

__all__ = [
    "DslError",
    "SystemDocument",
    "parse_coefficient",
    "parse_system",
    "render_element",
    "render_system",
    "render_term",
]


class DslError(ValueError):
    """Parse or resolution failure, carrying a source position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class _Tok(NamedTuple):
    kind: str  # IDENT | INT | SYM | END
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_]\w*)|(?P<int>\d+)|(?P<sym>[-+*/^()=]))")


def _tokenize(text: str, line: int) -> list[_Tok]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos + (len(text[pos:]) - len(stripped)) + 1
            raise DslError(f"unexpected character {stripped[0]!r}", line, col)
        if m.group("ident"):
            out.append(_Tok("IDENT", m.group("ident"), line, m.start("ident") + 1))
        elif m.group("int"):
            out.append(_Tok("INT", m.group("int"), line, m.start("int") + 1))
        else:
            out.append(_Tok("SYM", m.group("sym"), line, m.start("sym") + 1))
        pos = m.end()
    out.append(_Tok("END", "", line, len(text) + 1))
    return out


class _ExprParser:
    """Recursive descent over one relation or coefficient expression.

    One grammar serves relations and coefficients::

        relation := sum ["=" sum]
        sum      := ["+" | "-"] product (("+" | "-") product)*
        product  := factor (("*" | "/") factor)*
        factor   := (INT | parameter | "(" sum ")") ["^" INT]
                  | operator ["^" ["+" | "-"] INT]
                  | unknown

    With ``module=True`` (a relation) a product is one term: its operator
    factors multiply into the monomial and it needs exactly one unknown.
    Parenthesised sums, divisors and `parse_coefficient` use ``module=False``,
    where only the first kind of factor is allowed and a product is a
    coefficient value.
    """

    def __init__(self, tokens, *, operators, unknowns, parameter, kind):
        self.tokens = tokens
        self.i = 0
        self.operators = {name: i for i, name in enumerate(operators)}
        self.unknowns = {name: i for i, name in enumerate(unknowns)}
        self.parameter = parameter
        self.kind = kind
        self.m = len(operators)

    def peek(self) -> _Tok:
        return self.tokens[self.i]

    def take(self) -> _Tok:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        tok = self.take()
        if tok.kind != "SYM" or tok.text != sym:
            raise DslError(f"expected {sym!r}, found {tok.text or 'end of line'!r}", tok.line, tok.col)

    def parse_relation(self) -> Element:
        left = self.parse_sum(module=True)
        if self.peek().kind == "SYM" and self.peek().text == "=":
            self.take()
            right = self.parse_sum(module=True)
            left = left - right
        self._expect_end()
        return left

    def _expect_end(self):
        tok = self.peek()
        if tok.kind != "END":
            raise DslError(f"unexpected {tok.text!r}", tok.line, tok.col)

    def parse_sum(self, module: bool):
        total = Element() if module else Fraction(0)
        sign = 1
        tok = self.peek()
        if tok.kind == "SYM" and tok.text in "+-":
            self.take()
            sign = -1 if tok.text == "-" else 1
        while True:
            total = total + self.parse_product(module, sign)
            tok = self.peek()
            if not (tok.kind == "SYM" and tok.text in "+-"):
                return total
            self.take()
            sign = -1 if tok.text == "-" else 1

    def parse_product(self, module: bool, sign: int):
        coeff: Coeff = Fraction(sign)
        exps = [0] * self.m
        gen: int | None = None
        divide = False
        while True:
            tok = self.peek()
            if divide:
                value, _ = self.parse_factor(module=False)
                if not value:
                    raise DslError("division by zero", tok.line, tok.col)
                coeff = coeff / value
            else:
                value, kind_tag = self.parse_factor(module)
                if kind_tag == "coeff":
                    coeff = coeff * value
                elif kind_tag == "op":
                    op_index, power = value
                    exps[op_index] += power
                elif gen is not None:
                    raise DslError("a term may contain only one unknown", tok.line, tok.col)
                else:
                    gen = value
            tok = self.peek()
            if not (tok.kind == "SYM" and tok.text in "*/"):
                break
            self.take()
            divide = tok.text == "/"
        if not module:
            return coeff
        if gen is None:
            raise DslError("term has no unknown", tok.line, tok.col)
        return Element({Term(gen, tuple(exps)): coeff})

    def parse_factor(self, module: bool):
        tok = self.take()
        if tok.kind == "INT":
            base: Coeff = Fraction(int(tok.text))
        elif tok.kind == "SYM" and tok.text == "(":
            base = self.parse_sum(module=False)
            self.expect_sym(")")
        elif tok.kind == "IDENT" and tok.text == self.parameter:
            base = parameter_symbol(tok.text)
        elif tok.kind == "IDENT":
            name = tok.text
            if module and name in self.operators:
                power = self._read_power(signed=True)
                if power < 0 and self.kind != "inversive":
                    raise DslError(
                        f"negative exponent on {name!r}: only kind=inversive permits them",
                        tok.line,
                        tok.col,
                    )
                return (self.operators[name], power), "op"
            if module and name in self.unknowns:
                nxt = self.peek()
                if nxt.kind == "SYM" and nxt.text == "^":
                    raise DslError("unknowns enter relations linearly", nxt.line, nxt.col)
                return self.unknowns[name], "unknown"
            what = "identifier" if module else "coefficient identifier"
            raise DslError(f"undeclared {what} {name!r}", tok.line, tok.col)
        else:
            raise DslError(f"unexpected {tok.text or 'end of line'!r}", tok.line, tok.col)
        k = self._read_power(signed=False)
        return (base if k == 1 else base**k), "coeff"

    def _read_power(self, *, signed: bool) -> int:
        nxt = self.peek()
        if not (nxt.kind == "SYM" and nxt.text == "^"):
            return 1
        self.take()
        sign = 1
        nxt = self.peek()
        if nxt.kind == "SYM" and nxt.text in "+-":
            self.take()
            if nxt.text == "-":
                sign = -1
        num = self.take()
        if num.kind != "INT":
            raise DslError("expected an integer exponent", num.line, num.col)
        value = sign * int(num.text)
        if not signed and value < 0:
            raise DslError("coefficient powers must be nonnegative", num.line, num.col)
        return value


def parse_coefficient(text: str, parameter: str | None = None) -> Coeff:
    """Parse a standalone coefficient literal (the JSON report syntax)."""
    tokens = _tokenize(text, 1)
    parser = _ExprParser(tokens, operators=(), unknowns=(), parameter=parameter, kind="differential")
    value = parser.parse_sum(module=False)
    parser._expect_end()
    return value


@dataclass(frozen=True)
class SystemDocument:
    """Parsed presentation plus the source line of every relation."""

    presentation: Presentation
    relation_lines: tuple[int, ...]


def parse_system(text: str) -> SystemDocument:
    """Parse a system document; raises DslError with line/column on failure."""
    kind: str | None = None
    operators: list[str] = []
    unknowns: list[str] = []
    parameter: str | None = None
    relation_sources: list[tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        pieces = line.split(None, 1)
        word = pieces[0]
        rest = pieces[1].strip() if len(pieces) > 1 else ""
        if word == "kind":
            if kind is not None:
                raise DslError("duplicate kind line", lineno, 1)
            if rest not in ("differential", "difference", "inversive"):
                raise DslError(f"unknown kind {rest!r}", lineno, len("kind ") + 1)
            kind = rest
        elif word == "operators":
            operators += _name_list(rest, lineno, "operator")
        elif word == "parameter":
            if parameter is not None:
                raise DslError("a system may declare at most one parameter", lineno, 1)
            names = _name_list(rest, lineno, "parameter")
            if len(names) != 1:
                raise DslError("a system may declare at most one parameter", lineno, 1)
            parameter = names[0]
        elif word == "unknowns":
            unknowns += _name_list(rest, lineno, "unknown")
        elif word == "relation":
            relation_sources.append((lineno, rest))
        else:
            raise DslError(f"unknown directive {word!r}", lineno, 1)

    if kind is None:
        raise DslError("missing kind line", 1, 1)
    if not operators:
        raise DslError("missing operators line", 1, 1)
    if not unknowns:
        raise DslError("missing unknowns line", 1, 1)
    declared = operators + unknowns + ([parameter] if parameter else [])
    if len(set(declared)) != len(declared):
        dupes = sorted({n for n in declared if declared.count(n) > 1})
        raise DslError(f"names declared more than once: {dupes}", 1, 1)

    relations = []
    for lineno, src in relation_sources:
        tokens = _tokenize(src, lineno)
        parser = _ExprParser(
            tokens, operators=operators, unknowns=unknowns, parameter=parameter, kind=kind
        )
        relations.append(parser.parse_relation())

    presentation = Presentation(
        kind=kind,
        operators=tuple(operators),
        unknowns=tuple(unknowns),
        relations=tuple(relations),
        parameter=parameter,
    )
    return SystemDocument(
        presentation=presentation,
        relation_lines=tuple(lineno for lineno, _ in relation_sources),
    )


_NAME_RE = re.compile(r"[A-Za-z_]\w*$")


def _name_list(rest: str, lineno: int, what: str) -> list[str]:
    names = rest.split()
    if not names:
        raise DslError(f"expected at least one {what} name", lineno, 1)
    for name in names:
        if not _NAME_RE.match(name):
            raise DslError(f"invalid {what} name {name!r}", lineno, 1)
    return names


# -- canonical rendering -------------------------------------------------------


def render_term(p: Presentation, t: Term) -> str:
    """Operators in declared order with caret powers, generator last."""
    pieces = [
        f"{name}^{k}" if k != 1 else name
        for name, k in zip(p.operators, t.exps)
        if k != 0
    ]
    pieces.append(p.unknowns[t.gen])
    return "*".join(pieces)


def _coeff_sign_abs(c: Coeff) -> tuple[int, Coeff]:
    if isinstance(c, RationalFunction):
        lead = c.num[-1]
        return (1, c) if lead > 0 else (-1, -c)
    return (1, c) if c >= 0 else (-1, -c)


def _coeff_prefix(c: Coeff) -> str:
    if c == 1:
        return ""
    text = coeff_str(c)
    if any(ch in "+-" for ch in text[1:]):
        text = f"({text})"
    return text + "*"


def render_element(p: Presentation, f: Element, order: TermOrder | None = None) -> str:
    if not f:
        return "0"
    if order is None:
        order = p.default_order()
    parts = []
    for t, c in f.sorted_terms(order):
        sign, mag = _coeff_sign_abs(c)
        parts.append((sign, _coeff_prefix(mag) + render_term(p, t)))
    sign, body = parts[0]
    text = body if sign > 0 else "-" + body
    for sign, body in parts[1:]:
        text += (" + " if sign > 0 else " - ") + body
    return text


def render_system(p: Presentation) -> str:
    lines = [f"kind {p.kind}", "operators " + " ".join(p.operators)]
    if p.parameter:
        lines.append(f"parameter {p.parameter}")
    lines.append("unknowns " + " ".join(p.unknowns))
    for rel in p.relations:
        lines.append("relation " + render_element(p, rel))
    return "\n".join(lines) + "\n"
