"""Polynomial expression grammar: parser and canonical printer.

Grammar (no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ('-')* base ('^' INT)?
    base   := RATIONAL | IDENT | '(' expr ')'
    RATIONAL := INT ('/' INT)?

The identifier `i` denotes the imaginary unit in Gaussian-rational
contexts.  The printer emits exactly this grammar, so printing a canonical
polynomial and parsing the text returns an equal polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .poly import Poly, mono_key
from .scalars import GaussianRational

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(src):
    pos = 0
    tokens = []
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == m.start():
            rest = src[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            where = pos + len(rest) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", where)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src, ctx):
        self.src = src
        self.ctx = ctx
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self):
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return p

    def expr(self):
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                p = p * self.factor()
            elif kind in ("num", "ident") or (kind == "op" and val == "("):
                raise ParseError("implicit multiplication is not allowed", pos)
            else:
                return p

    def factor(self):
        kind, val, _ = self.peek()
        sign = 1
        while kind == "op" and val == "-":
            self.advance()
            sign = -sign
            kind, val, _ = self.peek()
        p = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            p = p ** int(val)
        if sign < 0:
            p = -p
        return p

    def base(self):
        kind, val, pos = self.advance()
        if kind == "num":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "/":
                self.advance()
                dkind, dval, dpos = self.peek()
                if dkind != "num":
                    raise ParseError("expected denominator", dpos)
                if int(dval) == 0:
                    raise ParseError("zero denominator", dpos)
                self.advance()
                return Poly.const(self.ctx, Fraction(int(val), int(dval)))
            return Poly.const(self.ctx, int(val))
        if kind == "ident":
            if val == "i" and "i" not in self.ctx.names:
                try:
                    unit = self.ctx.field.coerce(GaussianRational(0, 1))
                except TypeError:
                    raise ParseError(
                        "imaginary unit used in a rational context", pos
                    ) from None
                return Poly.const(self.ctx, unit)
            if val in self.ctx.names:
                return Poly.variable(self.ctx, val)
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_polynomial(src, ctx):
    """Parse a polynomial expression in the given variable context."""
    return _Parser(src, ctx).parse()


# -- printing ----------------------------------------------------------------


def _format_coeff(c):
    """Render a field element in re-parseable form (sign, magnitude text)."""
    text = str(c)
    return ("-", text[1:]) if text.startswith("-") else ("+", text)


def _format_mono(mono, names):
    parts = []
    for name, e in zip(names, mono):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def poly_to_text(p):
    """Canonical text form: terms in descending graded-lex order."""
    if not p.terms:
        return "0"
    chunks = []
    for mono, c in sorted(p.terms.items(), key=lambda kv: mono_key(kv[0]), reverse=True):
        sign, ctext = _format_coeff(c)
        mtext = _format_mono(mono, p.ctx.names)
        if not mtext:
            body = ctext
        elif ctext == "1":
            body = mtext
        else:
            body = f"{ctext}*{mtext}"
        chunks.append((sign, body))
    sign, body = chunks[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out
