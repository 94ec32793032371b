"""Expression text format: parser and bit-exact canonical printer.

Grammar: identifiers [a-zA-Z][a-zA-Z0-9]*; decimal integer literals
(rationals arise from division); binary + - * / and ^ with integer
exponents; unary minus; parentheses; call forms exp(.), ln(.), sqrt(.),
f(.), fa(.), w(.), wp(.) that resolve to registered symbols by structural
match of the argument.  Jet aliases uy, uyy, uyyy (and u0) are accepted and
resolved at parse time; the printer emits the alias spelling.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from ..errors import ParseError
from . import tree
from .context import Context
from .tree import Add, Const, Div, Expr, Mul, Name, Pow

_OPS = set("+-*/^()")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> List[_Token]:
    out: List[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "−":
            ch = "-"
        if ch in _OPS:
            out.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("eof", "", n))
    return out


class _Parser:
    def __init__(self, text: str, ctx: Context):
        self.text = text
        self.ctx = ctx
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.take()
        if t.kind != "op" or t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.pos)
        return t

    def parse(self) -> Expr:
        e = self.sum_()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
        return e

    def sum_(self) -> Expr:
        e = self.term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text == "+":
                self.take()
                e = e + self.term()
            elif t.kind == "op" and t.text == "-":
                self.take()
                e = e - self.term()
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text == "*":
                self.take()
                e = e * self.unary()
            elif t.kind == "op" and t.text == "/":
                self.take()
                e = e / self.unary()
            else:
                return e

    def unary(self) -> Expr:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.take()
            return tree.neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.take()
            return tree.pow_(base, self.exponent())
        return base

    def exponent(self) -> int:
        t = self.take()
        sign = 1
        if t.kind == "op" and t.text == "-":
            sign = -1
            t = self.take()
        elif t.kind == "op" and t.text == "(":
            inner = self.exponent()
            self.expect(")")
            return inner
        if t.kind != "int":
            raise ParseError(f"integer exponent expected, found {t.text!r}", t.pos)
        return sign * int(t.text)

    def primary(self) -> Expr:
        t = self.take()
        if t.kind == "int":
            return Const(Fraction(int(t.text)))
        if t.kind == "op" and t.text == "(":
            e = self.sum_()
            self.expect(")")
            return e
        if t.kind == "ident":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                self.take()
                arg = self.sum_()
                self.expect(")")
                return self.resolve_call(t.text, arg, t.pos)
            return self.resolve_name(t.text, t.pos)
        raise ParseError(f"unexpected token {t.text or 'end of input'!r}", t.pos)

    def resolve_name(self, name: str, pos: int) -> Expr:
        ctx = self.ctx
        resolved = ctx.resolve(name)
        if ctx.is_alg(resolved) or ctx.is_base(resolved):
            return Name(resolved)
        raise ParseError(f"unknown name {name!r}", pos)

    def resolve_call(self, fname: str, arg: Expr, pos: int) -> Expr:
        ctx = self.ctx
        if fname == "exp":
            k = _exp_multiple(arg)
            if k is None:
                raise ParseError("exp argument must be an integer multiple of u", pos)
            return tree.pow_(Name("E"), k)
        for (cf, carg), sym in ctx.call_table().items():
            if cf == fname and carg == arg:
                return Name(sym)
        raise ParseError(f"no symbol registered for call {fname}({print_expr(arg, ctx)})", pos)


def _exp_multiple(arg: Expr) -> Optional[int]:
    if arg == Name("u"):
        return 1
    if isinstance(arg, Mul) and len(arg.args) == 2:
        c, v = arg.args
        if isinstance(c, Const) and v == Name("u") and c.value.denominator == 1:
            return int(c.value)
    return None


def parse(text: str, ctx: Context) -> Expr:
    return _Parser(text, ctx).parse()


# -- printing ----------------------------------------------------------------

_PREC_SUM = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4

_ALIAS_OUT = {"v1": "uy", "v2": "uyy", "v3": "uyyy"}


def _name_text(name: str, ctx: Context) -> Tuple[str, int]:
    call = ctx.call_form(name)
    if call is not None:
        fname, carg = call
        return f"{fname}({_render(carg, ctx, _PREC_SUM)})", _PREC_ATOM
    return _ALIAS_OUT.get(name, name), _PREC_ATOM


def _const_text(q: Fraction) -> Tuple[str, int]:
    if q.denominator == 1:
        s = str(q.numerator)
        return s, (_PREC_ATOM if q >= 0 else _PREC_SUM)
    s = f"{q.numerator}/{q.denominator}"
    return s, (_PREC_MUL if q >= 0 else _PREC_SUM)


def _split_neg(e: Expr) -> Tuple[bool, Expr]:
    """Present e as (negated?, positive part) for sum printing."""
    if isinstance(e, Const) and e.value < 0:
        return True, Const(-e.value)
    if isinstance(e, Mul) and isinstance(e.args[0], Const) and e.args[0].value < 0:
        c = e.args[0].value
        rest = e.args[1:]
        if c == -1:
            if len(rest) == 1:
                return True, rest[0]
            return True, Mul(rest)
        return True, Mul((Const(-c),) + rest)
    if isinstance(e, Div):
        negated, num = _split_neg(e.num)
        if negated:
            return True, Div(num, e.den)
    return False, e


def _render(e: Expr, ctx: Context, parent_prec: int) -> str:
    text, prec = _render_prec(e, ctx)
    if prec < parent_prec:
        return f"({text})"
    return text


def _render_prec(e: Expr, ctx: Context) -> Tuple[str, int]:
    if isinstance(e, Const):
        return _const_text(e.value)
    if isinstance(e, Name):
        return _name_text(e.name, ctx)
    if isinstance(e, Add):
        first = True
        parts: List[str] = []
        for t in e.args:
            negated, body = _split_neg(t)
            rendered = _render(body, ctx, _PREC_MUL)
            if first:
                parts.append(f"-{rendered}" if negated else rendered)
                first = False
            else:
                parts.append(f" - {rendered}" if negated else f" + {rendered}")
        return "".join(parts), _PREC_SUM
    if isinstance(e, Mul):
        negated, body = _split_neg(e)
        if negated:
            inner, bprec = _render_prec(body, ctx)
            if bprec < _PREC_MUL:
                inner = f"({inner})"
            return f"-{inner}", _PREC_SUM
        parts = [_render(f, ctx, _PREC_MUL + (1 if i > 0 else 0))
                 for i, f in enumerate(e.args)]
        return "*".join(parts), _PREC_MUL
    if isinstance(e, Div):
        num = _render(e.num, ctx, _PREC_MUL)
        den = _render(e.den, ctx, _PREC_POW)
        return f"{num}/{den}", _PREC_MUL
    if isinstance(e, Pow):
        if e.base == Name("E"):
            k = e.exp
            if k == 1:
                return "exp(u)", _PREC_ATOM
            if k == -1:
                return "exp(-u)", _PREC_ATOM
            return f"exp({k}*u)", _PREC_ATOM
        base = _render(e.base, ctx, _PREC_ATOM)
        if e.exp < 0:
            return f"{base}^({e.exp})", _PREC_POW
        return f"{base}^{e.exp}", _PREC_POW
    raise TypeError(f"cannot print {type(e).__name__}")


def print_expr(e: Expr, ctx: Context) -> str:
    return _render_prec(e, ctx)[0]
