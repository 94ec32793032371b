"""Expression text format: parser and bit-exact canonical printer.

Grammar: identifiers [a-zA-Z][a-zA-Z0-9]*; decimal integer literals
(rationals arise from division); binary + - * / and ^ with integer
exponents; unary minus; parentheses; call forms exp(.), ln(.), sqrt(.),
f(.), fa(.), w(.), wp(.) that resolve to registered symbols by structural
match of the argument.  Jet aliases uy, uyy, uyyy (and u0) are accepted and
resolved at parse time; the printer emits the alias spelling.

print_expr prints a tree, and print_nf a normal form straight from its
dicts, as print_expr would print the tree of normal.nf_to_expr.  Both read
the text of name^e from a per-context memo.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from ..errors import ParseError
from . import poly as P
from . import ratfunc as R
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
                e = _at(t, tree.div, e, self.unary())
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
            return _at(t, tree.pow_, base, self.exponent())
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


def _at(op: _Token, build, a, b) -> Expr:
    """build(a, b), with a constant zero denominator a ParseError at op."""
    try:
        return build(a, b)
    except ZeroDivisionError as exc:
        raise ParseError(str(exc), op.pos) from None


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


def _name_text(name: str, ctx: Context, e: int = 1) -> Tuple[str, int]:
    """Text and precedence of name^e, e >= 1, made once per context."""
    got = ctx._atom_texts.get((name, e))
    if got is None:
        if e > 1:
            got = ((f"exp({e}*u)", _PREC_ATOM) if name == "E" else
                   (f"{_name_text(name, ctx)[0]}^{e}", _PREC_POW))
        elif ctx.call_form(name) is not None:
            fname, carg = ctx.call_form(name)
            got = f"{fname}({_render(carg, ctx, _PREC_SUM)})", _PREC_ATOM
        else:
            got = _ALIAS_OUT.get(name, name), _PREC_ATOM
        ctx._atom_texts[(name, e)] = got
    return got


def _const_text(q: Fraction) -> Tuple[str, int]:
    if q.denominator == 1:
        s = str(q.numerator)
        return s, (_PREC_ATOM if q.numerator >= 0 else _PREC_SUM)
    s = f"{q.numerator}/{q.denominator}"
    return s, (_PREC_MUL if q.numerator >= 0 else _PREC_SUM)


def _split_neg(e: Expr) -> Tuple[bool, Expr]:
    """Present e as (negated?, positive part) for sum printing."""
    t = type(e)
    if t is Const and e.value.numerator < 0:
        return True, Const(-e.value)
    if t is Mul and type(e.args[0]) is Const and e.args[0].value.numerator < 0:
        c = e.args[0].value
        rest = e.args[1:]
        if c == -1:
            if len(rest) == 1:
                return True, rest[0]
            return True, Mul(rest)
        return True, Mul((Const(-c),) + rest)
    if t is Div:
        negated, num = _split_neg(e.num)
        if negated:
            return True, Div(num, e.den)
    return False, e


def _paren(text: str, prec: int, parent_prec: int) -> str:
    return f"({text})" if prec < parent_prec else text


def _render(e: Expr, ctx: Context, parent_prec: int) -> str:
    return _paren(*_render_prec(e, ctx), parent_prec)


def _render_prec(e: Expr, ctx: Context) -> Tuple[str, int]:
    t = type(e)
    if t is Const:
        return _const_text(e.value)
    if t is Name:
        return _name_text(e.name, ctx)
    if t is Add:
        terms = [(negated, *_render_prec(body, ctx))
                 for negated, body in map(_split_neg, e.args)]
        return _sum_text(terms), _PREC_SUM
    if t is Mul:
        negated, body = _split_neg(e)
        if negated:
            return f"-{_render(body, ctx, _PREC_MUL)}", _PREC_SUM
        parts = [_render(f, ctx, _PREC_MUL + (1 if i > 0 else 0))
                 for i, f in enumerate(e.args)]
        return "*".join(parts), _PREC_MUL
    if t is Div:
        num = _render(e.num, ctx, _PREC_MUL)
        den = _render(e.den, ctx, _PREC_POW)
        return f"{num}/{den}", _PREC_MUL
    if t is Pow:
        if type(e.base) is Name and e.base.name == "E":
            k = {1: "", -1: "-"}.get(e.exp, f"{e.exp}*")
            return f"exp({k}u)", _PREC_ATOM
        base = _render(e.base, ctx, _PREC_ATOM)
        if e.exp < 0:
            return f"{base}^({e.exp})", _PREC_POW
        return f"{base}^{e.exp}", _PREC_POW
    raise TypeError(f"cannot print {type(e).__name__}")


def print_expr(e: Expr, ctx: Context) -> str:
    return _render_prec(e, ctx)[0]


# A normal form is printed straight from its dicts, as the tree that
# normal.nf_to_expr builds would print.  Each part is made as the split that
# _split_neg makes of it inside a sum: (negated?, positive text, precedence).
_Split = Tuple[bool, str, int]


def _alone(neg: bool, body: str, prec: int) -> Tuple[str, int]:
    """Text and precedence of a split part outside a sum."""
    return (f"-{body}", _PREC_SUM) if neg else (body, prec)


def _sum_text(terms: List[_Split]) -> str:
    text = "".join(f"{' - ' if neg else ' + '}{_paren(body, prec, _PREC_MUL)}"
                   for neg, body, prec in terms)
    return ("-" if terms[0][0] else "") + text[3:]


def _scaled(ctx: Context, c: int, m: int, lay, syms) -> _Split:
    """c times the monomial m over syms (ctx.base_vars or ctx.alg_syms)."""
    k = -c if c < 0 else c
    if m == 0:
        return (c < 0, *_const_text(k))
    atoms = [_name_text(syms[i].name, ctx, lay.exp(m, i))
             for i in lay.mono_vars(m)]
    if k == 1 and len(atoms) == 1:
        return (c < 0, *atoms[0])
    return (c < 0, "*".join([str(k)] * (k != 1) + [t for t, _ in atoms]),
            _PREC_MUL)


def _poly_split(ctx: Context, p: P.Poly) -> _Split:
    terms = [_scaled(ctx, c, m, ctx.layout, ctx.base_vars)
             for m, c in P.psorted(p)]
    return terms[0] if len(terms) == 1 else (False, _sum_text(terms), _PREC_SUM)


def _rf_split(ctx: Context, a: R.RatFunc, alone: bool) -> _Split:
    """A coefficient; alone, a negated numerator keeps its sign inside."""
    num = _poly_split(ctx, a.num)
    if R.rf_is_poly(a):
        return num
    den = _paren(*_alone(*_poly_split(ctx, R.rf_den_poly(ctx, a))), _PREC_POW)
    if alone or not num[0]:
        return False, f"{_paren(*_alone(*num), _PREC_MUL)}/{den}", _PREC_MUL
    return True, f"{num[1]}/{den}", _PREC_MUL


def print_nf(a, ctx: Context) -> str:
    """The text of the normal form a: exactly
    print_expr(normal.nf_to_expr(ctx, a), ctx), with no tree built."""
    lay, syms, alone = ctx.alg_layout, ctx.alg_syms, len(a) == 1
    terms = []
    for m in sorted(a, reverse=True):
        rf = a[m]
        c = rf.num.get(0) if len(rf.num) == 1 and R.rf_is_poly(rf) else None
        if c is not None:
            terms.append(_scaled(ctx, c, m, lay, syms))
        elif m == 0:
            terms.append(_rf_split(ctx, rf, alone))
        else:  # Mul(coefficient, symbols...), never negated
            coeff = _paren(*_alone(*_rf_split(ctx, rf, True)), _PREC_MUL)
            terms.append((False, f"{coeff}*{_scaled(ctx, 1, m, lay, syms)[1]}",
                          _PREC_MUL))
    if not terms:
        return "0"
    return _alone(*terms[0])[0] if alone else _sum_text(terms)
