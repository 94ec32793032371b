"""Expression trees for the jet-variable language.

A tree is pure syntax: leaves are rational constants or names, and the
meaning of a name (jet variable, parameter, transcendental or algebraic
symbol) is decided by the context that later normalizes the tree.  Trees
are immutable.  The building helpers fold constants but do nothing else,
so a parsed expression keeps its shape.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from ..errors import CyclicBindingError

Rat = Union[int, Fraction]


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, k):
        return pow_(self, k)

    def __neg__(self):
        return neg(self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Rat):
        self.value = Fraction(value)

    def __eq__(self, other):
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self):
        return hash(("Const", self.value))

    def __repr__(self):
        return f"Const({self.value})"


class Name(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Name) and self.name == other.name

    def __hash__(self):
        return hash(("Name", self.name))

    def __repr__(self):
        return f"Name({self.name})"


class Add(Expr):
    __slots__ = ("args",)

    def __init__(self, args):
        self.args = tuple(args)

    def __eq__(self, other):
        return isinstance(other, Add) and self.args == other.args

    def __hash__(self):
        return hash(("Add", self.args))

    def __repr__(self):
        return f"Add{self.args!r}"


class Mul(Expr):
    __slots__ = ("args",)

    def __init__(self, args):
        self.args = tuple(args)

    def __eq__(self, other):
        return isinstance(other, Mul) and self.args == other.args

    def __hash__(self):
        return hash(("Mul", self.args))

    def __repr__(self):
        return f"Mul{self.args!r}"


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: int):
        if not isinstance(exp, int):
            raise TypeError("exponents must be integers")
        self.base = base
        self.exp = exp

    def __eq__(self, other):
        return isinstance(other, Pow) and self.exp == other.exp and self.base == other.base

    def __hash__(self):
        return hash(("Pow", self.base, self.exp))

    def __repr__(self):
        return f"Pow({self.base!r}, {self.exp})"


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        self.num = num
        self.den = den

    def __eq__(self, other):
        return isinstance(other, Div) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("Div", self.num, self.den))

    def __repr__(self):
        return f"Div({self.num!r}, {self.den!r})"


ZERO = Const(0)
ONE = Const(1)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def const(value: Rat) -> Expr:
    return Const(value)


def name(n: str) -> Expr:
    return Name(n)


def add(*args) -> Expr:
    flat = []
    const_part = Fraction(0)

    def take(a: Expr) -> None:
        nonlocal const_part
        if isinstance(a, Add):
            for t in a.args:
                take(t)
        elif isinstance(a, Const):
            const_part += a.value
        else:
            flat.append(a)

    for a in args:
        take(_coerce(a))
    if const_part != 0:
        flat.append(Const(const_part))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(flat)


def sub(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return add(a, neg(b))


def mul(*args) -> Expr:
    flat = []
    coeff = Fraction(1)

    def take(a: Expr) -> None:
        nonlocal coeff
        if isinstance(a, Mul):
            for t in a.args:
                take(t)
        elif isinstance(a, Const):
            coeff *= a.value
        else:
            flat.append(a)

    for a in args:
        take(_coerce(a))
    if coeff == 0:
        return ZERO
    if not flat:
        return Const(coeff)
    if coeff != 1:
        flat.insert(0, Const(coeff))
    if len(flat) == 1:
        return flat[0]
    return Mul(flat)


def neg(a) -> Expr:
    a = _coerce(a)
    if isinstance(a, Const):
        return Const(-a.value)
    return Mul((Const(-1), a))


def div(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("constant zero denominator")
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1:
            return a
    if isinstance(a, Const) and a.value == 0:
        return ZERO
    return Div(a, b)


def pow_(a, k: int) -> Expr:
    a = _coerce(a)
    if not isinstance(k, int):
        raise TypeError("exponents must be integers")
    if k == 1:
        return a
    if k == 0:
        return ONE
    if isinstance(a, Const):
        if k < 0 and a.value == 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Const(a.value ** k)
    return Pow(a, k)


def free_names(e: Expr) -> set:
    """All names occurring in the tree."""
    out = set()
    stack = [e]
    seen = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Name):
            out.add(node.name)
        elif isinstance(node, Add) or isinstance(node, Mul):
            stack.extend(node.args)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Div):
            stack.append(node.num)
            stack.append(node.den)
    return out


def substitute(e: Expr, bindings: Mapping[str, Union[Expr, Rat]]) -> Expr:
    """Simultaneous one-pass substitution of names by expressions.

    A binding may mention its own name (u -> u - b is a shift); bindings
    whose values mention each *other* are rejected as cyclic, since a
    one-pass result would silently depend on evaluation order.
    """
    bindings = {k: _coerce(v) for k, v in bindings.items()}
    deps = {k: free_names(v) & set(bindings) - {k} for k, v in bindings.items()}
    seen_stack: list = []

    def check(k):
        if k in seen_stack:
            raise CyclicBindingError(
                " -> ".join(seen_stack + [k]) + " forms a substitution cycle")
        seen_stack.append(k)
        for d in deps[k]:
            check(d)
        seen_stack.pop()

    for k in bindings:
        check(k)

    return _rebuild(e, lambda node: bindings.get(node.name, node))


def map_names(e: Expr, table: Mapping[str, str]) -> Expr:
    """Rename leaves; names absent from the table pass through."""
    return _rebuild(e, lambda node: Name(table[node.name])
                    if node.name in table else node)


def _rebuild(e: Expr, leaf) -> Expr:
    """Rebuild the tree through the folding helpers, with leaf(node) in
    place of each Name; shared subtrees are rebuilt once."""
    memo: dict = {}

    def walk(node: Expr) -> Expr:
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Const):
            out = node
        elif isinstance(node, Name):
            out = leaf(node)
        elif isinstance(node, Add):
            out = add(*[walk(a) for a in node.args])
        elif isinstance(node, Mul):
            out = mul(*[walk(a) for a in node.args])
        elif isinstance(node, Pow):
            out = pow_(walk(node.base), node.exp)
        else:
            out = div(walk(node.num), walk(node.den))
        memo[id(node)] = out
        return out

    return walk(e)
