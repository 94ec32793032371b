"""Jet-space calculus: total derivatives D_x, D_y modulo u_xy = F.

Mixed derivatives are never materialized: D_x(v_1) = F, D_x(v_j) =
D_y^{j-1}(F), D_y(u_1) = F, D_y(u_k) = D_x^{k-1}(F), with the iterated
tables memoized per equation.  JetEngine builds them as expression trees
(shared subtrees are differentiated once), NFJet as normal forms.

D_x, D_y and partial share one tree walker, _derive, and differ only in the
rule applied at a name: every symbol's chain rule comes from Context.chain,
every jet variable's from Context.jet_rule.  NFJet and the numeric oracle
(numeval.residual_program, on its own ops) apply the same rules and never
go through each other's terms, so the oracle stays independent of the
normal-form route it checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import UnknownNameError
from .expr import tree
from .expr.context import AUX, PARAM, XJET, YJET, Context, std_context
from .expr.tree import Add, Const, Div, Expr, Mul, Name, Pow
from .expr.tree import free_names, map_names


class HyperbolicEq:
    """u_xy = F(u_x, u_y, u) with optional parameter bindings."""

    __slots__ = ("id", "F", "params", "ctx")

    def __init__(self, id: str, F: Expr, params: Optional[dict] = None,
                 ctx: Optional[Context] = None, validate: bool = True):
        self.id = id
        self.F = F
        self.params = dict(params or {})
        self.ctx = ctx or std_context()
        if validate:
            _check_vars(self.ctx, F, {"u", "u1", "v1"}, f"F of {id}")

    def __repr__(self):
        return f"HyperbolicEq({self.id})"


class EvolutionEq:
    """u_t = u_5 + G along one axis; G holds the lower-order part."""

    __slots__ = ("id", "G", "direction", "params", "ctx")

    def __init__(self, id: str, G: Expr, direction: str = "x",
                 params: Optional[dict] = None, ctx: Optional[Context] = None,
                 validate: bool = True):
        if direction not in ("x", "y"):
            raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")
        self.id = id
        self.G = G
        self.direction = direction
        self.params = dict(params or {})
        self.ctx = ctx or std_context()
        if validate:
            if direction == "x":
                allowed = {"u", "u1", "u2", "u3", "u4"}
            else:
                allowed = {"u", "v1", "v2", "v3", "v4"}
            _check_vars(self.ctx, G, allowed, f"G of {id}")

    def __repr__(self):
        return f"EvolutionEq({self.id}, {self.direction})"


def _check_vars(ctx: Context, e: Expr, allowed: set, what: str) -> None:
    """Free names must be the allowed jet variables, parameters, or symbols
    whose argument is one of the allowed variables."""
    for nm in sorted(free_names(e)):
        nm = ctx.resolve(nm)
        if nm in allowed:
            continue
        link = ctx.chain(nm)
        if link is not None:
            if link[0] is None or link[0] in allowed:
                continue
            raise ValueError(f"{what}: symbol {nm} has argument {link[0]}, "
                             f"outside {sorted(allowed)}")
        if ctx.base(nm).kind == PARAM:
            continue
        raise ValueError(f"{what}: variable {nm} outside {sorted(allowed)}")


class JetEngine:
    """Total-derivative engine for one hyperbolic equation, on trees, for
    the transform checks and the tree references of the oracle's residual
    (perfbench/make_expected.py and the tests).

    custom_dx / custom_dy map variable names to override derivative trees;
    they take precedence over the standard jet rules (used to adjoin
    parametrized auxiliaries such as V in the transform checks).
    """

    def __init__(self, eq: HyperbolicEq, custom_dx: Optional[Dict[str, Expr]] = None,
                 custom_dy: Optional[Dict[str, Expr]] = None):
        self.eq = eq
        self.ctx = eq.ctx
        self.custom_dx = dict(custom_dx or {})
        self.custom_dy = dict(custom_dy or {})
        self._dxk_F: List[Expr] = [eq.F]
        self._dyk_F: List[Expr] = [eq.F]
        # node-id memos; values keep the key node alive so ids stay valid
        self._memo_x: Dict[int, Tuple[Expr, Expr]] = {}
        self._memo_y: Dict[int, Tuple[Expr, Expr]] = {}

    # iterated derivative tables -------------------------------------------

    def dxk_F(self, k: int) -> Expr:
        while len(self._dxk_F) <= k:
            self._dxk_F.append(self.d_x(self._dxk_F[-1]))
        return self._dxk_F[k]

    def dyk_F(self, k: int) -> Expr:
        while len(self._dyk_F) <= k:
            self._dyk_F.append(self.d_y(self._dyk_F[-1]))
        return self._dyk_F[k]

    # name rules -------------------------------------------------------------

    def _name(self, axis: str, nm: str) -> Expr:
        """D_axis(nm): a custom rule, else the symbol's chain rule, else the
        jet rule of the context."""
        custom = self.custom_dx if axis == "x" else self.custom_dy
        if nm in custom:
            return custom[nm]
        link = self.ctx.chain(nm)
        if link is not None:
            arg, rule = link
            return tree.ZERO if arg is None else tree.mul(rule, self._name(axis, arg))
        r = self.ctx.jet_rule(axis, nm)
        if r is None:
            return tree.ZERO  # parameters and auxiliaries are constants
        if isinstance(r, str):
            return Name(r)
        return self.dyk_F(r) if axis == "x" else self.dxk_F(r)

    # total derivatives --------------------------------------------------------

    def d_x(self, e: Expr) -> Expr:
        """Total x-derivative modulo u_xy = F and its consequences."""
        return _derive(e, self._memo_x, lambda nm: self._name("x", nm))

    def d_y(self, e: Expr) -> Expr:
        """Total y-derivative modulo u_xy = F and its consequences."""
        return _derive(e, self._memo_y, lambda nm: self._name("y", nm))


class NFJet:
    """Total derivatives acting on normal forms, for the exact residuals.

    Same reduction rules as JetEngine, but every rule and result is a normal
    form, so large residuals are expanded incrementally instead of as one
    giant tree.
    """

    def __init__(self, eq: HyperbolicEq):
        from .expr import normal as _n
        self._n = _n
        self.eq = eq
        self.ctx = eq.ctx
        self.F = _n.normalize(eq.ctx, eq.F)
        self._dxk: List = [self.F]
        self._dyk: List = [self.F]

    def dxk_F(self, k: int):
        while len(self._dxk) <= k:
            self._dxk.append(self.d_x(self._dxk[-1]))
        return self._dxk[k]

    def dyk_F(self, k: int):
        while len(self._dyk) <= k:
            self._dyk.append(self.d_y(self._dyk[-1]))
        return self._dyk[k]

    def _vars_to_derive(self, a) -> List[str]:
        ctx = self.ctx
        out = set()
        for nm in self._n.nf_free_vars(ctx, a):
            link = ctx.chain(nm)
            if link is not None:
                if link[0] is not None:
                    out.add(link[0])
            elif ctx.base(nm).kind in (XJET, YJET, AUX):
                out.add(nm)
        return sorted(out)

    def _rule(self, axis: str, nm: str):
        n, r = self._n, self.ctx.jet_rule(axis, nm)
        if r is None:
            return n.nf_zero(self.ctx)
        if isinstance(r, str):
            return n.nf_base(self.ctx, r)
        return self.dyk_F(r) if axis == "x" else self.dxk_F(r)

    def d_x(self, a):
        return self._total(a, "x")

    def d_y(self, a):
        return self._total(a, "y")

    def _total(self, a, axis: str):
        n = self._n
        pairs = []
        for nm in self._vars_to_derive(a):
            p = n.nf_partial(self.ctx, a, nm)
            if p:
                r = self._rule(axis, nm)
                if r:
                    pairs.append((p, r))
        return n.nf_sum_products(self.ctx, pairs)


def swap_xy(e: Expr, ctx: Optional[Context] = None) -> Expr:
    """Exchange the roles of x and y: u_k <-> v_k, each symbol replaced by
    its registered mirror.  Raises when a name has no mirror."""
    ctx = ctx or std_context()
    table: Dict[str, str] = {}
    for nm in free_names(e):
        m = ctx.mirror_of(nm)
        if m is None:
            raise UnknownNameError(f"{nm!r} has no mirror under x <-> y")
        table[nm] = m
    return map_names(e, table)


def partial(e: Expr, var: str, ctx: Optional[Context] = None) -> Expr:
    """Partial derivative w.r.t. one jet variable, with chain rules through
    the registered symbols of that variable; all other jet variables fixed."""
    ctx = ctx or std_context()
    var = ctx.resolve(var)

    def dname(nm: str) -> Expr:
        nm = ctx.resolve(nm)
        if nm == var:
            return tree.ONE
        link = ctx.chain(nm)
        if link is None:
            ctx.base(nm)  # an unregistered name raises; the others are fixed
            return tree.ZERO
        arg, rule = link
        return tree.ZERO if arg is None else tree.mul(rule, dname(arg))

    return _derive(e, {}, dname)


def _derive(e: Expr, memo: Dict[int, Tuple[Expr, Expr]], name_rule) -> Expr:
    """Derivative of a tree by the sum, product, power and quotient rules,
    with name_rule giving the derivative of each name.  memo maps node ids
    to (node, derivative); holding the node keeps its id valid, and shared
    subtrees are differentiated once."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, Const):
        r = tree.ZERO
    elif isinstance(e, Name):
        r = name_rule(e.name)
    elif isinstance(e, Add):
        r = tree.add(*[_derive(t, memo, name_rule) for t in e.args])
    elif isinstance(e, Mul):
        parts = []
        for i, fi in enumerate(e.args):
            dfi = _derive(fi, memo, name_rule)
            if dfi == tree.ZERO:
                continue
            rest = e.args[:i] + e.args[i + 1:]
            parts.append(tree.mul(dfi, *rest))
        r = tree.add(*parts) if parts else tree.ZERO
    elif isinstance(e, Pow):
        db = _derive(e.base, memo, name_rule)
        r = tree.ZERO if db == tree.ZERO else tree.mul(
            Const(e.exp), tree.pow_(e.base, e.exp - 1), db)
    elif isinstance(e, Div):
        dn, dd = _derive(e.num, memo, name_rule), _derive(e.den, memo, name_rule)
        if dd == tree.ZERO:
            r = tree.div(dn, e.den)
        else:
            r = tree.sub(tree.div(dn, e.den),
                         tree.div(tree.mul(e.num, dd), tree.pow_(e.den, 2)))
    else:
        raise TypeError(f"cannot differentiate {type(e).__name__}")
    memo[id(e)] = (e, r)
    return r
