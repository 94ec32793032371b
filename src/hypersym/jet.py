"""Jet-space calculus: total derivatives D_x, D_y modulo u_xy = F.

Mixed derivatives are never materialized: D_x(v_1) = F, D_x(v_j) =
D_y^{j-1}(F), D_y(u_1) = F, D_y(u_k) = D_x^{k-1}(F), with the iterated
tables memoized per equation.  Derivatives are built as expression trees
(shared subtrees are differentiated once), so the same machinery drives the
exact normal-form residuals and the independent numeric sampling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import JetOrderError, UnknownNameError
from .expr import tree
from .expr.context import AUX, PARAM, TSYM, XJET, YJET, Context, std_context
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
        if ctx.is_alg(nm):
            arg = ctx.alg(nm).arg
            if arg is None or arg in allowed:
                continue
            raise ValueError(f"{what}: symbol {nm} has argument {arg}, "
                             f"outside {sorted(allowed)}")
        v = ctx.base(nm)
        if v.kind == PARAM:
            continue
        if v.kind == TSYM and v.arg in allowed:
            continue
        raise ValueError(f"{what}: variable {nm} outside {sorted(allowed)}")


class JetEngine:
    """Total-derivative engine for one hyperbolic equation.

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

    def _dx_name(self, nm: str) -> Expr:
        ctx = self.ctx
        if nm in self.custom_dx:
            return self.custom_dx[nm]
        if ctx.is_alg(nm):
            s = ctx.alg(nm)
            if s.arg is None:
                return tree.ZERO
            return tree.mul(s.derivative, self._dx_name(s.arg))
        v = ctx.base(nm)
        if v.kind == XJET:
            if v.order >= ctx.max_x_jet:
                raise JetOrderError(
                    f"D_x({nm}) exceeds max_x_jet={ctx.max_x_jet}")
            return Name(ctx.xjet(v.order + 1))
        if v.kind == YJET:
            if v.order == 1:
                return self.eq.F
            return self.dyk_F(v.order - 1)
        if v.kind == TSYM:
            return tree.mul(v.derivative, self._dx_name(v.arg))
        return tree.ZERO  # parameters and auxiliaries are constants

    def _dy_name(self, nm: str) -> Expr:
        ctx = self.ctx
        if nm in self.custom_dy:
            return self.custom_dy[nm]
        if ctx.is_alg(nm):
            s = ctx.alg(nm)
            if s.arg is None:
                return tree.ZERO
            return tree.mul(s.derivative, self._dy_name(s.arg))
        v = ctx.base(nm)
        if v.kind == YJET:
            if v.order >= ctx.max_y_jet:
                raise JetOrderError(
                    f"D_y({nm}) exceeds max_y_jet={ctx.max_y_jet}")
            return Name(ctx.yjet(v.order + 1))
        if v.kind == XJET:
            if v.order == 0:
                return Name("v1")
            if v.order == 1:
                return self.eq.F
            return self.dxk_F(v.order - 1)
        if v.kind == TSYM:
            return tree.mul(v.derivative, self._dy_name(v.arg))
        return tree.ZERO

    # total derivatives --------------------------------------------------------

    def d_x(self, e: Expr) -> Expr:
        return self._total(e, self._memo_x, self._dx_name)

    def d_y(self, e: Expr) -> Expr:
        return self._total(e, self._memo_y, self._dy_name)

    def _total(self, e: Expr, memo: Dict[int, Tuple[Expr, Expr]], name_rule) -> Expr:
        def go(x: Expr) -> Expr:
            hit = memo.get(id(x))
            if hit is not None:
                return hit[1]
            if isinstance(x, Const):
                r = tree.ZERO
            elif isinstance(x, Name):
                r = name_rule(x.name)
            elif isinstance(x, Add):
                r = tree.add(*[go(t) for t in x.args])
            elif isinstance(x, Mul):
                parts = []
                for i, fi in enumerate(x.args):
                    dfi = go(fi)
                    if dfi == tree.ZERO:
                        continue
                    rest = x.args[:i] + x.args[i + 1:]
                    parts.append(tree.mul(dfi, *rest))
                r = tree.add(*parts) if parts else tree.ZERO
            elif isinstance(x, Pow):
                db = go(x.base)
                if db == tree.ZERO:
                    r = tree.ZERO
                else:
                    r = tree.mul(Const(x.exp), tree.pow_(x.base, x.exp - 1), db)
            elif isinstance(x, Div):
                dn, dd = go(x.num), go(x.den)
                if dd == tree.ZERO:
                    r = tree.div(dn, x.den)
                else:
                    r = tree.sub(tree.div(dn, x.den),
                                 tree.div(tree.mul(x.num, dd), tree.pow_(x.den, 2)))
            else:
                raise TypeError(f"cannot differentiate {type(x).__name__}")
            memo[id(x)] = (x, r)
            return r

        return go(e)


class NFJet:
    """Total derivatives acting on normal forms, for the exact residuals.

    Same reduction rules as JetEngine, but every rule and result is a normal
    form, so large residuals are expanded incrementally instead of as one
    giant tree.  custom_dx / custom_dy map variable names to normal-form
    overrides, consulted before the standard rules.
    """

    def __init__(self, eq: HyperbolicEq, custom_dx=None, custom_dy=None):
        from .expr import normal as _n
        self._n = _n
        self.eq = eq
        self.ctx = eq.ctx
        self.F = _n.normalize(eq.ctx, eq.F)
        self.custom_dx = {k: v for k, v in (custom_dx or {}).items()}
        self.custom_dy = {k: v for k, v in (custom_dy or {}).items()}
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
            if ctx.is_alg(nm):
                arg = ctx.alg(nm).arg
                if arg is not None:
                    out.add(arg)
                continue
            v = ctx.base(nm)
            if v.kind == TSYM:
                if v.arg is not None:
                    out.add(v.arg)
            elif v.kind in (XJET, YJET):
                out.add(nm)
            elif v.kind == AUX:
                out.add(nm)
        return sorted(out)

    def _dx_rule(self, nm: str):
        ctx, n = self.ctx, self._n
        if nm in self.custom_dx:
            return self.custom_dx[nm]
        v = ctx.base(nm)
        if v.kind == XJET:
            if v.order >= ctx.max_x_jet:
                raise JetOrderError(f"D_x({nm}) exceeds max_x_jet={ctx.max_x_jet}")
            return n.nf_base(ctx, ctx.xjet(v.order + 1))
        if v.kind == YJET:
            return self.F if v.order == 1 else self.dyk_F(v.order - 1)
        return n.nf_zero(ctx)

    def _dy_rule(self, nm: str):
        ctx, n = self.ctx, self._n
        if nm in self.custom_dy:
            return self.custom_dy[nm]
        v = ctx.base(nm)
        if v.kind == YJET:
            if v.order >= ctx.max_y_jet:
                raise JetOrderError(f"D_y({nm}) exceeds max_y_jet={ctx.max_y_jet}")
            return n.nf_base(ctx, ctx.yjet(v.order + 1))
        if v.kind == XJET:
            if v.order == 0:
                return n.nf_base(ctx, "v1")
            return self.F if v.order == 1 else self.dxk_F(v.order - 1)
        return n.nf_zero(ctx)

    def d_x(self, a):
        n = self._n
        terms = []
        for nm in self._vars_to_derive(a):
            p = n.nf_partial(self.ctx, a, nm)
            if p:
                r = self._dx_rule(nm)
                if r:
                    terms.append(n.nf_mul(self.ctx, p, r))
        return n.nf_sum(self.ctx, terms)

    def d_y(self, a):
        n = self._n
        terms = []
        for nm in self._vars_to_derive(a):
            p = n.nf_partial(self.ctx, a, nm)
            if p:
                r = self._dy_rule(nm)
                if r:
                    terms.append(n.nf_mul(self.ctx, p, r))
        return n.nf_sum(self.ctx, terms)


_ENGINES: Dict[tuple, JetEngine] = {}


def _engine(eq: HyperbolicEq) -> JetEngine:
    key = (eq.id, id(eq.ctx), tuple(sorted((k, repr(v)) for k, v in eq.params.items())),
           id(eq.F))
    eng = _ENGINES.get(key)
    if eng is None:
        eng = JetEngine(eq)
        _ENGINES[key] = eng
    return eng


def d_x(e: Expr, eq: HyperbolicEq) -> Expr:
    """Total x-derivative modulo u_xy = F and its consequences."""
    return _engine(eq).d_x(e)


def d_y(e: Expr, eq: HyperbolicEq) -> Expr:
    """Total y-derivative modulo u_xy = F and its consequences."""
    return _engine(eq).d_y(e)


def swap_xy(e: Expr, ctx: Optional[Context] = None) -> Expr:
    """Exchange the roles of x and y: u_k <-> v_k, each symbol replaced by
    its registered mirror.  Raises when a name has no mirror."""
    ctx = ctx or std_context()
    table: Dict[str, str] = {}
    for nm in free_names(e):
        resolved = ctx.resolve(nm)
        m = ctx.mirror_of(resolved)
        if m is None:
            raise UnknownNameError(f"{nm!r} has no mirror under x <-> y")
        table[nm] = m
    return map_names(e, table)


def partial(e: Expr, var: str, ctx: Optional[Context] = None) -> Expr:
    """Partial derivative w.r.t. one jet variable, with chain rules through
    the registered symbols of that variable; all other jet variables fixed."""
    ctx = ctx or std_context()
    var = ctx.resolve(var)
    memo: Dict[int, Tuple[Expr, Expr]] = {}

    def dname(nm: str) -> Expr:
        nm = ctx.resolve(nm)
        if nm == var:
            return tree.ONE
        if ctx.is_alg(nm):
            s = ctx.alg(nm)
            if s.arg is None:
                return tree.ZERO
            return tree.mul(s.derivative, dname(s.arg))
        v = ctx.base(nm)
        if v.kind == TSYM:
            return tree.mul(v.derivative, dname(v.arg))
        return tree.ZERO

    def go(x: Expr) -> Expr:
        hit = memo.get(id(x))
        if hit is not None:
            return hit[1]
        if isinstance(x, Const):
            r = tree.ZERO
        elif isinstance(x, Name):
            r = dname(x.name)
        elif isinstance(x, Add):
            r = tree.add(*[go(t) for t in x.args])
        elif isinstance(x, Mul):
            parts = []
            for i, fi in enumerate(x.args):
                dfi = go(fi)
                if dfi == tree.ZERO:
                    continue
                rest = x.args[:i] + x.args[i + 1:]
                parts.append(tree.mul(dfi, *rest))
            r = tree.add(*parts) if parts else tree.ZERO
        elif isinstance(x, Pow):
            db = go(x.base)
            r = tree.ZERO if db == tree.ZERO else tree.mul(
                Const(x.exp), tree.pow_(x.base, x.exp - 1), db)
        elif isinstance(x, Div):
            dn, dd = go(x.num), go(x.den)
            if dd == tree.ZERO:
                r = tree.div(dn, x.den)
            else:
                r = tree.sub(tree.div(dn, x.den),
                             tree.div(tree.mul(x.num, dd), tree.pow_(x.den, 2)))
        else:
            raise TypeError(f"cannot differentiate {type(x).__name__}")
        memo[id(x)] = (x, r)
        return r

    return go(e)
