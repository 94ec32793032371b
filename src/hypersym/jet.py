"""Jet-space calculus: total derivatives D_x, D_y modulo u_xy = F.

The equations are HyperbolicEq, u_xy = F(u_x, u_y, u), and EvolutionEq,
u_t = u_5 + G along x only: a claim along y is checked as the x claim
against swap_xy(F).  Each constructor checks the free names of its tree:
each must vary with one of its jet variables, or with none
(Context.depends_on, which also gives NFJet the variables to derive by).

Mixed derivatives are never materialized: D_x(v_1) = F, D_x(v_j) =
D_y^{j-1}(F), D_y(u_1) = F, D_y(u_k) = D_x^{k-1}(F), with the iterated
tables memoized per equation.  NFJet takes them on normal forms, for the
exact residuals and the transform checks, and reduces each D_axis(a) =
sum_v (da/dv) D_axis(v) once, as one sum.  On trees, JetEngine and partial
are adapters over the one derivative engine of the numeric oracle,
numeval._Jet, which takes them on hash-consed ops: a tree is imported into
a table of ops, derived there (equal subterms are differentiated once) and
read back as a tree.  NFJet and _Jet read the same rules (every symbol's
chain rule from Context.chain, every jet variable's from Context.jet_rule)
and never go through each other's terms, so the oracle stays independent
of the normal-form route it checks.  nf_jet keeps one NFJet per context
and F, and nf_flow one NFFlow (the half of the residual that does not read
F) per context and G, so the tables of an equation and the derivatives of
a flow are built once however many partners they are paired with.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional

from .errors import UnknownNameError
from .expr import normal as N
from .expr.context import Context
from .expr.tree import Expr, free_names, map_names


class HyperbolicEq:
    """u_xy = F(u_x, u_y, u) with optional parameter bindings."""

    __slots__ = ("id", "F", "params", "ctx")

    def __init__(self, id: str, F: Expr, params: Optional[dict] = None, *,
                 ctx: Context):
        self.id = id
        self.F = F
        self.params = dict(params or {})
        self.ctx = ctx
        _check_vars(self.ctx, F, {"u", "u1", "v1"}, f"F of {id}")

    def __repr__(self):
        return f"HyperbolicEq({self.id})"


class EvolutionEq:
    """u_t = u_5 + G along x; G holds the lower-order part."""

    __slots__ = ("id", "G", "params", "ctx")

    def __init__(self, id: str, G: Expr, params: Optional[dict] = None, *,
                 ctx: Context):
        self.id = id
        self.G = G
        self.params = dict(params or {})
        self.ctx = ctx
        _check_vars(self.ctx, G, {"u", "u1", "u2", "u3", "u4"}, f"G of {id}")

    def __repr__(self):
        return f"EvolutionEq({self.id})"


def _check_vars(ctx: Context, e: Expr, allowed: set, what: str) -> None:
    """Every free name must vary with one of the allowed jet variables, or
    with none (Context.depends_on)."""
    for nm in sorted(free_names(e)):
        var = ctx.depends_on(nm)
        if var is not None and var not in allowed:
            raise ValueError(f"{what}: {nm} varies with {var}, "
                             f"outside {sorted(allowed)}")


class JetEngine:
    """Total-derivative engine for one hyperbolic equation, on trees: each
    tree is imported into one table of ops, and numeval._Jet derives there
    and reads the result back as a tree.  The S3i transform check uses it,
    because it substitutes into the derived tree.

    custom_dx / custom_dy map variable names to override derivative trees;
    they take precedence over the standard jet rules (S3i adjoins the
    parametrized auxiliary V with them).
    """

    def __init__(self, eq: HyperbolicEq, custom_dx: Optional[Dict[str, Expr]] = None,
                 custom_dy: Optional[Dict[str, Expr]] = None):
        # imported here, so that only the users of the tree engine pay for
        # importing numeval
        from .numeval import _Jet, _Ops
        self.eq = eq
        self.ctx = eq.ctx
        t = self._ops = _Ops()
        custom = {(axis, nm): t.imp(d)
                  for axis, rules in (("x", custom_dx), ("y", custom_dy))
                  for nm, d in (rules or {}).items()}
        self._jet = _Jet(t, eq.ctx, t.imp(eq.F), custom)

    def d_x(self, e: Expr) -> Expr:
        """Total x-derivative modulo u_xy = F and its consequences."""
        return self._ops.tree(self._jet.total("x", self._ops.imp(e)))

    def d_y(self, e: Expr) -> Expr:
        """Total y-derivative modulo u_xy = F and its consequences."""
        return self._ops.tree(self._jet.total("y", self._ops.imp(e)))


class NFJet:
    """Total derivatives acting on normal forms, for the exact residuals.

    Same reduction rules as JetEngine, but every rule and result is a normal
    form, so large residuals are expanded incrementally instead of as one
    giant tree.  d_x and d_y reduce each derivative once, from the unreduced
    terms of every partial times its rule (partial_rules).  The tables
    D_x^k F and D_y^k F and the partials of F are memoized; nf_jet shares
    one NFJet per F and context across verdicts.
    """

    def __init__(self, eq: HyperbolicEq):
        self.ctx = eq.ctx
        self.F = N.normalize(eq.ctx, eq.F)
        self._dxk: List = [self.F]
        self._dyk: List = [self.F]
        self._partials: Dict[str, object] = {}

    def dxk_F(self, k: int):
        while len(self._dxk) <= k:
            self._dxk.append(self.d_x(self._dxk[-1]))
        return self._dxk[k]

    def dyk_F(self, k: int):
        while len(self._dyk) <= k:
            self._dyk.append(self.d_y(self._dyk[-1]))
        return self._dyk[k]

    def partial_F(self, var: str):
        """dF/d(var), with the chain rules of the symbols of var."""
        p = self._partials.get(var)
        if p is None:
            p = self._partials[var] = N.nf_partial(self.ctx, self.F, var)
        return p

    def _rule(self, axis: str, nm: str):
        r = self.ctx.jet_rule(axis, nm)
        if r is None:
            return N.nf_zero(self.ctx)
        if isinstance(r, str):
            return N.nf_base(self.ctx, r)
        return self.dyk_F(r) if axis == "x" else self.dxk_F(r)

    def d_x(self, a):
        return N.nf_sum_products(self.ctx, (), self.partial_rules(a, "x"))

    def d_y(self, a):
        return N.nf_sum_products(self.ctx, (), self.partial_rules(a, "y"))

    def partial_rules(self, a, axis: str) -> List[tuple]:
        """The triples (a, v, D_axis v), over the variables v of a, whose
        terms (da/dv) * D_axis v sum to D_axis a; nf_sum_products collects
        them unreduced, so D_axis a is reduced once."""
        rules = [(nm, self._rule(axis, nm)) for nm in partial_vars(self.ctx, a)]
        return [(a, nm, r) for nm, r in rules if r]

    def pair_rules(self, partials: Dict[str, object], axis: str) -> List[tuple]:
        """The pairs (da/dv, D_axis v), over the partials {v: da/dv} of a
        that nf_partials gives, whose products sum to D_axis a."""
        pairs = []
        for nm, p in partials.items():
            r = self._rule(axis, nm)
            if r:
                pairs.append((p, r))
        return pairs


def partial_vars(ctx: Context, a) -> List[str]:
    """The variables a normal form may depend on, sorted: the jet and
    auxiliary variables its names vary with (Context.depends_on)."""
    names = {ctx.depends_on(nm) for nm in N.nf_free_vars(ctx, a)}
    names.discard(None)
    return sorted(names)


def nf_partials(ctx: Context, a) -> Dict[str, object]:
    """The nonzero partials {v: da/dv} of a normal form, over partial_vars."""
    partials = {nm: N.nf_partial(ctx, a, nm) for nm in partial_vars(ctx, a)}
    return {nm: p for nm, p in partials.items() if p}


def nf_jet(eq: HyperbolicEq) -> NFJet:
    """The NFJet of eq, made once per context and F: every equation whose F
    tree is equal (a bound Catalog.get or swap_xy builds a new one) shares
    its tables, so they must not be changed in place (no normal-form
    operation does)."""
    memo = eq.ctx._nf_jets
    nfj = memo.get(eq.F)
    if nfj is None:
        nfj = memo[eq.F] = NFJet(eq)
    return nfj


class NFFlow:
    """The half of the determining residual that does not read F:
    H = u_5 + G, its nonzero partials, and (made when first read) D_xH
    and its partials.  H lives on x-jets, so D_xH takes the names
    D_x(u_k) = u_{k+1} of Context.jet_rule alone."""

    def __init__(self, G: EvolutionEq):
        self.ctx = ctx = G.ctx
        self.H = N.nf_add(ctx, N.nf_base(ctx, "u5"), N.normalize(ctx, G.G))
        self.partials = nf_partials(ctx, self.H)

    @cached_property
    def dxH(self):
        return N.nf_sum_products(self.ctx, [
            (p, N.nf_base(self.ctx, self.ctx.jet_rule("x", nm)))
            for nm, p in self.partials.items()])

    @cached_property
    def dx_partials(self) -> Dict[str, object]:
        return nf_partials(self.ctx, self.dxH)


def nf_flow(G: EvolutionEq) -> NFFlow:
    """The NFFlow of G, made once per context and G tree (see nf_jet)."""
    memo = G.ctx._flow_nf
    flow = memo.get(G.G)
    if flow is None:
        flow = memo[G.G] = NFFlow(G)
    return flow


def swap_xy(e: Expr, ctx: Context) -> Expr:
    """Exchange the roles of x and y: u_k <-> v_k, each symbol replaced by
    its registered mirror.  Raises when a name has no mirror."""
    table: Dict[str, str] = {}
    for nm in free_names(e):
        m = ctx.mirror_of(nm)
        if m is None:
            raise UnknownNameError(f"{nm!r} has no mirror under x <-> y")
        table[nm] = m
    return map_names(e, table)


def partial(e: Expr, var: str, ctx: Context) -> Expr:
    """Partial derivative w.r.t. one jet variable, with chain rules through
    the registered symbols of that variable; all other jet variables fixed."""
    from .numeval import _Jet, _Ops  # see JetEngine.__init__
    t = _Ops()
    return t.tree(_Jet(t, ctx).partial(t.imp(e), var))
