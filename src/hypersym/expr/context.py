"""Variable and symbol registry: the one description of the symbol tower.

A Context keeps every registered name as one SymbolDef record in one table:
the base variables (jet variables, transcendental symbols, auxiliary names,
parameters) and the algebraic symbols with their minimal polynomials.  The
two kinds keep their own ordered lists, base_vars and alg_syms, because the
polynomial layer packs each into its own layout.  Each definition in
default_context carries everything
the other layers know about its symbol: the relation (minimal polynomial),
the derivative rule with respect to its argument, the call form used by the
parser and printer, the mirror under x <-> y, and, for a base variable, the
band the numeric sampler draws it from.  The jet engines, the normal form,
the sampler and swap_xy read these fields instead of branching on symbol
names.  What numeval still does by hand, the Weierstrass closure of
(W, P, c), is a sampling algorithm, not a fact of one symbol.  Contexts are
read-only after construction; the lazy caches hanging off one behave as
pure functions of it.

Binding parameters (Context.bind) decides the symbol identities the
bindings create, in one place: a symbol whose relation becomes that of an
earlier symbol with the same argument is aliased to it, and a symbol whose
relation becomes reducible is refused when a normal form first uses it
(normal._rewrite_table), since it would no longer generate a field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..errors import JetOrderError, UnknownNameError
from . import tree
from .poly import Layout
from .tree import Const, Expr, Name

XJET = "xjet"
YJET = "yjet"
PARAM = "param"
AUX = "aux"
TSYM = "tsym"  # transcendental symbol: lives in coefficients, has a chain rule
ALG = "alg"  # algebraic symbol: a root of its minimal polynomial

# sampling band of a free base variable; numeval draws each one from its band
SIGNED = "signed"  # [-2, -1/2] or [1/2, 2]
POSITIVE = "positive"  # [1/2, 2]
# [1/2, 0.9] or [1.1, 2]: a logarithm, an inverse square root or a root
# branch of the variable would degenerate at 0 or at 1
POSITIVE_AWAY_FROM_ONE = "positive-away-from-one"


class SymbolDef:
    """One registered name: a base variable, or an algebraic symbol (kind
    ALG, finite degree over the base-variable field).  index is the name's
    position in its own layout, base_vars or alg_syms.  link is the
    (argument, derivative rule) pair Context.chain returns, made once here
    since the jet engines ask for it on every op; None for a name without a
    chain rule."""

    __slots__ = ("name", "index", "kind", "order", "arg", "derivative", "call",
                 "mirror", "band", "minpoly_coeffs", "degree", "link")

    def __init__(self, name: str, kind: str, order: int = -1,
                 arg: Optional[str] = None, derivative: Optional[Expr] = None,
                 call: Optional[Tuple[str, Expr]] = None,
                 mirror: Optional[str] = None, band: str = SIGNED,
                 minpoly_coeffs: Tuple[Expr, ...] = ()):
        self.name = name
        self.index = -1  # set by Context._add
        self.kind = kind
        self.order = order
        self.arg = arg
        self.derivative = derivative
        self.call = call
        self.mirror = mirror
        self.band = band
        self.minpoly_coeffs = minpoly_coeffs
        self.degree = len(minpoly_coeffs) - 1
        self.link = (arg, derivative) if kind in (TSYM, ALG) else None

    @property
    def minpoly_expr(self) -> Expr:
        s = Name(self.name)
        out = tree.ZERO
        for k, c in enumerate(self.minpoly_coeffs):
            out = out + c * s ** k
        return out

    def __repr__(self):
        return f"SymbolDef({self.name})"


class Context:
    def __init__(self, max_x_jet: int = 10, max_y_jet: int = 6,
                 max_terms: int = 2_000_000):
        self.max_x_jet = max_x_jet
        self.max_y_jet = max_y_jet
        self.max_terms = max_terms
        self.base_vars: List[SymbolDef] = []
        self.alg_syms: List[SymbolDef] = []
        self._defs: Dict[str, SymbolDef] = {}  # every name, in registration order
        self._aliases: Dict[str, str] = {}
        self.layout: Optional[Layout] = None
        self.alg_layout: Optional[Layout] = None
        self.alg_over = 0  # Layout.over_offset of the symbol degrees
        self.bound: Dict[str, Fraction] = {}
        # lazy caches, filled by the normal-form layer
        self._deriv_nf: Dict[str, object] = {}
        self._reduction: Dict[Tuple[int, int], object] = {}
        self._minpoly_nf: Dict[int, tuple] = {}
        # an equation's exact normal forms, keyed on its tree (trees compare
        # structurally), filled by jet.nf_jet and verify's flow memo
        self._nf_jets: Dict[Expr, object] = {}
        self._flow_nf: Dict[Expr, object] = {}
        self._factor_intern: Dict[tuple, object] = {}
        self.den_atoms: List[object] = []
        # symbol -> compiled minimal-polynomial coefficients, filled by numeval
        self._minpoly_progs: Dict[object, object] = {}
        self._bind_cache: Dict[tuple, "Context"] = {}

    # -- construction ------------------------------------------------------

    def add_base(self, name: str, kind: str, order: int = -1,
                 arg: Optional[str] = None, derivative: Optional[Expr] = None,
                 call: Optional[Tuple[str, Expr]] = None,
                 mirror: Optional[str] = None, band: str = SIGNED) -> SymbolDef:
        """A base variable; it mirrors to itself unless mirror is given."""
        return self._add(SymbolDef(name, kind, order, arg, derivative, call,
                                   name if mirror is None else mirror, band))

    def add_alg(self, name: str, arg: Optional[str], derivative: Optional[Expr],
                minpoly_coeffs: Tuple[Expr, ...],
                call: Optional[Tuple[str, Expr]] = None,
                mirror: Optional[str] = None) -> SymbolDef:
        """An algebraic symbol; mirror None means it has no mirror."""
        return self._add(SymbolDef(name, ALG, arg=arg, derivative=derivative,
                                   call=call, mirror=mirror,
                                   minpoly_coeffs=tuple(minpoly_coeffs)))

    def _add(self, d: SymbolDef) -> SymbolDef:
        if d.name in self._defs:
            raise ValueError(f"duplicate name {d.name}")
        layout = self.alg_syms if d.kind == ALG else self.base_vars
        d.index = len(layout)
        layout.append(d)
        self._defs[d.name] = d
        return d

    def add_alias(self, alias: str, target: str) -> None:
        self._aliases[alias] = target

    def freeze(self) -> None:
        self.layout = Layout(len(self.base_vars))
        self.alg_layout = Layout(len(self.alg_syms))
        self.alg_over = self.alg_layout.over_offset(
            [s.degree for s in self.alg_syms])

    # -- lookup ------------------------------------------------------------

    def resolve(self, name: str) -> str:
        return self._aliases.get(name, name)

    def base(self, name: str) -> SymbolDef:
        v = self._defs.get(self.resolve(name))
        if v is None or v.kind == ALG:
            raise UnknownNameError(f"unknown base variable {name!r}")
        return v

    def alg(self, name: str) -> SymbolDef:
        s = self._defs.get(name)
        if s is None or s.kind != ALG:
            raise UnknownNameError(f"unknown algebraic symbol {name!r}")
        return s

    def is_base(self, name: str) -> bool:
        v = self._defs.get(self.resolve(name))
        return v is not None and v.kind != ALG

    def is_alg(self, name: str) -> bool:
        s = self._defs.get(name)
        return s is not None and s.kind == ALG

    def chain(self, name: str) -> Optional[Tuple[Optional[str], Optional[Expr]]]:
        """(argument, derivative rule) of a transcendental or algebraic
        symbol, so that D(name) = rule * D(argument); None for every other
        name.  An argument-free symbol (sc) gives (None, None)."""
        d = self._defs.get(name)
        return d.link if d is not None else None

    def xjet(self, k: int) -> str:
        if k == 0:
            return "u"
        if k > self.max_x_jet:
            raise JetOrderError(f"x-jet order {k} exceeds max_x_jet={self.max_x_jet}")
        return f"u{k}"

    def yjet(self, k: int) -> str:
        if k < 1 or k > self.max_y_jet:
            raise JetOrderError(f"y-jet order {k} exceeds max_y_jet={self.max_y_jet}")
        return f"v{k}"

    def jet_rule(self, axis: str, name: str):
        """The total derivative D_axis (axis "x" or "y") of a base variable
        modulo u_xy = F: the name of the next jet variable on the axis's own
        side (D_x(u_k) = u_{k+1}, D_y(u) = v1), an int k for D_other^k F on
        the other side (D_x(v_k) = D_y^{k-1}F), or None for a constant.
        Past the axis's jet range it raises JetOrderError."""
        v = self.base(name)
        own, top, step = ((XJET, self.max_x_jet, self.xjet) if axis == "x"
                          else (YJET, self.max_y_jet, self.yjet))
        if v.kind == own:
            if v.order >= top:
                raise JetOrderError(
                    f"D_{axis}({name}) exceeds max_{axis}_jet={top}")
            return step(v.order + 1)
        if v.kind != XJET and v.kind != YJET:
            return None
        return step(1) if v.order == 0 else v.order - 1

    def symbols_with_arg(self, var_name: str) -> List[SymbolDef]:
        """All symbols (transcendental and algebraic) whose argument is var_name."""
        return [d for d in self._defs.values()
                if d.link is not None and d.arg == var_name]

    def mirror_of(self, name: str) -> Optional[str]:
        """swap_xy image of a name, or None when no mirror is registered in
        this context (u_k past the y-jet range mirrors to an absent v_k)."""
        d = self._defs.get(self.resolve(name))
        m = d.mirror if d is not None else None
        return m if m in self._defs else None

    # -- call forms for the parser / printer --------------------------------

    def call_table(self) -> Dict[Tuple[str, Expr], str]:
        return {d.call: d.name for d in self._defs.values()
                if d.call is not None}

    def call_form(self, name: str) -> Optional[Tuple[str, Expr]]:
        d = self._defs.get(name)
        return d.call if d is not None else None

    # -- parameter binding ---------------------------------------------------

    def bind(self, bindings: Dict[str, Fraction]) -> "Context":
        """A derived context with parameters fixed to exact rationals.

        Symbol derivative rules and minimal polynomials have the binding
        substituted, so reduction happens against the specialized relations.
        The variable layout is unchanged (bound parameters simply no longer
        occur).  Twin symbols, those whose argument and specialized relation
        equal an earlier-registered symbol's, are aliased to it: at a = 1,
        fa -> fy and fax -> f; at b = 0, fb -> fa and rb -> ry.  A relation
        the binding makes reducible (sc at a rational square c, the fa
        cubics at a = 0) is refused by the first normal form that uses its
        symbol, with AdmissibilityError.
        """
        items = tuple(sorted((k, Fraction(v)) for k, v in bindings.items()))
        if not items:
            return self
        cached = self._bind_cache.get(items)
        if cached is not None:
            return cached
        for k, _ in items:
            v = self._defs.get(k)
            if v is None or v.kind != PARAM:
                raise UnknownNameError(f"{k!r} is not a bindable parameter")
        subs = {k: Const(v) for k, v in items}
        ctx = Context(self.max_x_jet, self.max_y_jet, self.max_terms)
        for d in self._defs.values():
            ctx._add(SymbolDef(
                d.name, d.kind, d.order, d.arg,
                tree.substitute(d.derivative, subs) if d.derivative is not None else None,
                d.call, d.mirror, d.band,
                tuple(tree.substitute(c, subs) for c in d.minpoly_coeffs)))
        ctx._aliases = dict(self._aliases)
        ctx.freeze()
        from . import normal as N  # normal imports this module

        def same_relation(s: SymbolDef, t: SymbolDef) -> bool:
            return (s.arg == t.arg and s.degree == t.degree and all(
                N.nf_equal(ctx, p, q)
                for p, q in zip(N.minpoly_nf(ctx, s), N.minpoly_nf(ctx, t))))

        canonical: List[SymbolDef] = []
        for s in ctx.alg_syms:
            twin = next((t for t in canonical if same_relation(s, t)), None)
            if twin is None:
                canonical.append(s)
            else:
                ctx._aliases[s.name] = twin.name
        ctx.bound = dict(self.bound)
        ctx.bound.update({k: v for k, v in items})
        self._bind_cache[items] = ctx
        return ctx


_STD: Optional[Context] = None


def std_context() -> Context:
    """Process-wide shared default context."""
    global _STD
    if _STD is None:
        _STD = default_context()
    return _STD


def default_context(max_x_jet: int = 10, max_y_jet: int = 6,
                    max_terms: int = 2_000_000) -> Context:
    """The standard registry used by the catalog and the verifier."""
    ctx = Context(max_x_jet, max_y_jet, max_terms)
    u = Name("u")
    u1 = Name("u1")
    v1 = Name("v1")

    ctx.add_base("u", XJET, 0)
    for k in range(1, max_x_jet + 1):
        ctx.add_base(f"u{k}", XJET, k, mirror=f"v{k}",
                     band=POSITIVE_AWAY_FROM_ONE if k == 1 else SIGNED)
    for k in range(1, max_y_jet + 1):
        ctx.add_base(f"v{k}", YJET, k, mirror=f"u{k}",
                     band=POSITIVE_AWAY_FROM_ONE if k == 1 else SIGNED)
    ctx.add_alias("uy", "v1")
    ctx.add_alias("uyy", "v2")
    ctx.add_alias("uyyy", "v3")
    ctx.add_alias("u0", "u")

    ctx.add_base("E", TSYM, arg="u", derivative=Name("E"), call=("exp", u))
    ctx.add_base("V", AUX, band=POSITIVE_AWAY_FROM_ONE)
    ctx.add_base("W", TSYM, arg="u", derivative=Name("P"), call=("w", u))
    ctx.add_base("L", TSYM, arg="u1", derivative=1 / u1, call=("ln", u1),
                 mirror="Ly")
    ctx.add_base("Ly", TSYM, arg="v1", derivative=1 / v1, call=("ln", v1),
                 mirror="L")
    ctx.add_base("phi", AUX)
    ctx.add_base("s", AUX)
    for p in ("C2", "a", "b", "c", "lam1", "lam2", "mu", "mu1", "mu2"):
        ctx.add_base(p, PARAM, band=POSITIVE if p == "b" else SIGNED)

    one = Const(1)

    def cubic(t: Expr, kappa: Expr) -> Tuple[Expr, ...]:
        # 2*s^3 + 3*t*s^2 - t^3 + kappa, the expanded (s+t)^2 (2s-t) + kappa
        return (kappa - t ** 3, tree.ZERO, 3 * t, Const(2))

    a3 = Name("a") ** 3
    vb = v1 + Name("b")

    ctx.add_alg("r", "u1", 1 / (2 * Name("r")), (-u1, tree.ZERO, one),
                call=("sqrt", u1), mirror="ry")
    ctx.add_alg("ry", "v1", 1 / (2 * Name("ry")), (-v1, tree.ZERO, one),
                call=("sqrt", v1), mirror="r")
    ctx.add_alg("f", "u1", (u1 - Name("f")) / (2 * Name("f")),
                cubic(u1, one), call=("f", u1), mirror="fy")
    ctx.add_alg("fy", "v1", (v1 - Name("fy")) / (2 * Name("fy")),
                cubic(v1, one), call=("f", v1), mirror="f")
    ctx.add_alg("fa", "v1", (v1 - Name("fa")) / (2 * Name("fa")),
                cubic(v1, a3), call=("fa", v1), mirror="fax")
    ctx.add_alg("fax", "u1", (u1 - Name("fax")) / (2 * Name("fax")),
                cubic(u1, a3), call=("fa", u1), mirror="fa")
    ctx.add_alg("fb", "v1", (vb - Name("fb")) / (2 * Name("fb")),
                cubic(vb, a3), call=("fa", vb), mirror=None)
    ctx.add_alg("rb", "v1", 1 / (2 * Name("rb")), (-vb, tree.ZERO, one),
                call=("sqrt", vb), mirror=None)
    ctx.add_alg("P", "u", 6 * Name("W") ** 2,
                (-4 * Name("W") ** 3 - Name("c"), tree.ZERO, one),
                call=("wp", u), mirror="P")
    ctx.add_alg("sc", None, None, (-Name("c"), tree.ZERO, one),
                call=None, mirror="sc")

    ctx.freeze()
    return ctx
