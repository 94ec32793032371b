"""Compatibility machinery for fifth-order symmetries of u_xy = F.

The central object is the determining residual: with H = u_5 + G,

    R = D_x D_y (H) - F_{u_1} D_x(H) - F_{v_1} D_y(H) - F_u H,

reduced to a normal form over {u, u_1..u_6, v_1} and the symbol tower.
The pair (F, G) is compatible exactly when R is identically zero.  The
module also exposes the u_5-coefficient condition, the splitting of that
condition into a pair of lower-order identities once dG/du_4 = 5 u_2 g(u_1),
the second-order ODE test behind the known g/F table, and extraction of the
parameter conditions carried by a nonzero residual.

Every exact verdict here comes from the normal-form route, which takes the
mixed derivative D_xD_yH in whichever order its size estimate says is
cheaper; on the square-free factor base both orders give the same normal
form.  The numeric cross-check in verify_pair rebuilds the residual as a
float program (numeval.residual_program), differentiated on its own ops
from the trees of F and G, so its independence rests on sharing no code
and no normal form with the exact route, not on the derivative order.  The
program always takes D_x(D_yH), as the tree route it replaced did, so the
sampled values do not move.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .catalog import Catalog, PairingClaim
from .errors import HypersymError, LemmaPremiseError
from .expr import normal as N
from .expr import tree
from .expr.context import PARAM, XJET, YJET, Context, default_context, std_context
from .expr.parser import print_expr
from .expr.poly import (
    Layout,
    Poly,
    pmul,
    pscale,
)
from .expr.ratfunc import RatFunc, _den_lcm, rf_from_poly
from .expr.tree import Expr
# partial: unused, kept as the alias perfbench/selftest.py checks is traced
from .jet import EvolutionEq, HyperbolicEq, nf_jet, partial, swap_xy  # noqa: F401

DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def _shared_ctx(F: HyperbolicEq, G: EvolutionEq) -> Context:
    if F.ctx is not G.ctx:
        raise ValueError(
            "F and G must share one context (bind parameters through the "
            "same catalog so the symbol relations agree)")
    return F.ctx


def _flow_nf(ctx: Context, G: EvolutionEq) -> N.NF:
    """H = u_5 + G as a normal form, made once per context and G tree."""
    H = ctx._flow_nf.get(G.G)
    if H is None:
        H = ctx._flow_nf[G.G] = N.nf_add(ctx, N.nf_base(ctx, "u5"),
                                         N.normalize(ctx, G.G))
    return H


def determining_residual(F: HyperbolicEq, G: EvolutionEq) -> N.NF:
    """Normal form of the compatibility residual for u_t = u_5 + G.

    G is a flow along x; for a y-direction claim, pass the x <-> y mirror
    of F (see verify_pair).
    """
    ctx = _shared_ctx(F, G)
    nfj = nf_jet(F)
    H = _flow_nf(ctx, G)
    dxH = nfj.d_x(H)
    dyH = nfj.d_y(H)
    # The mixed derivative in the cheaper order; on a square-free factor
    # base both orders give the same normal form.  D_x's rules are mostly
    # the monomials u_{k+1}, so D_x(D_yH) is costed as 50 * size(D_yH).
    # D_y's rules are the tables D_x^{k-1}F, so D_y(D_xH) is costed as
    # size(D_xH) * sum of size(D_x^kF) over k <= 4.  Those tables already
    # exist (D_y(u5) = D_x^4F); D_x^5F is left out, since the D_x order
    # never needs it.  The factor 50 is fitted: over the 195 hyperbolic x
    # evolution pairs (one process, 2-core x86-64 VM, Python 3.11), every
    # pair where D_x(D_yH) was faster by more than 3 ms has a cost ratio
    # of at least 110 (final2 ev21), and every pair where D_y(D_xH) was,
    # at most 22 (S3 ev21).  Any factor from 25 to 100 reached the
    # best-of-both total, 2.27 s against 3.01 s for D_y(D_xH) alone.
    tables = sum(N.nf_size(nfj.dxk_F(k)) for k in range(5))
    if 50 * N.nf_size(dyH) < N.nf_size(dxH) * tables:
        mixed = nfj.total_terms(dyH, "x")
    else:
        mixed = nfj.total_terms(dxH, "y")
    # R is reduced once: the mixed derivative's products and the three
    # lower-order ones are summed unreduced, and each coefficient is
    # reduced at the end (the reduced form is unique, see normal).
    return N.nf_sum_products(ctx, mixed + [
        (N.nf_neg(ctx, nfj.partial_F("u1")), dxH),
        (N.nf_neg(ctx, nfj.partial_F("v1")), dyH),
        (N.nf_neg(ctx, nfj.partial_F("u")), H)])


# ---------------------------------------------------------------------------
# coefficient reporting
# ---------------------------------------------------------------------------

def _clear_denominators(ctx: Context, R: N.NF
                        ) -> Tuple[Iterator[Tuple[int, Poly]], RatFunc]:
    """Multiply R by the least common denominator of its values.

    Returns (the pairs (alg-monomial, integer polynomial), each made as it
    is read, so that only one is held at a time; the common denominator as
    a RatFunc with numerator 1).  The cleared form vanishes iff R does,
    since denominators are nonzero by construction.
    """
    scalar, fmax = _den_lcm(R.values())
    factors = sorted(fmax.items())

    def cleared():
        for mono, rf in R.items():
            p = pscale(rf.num, scalar // rf.den_scalar)
            have = {fac.fid: e for fac, e in rf.den_factors}
            for fid, (fac, emax) in factors:
                for _ in range(emax - have.get(fid, 0)):
                    p = pmul(p, fac.poly, ctx.layout, ctx.max_terms)
            yield mono, p

    return cleared(), RatFunc({0: 1}, scalar, tuple(fe for _, fe in factors))


def _mono_text(ctx: Context, mono: int, layout, names: Sequence[str]) -> str:
    parts = []
    for i in layout.mono_vars(mono):
        e = layout.exp(mono, i)
        parts.append(names[i] if e == 1 else f"{names[i]}^{e}")
    return "*".join(parts) if parts else "1"


def _base_names(ctx: Context) -> List[str]:
    return [v.name for v in ctx.base_vars]


def _alg_names(ctx: Context) -> List[str]:
    return [s.name for s in ctx.alg_syms]


MAX_REPORTED_COEFFS = 64


def _factor_order(layout: Layout, fac) -> tuple:
    """Print order of a denominator factor: total degree, number of terms,
    then the sorted terms.  Unlike the intern id, it does not depend on
    what ran earlier in the process."""
    return layout.total(max(fac.poly)), len(fac.poly), fac.key


def jet_coefficients(ctx: Context, R: N.NF
                     ) -> Tuple[List[Tuple[str, Expr]], Optional[Expr], int]:
    """Coefficients of the denominator-cleared residual, grouped by jet
    monomial in descending graded-lex order.

    Returns ([(jet monomial text, coefficient expression)], common denominator
    expression or None, number of nonzero coefficients).  The coefficient of
    each jet monomial collects the algebraic-symbol and parameter content;
    all coefficients vanish iff the residual is zero.  Only the first
    MAX_REPORTED_COEFFS groups are turned into expressions.  The count is
    the number of groups: for a fixed algebraic monomial the cleared
    polynomial has distinct monomials, and splitting a monomial into (jet
    part, rest) is injective, so no group can cancel.
    """
    if not R:
        return [], None, 0
    cleared, den = _clear_denominators(ctx, R)
    layout = ctx.layout
    jet_mask = layout.field_mask(
        v.index for v in ctx.base_vars if v.kind in (XJET, YJET))
    groups: Dict[int, Dict[int, Poly]] = {}
    for alg_mono, p in cleared:
        for mono, c in p.items():
            jet = layout.restrict(mono, jet_mask)
            # (jet, rest) is new for this alg_mono: the split is injective
            groups.setdefault(jet, {}).setdefault(alg_mono, {})[mono - jet] = c
    out: List[Tuple[str, Expr]] = []
    for jet in sorted(groups, reverse=True)[:MAX_REPORTED_COEFFS]:
        coeff_nf = {alg_mono: rf_from_poly(ctx, p)
                    for alg_mono, p in groups[jet].items()}
        out.append((_mono_text(ctx, jet, layout, _base_names(ctx)),
                    N.nf_to_expr(ctx, coeff_nf)))
    den_expr: Optional[Expr] = None
    if den.den_scalar != 1 or den.den_factors:
        den_expr = N.nf_to_expr(ctx, {0: RatFunc(
            {0: den.den_scalar}, 1, ())})
        for fac, e in sorted(den.den_factors,
                             key=lambda fe: _factor_order(layout, fe[0])):
            den_expr = tree.mul(den_expr, tree.pow_(
                N._poly_to_expr(ctx, fac.poly), e))
    return out, den_expr, len(groups)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    pairing: Optional[PairingClaim]
    hyperbolic_id: str
    evolution_id: str
    direction: str
    bindings: Tuple[Tuple[str, Fraction], ...]
    residual_is_zero: bool
    residual_term_count: int
    failing_coefficients: List[Tuple[str, str]]  # the first MAX_REPORTED_COEFFS
    failing_total: int  # every nonzero jet coefficient
    cleared_denominator: Optional[str]
    numeric_max_residual: Optional[float]
    numeric_residuals: List[float]
    samples: int
    tolerance: float
    seed: int
    elapsed: float

    @property
    def key(self) -> str:
        parts = [self.hyperbolic_id, self.evolution_id, self.direction]
        parts += [f"{k}={v}" for k, v in self.bindings]
        return " ".join(parts)

    def structured_lines(self) -> List[str]:
        """Stable line-oriented serialization (elapsed deliberately omitted
        so identical runs are byte-identical)."""
        ls = [
            f"pair = {self.key}",
            f"status = {self.pairing.status if self.pairing else 'ad-hoc'}",
            f"residual_is_zero = {str(self.residual_is_zero).lower()}",
            f"residual_term_count = {self.residual_term_count}",
            f"failing_count = {len(self.failing_coefficients)}",
        ]
        for i, (mono, coeff) in enumerate(self.failing_coefficients):
            ls.append(f"failing[{i}].monomial = {mono}")
            ls.append(f"failing[{i}].coefficient = {coeff}")
        if self.cleared_denominator is not None:
            ls.append(f"cleared_denominator = {self.cleared_denominator}")
        ls.append(f"samples = {self.samples}")
        if self.numeric_max_residual is not None:
            ls.append(f"numeric_max_residual = {self.numeric_max_residual!r}")
        ls.append(f"tolerance = {self.tolerance!r}")
        ls.append(f"seed = {self.seed}")
        return ls


def verify_pair(F: HyperbolicEq, G: EvolutionEq, samples: int = 0,
                seed: int = 0, tol: float = DEFAULT_TOL,
                direction: str = "x",
                pairing: Optional[PairingClaim] = None) -> VerificationReport:
    """Exact verdict on the pair plus an independent numeric cross-check.

    For direction 'y' the hyperbolic side is swapped (u_k <-> v_k, mirrored
    symbols) and G is read in x-jets, which is the same claim expressed in
    the swapped coordinates.
    """
    t0 = time.perf_counter()
    if direction not in ("x", "y"):
        raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")
    hyp_id, ev_id = F.id, G.id
    if direction == "y":
        F = HyperbolicEq(F.id, swap_xy(F.F, F.ctx), params=F.params,
                         ctx=F.ctx)
    ctx = _shared_ctx(F, G)
    R = determining_residual(F, G)
    zero = N.nf_is_zero(R)
    count = N.nf_size(R)
    failing: List[Tuple[str, str]] = []
    failing_total = 0
    den_text: Optional[str] = None
    if not zero:
        coeffs, den, failing_total = jet_coefficients(ctx, R)
        failing = [(m, print_expr(c, ctx)) for m, c in coeffs]
        if den is not None:
            den_text = print_expr(den, ctx)
    residuals: List[float] = []
    if samples > 0:
        from . import numeval
        prog = numeval.residual_program(F, G)
        verdict = numeval.numeric_zero(prog, samples, tol, seed, ctx=ctx)
        residuals = verdict.residuals
    bindings = tuple(sorted(
        (k, v) for k, v in {**F.params, **G.params}.items() if v is not None))
    return VerificationReport(
        pairing=pairing,
        hyperbolic_id=hyp_id,
        evolution_id=ev_id,
        direction=direction,
        bindings=bindings,
        residual_is_zero=zero,
        residual_term_count=count,
        failing_coefficients=failing,
        failing_total=failing_total,
        cleared_denominator=den_text,
        numeric_max_residual=(max(residuals) if residuals else None),
        numeric_residuals=residuals,
        samples=samples,
        tolerance=tol,
        seed=seed,
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# u_5 condition and its splitting
# ---------------------------------------------------------------------------

def u5_constraint(F: HyperbolicEq, G: EvolutionEq) -> N.NF:
    """Normal form of D_y(dG/du_4) + 5 D_x(dF/du_1), the coefficient
    condition produced at the top jet order."""
    ctx = _shared_ctx(F, G)
    nfj = nf_jet(F)
    Gu4 = N.nf_partial(ctx, _flow_nf(ctx, G), "u4")  # d(u_5)/du_4 = 0
    return N.nf_add(ctx, nfj.d_y(Gu4),
                    N.nf_scale(ctx, nfj.d_x(nfj.partial_F("u1")), 5))


_G_ALLOWED_KINDS = (PARAM,)


def extract_g(G: EvolutionEq) -> Expr:
    """The function g(u_1) with dG/du_4 = 5 u_2 g(u_1).

    Raises LemmaPremiseError when dG/du_4 is not linear in u_2 or depends on
    jet variables other than u_1."""
    ctx = G.ctx
    Gu4 = N.nf_partial(ctx, N.normalize(ctx, G.G), "u4")
    five_u2 = N.nf_scale(ctx, N.nf_base(ctx, "u2"), 5)
    g = N.nf_mul(ctx, Gu4, N.nf_inverse(ctx, five_u2))
    for nm in sorted(N.nf_free_vars(ctx, g)):
        if nm == "u1":
            continue
        link = ctx.chain(nm)
        if link is not None:
            if link[0] == "u1":
                continue
            raise LemmaPremiseError(
                f"dG/du_4 carries symbol {nm} not based on u_1")
        if ctx.base(nm).kind in _G_ALLOWED_KINDS:
            continue
        raise LemmaPremiseError(
            f"dG/du_4 is not 5*u2*g(u_1): stray variable {nm}")
    return N.nf_to_expr(ctx, g)


@dataclass
class LemmaDecomposition:
    g: Expr
    eq28: N.NF
    eq29: N.NF


def lemma_split(F: HyperbolicEq, g: Expr) -> LemmaDecomposition:
    """Split the top-order condition into its u_2 coefficient and remainder:

        eq28 = F_{u1 u1} + g F_{u1} + g' F
        eq29 = u_1 (F_{u1 u} + g F_u) + F (F_{u1 v1} + g F_{v1})

    and cross-check that 5 (eq28 u_2 + eq29) reproduces the expansion of
    D_y(5 u_2 g) + 5 D_x(F_{u1}) exactly.
    """
    ctx = F.ctx
    gn = N.normalize(ctx, g)
    gp = N.nf_partial(ctx, gn, "u1")
    nfj = nf_jet(F)
    Fn = nfj.F
    Fu1, Fu, Fv1 = (nfj.partial_F(v) for v in ("u1", "u", "v1"))
    Fu1u1 = N.nf_partial(ctx, Fu1, "u1")
    Fu1u = N.nf_partial(ctx, Fu1, "u")
    Fu1v1 = N.nf_partial(ctx, Fu1, "v1")
    eq28 = N.nf_sum(ctx, [Fu1u1, N.nf_mul(ctx, gn, Fu1),
                          N.nf_mul(ctx, gp, Fn)])
    eq29 = N.nf_add(
        ctx,
        N.nf_mul(ctx, N.nf_base(ctx, "u1"),
                 N.nf_add(ctx, Fu1u, N.nf_mul(ctx, gn, Fu))),
        N.nf_mul(ctx, Fn,
                 N.nf_add(ctx, Fu1v1, N.nf_mul(ctx, gn, Fv1))))
    lhs = N.nf_add(
        ctx,
        nfj.d_y(N.nf_scale(ctx, N.nf_mul(ctx, N.nf_base(ctx, "u2"), gn), 5)),
        N.nf_scale(ctx, nfj.d_x(Fu1), 5))
    rhs = N.nf_scale(
        ctx,
        N.nf_add(ctx, N.nf_mul(ctx, eq28, N.nf_base(ctx, "u2")), eq29), 5)
    if not N.nf_equal(ctx, lhs, rhs):
        raise HypersymError(
            "internal cross-check failed: top-order expansion does not match "
            "eq28*u2 + eq29")
    return LemmaDecomposition(g=g, eq28=eq28, eq29=eq29)


def ode_check(w: Expr, g: Expr, ctx: Optional[Context] = None) -> N.NF:
    """Normal form of w'' + g w' + g' w with ' = d/du_1."""
    ctx = ctx or std_context()
    wn = N.normalize(ctx, w)
    gn = N.normalize(ctx, g)
    w1 = N.nf_partial(ctx, wn, "u1")
    w2 = N.nf_partial(ctx, w1, "u1")
    gp = N.nf_partial(ctx, gn, "u1")
    return N.nf_sum(ctx, [w2, N.nf_mul(ctx, gn, w1), N.nf_mul(ctx, gp, wn)])


# ---------------------------------------------------------------------------
# parameter conditions
# ---------------------------------------------------------------------------

def param_conditions(F: HyperbolicEq, G: EvolutionEq) -> List[Tuple[str, Expr]]:
    """Coefficient conditions on the symbolic parameters.

    The denominator-cleared residual is regrouped by its non-parameter
    content (jet variables, transcendental and algebraic symbols); each group
    yields one polynomial in the parameters.  All conditions vanish iff the
    residual is zero, so a candidate binding can be tested by substitution
    into the returned polynomials (or by re-running verify_pair bound).
    """
    ctx = _shared_ctx(F, G)
    R = determining_residual(F, G)
    if not R:
        return []
    cleared, _den = _clear_denominators(ctx, R)
    layout = ctx.layout
    param_mask = layout.field_mask(
        v.index for v in ctx.base_vars if v.kind == PARAM)
    groups: Dict[Tuple[int, int], Poly] = {}
    for alg_mono, p in cleared:
        for mono, c in p.items():
            pm = layout.restrict(mono, param_mask)
            # (pm, rest) is new for this alg_mono: the split is injective
            groups.setdefault((alg_mono, mono - pm), {})[pm] = c
    out: List[Tuple[str, Expr]] = []
    for alg_mono, rest in sorted(groups, key=lambda k: (k[1], k[0]),
                                 reverse=True):
        rest_text = _mono_text(ctx, rest, layout, _base_names(ctx))
        alg_text = _mono_text(ctx, alg_mono, ctx.alg_layout, _alg_names(ctx))
        if alg_text == "1":
            mono_text = rest_text
        elif rest_text == "1":
            mono_text = alg_text
        else:
            mono_text = f"{rest_text}*{alg_text}"
        out.append((mono_text, N._poly_to_expr(ctx, groups[(alg_mono, rest)])))
    return out


def conditions_hold(conditions: Sequence[Tuple[str, Expr]],
                    bindings: Dict[str, object],
                    ctx: Optional[Context] = None) -> bool:
    """Substitute a candidate parameter binding into every condition."""
    ctx = ctx or std_context()
    subs = {k: tree.Const(Fraction(v)) for k, v in bindings.items()}
    for _mono, cond in conditions:
        val = N.normalize(ctx, tree.substitute(cond, subs))
        if not N.nf_is_zero(val):
            return False
    return True


# ---------------------------------------------------------------------------
# batch verification
# ---------------------------------------------------------------------------

def verify_claim(catalog: Catalog, claim: PairingClaim, samples: int = 0,
                 seed: int = 0, tol: float = DEFAULT_TOL) -> VerificationReport:
    bindings = dict(claim.bindings)
    F = catalog.get(claim.hyperbolic_id, bindings)
    G = catalog.get(claim.evolution_id, bindings)
    return verify_pair(F, G, samples=samples, seed=seed, tol=tol,
                       direction=claim.direction, pairing=claim)


_WORKER_CATALOG: Optional[Catalog] = None


def _worker_init(paths: Tuple[str, ...], limits: Tuple[int, int, int]) -> None:
    global _WORKER_CATALOG
    _WORKER_CATALOG = Catalog(paths, ctx=default_context(*limits))


def _worker_run(args) -> VerificationReport:
    claim, samples, seed, tol = args
    return verify_claim(_WORKER_CATALOG, claim, samples, seed, tol)


def verify_all(catalog: Catalog, samples: int = 0, seed: int = 0,
               tol: float = DEFAULT_TOL,
               jobs: int = 0) -> List[VerificationReport]:
    """Verify every pairing claim of catalog, deterministically ordered by
    pairing id.  With jobs <= 1 the catalog itself is verified in this
    process; jobs > 1 fans the independent checks out over processes, each
    of which rebuilds the catalog from its recorded sources (catalog.paths)
    on a standard context with the limits of catalog.ctx (max_x_jet,
    max_y_jet, max_terms).  The output order does not depend on
    completion order."""
    claims = sorted(catalog.pairings(), key=lambda c: c.key)
    if jobs <= 0:
        import os
        jobs = min(len(claims), os.cpu_count() or 1, 8)
    if jobs <= 1 or len(claims) <= 1:
        return [verify_claim(catalog, c, samples, seed, tol) for c in claims]
    import multiprocessing as mp
    ctx = catalog.ctx
    with mp.Pool(processes=min(jobs, len(claims)),
                 initializer=_worker_init,
                 initargs=(tuple(catalog.paths),
                           (ctx.max_x_jet, ctx.max_y_jet, ctx.max_terms))) as pool:
        return pool.map(_worker_run, [(c, samples, seed, tol) for c in claims])
