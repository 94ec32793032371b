"""Checks of the substitutions shipped with the catalog.

Each transform definition names a source equation, a target form, the
defining relations, and a finite list of sign/branch conventions.  The
checker turns every convention into a set of exact identities in the
symbol tower — computing both cross-derivatives where the relations define
the new dependent variable implicitly, and reducing modulo the source
equation — and reports which convention annihilates all of them, together
with any constant coefficients it fitted along the way.

check_transform(tid, catalog) is the one entry point: it looks the
definition up by id, runs its checker, which returns one ConventionResult
per convention, and builds the TransformReport.  check_all maps it over
the sorted ids.

Total derivatives are taken on normal forms by the equation's shared
jet.nf_jet, so the D_x^k F and D_y^k F tables that the verdicts built are
reused and each derived form is reduced once.  Only S3i derives trees
(jet.JetEngine): it adjoins V with its own rules and substitutes into the
derived tree, which a normal form cannot take.

Also here: the cubic-curve parametrization identity, the scaling law that
normalizes the constant of the fa-cubic to one, and the point identities
behind S4S1, S5S3 and the reduced four-equation list, each a source
equation at fixed parameters with x and y exchanged where marked.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .catalog import Catalog
from .errors import TransformError
from .expr import normal as N
from .expr import tree
from .expr.context import Context
from .expr.parser import print_expr, print_nf
from .expr.tree import Const, Expr, Name
from .jet import HyperbolicEq, JetEngine, nf_jet, swap_xy

# Printed values in reports are suppressed above this size; the exact term
# count is always reported.
MAX_PRINTED_TERMS = 12


# ---------------------------------------------------------------------------
# definitions
# ---------------------------------------------------------------------------

class TransformDef(NamedTuple):
    """One substitution claim: source entry, target form, defining
    relations, and the finite set of sign/branch conventions to try."""

    id: str
    source: str
    target_text: str
    relations: Tuple[str, ...]
    conventions: Tuple[str, ...]
    unknowns: Tuple[str, ...]
    investigative: bool


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _validate_relations(t: TransformDef, ctx: Context) -> None:
    call_heads = {cf for (cf, _arg) in ctx.call_table()}
    allowed = set(t.unknowns)
    for rel in t.relations:
        for nm in _IDENT.findall(rel):
            if nm in allowed or nm in call_heads:
                continue
            if ctx.is_base(nm) or ctx.is_alg(nm):
                continue
            raise TransformError(
                f"{t.id}: relation {rel!r} references unregistered "
                f"name {nm!r}")


def _as_lines(value, field: str, tid: str) -> Tuple[str, ...]:
    if isinstance(value, list):
        return tuple(value)
    raise TransformError(f"{tid}: field {field!r} must be a block")


def load_transforms(catalog: Catalog) -> Dict[str, TransformDef]:
    """Transform definitions from the catalog's data files, validated."""
    out: Dict[str, TransformDef] = {}
    for tid, fields in catalog.transform_texts.items():
        source = str(fields.get("source", ""))
        if source not in catalog.entries:
            raise TransformError(
                f"{tid}: source {source!r} is not a catalog entry")
        conventions = _as_lines(fields.get("conventions", []),
                                "conventions", tid)
        if not conventions:
            raise TransformError(f"{tid}: conventions must be nonempty")
        unknowns_field = str(fields.get("unknowns", ""))
        unknowns = tuple(
            p.strip() for p in unknowns_field.split(",") if p.strip())
        flags = str(fields.get("flags", ""))
        t = TransformDef(
            id=str(fields.get("id", tid)),
            source=source,
            target_text=str(fields.get("target", "")),
            relations=_as_lines(fields.get("relations", []),
                                "relations", tid),
            conventions=conventions,
            unknowns=unknowns,
            investigative="investigative" in flags.split(),
        )
        _validate_relations(t, catalog.ctx)
        out[t.id] = t
    return out


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

class CheckResult(NamedTuple):
    """One required-zero identity: its exact term count after reduction,
    and the printed residual when it is small enough to show."""

    name: str
    term_count: int
    text: Optional[str] = None

    @property
    def is_zero(self) -> bool:
        return self.term_count == 0


class ConventionResult(NamedTuple):
    name: str
    checks: Tuple[CheckResult, ...]
    fitted: Tuple[Tuple[str, str], ...] = ()
    notes: Tuple[Tuple[str, str], ...] = ()

    @property
    def residual_is_zero(self) -> bool:
        return all(c.is_zero for c in self.checks)

    @property
    def residual_term_count(self) -> int:
        return sum(c.term_count for c in self.checks)


class TransformReport(NamedTuple):
    id: str
    source: str
    target_text: str
    investigative: bool
    conventions: Tuple[ConventionResult, ...]

    @property
    def verified_convention(self) -> Optional[str]:
        for c in self.conventions:
            if c.residual_is_zero:
                return c.name
        return None

    @property
    def status(self) -> str:
        if self.verified_convention is not None:
            return "verified"
        return "investigative" if self.investigative else "failed"

    @property
    def ok(self) -> bool:
        return self.investigative or self.verified_convention is not None

    def structured_lines(self) -> List[str]:
        lines = [
            f"transform = {self.id}",
            f"source = {self.source}",
            f"target = {self.target_text}",
            f"investigative = {str(self.investigative).lower()}",
            f"conventions = {len(self.conventions)}",
        ]
        for i, c in enumerate(self.conventions):
            pre = f"convention[{i}]"
            lines.append(f"{pre}.name = {c.name}")
            lines.append(
                f"{pre}.residual_is_zero = {str(c.residual_is_zero).lower()}")
            lines.append(
                f"{pre}.residual_term_count = {c.residual_term_count}")
            for k, v in c.fitted:
                lines.append(f"{pre}.fitted.{k} = {v}")
            for j, chk in enumerate(c.checks):
                lines.append(f"{pre}.check[{j}].name = {chk.name}")
                lines.append(
                    f"{pre}.check[{j}].term_count = {chk.term_count}")
                if chk.text is not None:
                    lines.append(f"{pre}.check[{j}].value = {chk.text}")
            for k, v in c.notes:
                lines.append(f"{pre}.note.{k} = {v}")
        lines.append(f"verified_convention = {self.verified_convention}")
        lines.append(f"status = {self.status}")
        return lines


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _quotient(ctx: Context, num: N.NF, den: N.NF) -> N.NF:
    """num / den; den is inverted only when num is nonzero."""
    return num and N.nf_mul(ctx, num, N.nf_inverse(ctx, den))


def _check(ctx: Context, name: str, residual: N.NF) -> CheckResult:
    n = N.nf_size(residual)
    text = print_nf(residual, ctx) if n <= MAX_PRINTED_TERMS else None
    return CheckResult(name, n, text)


def _linear_fit(ctx: Context, target: N.NF,
                basis: Sequence[N.NF]) -> Optional[List[Fraction]]:
    """Exact rationals x_i with target = sum x_i * basis_i, or None.

    All operands must have polynomial coefficients; the system is solved by
    Gaussian elimination over the exact coefficient vectors and must be
    uniquely determined and consistent.
    """
    def coeff_map(a: N.NF) -> Dict[Tuple[int, int], Fraction]:
        out: Dict[Tuple[int, int], Fraction] = {}
        for am, rf in a.items():
            if rf.den_factors:
                raise TransformError(
                    "linear fit requires polynomial operands")
            for bm, c in rf.num.items():
                out[(am, bm)] = Fraction(c, rf.den_scalar)
        return out

    tmap = coeff_map(target)
    bmaps = [coeff_map(b) for b in basis]
    keys = set(tmap)
    for m in bmaps:
        keys |= set(m)
    rows = [[m.get(k, Fraction(0)) for m in bmaps] + [tmap.get(k, Fraction(0))]
            for k in sorted(keys, reverse=True)]
    n = len(bmaps)
    # Gaussian elimination with exact pivots.
    pivot_row = 0
    pivots: List[int] = []
    for col in range(n):
        sel = next((r for r in range(pivot_row, len(rows))
                    if rows[r][col] != 0), None)
        if sel is None:
            return None  # underdetermined
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pr = rows[pivot_row]
        inv = 1 / pr[col]
        rows[pivot_row] = [v * inv for v in pr]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * p
                           for v, p in zip(rows[r], rows[pivot_row])]
        pivots.append(pivot_row)
        pivot_row += 1
    for r in range(pivot_row, len(rows)):
        if rows[r][n] != 0:
            return None  # inconsistent
    sol = [Fraction(0)] * n
    for col, r in enumerate(pivots):
        sol[col] = rows[r][n]
    return sol


def _sign(t: TransformDef, conv: str, plus: str, minus: str) -> int:
    """+1 or -1 for a two-way sign convention of t."""
    if conv == plus:
        return 1
    if conv == minus:
        return -1
    raise TransformError(f"{t.id}: unknown convention {conv!r}")


# ---------------------------------------------------------------------------
# parametrization and scaling identities
# ---------------------------------------------------------------------------

def curve_relation(f: Expr, u1: Expr, kappa: Expr) -> Expr:
    """(f + u1)^2 (2 f - u1) + kappa, the defining cubic form."""
    return tree.add(
        tree.mul(tree.pow_(tree.add(f, u1), 2),
                 tree.sub(tree.mul(2, f), u1)),
        kappa)


def check_parametrization(ctx: Context) -> N.NF:
    """Substitute u1 = (2V + V^-2)/3, f = (V - V^-2)/3 into the cubic
    relation of f; the result is identically zero."""
    V = Name("V")
    vinv2 = tree.pow_(V, -2)
    u1_of = tree.div(tree.add(tree.mul(2, V), vinv2), 3)
    f_of = tree.div(tree.sub(V, vinv2), 3)
    return N.normalize(ctx, curve_relation(f_of, u1_of, tree.ONE))


def check_scaling_law(ctx: Context) -> N.NF:
    """Substituting fa = a*phi with argument a*s into the fa-cubic equals
    a^3 times the unit cubic in (phi, s); the difference is identically
    zero, so normalizing a to one is a point change."""
    a, phi, s = Name("a"), Name("phi"), Name("s")
    scaled = curve_relation(tree.mul(a, phi), tree.mul(a, s),
                            tree.pow_(a, 3))
    unit = curve_relation(phi, s, tree.ONE)
    return N.normalize(ctx, tree.sub(scaled, tree.mul(tree.pow_(a, 3), unit)))


# ---------------------------------------------------------------------------
# per-transform checkers
# ---------------------------------------------------------------------------

def _check_t1(t: TransformDef, catalog: Catalog) -> List[ConventionResult]:
    """S1 -> target v_xy = c1 exp(v) + c2 exp(-2v).

    With B = fa(uy) + uy playing exp(v), the tower identity
    B^2 (uy - 2 fa) = a^3 supplies exp(-2v); the relation u = 2 v_x gives
    the formal route v_xy = D_y(u/2) = uy/2.  The two constants are fitted
    exactly, and each sign convention for c2 is then checked as an exact
    identity.  The defining relations also admit a second route
    (v_y = D_y(B)/B, then D_x, taken on normal forms), which yields twice
    the formal route; both cross-derivatives are recorded.
    """
    eq = catalog.get(t.source)
    ctx = eq.ctx
    fa, v1, a = Name("fa"), Name("v1"), Name("a")
    B = tree.add(fa, v1)
    lin = tree.sub(v1, tree.mul(2, fa))          # a^3 * exp(-2v)
    ident = N.normalize(ctx, tree.sub(tree.mul(tree.pow_(B, 2), lin),
                                      tree.pow_(a, 3)))

    route_u = N.normalize(ctx, tree.div(v1, 2))      # D_y(u/2)
    nfj = nf_jet(eq)
    Bn = N.normalize(ctx, B)
    route_exp = nfj.d_x(_quotient(ctx, nfj.d_y(Bn), Bn))   # D_x(D_y(B)/B)
    ratio_two = N.nf_equal(ctx, route_exp, N.nf_scale(ctx, route_u, 2))

    # exact fit: uy/2 = x*B + y*(uy - 2 fa), with c2 = y * a^3
    sol = _linear_fit(ctx, route_u, [Bn, N.normalize(ctx, lin)])
    fitted: Tuple[Tuple[str, str], ...] = ()
    if sol is not None:
        c1, y = sol
        c2_text = print_expr(tree.mul(Const(y), tree.pow_(a, 3)), ctx)
        fitted = (("c1", str(c1)), ("c2", c2_text))

    results = []
    for conv in t.conventions:
        sign = _sign(t, conv, "second-coefficient-plus",
                     "second-coefficient-minus")
        target = tree.add(tree.div(B, 3),
                          tree.mul(Const(Fraction(sign, 6)), lin))
        main = N.nf_sub(ctx, route_u, N.normalize(ctx, target))
        checks = (
            _check(ctx, "exp_minus_2v_identity", ident),
            _check(ctx, "target_identity", main),
        )
        notes = (
            ("v_xy_from_u_relation", print_nf(route_u, ctx)),
            ("v_xy_from_exp_relation", print_nf(route_exp, ctx)),
            ("exp_route_over_u_route", "2" if ratio_two else "differs"),
        )
        results.append(ConventionResult(conv, checks, fitted, notes))
    return results


def _s3i_suite(eq: HyperbolicEq, sign: int,
               shift: Expr) -> Tuple[Tuple[CheckResult, ...],
                                     Tuple[Tuple[str, str], ...]]:
    """Identities for the first S3 map on one branch of sqrt(u_x).

    V plays exp(v); uy + shift is parametrized as p(V) = (a/3)(2V + V^-2)
    and the target value of v_xy is q(V) = (a/3)(V - V^-2).  The branch
    v_x = sign*r forces v_xy = sign*fa(uy + shift), so the convention holds
    exactly when sign*q satisfies the fa-cubic at argument p (root
    membership) and the independent route through v_y = D_y(V)/V reduces
    to q as well.
    """
    ctx = eq.ctx
    V, a = Name("V"), Name("a")
    vinv2 = tree.pow_(V, -2)
    third = tree.div(a, 3)
    p = tree.mul(third, tree.add(tree.mul(2, V), vinv2))
    q = tree.mul(third, tree.sub(V, vinv2))
    qq = tree.mul(Const(sign), q)

    # does sign*q solve the fa-cubic at the substituted argument?
    membership = N.normalize(ctx, curve_relation(qq, p, tree.pow_(a, 3)))

    # independent route: adjoin V with rules forced by uy + shift = p(V)
    pprime = tree.mul(third, tree.sub(Const(2),
                                      tree.mul(2, tree.pow_(V, -3))))
    eng = JetEngine(eq,
                    custom_dx={"V": tree.div(eq.F, pprime)},
                    custom_dy={"V": tree.div(Name("v2"), pprime)})
    commut = N.nf_sub(
        ctx,
        N.normalize(ctx, eng.d_y(eng.d_x(V))),
        N.normalize(ctx, eng.d_x(eng.d_y(V))))
    v_y = tree.div(tree.div(Name("v2"), pprime), V)
    vxy_tree = eng.d_x(v_y)
    substitution = {"v1": tree.sub(p, shift), "fb": qq}
    cross = N.nf_sub(ctx,
                     N.normalize(ctx, tree.substitute(vxy_tree, substitution)),
                     N.normalize(ctx, q))

    checks = (
        _check(ctx, "root_membership", membership),
        _check(ctx, "adjoined_rule_commutation", commut),
        _check(ctx, "v_y_route_residual", cross),
    )
    notes = (("v_x_route_v_xy", print_nf(N.normalize(ctx, qq), ctx)),)
    return checks, notes


# convention -> (bindings of the source, branch sign, shift of uy)
_S3I_BRANCHES: Dict[str, Tuple[Dict[str, int], int, Expr]] = {
    "root-plus": ({"b": 0}, 1, tree.ZERO),
    "root-minus": ({"b": 0}, -1, tree.ZERO),
    "shift-b": ({}, 1, Name("b")),
}


def _check_s3i(t: TransformDef, catalog: Catalog) -> List[ConventionResult]:
    results = []
    for conv in t.conventions:
        if conv not in _S3I_BRANCHES:
            raise TransformError(f"{t.id}: unknown convention {conv!r}")
        bindings, sign, shift = _S3I_BRANCHES[conv]
        checks, notes = _s3i_suite(catalog.get(t.source, bindings),
                                   sign, shift)
        results.append(ConventionResult(conv, checks, (), notes))
    return results


def _check_s3ii(t: TransformDef, catalog: Catalog) -> List[ConventionResult]:
    """Second S3 map: w = sqrt(u_x), w_y = fa(uy + b), target
    w_xy = 2 fnew(w_y) w with the new cubic constant kappa = -a^3/4.

    On the branch w = sign*r the engine gives w_y = sign*fb and
    w_xy = sign*(uy + b - fb)*r, so psi = (uy + b - fb)/2 must play
    fnew(w_y): the target form is exact for both signs, while the
    membership of psi in the rescaled cubic at argument sign*fb and the
    inverse relation uy = 2 psi + w_y - b hold only on the plus branch.
    w_y, w_xy and the other order of the mixed derivative are taken on
    the normal form of w.
    """
    eq = catalog.get(t.source)
    ctx = eq.ctx
    r, fb, v1, a, b = Name("r"), Name("fb"), Name("v1"), Name("a"), Name("b")
    kappa = tree.mul(Const(Fraction(-1, 4)), tree.pow_(a, 3))
    psi = tree.div(tree.sub(tree.add(v1, b), fb), 2)
    fitted = (("kappa", print_expr(kappa, ctx)),)

    nfj = nf_jet(eq)
    results = []
    for conv in t.conventions:
        sign = _sign(t, conv, "root-plus", "root-minus")
        w = tree.mul(Const(sign), r)
        wn = N.normalize(ctx, w)
        w_y = nfj.d_y(wn)
        wy_claim = N.nf_sub(ctx, w_y,
                            N.normalize(ctx, tree.mul(Const(sign), fb)))
        wxy = nfj.d_x(w_y)
        commut = N.nf_sub(ctx, wxy, nfj.d_y(nfj.d_x(wn)))
        target_form = N.nf_sub(ctx, wxy,
                               N.normalize(ctx, tree.mul(2, psi, w)))
        membership = N.normalize(ctx, curve_relation(
            psi, tree.mul(Const(sign), fb), kappa))
        inverse_rel = N.nf_sub(
            ctx, N.normalize(ctx, v1),
            N.normalize(ctx, tree.add(tree.mul(2, psi),
                                      tree.sub(tree.mul(Const(sign), fb), b))))
        checks = (
            _check(ctx, "w_y_is_shifted_root", wy_claim),
            _check(ctx, "cross_commutation", commut),
            _check(ctx, "target_form", target_form),
            _check(ctx, "new_cubic_membership", membership),
            _check(ctx, "inverse_relation", inverse_rel),
        )
        notes = (("psi", print_expr(psi, ctx)),)
        results.append(ConventionResult(conv, checks, fitted, notes))
    return results


# equation id -> (source id, bindings, x <-> y exchanged?): the equation is
# its source at those parameter values, after the exchange where marked.
# The symbols that the bindings make twins are aliased by Context.bind.
POINT_IDENTITIES: Dict[str, Tuple[str, Dict[str, int], bool]] = {
    "S4": ("S1", {"a": 1, "b": 0}, True),
    "S5": ("S3", {"a": 1, "b": 0}, True),
    "final1": ("hyp4", {}, False),
    "final2": ("S1", {"a": 1}, True),
    "final3": ("S3", {"a": 1, "b": 0}, True),
    "final4": ("S6", {"a": 1}, False),
}


def _point_identity(catalog: Catalog,
                    eq_id: str) -> Tuple[Context, Expr, Expr, N.NF]:
    """The bound context, the mapped source, the equation's own F (both
    spelled with the context's canonical names) and their difference."""
    source_id, bindings, swap = POINT_IDENTITIES[eq_id]
    src = catalog.get(source_id, bindings)
    ctx = src.ctx
    e = swap_xy(src.F, ctx) if swap else src.F
    e, tgt = (tree.map_names(x, {n: ctx.resolve(n)
                                 for n in tree.free_names(x)})
              for x in (e, catalog.get(eq_id, bindings).F))
    return ctx, e, tgt, N.nf_sub(ctx, N.normalize(ctx, e),
                                 N.normalize(ctx, tgt))


def _check_point(t: TransformDef, catalog: Catalog) -> List[ConventionResult]:
    """The transform's source is a point image of another equation."""
    ctx, e, tgt, diff = _point_identity(catalog, t.source)
    notes = (
        ("mapped_source", print_expr(e, ctx)),
        ("target", print_expr(tgt, ctx)),
    )
    return [ConventionResult(t.conventions[0],
                             (_check(ctx, "difference", diff),), (), notes)]


def _check_s6t(t: TransformDef, catalog: Catalog) -> List[ConventionResult]:
    """S6 -> target v_xy = exp(v) - 4 c a^3 exp(-2v), investigative.

    exp(v) is realized by the tower element
    Ev = 4 c (f + u1)(fa + uy) W / (sc P - c), so
    v_xy = (D_y D_x(Ev) Ev - D_x(Ev) D_y(Ev)) / Ev^2 and the target
    residual v_xy - Ev + 4 c a^3 / Ev^2 is reduced exactly; each sign of
    sc is tried and the residual's exact term count recorded.  The
    derivatives are taken on the normal form of Ev, and the residual's
    numerator over Ev^2 is one sum of products, reduced once.
    """
    eq = catalog.get(t.source)
    ctx = eq.ctx
    f_, u1 = Name("f"), Name("u1")
    fa, v1 = Name("fa"), Name("v1")
    W, P, sc = Name("W"), Name("P"), Name("sc")
    a, c = Name("a"), Name("c")

    nfj = nf_jet(eq)
    four_ca3 = N.normalize(ctx, tree.mul(4, c, tree.pow_(a, 3)))
    results = []
    for conv in t.conventions:
        sign = _sign(t, conv, "sc-plus", "sc-minus")
        den = tree.sub(tree.mul(Const(sign), sc, P), c)
        ev = N.normalize(ctx, tree.div(
            tree.mul(4, c, tree.add(f_, u1), tree.add(fa, v1), W), den))
        dx = nfj.d_x(ev)
        dy = nfj.d_y(ev)
        dxy = nfj.d_y(dx)
        commut = N.nf_sub(ctx, dxy, nfj.d_x(dy))
        ev2 = N.nf_mul(ctx, ev, ev)
        num = N.nf_sum_products(ctx, [
            (dxy, ev),
            (N.nf_neg(ctx, dx), dy),
            (N.nf_neg(ctx, ev), ev2),
            (four_ca3, N.nf_const(ctx, 1))])
        residual = _quotient(ctx, num, ev2)
        checks = (
            _check(ctx, "cross_commutation", commut),
            _check(ctx, "target_residual", residual),
        )
        notes = (("exp_v_terms", str(N.nf_size(ev))),)
        results.append(ConventionResult(conv, checks, (), notes))
    return results


_CHECKERS = {
    "T1": _check_t1,
    "S3i": _check_s3i,
    "S3ii": _check_s3ii,
    "S4S1": _check_point,
    "S5S3": _check_point,
    "S6T": _check_s6t,
}


def check_transform(tid: str, catalog: Catalog) -> TransformReport:
    """Run every convention of the transform with id tid and report
    exactly."""
    t = load_transforms(catalog).get(tid)
    if t is None:
        raise TransformError(f"unknown transform id {tid!r}")
    checker = _CHECKERS.get(t.id)
    if checker is None:
        raise TransformError(f"no checker registered for {t.id!r}")
    return TransformReport(t.id, t.source, t.target_text, t.investigative,
                           tuple(checker(t, catalog)))


def check_all(catalog: Catalog) -> List[TransformReport]:
    """All shipped transforms, ordered by id.  Each check is pure, so
    callers may fan the loop out; the default is sequential."""
    return [check_transform(tid, catalog)
            for tid in sorted(load_transforms(catalog))]


# ---------------------------------------------------------------------------
# the reduced four-equation list
# ---------------------------------------------------------------------------

class ListIdentity(NamedTuple):
    final_id: str
    source_id: str
    bindings: Tuple[Tuple[str, Fraction], ...]
    swapped: bool
    holds: bool


def final_list_identities(catalog: Catalog) -> List[ListIdentity]:
    """The four reduced equations match their parametrized sources at the
    stated normalizations (with x and y exchanged where required)."""
    out = []
    for final_id in ("final1", "final2", "final3", "final4"):
        source_id, bindings, swap = POINT_IDENTITIES[final_id]
        diff = _point_identity(catalog, final_id)[3]
        out.append(ListIdentity(
            final_id, source_id,
            tuple(sorted((k, Fraction(v)) for k, v in bindings.items())),
            swap, N.nf_is_zero(diff)))
    return out
