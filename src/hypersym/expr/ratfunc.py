"""Rational functions with factored denominators.

A RatFunc is num / (den_scalar * prod(F_i ** e_i)) where num is an integer
polynomial, den_scalar a positive integer, and each F_i an interned primitive
polynomial with positive leading coefficient.  Keeping denominators in
factored form makes cancellation a matter of exact division against known
factors, so no multivariate gcd is ever needed: every denominator enters the
system through rf_inverse, which interns its factors, and later cancellations
only ever have to recognize those same factors.

rf_make reduces by trial division: it divides the numerator by each
denominator factor for as long as the division is exact.  It runs once per
result, not after every step.  Unreduced terms (rf_partial_terms, the term
products of normal) are summed by denominator: the numerators over one
denominator are added first, then rf_sum_by_den brings each distinct
denominator's sum over the lcm with one cofactor product (over_lcm) and
reduces the total with one rf_make.  Multiplication distributes over
addition, so that total is the one that bringing each term over the lcm on
its own gives.  Reducing once gives the same form as reducing every step,
because the reduced form is
unique when the factors are square-free and pairwise coprime.  If
N1/D1 = N2/D2 are both reduced and a factor f occurs e1 > e2 times in D1
and D2, then f**e1 divides N2*D1 = N1*D2; f is square-free and coprime to
every other factor of D2, so f**(e1 - e2) divides N1, and the trial would
have cancelled it.  Two such forms therefore agree however the function was
reached, for example whichever order a mixed derivative was taken in.

intern_factors builds that base as far as it can without factoring.  It
splits off the monomial content one variable at a time, and splits a
univariate remainder into its square-free parts by Yun's algorithm; so
(u1^3 - 1)^3 is interned as (u1^3 - 1, 3), not as a factor of its own.  A
multivariate remainder not yet interned is first divided by every interned
multi-term factor, as often as that goes, and what is left is interned
whole; so once g is interned, g^2*h interns h.  It does not split a part
further, so u1^3 - 1 stays one factor although u1 - 1 divides it, nor an
interned factor that a new one divides.  Factors that share a factor are
still possible, for example u1^3 - 1 next to u1 - 1; then the reduced form
can depend on the order of the trials and on where they run.  No workload
of the catalog interns such a pair.

Interned factors are not known to be irreducible, so rf_make tries every
factor, and most trials fail.  Only rf_scale skips them all: by Gauss's
lemma a primitive factor that divides k*N divides N.  A failing trial costs
O(1).  Each Factor keeps its division data (poly.Divisor) from when it was
interned.  rf_make computes the trailing monomial of its numerator and its
value at (2, ..., 2) once, its value at (3, ..., 3) when a trial first
needs it, and carries each through every division.  Divisor.rejects reads
them: the trailing terms and the values at both points must divide.  Only
a trial that passes them reaches the elimination of poly.pdiv_exact, and a
variable factor x is divided out in one pass, as x^k for the largest k that
the numerator and the exponent allow.  A trial that these checks reject is
one that elimination rejects too, so the canonical form does not depend on
them.

Zero testing is exact regardless of whether a cancellation opportunity was
missed: the numerator polynomial is zero iff the function is zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import DivisionByZeroError
from . import poly as P
from .context import Context


class Factor(P.Divisor):
    """Interned primitive polynomial, compared by identity; its division
    data (poly.Divisor) is computed once, when it is interned."""

    __slots__ = ("key", "fid")

    def __init__(self, poly: P.Poly, key: tuple, fid: int, layout: P.Layout):
        super().__init__(poly, layout)
        self.key = key
        self.fid = fid

    def __repr__(self):
        return f"Factor(#{self.fid}, {len(self.poly)} terms)"


def poly_key(p: P.Poly) -> tuple:
    return tuple(sorted(p.items()))


def _primitive(p: P.Poly) -> Tuple[int, P.Poly]:
    """(c, q) with p == c * q, q primitive with a positive leading
    coefficient."""
    c = P.pcontent(p)
    _, lc = P.pleading(p)
    if lc < 0:
        c = -c
    return c, {m: v // c for m, v in p.items()}


def intern_factor(ctx: Context, p: P.Poly) -> Tuple[int, Factor]:
    """Normalize p to unit * content * primitive-positive-lead and intern.

    Returns (multiplier, factor) with p == multiplier * factor.poly.
    """
    if not p:
        raise DivisionByZeroError("zero polynomial cannot be a factor")
    c, prim = _primitive(p)
    key = poly_key(prim)
    f = ctx._factor_intern.get(key)
    if f is None:
        f = Factor(prim, key, len(ctx.den_atoms), ctx.layout)
        ctx._factor_intern[key] = f
        ctx.den_atoms.append(f)
    return c, f


FactorVec = Tuple[Tuple[Factor, int], ...]
Den = Tuple[int, FactorVec]  # (den_scalar, den_factors) of an unreduced term


def intern_factors(ctx: Context, p: P.Poly) -> Tuple[int, "FactorVec"]:
    """Decompose p into multiplier * product of interned factor powers.

    The monomial content is split into per-variable factors so later
    cancellation can peel single powers (1/u1^2 becomes (u1)^2, not an
    opaque atom u1^2).  A multivariate primitive remainder not yet interned
    is first divided by every interned multi-term factor, as often as that
    goes.  A univariate remainder is split into its square-free parts, each
    interned with its multiplicity; a multivariate one is interned whole."""
    if not p:
        raise DivisionByZeroError("zero polynomial cannot be a factor")
    lay = ctx.layout
    mono = P.pmono_gcd(p, lay)
    fs: List[Tuple[Factor, int]] = []
    if mono:
        p = P.pdiv_mono(p, mono)
        for i in lay.mono_vars(mono):
            _, f = intern_factor(ctx, {lay.var_mono(i): 1})
            fs.append((f, lay.exp(mono, i)))
    if len(p) == 1 and 0 in p:
        return p[0], _sort_factors(fs)
    mult, prim = _primitive(p)
    var = P.pvars(prim, lay)
    if len(var) > 1 and poly_key(prim) not in ctx._factor_intern:
        cap = lay.total(max(prim))  # no factor divides prim more often
        prim, left = _divide_out(lay, prim, [(g, cap) for g in ctx.den_atoms
                                             if len(g.poly) > 1])
        fs += [(g, cap - e) for g, e in left]
        var = P.pvars(prim, lay)
    parts = [(prim, 1)] if var else []
    # an interned univariate factor is one of these parts, so square-free
    if len(var) == 1 and poly_key(prim) not in ctx._factor_intern:
        i, = var
        dense = [prim.get(lay.var_mono(i, k), 0)
                 for k in range(P.pdeg_var(prim, i) + 1)]
        parts = [({lay.var_mono(i, k): c for k, c in enumerate(a) if c}, e)
                 for a, e in square_free_parts(dense)]
    for q, e in parts:
        fs.append((intern_factor(ctx, q)[1], e))
    return mult, _sort_factors(fs)


# -- square-free split of univariate factors ---------------------------------
# Dense integer polynomials, coefficient of x^k at index k, no zero leading
# coefficient; the empty list is zero.

def _dprimitive(a: List[int]) -> List[int]:
    g = 0
    for c in a:
        g = gcd(g, c)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _dtrim(a: List[int]) -> List[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _dderiv(a: List[int]) -> List[int]:
    return [k * c for k, c in enumerate(a)][1:]


def _dquo(a: List[int], b: List[int]) -> List[int]:
    """Exact quotient a / b, where b divides a in Z[x]."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + db] // lb
        q[k] = c
        if c:
            for j in range(db):
                a[k + j] -= c * b[j]
    return q


def _dgcd(a: List[int], b: List[int]) -> List[int]:
    """Primitive gcd with positive leading coefficient, by the primitive
    remainder sequence (Collins, J. ACM 14(1), 1967); a is nonzero."""
    a = _dprimitive(a)
    if not b:
        return a
    b = _dprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r, db, lb = list(a), len(b) - 1, b[-1]
        while len(r) > db:  # pseudo-remainder, scaled as little as possible
            c = r.pop()
            if c:
                g = gcd(c, lb)
                s, c = lb // g, c // g
                k = len(r) - db
                for j in range(len(r)):
                    r[j] *= s
                for j in range(db):
                    r[k + j] -= c * b[j]
        if not _dtrim(r):
            return b
        a, b = b, _dprimitive(r)
    return [1]


def square_free_parts(a: List[int]) -> List[Tuple[List[int], int]]:
    """Yun's algorithm (SYMSAC 1976): for a primitive a of positive degree
    with a positive leading coefficient, the parts (a_i, i) with
    a = prod a_i**i, every a_i square-free, primitive, of positive degree
    and leading coefficient, and the a_i pairwise coprime.  Over Z every
    division below is exact by Gauss's lemma, since each divisor is a
    primitive divisor over Q."""
    da = _dderiv(a)
    c = _dgcd(a, da)
    if len(c) == 1:
        return [(a, 1)]
    w, y = _dquo(a, c), _dquo(da, c)
    parts: List[Tuple[List[int], int]] = []
    i = 1
    while len(w) > 1:
        z = _dtrim([s - t for s, t in zip_longest(y, _dderiv(w), fillvalue=0)])
        g = _dgcd(w, z)
        if len(g) > 1:
            parts.append((g, i))
        w, y = _dquo(w, g), _dquo(z, g)
        i += 1
    return parts


class RatFunc:
    __slots__ = ("num", "den_scalar", "den_factors")

    def __init__(self, num: P.Poly, den_scalar: int, den_factors: FactorVec):
        self.num = num
        self.den_scalar = den_scalar
        self.den_factors = den_factors

    @property
    def den(self) -> Den:
        return self.den_scalar, self.den_factors

    def is_zero(self) -> bool:
        return not self.num

    def __repr__(self):
        return (f"RatFunc({len(self.num)} terms / {self.den_scalar}"
                f" * {[(f.fid, e) for f, e in self.den_factors]})")


def rf_zero(ctx: Context) -> RatFunc:
    return RatFunc({}, 1, ())


def rf_const(ctx: Context, q) -> RatFunc:
    q = Fraction(q)
    if q == 0:
        return rf_zero(ctx)
    return RatFunc(P.pconst(q.numerator), q.denominator, ())


def rf_from_poly(ctx: Context, p: P.Poly) -> RatFunc:
    if not p:
        return rf_zero(ctx)
    return rf_make(ctx, dict(p), 1, ())


def _sort_factors(fs: Iterable[Tuple[Factor, int]]) -> FactorVec:
    return tuple(sorted((fe for fe in fs if fe[1] > 0), key=lambda fe: fe[0].fid))


def _divide_out(lay: P.Layout, num: P.Poly, factors: Sequence[Tuple[Factor, int]]
                ) -> Tuple[P.Poly, List[Tuple[Factor, int]]]:
    """Divide the nonzero num by each (f, e) of factors in turn, as often as
    f divides it and at most e times.  Returns the quotient and each f with
    the exponent left.  The trailing monomial ta of num and its value a2 at
    (2, ..., 2) are computed once, a3 at (3, ..., 3) when a trial first
    needs it, and each is carried exactly through every division."""
    if not factors:
        return num, []
    borrow = lay.borrow_mask
    ta, a2, a3 = min(num), P.pvalue(num, 2, lay), None
    left = []
    for f, e in factors:
        if f.var is not None:  # divide out x^k in one pass
            s = P.FIELD_BITS * f.var
            k = min(e, (ta >> s) & P.FIELD_MASK)
            if k:
                k = min(k, min((m >> s) & P.FIELD_MASK for m in num))
            if k:
                xk = lay.var_mono(f.var, k)
                num, ta, a2, e = P.pdiv_mono(num, xk), ta - xk, a2 >> k, e - k
                a3 = None if a3 is None else a3 // 3 ** k
        else:
            while e > 0 and not f.rejects(ta, num[ta], a2, a3, borrow):
                if a3 is None:
                    a3 = P.pvalue(num, 3, lay)
                    continue  # check again, now with the value at (3, ..., 3)
                q = P.pdiv_exact(num, f, lay)
                if q is None:
                    break
                num, ta, e = q, ta - f.trail, e - 1
                a2 = a2 // f.v2 if f.v2 else P.pvalue(q, 2, lay)
                a3 = a3 // f.v3 if f.v3 else P.pvalue(q, 3, lay)
        left.append((f, e))
    return num, left


def rf_make(ctx: Context, num: P.Poly, den_scalar: int, den_factors) -> RatFunc:
    """Canonicalize: cancel known factors, reduce integer content, fix signs."""
    if not num:
        return rf_zero(ctx)
    if den_scalar == 0:
        raise DivisionByZeroError("zero denominator scalar")
    num, left = _divide_out(ctx.layout, num, den_factors)
    if den_scalar < 0:
        den_scalar = -den_scalar
        num = P.pneg(num)
    c = P.pcontent(num)
    g = gcd(c, den_scalar)
    if g > 1:
        num = {m: v // g for m, v in num.items()}
        den_scalar //= g
    return RatFunc(num, den_scalar, _sort_factors(left))


def rf_neg(ctx: Context, a: RatFunc) -> RatFunc:
    if a.is_zero():
        return a
    return RatFunc(P.pneg(a.num), a.den_scalar, a.den_factors)


def rf_scale(ctx: Context, a: RatFunc, q) -> RatFunc:
    """q * a for a reduced a, which no factor trial can reduce further."""
    q = Fraction(q)
    if a.is_zero() or q == 0:
        return rf_zero(ctx)
    num = P.pscale(a.num, q.numerator)
    den_scalar = a.den_scalar * q.denominator
    g = gcd(P.pcontent(num), den_scalar)
    if g > 1:
        num = {m: v // g for m, v in num.items()}
    return RatFunc(num, den_scalar // g, a.den_factors)


def den_mul(ctx: Context, a: Den, b: Den) -> Den:
    """The denominator of a product of a term over a and one over b:
    scalars multiplied, factor exponents merged.  Few distinct pairs of
    factor vectors occur, so each pair is merged once per context
    (ctx._den_merge)."""
    fa, fb = a[1], b[1]
    if not (fa and fb):
        return a[0] * b[0], fa or fb
    merged = ctx._den_merge.get((fa, fb))
    if merged is None:
        exps: Dict[int, Tuple[Factor, int]] = {f.fid: (f, e) for f, e in fa}
        for f, e in fb:
            exps[f.fid] = (f, e + exps.get(f.fid, (f, 0))[1])
        merged = ctx._den_merge[fa, fb] = tuple(fe for _, fe in sorted(exps.items()))
    return a[0] * b[0], merged


def over_lcm(ctx: Context, dens: Iterable[Den]
             ) -> Tuple[int, FactorVec, Callable[[P.Poly, P.Poly, Den], None]]:
    """The least common multiple of the denominators dens, as (scalar,
    factors), and add(out, num, den), which adds num/den brought over it
    into out: out += num * cofactor * (scalar // den scalar), where the
    cofactor, the product of the factor powers den lacks, is made once per
    distinct factor vector."""
    s = 1
    fmax: Dict[int, Tuple[Factor, int]] = {}
    for ds, fs in dens:
        s = s * ds // gcd(s, ds)
        for f, e in fs:
            cur = fmax.get(f.fid)
            if cur is None or e > cur[1]:
                fmax[f.fid] = (f, e)
    lay, max_terms = ctx.layout, ctx.max_terms
    cofactors: Dict[FactorVec, P.Poly] = {}  # {} when den lacks no factor

    def add(out: P.Poly, num: P.Poly, den: Den) -> None:
        cof = cofactors.get(den[1])
        if cof is None:
            have = {f.fid: e for f, e in den[1]}
            for fid, (f, e) in fmax.items():
                need = e - have.get(fid, 0)
                if need > 0:
                    piece = P.ppow(f.poly, need, lay, max_terms)
                    cof = piece if cof is None else P.pmul(cof, piece, lay,
                                                           max_terms)
            cofactors[den[1]] = cof = cof or {}
        if cof:
            P.pmul_into(out, num, cof, lay, max_terms, s // den[0])
        else:
            P.padd_inplace(out, num, s // den[0])

    return s, tuple(fe for _, fe in sorted(fmax.items())), add


def rf_sum_by_den(ctx: Context, sums: Dict[Den, P.Poly]) -> RatFunc:
    """The sum of num/den over the items of sums, over the lcm of every den
    (also those whose num cancelled to {}), reduced once.  Multiplication
    distributes over addition, so rf_make gets the numerator it would get
    from bringing each summand over the lcm on its own."""
    if len(sums) == 1:
        (den, num), = sums.items()
        return rf_make(ctx, num, *den)
    s, fs, add = over_lcm(ctx, sums)
    total: P.Poly = {}
    for den, num in sums.items():
        add(total, num, den)
    return rf_make(ctx, total, s, fs)


def rf_sum(ctx: Context, items: Iterable[RatFunc]) -> RatFunc:
    """The sum of items, which need not be reduced, over their least common
    denominator, reduced once; the numerators of equal denominators are
    added first."""
    sums: Dict[Den, P.Poly] = {}
    for a in items:
        if a.num:
            P.padd_inplace(sums.setdefault(a.den, {}), a.num)
    return rf_sum_by_den(ctx, sums) if sums else rf_zero(ctx)


def rf_add(ctx: Context, a: RatFunc, b: RatFunc) -> RatFunc:
    return rf_sum(ctx, (a, b))


def rf_sub(ctx: Context, a: RatFunc, b: RatFunc) -> RatFunc:
    return rf_sum(ctx, (a, rf_neg(ctx, b)))


def rf_mul(ctx: Context, a: RatFunc, b: RatFunc) -> RatFunc:
    if a.is_zero() or b.is_zero():
        return rf_zero(ctx)
    return rf_make(ctx, P.pmul(a.num, b.num, ctx.layout, ctx.max_terms),
                   *den_mul(ctx, a.den, b.den))


def rf_inverse(ctx: Context, a: RatFunc) -> RatFunc:
    if a.is_zero():
        raise DivisionByZeroError("inverse of zero")
    c, fs = intern_factors(ctx, a.num)
    return rf_make(ctx, rf_den_poly(ctx, a), c, fs)


def rf_partial_terms(ctx: Context, a: RatFunc, var_index: int) -> List[RatFunc]:
    """The unreduced quotient-rule terms whose sum is the partial derivative
    of a, treating base variables as independent."""
    lay = ctx.layout
    terms: List[RatFunc] = []
    dn = P.pderiv(a.num, var_index, lay)
    if dn:
        terms.append(RatFunc(dn, a.den_scalar, a.den_factors))
    for i, (f, e) in enumerate(a.den_factors):
        df = P.pderiv(f.poly, var_index, lay)
        if not df:
            continue
        num = P.pmul(a.num, df, lay, ctx.max_terms)
        num = P.pscale(num, -e)
        bumped = tuple((g, ex + 1) if j == i else (g, ex)
                       for j, (g, ex) in enumerate(a.den_factors))
        terms.append(RatFunc(num, a.den_scalar, bumped))
    return terms


def rf_equal(ctx: Context, a: RatFunc, b: RatFunc) -> bool:
    return rf_sub(ctx, a, b).is_zero()


def rf_den_poly(ctx: Context, a: RatFunc) -> P.Poly:
    """The denominator multiplied out as one polynomial: the numerator of
    the inverse (rf_inverse) and of a printed denominator."""
    lay = ctx.layout
    out = P.pconst(a.den_scalar)
    for f, e in a.den_factors:
        out = P.pmul(out, P.ppow(f.poly, e, lay, ctx.max_terms), lay, ctx.max_terms)
    return out


def rf_is_poly(a: RatFunc) -> bool:
    return a.den_scalar == 1 and not a.den_factors


def rf_as_fraction(a: RatFunc) -> Optional[Fraction]:
    """The exact rational value when a is constant, else None."""
    if a.is_zero():
        return Fraction(0)
    if a.den_factors:
        return None
    if len(a.num) != 1:
        return None
    (m, c), = a.num.items()
    if m != 0:
        return None
    return Fraction(c, a.den_scalar)
