"""Normal forms over the algebraic symbol tower.

A normal form (NF) is a dict mapping a packed monomial in the algebraic
symbols (exponent of each symbol kept below its degree) to a RatFunc
coefficient in the base variables.  The empty dict is zero.  Results are
reduced against the registered minimal polynomials and their coefficients
by ratfunc.rf_make, so equality of normal forms is plain structural
equality and the zero test is exact.

Coefficients are reduced once per result, not once per term product:
nf_sum_products adds each term product, unreduced, into the numerator sum
of its algebraic monomial and its denominator.  Partials (a, v, r) go in
the same way: the unreduced quotient-rule and chain-rule terms of da/dv,
each times every term of r, so a total derivative sum_v (da/dv) D(v)
(jet.NFJet) is reduced once, not once per partial and again per product.
A monomial with a symbol power over its degree is summed like any other;
before anything is reduced, its sums are rewritten once, by the normal
form of that monomial alone (its expansion, made once per context), not
once per product: delayed reduction modulo a triangular set (Li, Moreno
Maza and Schost, J. Symb. Comp. 44(7), 2009).  Each monomial's sums are
then brought over their lcm with one cofactor product per distinct
denominator and reduced with one rf_make (ratfunc.rf_sum_by_den).  A
result may be a whole sum, such as the determining residual of
verify.determining_residual, which is then reduced once.  That gives the
form that reducing every step gives, because on the square-free, pairwise
coprime factor base a reduced rational function is unique (see ratfunc).

Inverses are computed by the extended Euclidean algorithm in K[s]/(m(s)),
where s is the highest registered symbol occurring in the operand and K is
the normal-form field over the remaining symbols; the recursion bottoms out
at pure base-variable rational functions.

nf_to_expr turns a normal form back into a tree, for extract_g; a report
prints its normal forms with parser.print_nf, whose reference it is.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..errors import (AdmissibilityError, NotInvertibleError, SizeLimitError,
                      UnknownNameError)
from . import poly as P
from . import ratfunc as R
from . import tree
from .context import ALG, PARAM, Context, SymbolDef
from .ratfunc import RatFunc
from .tree import Add, Const, Div, Expr, Mul, Name, Pow

NF = Dict[int, RatFunc]
Sums = Dict[int, Dict[R.Den, P.Poly]]  # numerator sum per monomial and denominator


# -- constructors ----------------------------------------------------------

def nf_zero(ctx: Context) -> NF:
    return {}


def nf_const(ctx: Context, q) -> NF:
    rf = R.rf_const(ctx, q)
    return {} if rf.is_zero() else {0: rf}


def nf_base(ctx: Context, name: str) -> NF:
    v = ctx.base(name)
    mono = ctx.layout.unit(v.index)
    return {0: RatFunc({mono: 1}, 1, ())}


def nf_sym(ctx: Context, name: str, power: int = 1) -> NF:
    s = ctx.alg(name)
    _rewrite_table(ctx, s.index)  # refuses a reducible relation
    if power == 0:
        return nf_const(ctx, 1)
    if power < s.degree:
        return {power * ctx.alg_layout.unit(s.index): R.rf_const(ctx, 1)}
    return nf_pow(ctx, nf_sym(ctx, name, 1), power)


def nf_name(ctx: Context, name: str) -> NF:
    name = ctx.resolve(name)
    if ctx.is_alg(name):
        return nf_sym(ctx, name)
    return nf_base(ctx, name)


# -- reduction against minimal polynomials ----------------------------------

def minpoly_nf(ctx: Context, sym: SymbolDef) -> Tuple[NF, ...]:
    """Normal forms of the minimal-polynomial coefficients of sym, made
    once per context."""
    cached = ctx._minpoly_nf.get(sym.index)
    if cached is None:
        cached = ctx._minpoly_nf[sym.index] = tuple(
            normalize(ctx, c) for c in sym.minpoly_coeffs)
    return cached


# discriminant of a relation of degree 2 or 3 in its coefficients c_i, as
# (integer, indices i of the factors c_i) per term
_DISCRIMINANT = {
    2: ((1, (1, 1)), (-4, (0, 2))),
    3: ((1, (2, 2, 1, 1)), (-4, (3, 1, 1, 1)), (-4, (2, 2, 2, 0)),
        (-27, (3, 3, 0, 0)), (18, (3, 2, 1, 0))),
}


def _reducible(ctx: Context, sym: SymbolDef) -> bool:
    """Whether a relation of degree 2 or 3 splits: it has a repeated root
    (zero discriminant), or it is a quadratic whose discriminant is a
    rational square.  Exact for this tower; no general irreducibility test."""
    terms = _DISCRIMINANT.get(sym.degree)
    if terms is None:
        return False
    c = minpoly_nf(ctx, sym)
    disc = nf_sum(ctx, [nf_scale(ctx, functools.reduce(
        lambda a, b: nf_mul(ctx, a, b), [c[i] for i in ix]), k) for k, ix in terms])
    if not disc:
        return True
    q = R.rf_as_fraction(disc[0]) if sym.degree == 2 and list(disc) == [0] else None
    return q is not None and q > 0 and all(
        math.isqrt(k) ** 2 == k for k in (q.numerator, q.denominator))


def _rewrite_table(ctx: Context, i: int) -> Tuple[RatFunc, ...]:
    """Coefficients t_k with s_i^d = sum_k t_k s_i^k, k < d.  A relation
    that a parameter binding made reducible raises AdmissibilityError: its
    symbol would give zero divisors, not a field.  The registered relations,
    with their parameters free, are irreducible, so only a bound context
    is tested."""
    cached = ctx._reduction.get(i)
    if cached is not None:
        return cached
    sym = ctx.alg_syms[i]
    if ctx.bound and _reducible(ctx, sym):
        at = ", ".join(f"{k}={v}" for k, v in sorted(ctx.bound.items()))
        raise AdmissibilityError(f"the relation of {sym.name} is reducible"
                                 + (f" at {at}" if at else ""))
    coeffs = minpoly_nf(ctx, sym)
    for k, c in enumerate(coeffs):
        for mono in c:
            if mono != 0:
                raise ValueError(
                    f"minimal polynomial coefficient of {sym.name} not in base field")
    lead = coeffs[-1].get(0)
    if lead is None:
        raise ValueError(f"zero leading coefficient in minimal polynomial of {sym.name}")
    inv_lead = R.rf_inverse(ctx, lead)
    table = tuple(
        R.rf_neg(ctx, R.rf_mul(ctx, coeffs[k].get(0, R.rf_zero(ctx)), inv_lead))
        if 0 in coeffs[k] else R.rf_zero(ctx)
        for k in range(sym.degree)
    )
    ctx._reduction[i] = table
    return table


def _over(ctx: Context, mono: int) -> int:
    """The borrow bits of the symbols of mono at or over their degree."""
    return (mono + ctx.alg_over) & ctx.alg_layout.borrow_mask


def _expansion(ctx: Context, mono: int) -> Tuple[Tuple[int, R.Den, P.Poly], ...]:
    """The normal form of the alg monomial mono, some symbol of it over its
    degree, as (monomial, denominator, numerator) triples, made once per
    context: the first symbol over its degree rewritten by its table, the
    last term first.  The triples keep the order in which that meets their
    monomials; one whose coefficient cancelled keeps its place with {}."""
    hit = ctx._expansion.get(mono)
    if hit is None:
        over = _over(ctx, mono)
        # the lowest borrow bit is the first symbol over its degree
        i = ((over & -over).bit_length() - 1) // P.FIELD_BITS
        unit = ctx.alg_layout.unit(i)
        rest = mono - ctx.alg_syms[i].degree * unit
        table = _rewrite_table(ctx, i)
        sums: Sums = {}
        for k in range(len(table) - 1, -1, -1):
            if not table[k].is_zero():
                _collect(ctx, sums, rest + k * unit, table[k])
        order = [m for m in sums if not _over(ctx, m)]
        nf, zero = _reduce_groups(ctx, sums), R.rf_zero(ctx)
        hit = ctx._expansion[mono] = tuple(
            (m, nf.get(m, zero).den, nf.get(m, zero).num) for m in order)
    return hit


def _collect(ctx: Context, sums: Sums, mono: int, a: RatFunc,
             b: Optional[RatFunc] = None) -> None:
    """Add the unreduced a * b (or a) times the alg monomial mono into the
    numerator sum of its monomial and denominator, mono over a symbol's
    degree or not.  The first time an over one is met, the monomials of its
    expansion are entered in order, so the result keeps the monomial order
    that rewriting each product on its own gives."""
    group = sums.get(mono)
    if group is None:
        if _over(ctx, mono):
            for m, _, _ in _expansion(ctx, mono):
                sums.setdefault(m, {})
        group = sums[mono] = {}
    if b is None:
        P.padd_inplace(group.setdefault(a.den, {}), a.num)
    else:
        P.pmul_into(group.setdefault(R.den_mul(ctx, a.den, b.den), {}),
                    a.num, b.num, ctx.layout, ctx.max_terms)


def _reduce_groups(ctx: Context, sums: Sums) -> NF:
    """Each monomial over a symbol's degree rewritten by its expansion,
    once per denominator of its sums; then each monomial's sums reduced
    once, with one cofactor product per distinct denominator, and dropped."""
    for m in [m for m in sums if _over(ctx, m)]:
        for den, num in sums.pop(m).items():
            for mt, dt, nt in _expansion(ctx, m):
                P.pmul_into(sums[mt].setdefault(R.den_mul(ctx, den, dt), {}),
                            num, nt, ctx.layout, ctx.max_terms)
    out: NF = {}
    for m in list(sums):
        tot = R.rf_sum_by_den(ctx, sums.pop(m))
        if not tot.is_zero():
            out[m] = tot
    if nf_size(out) > ctx.max_terms:
        raise SizeLimitError(f"normal form exceeds {ctx.max_terms} terms")
    return out


# -- arithmetic -------------------------------------------------------------

def nf_add(ctx: Context, a: NF, b: NF) -> NF:
    return nf_sum(ctx, (a, b))


def nf_sum(ctx: Context, items) -> NF:
    items = [a for a in items if a]
    if not items:
        return {}
    if len(items) == 1:
        return dict(items[0])
    groups: Dict[int, List[RatFunc]] = {}
    for a in items:
        for m, c in a.items():
            groups.setdefault(m, []).append(c)
    out: NF = {}
    for m, cs in groups.items():
        tot = cs[0] if len(cs) == 1 else R.rf_sum(ctx, cs)
        if not tot.is_zero():
            out[m] = tot
    return out


def nf_neg(ctx: Context, a: NF) -> NF:
    return {m: R.rf_neg(ctx, c) for m, c in a.items()}


def nf_sub(ctx: Context, a: NF, b: NF) -> NF:
    return nf_add(ctx, a, nf_neg(ctx, b))


def nf_scale(ctx: Context, a: NF, q) -> NF:
    q = Fraction(q)
    if q == 0:
        return {}
    return {m: R.rf_scale(ctx, c, q) for m, c in a.items()}


def nf_sum_products(ctx: Context, pairs, partials=()) -> NF:
    """The sum of a * b over the pairs (a, b), plus (da/dv) * r over the
    partials (a, v, r).  Every term product and every quotient-rule and
    chain-rule term is formed unreduced and collected by algebraic
    monomial, and each coefficient of the result is reduced once."""
    sums: Sums = {}
    for a, b in pairs:
        for ma, ca in a.items():
            for mb, cb in b.items():
                _collect(ctx, sums, ma + mb, ca, cb)
    for a, var_name, rule in partials:
        _collect_partial(ctx, sums, a, var_name, rule)
    return _reduce_groups(ctx, sums)


def nf_mul(ctx: Context, a: NF, b: NF) -> NF:
    return nf_sum_products(ctx, ((a, b),))


def nf_pow(ctx: Context, a: NF, k: int) -> NF:
    if k < 0:
        return nf_pow(ctx, nf_inverse(ctx, a), -k)
    result = nf_const(ctx, 1)
    base = a
    while k:
        if k & 1:
            result = nf_mul(ctx, result, base)
        k >>= 1
        if k:
            base = nf_mul(ctx, base, base)
    return result


def nf_is_zero(a: NF) -> bool:
    return not a


def nf_equal(ctx: Context, a: NF, b: NF) -> bool:
    return nf_is_zero(nf_sub(ctx, a, b))


# -- inversion --------------------------------------------------------------

def _upoly_coeffs(ctx: Context, a: NF, i: int, degree_cap: int) -> List[NF]:
    """a viewed as a polynomial in symbol i with NF coefficients."""
    lay = ctx.alg_layout
    unit = lay.unit(i)
    coeffs: List[NF] = [dict() for _ in range(degree_cap)]
    for m, c in a.items():
        e = lay.exp(m, i)
        coeffs[e][m - e * unit] = c
    return _upoly_trim(coeffs)


def _upoly_trim(p: List[NF]) -> List[NF]:
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _upoly_is_zero(p: List[NF]) -> bool:
    return all(not c for c in p)


def _upoly_divmod(ctx: Context, a: List[NF], b: List[NF]) -> Tuple[List[NF], List[NF]]:
    b = _upoly_trim(list(b))
    if _upoly_is_zero(b):
        raise NotInvertibleError("division by zero in symbol tower")
    inv_lead = nf_inverse(ctx, b[-1])
    rem = [dict(c) for c in a]
    _upoly_trim(rem)
    db = len(b) - 1
    q: List[NF] = [dict() for _ in range(max(len(rem) - db, 1))]
    while len(rem) - 1 >= db and not _upoly_is_zero(rem):
        k = len(rem) - 1 - db
        factor = nf_mul(ctx, rem[-1], inv_lead)
        q[k] = factor
        for j, bj in enumerate(b):
            if bj:
                rem[k + j] = nf_sub(ctx, rem[k + j], nf_mul(ctx, factor, bj))
        rem.pop()
        _upoly_trim(rem)
    return q, rem


def nf_inverse(ctx: Context, a: NF) -> NF:
    if not a:
        raise NotInvertibleError("inverse of zero")
    syms = P.pvars(a, ctx.alg_layout)
    if not syms:
        return {0: R.rf_inverse(ctx, a[0])}
    i = max(syms)
    sym = ctx.alg_syms[i]
    d = sym.degree
    av = _upoly_coeffs(ctx, a, i, d)
    # extended Euclid on the minimal polynomial of s_i (univariate over the
    # lower field) and a, tracking only the Bezout coefficient of a
    r0, r1 = minpoly_nf(ctx, sym), av
    t0: List[NF] = [dict()]
    t1: List[NF] = [nf_const(ctx, 1)]
    while True:
        _upoly_trim(r1)
        if _upoly_is_zero(r1):
            raise NotInvertibleError(
                f"operand is a zero divisor modulo the relation for {sym.name}")
        if len(r1) == 1:
            break
        q, r2 = _upoly_divmod(ctx, r0, r1)
        # t2 = t0 - q * t1
        prod: List[NF] = [dict() for _ in range(len(q) + len(t1) - 1)]
        for x, qx in enumerate(q):
            if not qx:
                continue
            for y, ty in enumerate(t1):
                if ty:
                    prod[x + y] = nf_add(ctx, prod[x + y], nf_mul(ctx, qx, ty))
        t2 = [dict(c) for c in t0] + [dict() for _ in range(max(0, len(prod) - len(t0)))]
        for j, pj in enumerate(prod):
            t2[j] = nf_sub(ctx, t2[j], pj)
        r0, r1 = r1, r2
        t0, t1 = t1, _upoly_trim(t2)
    c_inv = nf_inverse(ctx, r1[0])
    unit = ctx.alg_layout.unit(i)
    return nf_sum_products(ctx, [({m + k * unit: c for m, c in tk.items()}, c_inv)
                                 for k, tk in enumerate(t1)])


# -- normalization of expression trees ---------------------------------------

def normalize(ctx: Context, e: Expr) -> NF:
    memo: Dict[int, NF] = {}

    def go(x: Expr) -> NF:
        key = id(x)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(x, Const):
            r = nf_const(ctx, x.value)
        elif isinstance(x, Name):
            r = nf_name(ctx, x.name)
        elif isinstance(x, Add):
            r = nf_sum(ctx, [go(t) for t in x.args])
        elif isinstance(x, Mul):
            r = nf_const(ctx, 1)
            for t in x.args:
                r = nf_mul(ctx, r, go(t))
        elif isinstance(x, Pow):
            r = nf_pow(ctx, go(x.base), x.exp)
        elif isinstance(x, Div):
            r = nf_mul(ctx, go(x.num), nf_inverse(ctx, go(x.den)))
        else:
            raise TypeError(f"cannot normalize {type(x).__name__}")
        memo[key] = r
        return r

    try:
        return go(e)
    finally:
        del go  # a recursive closure is a cycle; free the memo now


# -- differentiation ---------------------------------------------------------

def deriv_nf(ctx: Context, name: str) -> NF:
    """Normal form of the derivative rule of a symbol, w.r.t. its argument."""
    cached = ctx._deriv_nf.get(name)
    if cached is not None:
        return cached
    link = ctx.chain(name)
    if link is None or link[1] is None:
        raise UnknownNameError(f"symbol {name!r} has no derivative rule")
    nf = normalize(ctx, link[1])
    ctx._deriv_nf[name] = nf
    return nf


def _collect_partial(ctx: Context, sums: Sums, a: NF, var_name: str,
                     rule: Optional[NF] = None) -> None:
    """Add the unreduced terms of (da/dvar) * rule (rule None: 1) into the
    sums: the quotient-rule terms of each coefficient, and its chain-rule
    terms through every registered symbol whose argument is var, each
    formed once and then multiplied by every term of rule."""
    var_name = ctx.resolve(var_name)
    v = ctx.base(var_name)
    if v.kind == PARAM:
        raise ValueError(f"partial derivative w.r.t. parameter {var_name!r} "
                         "is not defined (symbol relations depend on it)")
    vi = v.index
    lay = ctx.alg_layout
    chained = ctx.symbols_with_arg(var_name)
    rule_terms = ((0, None),) if rule is None else rule.items()
    for m, c in a.items():
        terms = [(m, t) for t in R.rf_partial_terms(ctx, c, vi)]
        for s in chained:
            if s.kind != ALG:  # a transcendental symbol is a base variable
                outer = [(m, t) for t in R.rf_partial_terms(ctx, c, s.index)]
            else:
                e = lay.exp(m, s.index)
                outer = [(m - lay.unit(s.index), R.rf_scale(ctx, c, e))] if e else []
            for mf, cf in outer:
                for mb, cb in deriv_nf(ctx, s.name).items():
                    terms.append((mf + mb, RatFunc(
                        P.pmul(cf.num, cb.num, ctx.layout, ctx.max_terms),
                        *R.den_mul(ctx, cf.den, cb.den))))
        for mt, t in terms:
            for mr, cr in rule_terms:
                _collect(ctx, sums, mt + mr, t, cr)


def nf_partial(ctx: Context, a: NF, var_name: str) -> NF:
    """Partial derivative w.r.t. a base variable, with chain rules through
    every registered symbol whose argument is that variable."""
    sums: Sums = {}
    _collect_partial(ctx, sums, a, var_name)
    return _reduce_groups(ctx, sums)


def nf_free_vars(ctx: Context, a: NF) -> set:
    """Names of base variables and symbols occurring in a."""
    out = {ctx.alg_syms[i].name for i in P.pvars(a, ctx.alg_layout)}
    lay = ctx.layout
    for c in a.values():
        for p in (c.num, *(f.poly for f, _ in c.den_factors)):
            for i in P.pvars(p, lay):
                out.add(ctx.base_vars[i].name)
    return out


# -- conversion back to expression trees -------------------------------------

def _term(parts: List[Expr], lay, syms, m: int) -> Expr:
    """The product of parts and the Name or Pow factor of each variable of
    the monomial m over syms (ctx.base_vars or ctx.alg_syms), raw."""
    for i in lay.mono_vars(m):
        e = lay.exp(m, i)
        nm = Name(syms[i].name)
        parts.append(nm if e == 1 else Pow(nm, e))
    return parts[0] if len(parts) == 1 else Mul(tuple(parts))


def _sum(terms: List[Expr]) -> Expr:
    if not terms:
        return tree.ZERO
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def _poly_to_expr(ctx: Context, p: P.Poly) -> Expr:
    return _sum([_term([Const(c)] if c != 1 or m == 0 else [],
                       ctx.layout, ctx.base_vars, m)
                 for m, c in P.psorted(p)])


def _rf_to_expr(ctx: Context, a: RatFunc) -> Expr:
    num = _poly_to_expr(ctx, a.num)
    if R.rf_is_poly(a):
        return num
    den = _poly_to_expr(ctx, R.rf_den_poly(ctx, a))
    return Div(num, den)


def nf_to_expr(ctx: Context, a: NF) -> Expr:
    """Deterministic expression form: algebraic monomials in descending
    graded-lex order, each coefficient a ratio of ordered integer polynomials."""
    terms = []
    for m in sorted(a, reverse=True):
        coeff = _rf_to_expr(ctx, a[m])
        terms.append(_term([coeff] if coeff != tree.ONE or m == 0 else [],
                           ctx.alg_layout, ctx.alg_syms, m))
    return _sum(terms)


def nf_size(a: NF) -> int:
    return sum(len(c.num) for c in a.values())
