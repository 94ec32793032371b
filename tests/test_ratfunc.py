"""Rational functions with interned denominator factors: canonical form,
field laws, and exact cancellation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_invariants, ref_padd, ref_rf_add, ref_rf_equal

from hypersym import verify
from hypersym.catalog import Catalog
from hypersym.errors import DivisionByZeroError, SizeLimitError
from hypersym.expr import normal as N
from hypersym.expr import poly as P
from hypersym.expr import ratfunc as R
from hypersym.expr.context import default_context
from hypersym.expr.parser import parse


def rf_of(ctx, text):
    """RatFunc of a purely base-variable expression."""
    nf = N.normalize(ctx, parse(text, ctx))
    assert set(nf) <= {0}
    return nf.get(0, R.rf_zero(ctx))


def poly_of(ctx, text):
    rf = rf_of(ctx, text)
    assert R.rf_is_poly(rf)
    return rf.num


def rand_rf(ctx, rng):
    num = ["u1", "u2", "v1", "u1^2*u2", "u", "2", "u1*v1 - 3"]
    den = ["1", "u1", "u2^2", "u1 + u2", "3*v1", "u1*u2"]
    a = rf_of(ctx, rng.choice(num))
    b = rf_of(ctx, rng.choice(den))
    return R.rf_mul(ctx, a, R.rf_inverse(ctx, b))


def test_constants_and_predicates(ctx):
    one = R.rf_const(ctx, 1)
    half = R.rf_const(ctx, Fraction(1, 2))
    assert R.rf_as_fraction(one) == 1
    assert R.rf_as_fraction(half) == Fraction(1, 2)
    assert R.rf_as_fraction(R.rf_zero(ctx)) == 0
    assert R.rf_is_poly(one)
    assert not R.rf_is_poly(half)
    u1 = rf_of(ctx, "u1")
    assert R.rf_as_fraction(u1) is None


def test_field_laws_random(ctx):
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (rand_rf(ctx, rng) for _ in range(3))
        assert ref_rf_equal(ctx, ref_rf_add(ctx, a, b), ref_rf_add(ctx, b, a))
        assert ref_rf_equal(
            ctx,
            ref_rf_add(ctx, ref_rf_add(ctx, a, b), c),
            ref_rf_add(ctx, a, ref_rf_add(ctx, b, c)))
        assert ref_rf_equal(
            ctx,
            R.rf_mul(ctx, a, ref_rf_add(ctx, b, c)),
            ref_rf_add(ctx, R.rf_mul(ctx, a, b), R.rf_mul(ctx, a, c)))
        assert ref_rf_equal(ctx, a, a)
        canonical_invariants(ctx, ref_rf_add(ctx, a, b))
        canonical_invariants(ctx, R.rf_mul(ctx, a, b))


def test_inverse_round_trip(ctx):
    rng = random.Random(12)
    one = R.rf_const(ctx, 1)
    for _ in range(40):
        a = rand_rf(ctx, rng)
        if a.is_zero():
            continue
        inv = R.rf_inverse(ctx, a)
        assert ref_rf_equal(ctx, R.rf_mul(ctx, a, inv), one)
        canonical_invariants(ctx, inv)
    with pytest.raises(DivisionByZeroError):
        R.rf_inverse(ctx, R.rf_zero(ctx))


def test_inverse_of_composite_factor_cancels(ctx):
    # 1/((u1+1)*u2^2) times (u1+1)*u2^2 must collapse to 1 exactly,
    # which requires the numerator of the inverse to be re-split into
    # the same interned factors rather than kept opaque.
    p = rf_of(ctx, "(u1 + 1)*u2^2")
    inv = R.rf_inverse(ctx, p)
    assert R.rf_as_fraction(R.rf_mul(ctx, p, inv)) == 1
    # and pulling out only one power of u2 also cancels
    q = rf_of(ctx, "u2")
    prod = R.rf_mul(ctx, inv, q)  # 1/((u1+1)*u2)
    back = R.rf_mul(ctx, prod, rf_of(ctx, "(u1 + 1)*u2"))
    assert R.rf_as_fraction(back) == 1


def test_monomial_content_split(ctx):
    mult, fs = R.intern_factors(ctx, poly_of(ctx, "6*u1^2*u2*(u1 + u2)"))
    assert mult == 6
    # one factor per variable of the monomial part plus the primitive rest
    exps = sorted(e for _, e in fs)
    assert exps == [1, 1, 2]
    rebuilt = P.pconst(mult)
    for f, e in fs:
        rebuilt = P.pmul(rebuilt, P.ppow(f.poly, e, ctx.layout), ctx.layout)
    assert rebuilt == poly_of(ctx, "6*u1^2*u2*(u1 + u2)")


def test_den_poly_materializes_denominator(ctx):
    a = R.rf_mul(ctx, rf_of(ctx, "u1 + 3"),
                 R.rf_inverse(ctx, rf_of(ctx, "2*u2*(u1 + u2)")))
    den = R.rf_den_poly(ctx, a)
    assert den == poly_of(ctx, "2*u2*(u1 + u2)")
    cleared = R.rf_mul(ctx, a, R.rf_make(ctx, dict(den), 1, ()))
    assert R.rf_is_poly(cleared)
    assert cleared.num == poly_of(ctx, "u1 + 3")


def test_sum_and_scale(ctx):
    rng = random.Random(13)
    items = [rand_rf(ctx, rng) for _ in range(6)]
    total = R.rf_sum(ctx, items)
    acc = R.rf_zero(ctx)
    for it in items:
        acc = ref_rf_add(ctx, acc, it)
    assert ref_rf_equal(ctx, total, acc)
    a = items[0]
    assert ref_rf_equal(ctx, R.rf_scale(ctx, a, Fraction(-3, 2)),
                      R.rf_mul(ctx, R.rf_const(ctx, Fraction(-3, 2)), a))
    assert ref_rf_add(ctx, a, R.rf_neg(ctx, a)).is_zero()


def ref_rf_sum(ctx, items):
    """rf_sum before summands were collected by denominator: each summand
    multiplied by its own cofactor over the lcm, then added into the total."""
    items = [a for a in items if not a.is_zero()]
    if not items:
        return R.rf_zero(ctx)
    if len(items) == 1:
        a = items[0]
        return R.rf_make(ctx, a.num, a.den_scalar, a.den_factors)
    lay = ctx.layout
    s, fmax = 1, {}
    for a in items:
        s = math.lcm(s, a.den_scalar)
        for f, e in a.den_factors:
            if e > fmax.get(f.fid, (f, 0))[1]:
                fmax[f.fid] = (f, e)
    total = {}
    for a in items:
        have = {f.fid: e for f, e in a.den_factors}
        term = a.num
        for fid, (f, e) in fmax.items():
            if e > have.get(fid, 0):
                term = P.pmul(term, P.ppow(f.poly, e - have.get(fid, 0), lay), lay)
        P.padd_inplace(total, term, s // a.den_scalar)
    return R.rf_make(ctx, total, s, tuple(fe for _, fe in sorted(fmax.items())))


def rf_fields(a):
    return sorted(a.num.items()), a.den_scalar, a.den_factors


def test_sum_by_denominator_matches_per_summand_sum(ctx):
    rng = random.Random(41)
    for _ in range(40):
        items = [rand_rf(ctx, rng) for _ in range(rng.randint(1, 7))]
        # unreduced products over shared denominators, as normal forms sum them
        items += [R.RatFunc(P.pmul(a.num, b.num, ctx.layout), *R.den_mul(ctx, a.den, b.den))
                  for a, b in zip(items, items[1:])]
        rng.shuffle(items)
        assert rf_fields(R.rf_sum(ctx, items)) == rf_fields(ref_rf_sum(ctx, items))
    # two summands over one denominator cancel exactly; the third keeps the
    # lcm larger than its own denominator
    a = R.rf_mul(ctx, rf_of(ctx, "u1 + 2"),
                 R.rf_inverse(ctx, rf_of(ctx, "2*u2*(u1 + u2)")))
    b = R.rf_mul(ctx, rf_of(ctx, "v1"), R.rf_inverse(ctx, rf_of(ctx, "3*u1^2")))
    for items in ([a, R.rf_neg(ctx, a), b], [b, a, R.rf_neg(ctx, a)],
                  [a, R.rf_neg(ctx, a)]):
        got = R.rf_sum(ctx, items)
        assert rf_fields(got) == rf_fields(ref_rf_sum(ctx, items))
    assert rf_fields(R.rf_sum(ctx, [a, R.rf_neg(ctx, a), b])) == rf_fields(b)


def test_sum_keeps_the_exponent_limit():
    # u1^(top/2) brought over the denominator u1^(5*top/8) + 1 overflows
    # the packed exponent of u1
    ctx = default_context()
    lay = ctx.layout
    u1 = ctx.base("u1").index
    top = P.FIELD_TOP
    _, f = R.intern_factor(ctx, {lay.var_mono(u1, top * 5 // 8): 1, 0: 1})
    items = [R.RatFunc({0: 1}, 1, ((f, 1),)),
             R.RatFunc({lay.var_mono(u1, top // 2): 1}, 1, ())]
    with pytest.raises(SizeLimitError, match="overflow"):
        R.rf_sum(ctx, items)
    with pytest.raises(SizeLimitError, match="overflow"):
        ref_rf_sum(ctx, items)


def ref_rf_scale(ctx, a, q):
    """rf_scale by trial division: every factor tried on the scaled
    numerator, as rf_make does."""
    q = Fraction(q)
    if a.is_zero() or q == 0:
        return R.rf_zero(ctx)
    return R.rf_make(ctx, P.pscale(a.num, q.numerator),
                     a.den_scalar * q.denominator, a.den_factors)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32),
       st.fractions(min_value=-50, max_value=50, max_denominator=36))
def test_rf_scale_needs_no_trial(ctx, seed, q):
    rng = random.Random(seed)
    a = R.rf_mul(ctx, rand_rf(ctx, rng), rand_rf(ctx, rng))
    got, want = R.rf_scale(ctx, a, q), ref_rf_scale(ctx, a, q)
    assert (got.num, got.den_scalar, got.den_factors) == \
        (want.num, want.den_scalar, want.den_factors)
    canonical_invariants(ctx, got)


# -- the square-free factor base ---------------------------------------------
# Dense integer polynomials, coefficient of x^k at index k.  The reference
# gcd below works over Q with Fractions, apart from the integer one under
# test.

def dmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_gcd_degree(a, b):
    """Degree of gcd(a, b) over Q, by Euclid on Fraction coefficients."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while any(b):
        while b and not b[-1]:
            b.pop()
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            k = len(a) - len(b)
            for j, c in enumerate(b):
                a[k + j] -= q * c
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    while a and not a[-1]:
        a.pop()
    return len(a) - 1


small_polys = st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(
    lambda a: a[-1] != 0 and a[0] != 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(small_polys, st.integers(1, 4)),
                min_size=1, max_size=4))
def test_square_free_parts_property(pieces):
    a = [1]
    for b, e in pieces:
        for _ in range(e):
            a = dmul(a, b)
    a = R._dprimitive(a)
    parts = R.square_free_parts(a)
    back = [1]
    for b, e in parts:
        assert len(b) > 1 and b[-1] > 0
        for _ in range(e):
            back = dmul(back, b)
        # square-free: no common factor with its derivative
        assert ref_gcd_degree(b, [k * c for k, c in enumerate(b)][1:]) == 0
    assert back == a
    for i, (b, _) in enumerate(parts):
        for c, _ in parts[i + 1:]:
            assert ref_gcd_degree(b, c) == 0


def test_square_free_parts_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    cases = ["(x**3 - 1)**5", "(x**3 - 1)**3*(19*x**3 + 8)**2",
             "(x - 1)**2*(x + 1)**2*(2*x + 3)**7", "(x**2 + x + 1)*(x - 1)**4",
             "(x**3 - 1)**28", "(3*x**2 - 2)**2*(x**5 + x + 1)"]
    for text in cases:
        poly = sympy.Poly(sympy.sympify(text), x)
        dense = [int(c) for c in reversed(poly.all_coeffs())]
        _, want = sympy.sqf_list(poly)
        want = sorted((tuple(int(c) for c in reversed(f.all_coeffs())), e)
                      for f, e in want)
        got = sorted((tuple(b), e) for b, e in R.square_free_parts(dense))
        assert got == want, text


def test_intern_factors_splits_univariate_powers(ctx):
    mult, fs = R.intern_factors(
        ctx, poly_of(ctx, "-3*u1^2*(u1^3 - 1)^3*(u1 + 2)"))
    assert mult == -3
    want = {(R.poly_key(poly_of(ctx, t)), e)
            for t, e in (("u1", 2), ("u1^3 - 1", 3), ("u1 + 2", 1))}
    assert {(f.key, e) for f, e in fs} == want
    # a multivariate remainder that no interned factor divides is interned
    # whole
    _, fs = R.intern_factors(ctx, poly_of(ctx, "(u1 + v1)^2"))
    assert [(f.key, e) for f, e in fs] == [
        (R.poly_key(poly_of(ctx, "(u1 + v1)^2")), 1)]


def to_sympy(sympy, p, lay, used):
    """p as a sympy Poly in the variables of the index list used only:
    sympy's gcd slows down with every generator, used or not."""
    gens = sympy.symbols(f"x0:{len(used)}")
    return sympy.Poly.from_dict(
        {tuple(lay.exp(m, i) for i in used): c for m, c in p.items()}, *gens)


def test_factor_base_stays_coprime_on_the_workloads():
    """After exact verify-all and the 26 screen pairs, every interned
    factor, multivariate ones included, is square-free, and no two share a
    factor (sympy as the reference).  Each factor's division data equals a
    fresh recomputation from its polynomial."""
    sympy = pytest.importorskip("sympy")
    cat = Catalog()
    verify.verify_all(cat, jobs=1)
    for e in cat.list("hyperbolic"):
        for ev in ("ev12", "ev21"):
            verify.verify_pair(cat.get(e.id), cat.get(ev))
    lay = cat.ctx.layout
    atoms = cat.ctx.den_atoms
    assert sum(len(P.pvars(f.poly, lay)) > 1 for f in atoms) >= 3
    used = sorted(set().union(*(P.pvars(f.poly, lay) for f in atoms)))
    polys = [to_sympy(sympy, f.poly, lay, used) for f in atoms]
    for j, a in enumerate(polys):
        _, parts = sympy.sqf_list(a)
        assert [e for _, e in parts] == [1], atoms[j]
        for b in polys[j + 1:]:
            assert sympy.gcd(a, b).total_degree() == 0
    for f in atoms:
        fresh = P.Divisor(f.poly, lay)
        assert [getattr(f, k) for k in P.Divisor.__slots__] == \
            [getattr(fresh, k) for k in P.Divisor.__slots__]


def test_inverse_interns_the_cofactor_of_an_interned_factor():
    """Once g is interned, 1/(g^2*h) interns h, not g^2*h, for
    multivariate g and h; the form is the same as 1/g^2 times 1/h."""
    ctx = default_context()
    g, h = rf_of(ctx, "u1*v1 + u2"), rf_of(ctx, "u2^2 - v1 + 3")
    R.rf_inverse(ctx, g)
    gh = R.rf_mul(ctx, R.rf_mul(ctx, g, g), h)
    got = R.rf_inverse(ctx, gh)
    keys = [f.key for f in ctx.den_atoms]
    assert keys == [R.poly_key(g.num), R.poly_key(h.num)]
    assert [(f.key, e) for f, e in got.den_factors] == [(keys[0], 2),
                                                        (keys[1], 1)]
    assert rf_fields(got) == rf_fields(
        R.rf_mul(ctx, R.rf_inverse(ctx, R.rf_mul(ctx, g, g)),
                 R.rf_inverse(ctx, h)))
    assert R.rf_as_fraction(R.rf_mul(ctx, gh, got)) == 1


# -- trial data carried through rf_make ---------------------------------------

def fresh_checks_pass(a, b, lay):
    """The necessary conditions for b | a, recomputed from a and b: the
    trailing terms, and the values at (2, ..., 2) and (3, ..., 3)."""
    ta, tb = min(a), min(b)
    d = ta - tb
    if d < 0 or d & lay.borrow_mask or a[ta] % b[tb]:
        return False
    for x in (2, 3):
        av = sum(c * x ** lay.total(m) for m, c in a.items())
        bv = sum(c * x ** lay.total(m) for m, c in b.items())
        if av % bv if bv else av:
            return False
    return True


def ref_rf_make(ctx, num, den_scalar, den_factors, divide, passed):
    """rf_make's per-trial loop before the carried data: each factor is
    tried by a division of its own for as long as it is exact.  passed[0]
    counts the trials by a multi-term factor that pass fresh_checks_pass,
    the ones that rf_make must hand to pdiv_exact."""
    lay = ctx.layout
    reduced = []
    for f, e in den_factors:
        while e > 0:
            if len(f.poly) > 1 and fresh_checks_pass(num, f.poly, lay):
                passed[0] += 1
            q = divide(num, f.poly, lay)
            if q is None:
                break
            num, e = q, e - 1
        if e > 0:
            reduced.append((f, e))
    if den_scalar < 0:
        den_scalar, num = -den_scalar, P.pneg(num)
    g = math.gcd(P.pcontent(num), den_scalar)
    num = {m: v // g for m, v in num.items()}
    return R.RatFunc(num, den_scalar // g,
                     tuple(sorted(reduced, key=lambda fe: fe[0].fid)))


def test_rf_make_carries_the_trial_data(monkeypatch):
    """rf_make agrees field by field with the per-trial reference on seeded
    numerators built from powers of the factors, and hands pdiv_exact
    exactly the trials that pass the checks recomputed from scratch.  The
    factors include ones that vanish at (2, ..., 2) and (3, ..., 3), ones
    whose values there are even, and single variables; exponents go up to
    4, numerators may hold a factor more often than the denominator, and
    cofactors have terms without a given variable."""
    ctx = default_context()
    lay = ctx.layout
    # interned in this order, so that variables sit between the others in
    # a denominator's trial order
    texts = ["u1 - u2", "u1", "u1 + u2", "u1 - 3", "u2", "u1^3 - 1",
             "u1*u2 - v1", "v1", "u1 + u2 + 1", "v1 - u2 - 1", "2*u1 + 1",
             "u2^2 + u1*v1", "u1 + 2*u2"]
    factors = [R.intern_factor(ctx, poly_of(ctx, t))[1] for t in texts]
    by_text = dict(zip(texts, factors))
    cofactors = [poly_of(ctx, t) for t in (
        "1", "-2", "u1 + 1", "u2*v1 - 4", "u1^2 + u2", "3*v1 + u1*u2 + 5",
        "u1 - u2 + 1", "6", "u1*u2", "u1^3 - 1 + u2")]
    real = P.pdiv_exact
    calls = [0]

    def counted(a, b, layout):
        calls[0] += 1
        return real(a, b, layout)

    monkeypatch.setattr(P, "pdiv_exact", counted)

    def check(num, scalar, den):
        passed, calls[0] = [0], 0
        got = R.rf_make(ctx, num, scalar, den)
        want = ref_rf_make(ctx, num, scalar, den, real, passed)
        assert rf_fields(got) == rf_fields(want)
        assert calls[0] == passed[0]
        return got.den_factors != den, passed[0]

    rng = random.Random(2024)
    hits = passed_total = 0
    for _ in range(400):
        den = tuple(sorted(((f, rng.randint(1, 4))
                            for f in rng.sample(factors, rng.randint(1, 5))),
                           key=lambda fe: fe[0].fid))
        num = rng.choice(cofactors)
        for f in [f for f, _ in den] + rng.sample(factors, 1):
            num = P.pmul(num, P.ppow(f.poly, rng.randint(0, 5), lay), lay)
        if rng.random() < 0.2:
            num = ref_padd(num, rng.choice(cofactors))
        hit, passed = check(num, rng.choice((1, 2, -3, 6)), den)
        hits += hit
        passed_total += passed
    assert hits > 200 and passed_total > 200
    # dividing out u1 halves the value at (2, ..., 2): left at 2*c(2), it
    # would pass the check by u1 + u2, whose values are 4 and 6
    c = poly_of(ctx, "-3*u1*u2 - 3*u1^2 - 3*u2^2 - 3*u1 - 2*u2")
    assert check(P.pmul(c, poly_of(ctx, "u1"), lay), 1,
                 ((by_text["u1"], 1), (by_text["u1 + u2"], 1))) == (True, 0)
    # the trial by u1 - 3 computes the value at (3, ..., 3), and dividing
    # out u2 divides it by 3: left at 3*c(3), it would pass the check by
    # u1 + 2*u2, whose values are 6 and 9
    c = poly_of(ctx, "-3*u1 - 4*u2 - 4*u1^2 - 4*u1*u2 - 2*u2^2")
    assert check(P.pmul(c, poly_of(ctx, "u2"), lay), 1,
                 tuple((by_text[t], 1) for t in ("u1 - 3", "u2", "u1 + 2*u2"))
                 ) == (True, 0)
