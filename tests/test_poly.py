"""Packed-exponent polynomial layer against a transparent dict reference."""

import random
from fractions import Fraction

import pytest

from hypersym.errors import SizeLimitError
from hypersym.expr import poly as P

NVARS = 4
LAYOUT = P.Layout(NVARS)


def rand_poly(rng, nterms=6, maxexp=4):
    p = {}
    for _ in range(nterms):
        exps = [rng.randint(0, maxexp) for _ in range(NVARS)]
        c = rng.randint(-9, 9)
        if c == 0:
            continue
        m = LAYOUT.pack(exps)
        p[m] = p.get(m, 0) + c
    return {m: c for m, c in p.items() if c}


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            ea, eb = LAYOUT.unpack(ma), LAYOUT.unpack(mb)
            m = LAYOUT.pack([x + y for x, y in zip(ea, eb)])
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def ref_eval(p, values):
    total = Fraction(0)
    for m, c in p.items():
        term = Fraction(c)
        for i, e in enumerate(LAYOUT.unpack(m)):
            term *= Fraction(values[i]) ** e
        total += term
    return total


def test_pack_unpack_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        exps = [rng.randint(0, 30) for _ in range(NVARS)]
        m = LAYOUT.pack(exps)
        assert LAYOUT.unpack(m) == exps
        assert LAYOUT.total(m) == sum(exps)
        for i, e in enumerate(exps):
            assert LAYOUT.exp(m, i) == e


def test_pack_rejects_out_of_range_exponents():
    top = P.FIELD_TOP
    with pytest.raises(SizeLimitError, match=f"packing range.*below {top}"):
        LAYOUT.pack([top, 0, 0, 0])
    with pytest.raises(SizeLimitError, match=f"packing range.*below {top}"):
        LAYOUT.pack([top * 5 // 8, top * 5 // 8, 0, 0])  # total overflows
    with pytest.raises(SizeLimitError, match=f"packing range.*below {top}"):
        LAYOUT.var_mono(0, top)


def test_mono_mul_and_divides():
    a = LAYOUT.pack([1, 2, 0, 3])
    b = LAYOUT.pack([0, 1, 4, 0])
    assert LAYOUT.mono_mul(a, b) == LAYOUT.pack([1, 3, 4, 3])
    assert LAYOUT.mono_divides(a, LAYOUT.mono_mul(a, b))
    assert not LAYOUT.mono_divides(LAYOUT.pack([2, 0, 0, 0]), a)
    for mono, want in ((a, [0, 1, 3]),
                       (LAYOUT.pack([0, 0, 0, P.FIELD_TOP // 2 + 1]), [3]),
                       (0, [])):
        assert list(LAYOUT.mono_vars(mono)) == want


def test_restrict_matches_unpack_and_pack():
    rng = random.Random(17)
    for _ in range(200):
        exps = [rng.choice([0, 1, 3, rng.randint(0, (P.FIELD_TOP - 1) // 4)])
                for _ in range(NVARS)]
        keep = [i for i in range(NVARS) if rng.random() < 0.5]
        part = LAYOUT.restrict(LAYOUT.pack(exps), LAYOUT.field_mask(keep))
        assert part == LAYOUT.pack([e if i in keep else 0
                                    for i, e in enumerate(exps)])


def rand_exps_up_to(rng, nvars, total):
    """An exponent vector of the given total, split at random cut points."""
    cuts = sorted(rng.randint(0, total) for _ in range(nvars - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def test_packing_is_exact_up_to_the_top_total_degree():
    """At every total up to FIELD_TOP - 1, packed-integer order is
    graded-lex (total degree, then the exponent of the largest variable
    first), and restrict and mono_vars read the fields right; a total of
    FIELD_TOP no longer packs."""
    rng = random.Random(41)
    top = P.FIELD_TOP
    for nvars in (NVARS, 33):
        layout = P.Layout(nvars)
        vecs = [[0] * nvars, [top - 1] + [0] * (nvars - 1),
                [0] * (nvars - 1) + [top - 1]]
        for _ in range(300):
            vecs.append(rand_exps_up_to(
                rng, nvars, rng.choice([top - 1, rng.randint(0, top - 1)])))
        monos = [layout.pack(e) for e in vecs]
        for m, e in zip(monos, vecs):
            assert layout.unpack(m) == e and layout.total(m) == sum(e)
            assert list(layout.mono_vars(m)) == [i for i, x in enumerate(e)
                                                 if x]
            keep = [i for i in range(nvars) if rng.random() < 0.5]
            assert layout.restrict(m, layout.field_mask(keep)) == layout.pack(
                [x if i in keep else 0 for i, x in enumerate(e)])

        def grlex(e):
            return (sum(e), e[::-1])

        order = sorted(range(len(vecs)), key=lambda k: monos[k])
        assert order == sorted(range(len(vecs)), key=lambda k: grlex(vecs[k]))
        for _ in range(50):
            e = rand_exps_up_to(rng, nvars, top - 1)
            layout.pack(e)
            i = rng.randrange(nvars)
            e[i] += 1
            with pytest.raises(SizeLimitError,
                               match=f"total degree {top} out of packing"):
                layout.pack(e)
            e[i] -= 1
            with pytest.raises(SizeLimitError, match="overflow"):
                layout.mono_mul(layout.pack(e), layout.var_mono(i))


def test_add_sub_neg_match_reference():
    rng = random.Random(2)
    for _ in range(50):
        a, b = rand_poly(rng), rand_poly(rng)
        s = P.padd(a, b)
        ref = dict(a)
        for m, c in b.items():
            ref[m] = ref.get(m, 0) + c
        ref = {m: c for m, c in ref.items() if c}
        assert s == ref
        assert P.padd(s, P.pneg(b)) == a
        assert P.padd(a, P.pneg(a)) == {}
        out = dict(a)
        P.padd_inplace(out, b, scale=3)
        assert out == P.padd(a, P.pscale(b, 3))


def test_mul_matches_reference_and_ring_laws():
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = rand_poly(rng, 5), rand_poly(rng, 5), rand_poly(rng, 4)
        ab = P.pmul(a, b, LAYOUT)
        assert ab == ref_mul(a, b)
        assert ab == P.pmul(b, a, LAYOUT)
        lhs = P.pmul(a, P.padd(b, c), LAYOUT)
        rhs = P.padd(P.pmul(a, b, LAYOUT), P.pmul(a, c, LAYOUT))
        assert lhs == rhs


def test_mul_into_matches_mul_then_add():
    """out += scale * a * b in place, against a fresh product added in."""
    rng = random.Random(31)
    for _ in range(60):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 4))
        scale = rng.choice((1, -1, 3, -7, 0))
        out = rand_poly(rng, 5)
        want = dict(out)
        P.padd_inplace(want, P.pmul(a, b, LAYOUT), scale)
        P.pmul_into(out, a, b, LAYOUT, scale=scale)
        assert out == want
        # a product that cancels the accumulated one leaves {}
        out = P.pscale(P.pmul(a, b, LAYOUT), -scale)
        P.pmul_into(out, a, b, LAYOUT, 0, scale)
        assert out == {}


def test_mul_into_keeps_the_size_and_exponent_limits():
    rng = random.Random(32)
    a = rand_poly(rng, 30, maxexp=9)
    b = rand_poly(rng, 30, maxexp=9)
    n = len(P.pmul(a, b, LAYOUT))
    with pytest.raises(SizeLimitError):
        P.pmul(a, b, LAYOUT, n - 1)
    with pytest.raises(SizeLimitError):
        P.pmul_into({}, a, b, LAYOUT, n - 1)
    # the bound holds on the accumulated polynomial, not on one product
    out = P.pmul(a, b, LAYOUT)
    P.pmul_into(out, a, {LAYOUT.var_mono(3, 30): 1}, LAYOUT, len(out) + len(a))
    with pytest.raises(SizeLimitError):
        P.pmul_into(out, b, {LAYOUT.var_mono(3, 50): 1}, LAYOUT, len(out))
    # only the product of the two largest monomials overflows
    high = P.FIELD_TOP * 5 // 8  # two of these overflow
    big = {LAYOUT.var_mono(0, high): 1, LAYOUT.var_mono(1): 2}
    wide = {LAYOUT.var_mono(2, high): 1, 0: -1}
    for out in ({}, {LAYOUT.var_mono(3): 5}):
        with pytest.raises(SizeLimitError, match="overflow"):
            P.pmul_into(out, big, wide, LAYOUT)
        with pytest.raises(SizeLimitError, match="overflow"):
            P.pmul_into(out, wide, big, LAYOUT, scale=-2)
    with pytest.raises(SizeLimitError, match="overflow"):
        P.pmul(big, wide, LAYOUT)
    with pytest.raises(SizeLimitError, match="overflow"):
        P.pmul(big, {LAYOUT.var_mono(2, high): 3}, LAYOUT)
    assert P.pmul(big, {LAYOUT.var_mono(2, P.FIELD_TOP - 1 - high): 1, 0: -1},
                  LAYOUT)


def test_mul_into_overflow_leaves_out_unchanged():
    """The overflow check runs before the first write, so a raised
    SizeLimitError leaves out as it was, in content and order."""
    rng = random.Random(33)
    high = P.FIELD_TOP * 5 // 8
    big = {LAYOUT.var_mono(0, high): 1, LAYOUT.var_mono(1): 2}
    wide = {LAYOUT.var_mono(2, high): 1, 0: -1, LAYOUT.var_mono(1): 4}
    for _ in range(20):
        out = P.padd(rand_poly(rng, 8), {LAYOUT.var_mono(1, 2): 7})
        before = repr(list(out.items()))
        for a, b in ((big, wide), (wide, big)):
            with pytest.raises(SizeLimitError, match="overflow"):
                P.pmul_into(out, a, b, LAYOUT, len(out) + 100, -3)
            assert repr(list(out.items())) == before


def test_pow_matches_repeated_mul():
    rng = random.Random(4)
    for _ in range(10):
        a = rand_poly(rng, 4, maxexp=3)
        acc = P.pconst(1)
        for k in range(4):
            assert P.ppow(a, k, LAYOUT) == acc
            acc = P.pmul(acc, a, LAYOUT)


def test_deriv_product_rule():
    rng = random.Random(5)
    for _ in range(20):
        a, b = rand_poly(rng, 5), rand_poly(rng, 5)
        for i in range(NVARS):
            lhs = P.pderiv(P.pmul(a, b, LAYOUT), i, LAYOUT)
            rhs = P.padd(P.pmul(P.pderiv(a, i, LAYOUT), b, LAYOUT),
                         P.pmul(a, P.pderiv(b, i, LAYOUT), LAYOUT))
            assert lhs == rhs


def test_content_and_monomial_gcd():
    rng = random.Random(6)
    for _ in range(30):
        a = rand_poly(rng)
        if not a:
            continue
        c = P.pcontent(a)
        assert c > 0
        assert all(v % c == 0 for v in a.values())
        g = P.pmono_gcd(a, LAYOUT)
        reduced = P.pdiv_mono(a, g)
        assert {LAYOUT.mono_mul(m, g): v for m, v in reduced.items()} == a
        # after removing the gcd no variable divides every monomial
        gg = P.pmono_gcd(reduced, LAYOUT)
        assert gg == 0


def test_div_exact_inverts_mul():
    rng = random.Random(7)
    hits = 0
    for _ in range(30):
        a, b = rand_poly(rng, 4), rand_poly(rng, 4)
        if not a or not b:
            continue
        hits += 1
        prod = P.pmul(a, b, LAYOUT)
        q = P.pdiv_exact(prod, b, LAYOUT)
        assert q == a
        # prod + 1 is not divisible by x0*b (no constant term in the divisor)
        bx = P.pmul(b, {LAYOUT.var_mono(0): 1}, LAYOUT)
        nondiv = P.padd(P.pmul(a, bx, LAYOUT), P.pconst(1))
        assert P.pdiv_exact(nondiv, bx, LAYOUT) is None
    assert hits > 20


def test_eval_and_ordering_helpers():
    rng = random.Random(10)
    a = rand_poly(rng)
    mono, coeff = P.pleading(a)
    assert mono == max(a)
    assert coeff == a[mono]
    keys = [m for m, _ in P.psorted(a)]
    assert keys == sorted(a, reverse=True)
    assert P.pvars(a, LAYOUT) == {i for m in a for i in LAYOUT.mono_vars(m)}


def ref_pvars(a, layout):
    """The per-term scan pvars replaced: every field of every monomial."""
    out = set()
    for m in a:
        for i in range(layout.nvars):
            if (m >> (P.FIELD_BITS * i)) & P.FIELD_MASK:
                out.add(i)
    return out


def test_pvars_matches_field_scan():
    rng = random.Random(12)
    for layout in (LAYOUT, P.Layout(33)):
        top = layout.var_mono(layout.nvars - 1)
        cases = [{}, {0: 5}, {top: 2}, {0: 1, top: -1}]
        for _ in range(200):
            p = {}
            for _ in range(rng.randint(1, 6)):
                exps = [rng.randint(1, 3) if rng.random() < 0.15 else 0
                        for _ in range(layout.nvars)]
                p[layout.pack(exps)] = rng.choice((-2, -1, 1, 3))
            if rng.random() < 0.3:
                p[0] = 7  # the constant monomial
            cases.append(p)
        assert sum(0 in p for p in cases) > 10
        assert sum(any(layout.exp(m, layout.nvars - 1) for m in p)
                   for p in cases) > 10
        for p in cases:
            assert P.pvars(p, layout) == ref_pvars(p, layout)


# -- exact division against the schoolbook reference ----------------------

def ref_div_exact(a, b):
    """Schoolbook exact division: eliminate the leading term of the
    remainder, found by a max() scan, until it is empty or a step fails."""
    mb = max(b)
    cb = b[mb]
    rem = dict(a)
    quot = {}
    while rem:
        ma = max(rem)
        d = ma - mb
        if d < 0 or d & LAYOUT.borrow_mask:
            return None
        q, r = divmod(rem[ma], cb)
        if r:
            return None
        quot[d] = q
        for m, c in b.items():
            v = rem.get(m + d, 0) - c * q
            if v:
                rem[m + d] = v
            else:
                del rem[m + d]
    return quot


def divisor_rejects(a, b):
    """Divisor.rejects on the data of a, whose values pvalue computes as
    the reference evaluation does."""
    ta = min(a)
    a2, a3 = (P.pvalue(a, x, LAYOUT) for x in (2, 3))
    assert (a2, a3) == (ref_eval(a, [2] * NVARS), ref_eval(a, [3] * NVARS))
    div = P.Divisor(b, LAYOUT)
    return div.rejects(ta, a[ta], a2, a3, LAYOUT.borrow_mask)


def check_div(a, b):
    """pdiv_exact agrees with the reference; a quotient is exact and
    listed in descending graded-lex order, and Divisor.rejects, a set of
    necessary conditions, does not reject it."""
    got = P.pdiv_exact(a, b, LAYOUT)
    assert got == ref_div_exact(a, b)
    if got is not None:
        assert not divisor_rejects(a, b)
        assert P.pmul(got, b, LAYOUT) == a
        assert list(got) == sorted(got, reverse=True)
    return got


def poly_of(*terms):
    """Polynomial from (coefficient, exponent list) pairs."""
    out = {}
    for c, exps in terms:
        m = LAYOUT.pack(exps)
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def at_two(p):
    return ref_eval(p, [2] * NVARS)


def nonzero_poly(rng, nterms, maxexp=3):
    p = {}
    while not p:
        p = rand_poly(rng, nterms, maxexp)
    return p


def test_div_exact_single_term_divisors():
    rng = random.Random(11)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        mono = LAYOUT.pack([rng.randint(0, 2) for _ in range(NVARS)])
        b = {mono: rng.choice([-6, -3, -2, -1, 1, 2, 3, 7])}
        q = nonzero_poly(rng, rng.randint(1, 8))
        a = P.pmul(q, b, LAYOUT)
        kind = rng.randrange(4)
        if kind == 1:    # one coefficient off by one: not divisible
            m = rng.choice(list(a))
            a[m] += 1
            a = {k: v for k, v in a.items() if v}
        elif kind == 2:  # an extra term the divisor's monomial misses
            a = P.padd(a, {LAYOUT.pack([0] * NVARS): 1})
        elif kind == 3:  # any polynomial at all
            a = nonzero_poly(rng, rng.randint(1, 8))
        if not a:
            continue
        outcomes[check_div(a, b) is not None] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50


def test_div_exact_divisor_vanishing_at_two():
    x0_minus_x1 = poly_of((1, [1, 0, 0, 0]), (-1, [0, 1, 0, 0]))
    x0sq_minus_x1x2 = poly_of((1, [2, 0, 0, 0]), (-1, [0, 1, 1, 0]))
    assert at_two(x0_minus_x1) == 0 and at_two(x0sq_minus_x1x2) == 0
    rng = random.Random(12)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        b = rng.choice([x0_minus_x1, x0sq_minus_x1x2])
        if rng.random() < 0.5:
            b = P.pmul(b, nonzero_poly(rng, 3, 2), LAYOUT)
        a = P.pmul(nonzero_poly(rng, rng.randint(1, 6)), b, LAYOUT)
        if rng.random() < 0.5:
            # an extra term x3^k: nonzero at (2,...,2)
            a = P.padd(a, {LAYOUT.var_mono(3, rng.randint(1, 9)): 1})
        if not a:
            continue
        outcomes[check_div(a, b) is not None] += 1
    assert outcomes[True] > 20 and outcomes[False] > 20


def test_div_exact_rational_but_not_integral_quotient():
    x0_plus_1 = poly_of((1, [1, 0, 0, 0]), (1, [0, 0, 0, 0]))
    assert check_div(x0_plus_1, P.pscale(x0_plus_1, 2)) is None
    assert check_div(P.pscale(x0_plus_1, 2), x0_plus_1) == {0: 2}
    rng = random.Random(13)
    for _ in range(100):
        b = nonzero_poly(rng, rng.randint(1, 5))
        q = nonzero_poly(rng, rng.randint(1, 5))
        q = {m: c for m, c in q.items() if c % 2} or {0: 1}
        k = rng.choice([2, 3, -2, 5])
        # a = q*b is divisible by b, but by k*b only over the rationals
        a = P.pmul(q, b, LAYOUT)
        if any(c % k for c in q.values()):
            assert check_div(a, P.pscale(b, k)) is None
        assert check_div(a, b) == q


def test_div_exact_trailing_term_mismatch():
    rng = random.Random(14)
    fails = 0
    for _ in range(100):
        b = nonzero_poly(rng, rng.randint(2, 5))
        q = nonzero_poly(rng, rng.randint(1, 5))
        a = P.pmul(q, b, LAYOUT)
        tb = min(b)
        if rng.random() < 0.5:
            # a term below every term of q*b becomes the trailing term
            ta = min(a)
            low = [m for m in (0, LAYOUT.var_mono(0), LAYOUT.var_mono(1))
                   if m < ta and not LAYOUT.mono_divides(tb, m)]
            if not low:
                continue
            a = P.padd(a, {low[0]: 1})
        else:
            # the divisor's trailing coefficient no longer divides a's
            b = dict(b)
            b[tb] = b[tb] * 7 + (1 if b[tb] > 0 else -1)
            if min(b) != tb or a[min(a)] % b[tb] == 0:
                continue
        assert divisor_rejects(a, b)
        fails += check_div(a, b) is None
    assert fails > 50


def test_div_exact_large_dividend():
    rng = random.Random(15)
    b = poly_of((3, [2, 1, 0, 0]), (-1, [0, 0, 1, 1]), (2, [1, 0, 0, 0]),
                (-5, [0, 0, 0, 0]), (1, [0, 3, 0, 1]))
    q = rand_poly(rng, 400, maxexp=7)
    a = P.pmul(q, b, LAYOUT)
    assert len(a) > 500
    assert check_div(a, b) == q
    assert check_div(a, q) == b
    # a perturbation invisible to the checks: above the trailing term and
    # zero at (2,...,2) and (3,...,3), so only elimination can reject it
    blind = poly_of((1, [6, 6, 6, 6]), (-1, [6, 6, 7, 5]))
    assert at_two(blind) == 0
    assert not divisor_rejects(P.padd(a, blind), b)
    assert check_div(P.padd(a, blind), b) is None
    assert check_div(P.padd(a, {LAYOUT.pack([0, 0, 0, 9]): 1}), b) is None


def test_div_exact_random_cases_agree_with_reference():
    rng = random.Random(16)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        b = nonzero_poly(rng, rng.randint(1, 5))
        q = nonzero_poly(rng, rng.randint(1, 8))
        a = P.pmul(q, b, LAYOUT)
        kind = rng.randrange(3)
        if kind == 1:    # zero at (2,...,2): only elimination sees it
            m = LAYOUT.pack([rng.randint(1, 4) for _ in range(NVARS)])
            a = P.padd(a, {m + LAYOUT.var_mono(0): 1,
                           m + LAYOUT.var_mono(1): -1})
        elif kind == 2:
            a = nonzero_poly(rng, rng.randint(1, 10))
        if not a:
            continue
        outcomes[check_div(a, b) is not None] += 1
    assert outcomes[True] > 80 and outcomes[False] > 80
