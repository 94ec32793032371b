"""Canonical normal forms over the algebraic tower: idempotence, ring laws,
derivative-rule consistency, inverses, and the zero test."""

import random

import pytest

from conftest import random_expr
from hypersym.errors import NotInvertibleError, SizeLimitError
from hypersym.expr import normal as N
from hypersym.expr import ratfunc as R
from hypersym.expr import tree
from hypersym.expr.context import default_context
from hypersym.expr.parser import parse

TOWER_NAMES = ["u", "u1", "u2", "v1", "f", "r", "fa", "E", "W"]


def nf(ctx, text_or_expr):
    e = (parse(text_or_expr, ctx) if isinstance(text_or_expr, str)
         else text_or_expr)
    return N.normalize(ctx, e)


def nf_struct_equal(a, b):
    """Structural identity of two normal forms (same canonical object)."""
    if set(a) != set(b):
        return False
    for k in a:
        ra, rb = a[k], b[k]
        if ra.num != rb.num or ra.den_scalar != rb.den_scalar:
            return False
        if [(f.fid, e) for f, e in ra.den_factors] != \
           [(f.fid, e) for f, e in rb.den_factors]:
            return False
    return True


def test_idempotence_random(ctx):
    rng = random.Random(21)
    for _ in range(60):
        e = random_expr(rng, TOWER_NAMES, 4)
        a = nf(ctx, e)
        again = N.normalize(ctx, N.nf_to_expr(ctx, a))
        assert nf_struct_equal(a, again)


def test_idempotence_catalog(catalog, ctx):
    for entry in catalog.list():
        a = N.normalize(ctx, entry.expression)
        again = N.normalize(ctx, N.nf_to_expr(ctx, a))
        assert nf_struct_equal(a, again), entry.id


def test_ring_axioms_random(ctx):
    rng = random.Random(22)
    for _ in range(40):
        a, b, c = (random_expr(rng, TOWER_NAMES, 3) for _ in range(3))
        na, nb, nc = nf(ctx, a), nf(ctx, b), nf(ctx, c)
        # distributivity, exercised through both the tree and the NF route
        lhs = nf(ctx, tree.mul(a, tree.add(b, c)))
        rhs = nf(ctx, tree.add(tree.mul(a, b), tree.mul(a, c)))
        assert nf_struct_equal(lhs, rhs)
        assert nf_struct_equal(
            N.nf_mul(ctx, na, N.nf_add(ctx, nb, nc)),
            N.nf_add(ctx, N.nf_mul(ctx, na, nb), N.nf_mul(ctx, na, nc)))
        # associativity of addition
        assert nf_struct_equal(
            N.nf_add(ctx, N.nf_add(ctx, na, nb), nc),
            N.nf_add(ctx, na, N.nf_add(ctx, nb, nc)))


def test_defining_relations_normalize_to_zero(ctx):
    for name in ("r", "ry", "f", "fy", "fa", "fax", "fb", "rb", "P", "sc"):
        assert nf(ctx, ctx.alg(name).minpoly_expr) == {}, name


def test_derivative_rule_is_implicit_derivative_of_relation(ctx):
    """For each symbol s(arg) with minimal polynomial M(s, arg) = 0, the
    registered rule s' must satisfy  sum_k [ (dc_k/darg) s^k + k c_k s^(k-1) s' ] = 0
    in the quotient — i.e. the total derivative of the relation vanishes."""
    for name in ("r", "ry", "f", "fy", "fa", "fax", "fb", "rb", "P"):
        sd = ctx.alg(name)
        arg = sd.arg
        rule = nf(ctx, sd.derivative)
        total = N.nf_zero(ctx)
        for k, coeff in enumerate(sd.minpoly_coeffs):
            ck = nf(ctx, coeff)
            term = N.nf_mul(ctx, N.nf_partial(ctx, ck, arg),
                            N.nf_sym(ctx, name, k) if k else N.nf_const(ctx, 1))
            total = N.nf_add(ctx, total, term)
            if k:
                chain = N.nf_mul(ctx, N.nf_scale(ctx, ck, k),
                                 N.nf_mul(ctx, N.nf_sym(ctx, name, k - 1)
                                          if k > 1 else N.nf_const(ctx, 1),
                                          rule))
                total = N.nf_add(ctx, total, chain)
        assert total == {}, name


def test_mixed_partials_commute(ctx):
    rng = random.Random(23)
    pairs = [("u1", "v1"), ("u1", "u"), ("v1", "u"), ("u1", "u2")]
    for _ in range(25):
        e = random_expr(rng, TOWER_NAMES, 3)
        a = nf(ctx, e)
        for x, y in pairs:
            d1 = N.nf_partial(ctx, N.nf_partial(ctx, a, x), y)
            d2 = N.nf_partial(ctx, N.nf_partial(ctx, a, y), x)
            assert N.nf_equal(ctx, d1, d2)


def test_partial_product_rule(ctx):
    rng = random.Random(24)
    for _ in range(25):
        a = nf(ctx, random_expr(rng, TOWER_NAMES, 3))
        b = nf(ctx, random_expr(rng, TOWER_NAMES, 3))
        for var in ("u1", "v1", "u"):
            lhs = N.nf_partial(ctx, N.nf_mul(ctx, a, b), var)
            rhs = N.nf_add(ctx,
                           N.nf_mul(ctx, N.nf_partial(ctx, a, var), b),
                           N.nf_mul(ctx, a, N.nf_partial(ctx, b, var)))
            assert N.nf_equal(ctx, lhs, rhs)


def test_inverse_in_the_tower(ctx):
    one = N.nf_const(ctx, 1)
    for text in ("f(u1) + u1", "sqrt(u1) + 1", "2*f(u1)", "fa(uy + b)",
                 "wp(u) - c", "exp(u) + w(u)", "f(u1)^2 - u1",
                 "sqrt(u1)*f(u1) + 3"):
        a = nf(ctx, text)
        prod = N.nf_mul(ctx, a, N.nf_inverse(ctx, a))
        assert nf_struct_equal(prod, one), text
    with pytest.raises(NotInvertibleError):
        N.nf_inverse(ctx, N.nf_zero(ctx))


def test_negative_powers_via_division(ctx):
    a = nf(ctx, tree.pow_(tree.name("f"), -2))
    b = nf(ctx, "f(u1)^2")
    assert nf_struct_equal(N.nf_mul(ctx, a, b), N.nf_const(ctx, 1))


def test_zero_test_catches_disguised_zero(ctx):
    # (f + u1)^2 (2f - u1) + 1 is the defining cubic: a nonobvious zero
    assert nf(ctx, "(f(u1) + u1)^2*(2*f(u1) - u1) + 1") == {}
    # sqrt(u1)^2 - u1, fa relation shifted, P relation
    assert nf(ctx, "sqrt(u1)^2 - u1") == {}
    assert nf(ctx, "(fa(uy + b) + uy + b)^2*(2*fa(uy + b) - uy - b) + a^3") == {}
    assert nf(ctx, "wp(u)^2 - 4*w(u)^3 - c") == {}
    # and a nearby NON-zero must stay nonzero
    assert nf(ctx, "(f(u1) + u1)^2*(2*f(u1) - u1) - 1") != {}


def test_free_vars(ctx):
    a = nf(ctx, "2*fa(uy + b)*sqrt(u1)")
    names = N.nf_free_vars(ctx, a)
    assert {"fb", "r"} <= names
    assert "u2" not in names
    assert "b" in N.nf_free_vars(ctx, nf(ctx, "b*u1 + mu"))


def test_nf_size_and_scale(ctx):
    a = nf(ctx, "u1 + u2 + 1")
    assert N.nf_size(a) == 3
    assert N.nf_size(N.nf_scale(ctx, a, 0)) == 0
    assert N.nf_equal(ctx, N.nf_scale(ctx, a, 2), nf(ctx, "2*u1 + 2*u2 + 2"))


def test_term_budget_enforced():
    small = default_context(max_x_jet=10, max_y_jet=6, max_terms=40)
    e = parse("(u + u1 + u2 + u3 + u4 + v1)^6", small)
    with pytest.raises(SizeLimitError):
        N.normalize(small, e)


def ref_accumulate(ctx, out, mono, rf):
    """_accumulate with the per-symbol scan it replaced: reduce the first
    symbol, in registration order, whose exponent reaches its degree."""
    lay = ctx.alg_layout
    stack = [(mono, rf)]
    while stack:
        m, c = stack.pop()
        over = next((i for i, s in enumerate(ctx.alg_syms)
                     if lay.exp(m, i) >= s.degree), -1)
        if over < 0:
            tot = c if m not in out else R.rf_add(ctx, out[m], c)
            if tot.is_zero():
                out.pop(m, None)
            else:
                out[m] = tot
            continue
        unit = lay.unit(over)
        rest = m - ctx.alg_syms[over].degree * unit
        for k, t in enumerate(N._rewrite_table(ctx, over)):
            if not t.is_zero():
                stack.append((rest + k * unit, R.rf_mul(ctx, c, t)))


def test_accumulate_reduces_in_the_same_order(ctx):
    # several symbols at or over their degree at once: the same terms come
    # out, inserted in the same order
    rng = random.Random(5)
    lay, syms = ctx.alg_layout, ctx.alg_syms
    for _ in range(40):
        exps = [rng.choice((0, 0, 1, s.degree, s.degree + 1)) for s in syms]
        mono = lay.pack(exps)
        got, want = {}, {}
        for k in range(2):
            rf = nf(ctx, f"u1 + {k + 1}")[0]
            N._accumulate(ctx, got, mono + k * lay.unit(0), rf)
            ref_accumulate(ctx, want, mono + k * lay.unit(0), rf)
        assert list(got) == list(want)
        assert nf_struct_equal(got, want)
