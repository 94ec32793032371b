"""Total derivatives on the jet space: replacement of mixed derivatives,
Leibniz/linearity, commutation, order bookkeeping, and the x<->y swap."""

import random

import pytest

from conftest import random_expr
from hypersym.errors import HypersymError
from hypersym.expr import normal as N
from hypersym.expr import tree
from hypersym.expr.parser import parse
from hypersym.expr.tree import Name
from hypersym.jet import (EvolutionEq, HyperbolicEq, JetEngine, NFJet,
                          nf_jet, nf_partials, swap_xy)


def nf(ctx, e):
    return N.normalize(ctx, parse(e, ctx) if isinstance(e, str) else e)


@pytest.fixture(scope="module")
def tz(catalog):
    return catalog.get("hyp4")


def test_hyperbolic_eq_rejects_higher_jets(ctx):
    with pytest.raises(ValueError):
        HyperbolicEq("bad", parse("u2 + u1", ctx), ctx=ctx)
    with pytest.raises(ValueError):
        HyperbolicEq("bad", parse("v2", ctx), ctx=ctx)
    # u, u1, v1 and tower symbols are allowed
    HyperbolicEq("ok", parse("2*fa(uy)*u + sqrt(u1)", ctx), ctx=ctx)


def test_evolution_eq_direction_validation(ctx):
    G = parse("u4*u2 + u1", ctx)  # the lower-order part of u_t = u5 + G
    EvolutionEq("ok", G, ctx=ctx)
    with pytest.raises(ValueError):
        EvolutionEq("bad", parse("u5", ctx), ctx=ctx)


def test_first_jet_replacements(tz):
    ctx = tz.ctx
    eng = JetEngine(tz)
    F = tz.F
    # the defining replacements: D_y(u1) = F and D_x(v1) = F
    assert N.nf_equal(ctx, nf(ctx, eng.d_y(Name("u1"))), nf(ctx, F))
    assert N.nf_equal(ctx, nf(ctx, eng.d_x(Name("v1"))), nf(ctx, F))
    # D_x of a pure x-jet is the shift
    assert N.nf_equal(ctx, nf(ctx, eng.d_x(Name("u3"))),
                      nf(ctx, "u4"))
    # D_y(u2) = D_x(F) along solutions
    assert N.nf_equal(ctx, nf(ctx, eng.d_y(Name("u2"))),
                      nf(ctx, eng.d_x(F)))


def test_chain_rule_on_x_jet_ladder(tz):
    ctx = tz.ctx
    eng = JetEngine(tz)
    for k in range(1, 6):
        got = eng.d_x(parse(f"u{k}", ctx))
        assert N.nf_equal(ctx, nf(ctx, got), nf(ctx, f"u{k + 1}"))


def test_leibniz_and_linearity(tz):
    ctx = tz.ctx
    eng = JetEngine(tz)
    rng = random.Random(31)
    names = ["u", "u1", "u2", "v1"]
    for _ in range(20):
        a = random_expr(rng, names, 3)
        b = random_expr(rng, names, 3)
        lhs = nf(ctx, eng.d_x(tree.mul(a, b)))
        rhs = nf(ctx, tree.add(tree.mul(a, eng.d_x(b)),
                               tree.mul(b, eng.d_x(a))))
        assert N.nf_equal(ctx, lhs, rhs)
        lin = nf(ctx, eng.d_y(tree.add(a, b)))
        sep = N.nf_add(ctx, nf(ctx, eng.d_y(a)), nf(ctx, eng.d_y(b)))
        assert N.nf_equal(ctx, lin, sep)


def test_order_bookkeeping(tz):
    rng = random.Random(32)
    eng = JetEngine(tz)
    for _ in range(20):
        e = random_expr(rng, ["u1", "u2", "u3"], 3)
        before = {int(n[1:]) for n in tree.free_names(e) if n.startswith("u")
                  and n[1:].isdigit()}
        if not before:
            continue
        d = eng.d_x(e)
        after = {int(n[1:]) for n in tree.free_names(d) if n.startswith("u")
                 and n[1:].isdigit()}
        assert max(after) == max(before) + 1


def test_commutation_sample(catalog):
    rng = random.Random(33)
    names = ["u", "u1", "u2", "u3", "v1"]
    for hid in ("hyp4", "S1", "S6"):
        eq = catalog.get(hid)
        eng = NFJet(eq)
        for _ in range(10):
            a = nf(eq.ctx, random_expr(rng, names, 3))
            d1 = eng.d_x(eng.d_y(a))
            d2 = eng.d_y(eng.d_x(a))
            assert N.nf_equal(eq.ctx, d1, d2)


def test_tree_and_nf_engines_agree(tz):
    ctx = tz.ctx
    te = JetEngine(tz)
    ne = NFJet(tz)
    rng = random.Random(34)
    names = ["u", "u1", "u2", "v1", "f", "r"]
    for _ in range(15):
        e = random_expr(rng, names, 3)
        assert N.nf_equal(ctx, nf(ctx, te.d_x(e)), ne.d_x(nf(ctx, e)))
        assert N.nf_equal(ctx, nf(ctx, te.d_y(e)), ne.d_y(nf(ctx, e)))


def test_tree_and_nf_engines_agree_on_transform_inputs(catalog):
    """The transform checks derive on normal forms; on the expressions they
    derive (S6's Ev for both signs of sc, S1's B and D_y(B)/B, S3's +-r),
    the tree engine reduces to the same total derivatives."""
    def agree(eq, e, axes):
        ctx, te, ne = eq.ctx, JetEngine(eq), NFJet(eq)
        t, a = e, nf(ctx, e)
        for axis in axes:  # applied left to right: "xy" is D_y(D_x(e))
            t = te.d_x(t) if axis == "x" else te.d_y(t)
            a = ne.d_x(a) if axis == "x" else ne.d_y(a)
        assert N.nf_equal(ctx, nf(ctx, t), a), (eq.id, e, axes)

    S6, S1, S3 = (catalog.get(h) for h in ("S6", "S1", "S3"))
    for sc in ("sc", "-sc"):
        ev = parse(f"4*c*(f + u1)*(fa + v1)*W/({sc}*P - c)", S6.ctx)
        for axes in ("x", "y", "xy"):
            agree(S6, ev, axes)
    B = parse("fa + v1", S1.ctx)
    agree(S1, B, "y")
    agree(S1, tree.div(JetEngine(S1).d_y(B), B), "x")
    for w in ("r", "-r"):
        for axes in ("y", "yx", "xy"):
            agree(S3, parse(w, S3.ctx), axes)


def test_memo_transparency(tz):
    ctx = tz.ctx
    e = parse("u2^2*v1 + f(u1)*u3", ctx)
    fresh = [JetEngine(tz).d_x(e) for _ in range(2)]
    shared = JetEngine(tz)
    warm = shared.d_x(parse("u4*v1", ctx))  # populate the memo first
    assert warm is not None
    again = shared.d_x(e)
    assert N.nf_equal(ctx, nf(ctx, fresh[0]), nf(ctx, fresh[1]))
    assert N.nf_equal(ctx, nf(ctx, fresh[0]), nf(ctx, again))


def test_custom_rules_override(tz):
    ctx = tz.ctx
    eng = JetEngine(tz, custom_dx={"V": parse("u1", ctx)})
    got = eng.d_x(parse("V^2", ctx))
    assert N.nf_equal(ctx, nf(ctx, got), nf(ctx, "2*V*u1"))


def test_fresh_engine_first_derivatives(tz):
    ctx = tz.ctx
    assert N.nf_equal(ctx, nf(ctx, JetEngine(tz).d_x(parse("u1", ctx))),
                      nf(ctx, "u2"))
    assert N.nf_equal(ctx, nf(ctx, JetEngine(tz).d_y(parse("u1", ctx))),
                      nf(ctx, tz.F))


def nf_factors(a):
    """A normal form with each denominator as its factor ids and powers, so
    that equal forms compare equal factor for factor."""
    return {m: (c.num, c.den_scalar, [(f.fid, e) for f, e in c.den_factors])
            for m, c in a.items()}


def two_step_total(nfj, a, axis):
    """D_axis a in two reductions: each partial of a reduced on its own,
    then the products with the rules reduced again."""
    ctx = nfj.ctx
    return N.nf_sum_products(ctx, nfj.pair_rules(nf_partials(ctx, a), axis))


@pytest.mark.parametrize("hid", ["hyp3", "S3", "S6", "final4"])
def test_fused_tables_match_the_two_step_route(catalog, hid):
    # NFJet.d_x/d_y reduce D_axis a once, from the unreduced terms of every
    # partial times its rule; the tables D_x^kF (k <= 4) and D_y^kF
    # (k <= 2) must equal the route that reduces every partial first
    nfj = nf_jet(catalog.get(hid))
    for axis, table, top in (("x", nfj.dxk_F, 4), ("y", nfj.dyk_F, 2)):
        for k in range(1, top + 1):
            want = two_step_total(nfj, table(k - 1), axis)
            assert nf_factors(table(k)) == nf_factors(want), (axis, k)


def test_swap_xy_basics(ctx):
    table = [("u1", "v1"), ("v2", "u2"), ("u", "u"),
             ("f(u1)", "f(v1)"), ("fa(uy)", "fa(u1)"),
             ("sqrt(u1)", "sqrt(uy)"), ("exp(u)", "exp(u)"),
             ("ln(u1)", "ln(v1)"), ("wp(u)", "wp(u)")]
    for a, b in table:
        ea = parse(a, ctx)
        assert N.nf_equal(ctx, nf(ctx, swap_xy(ea, ctx)), nf(ctx, b)), a
        # involution
        assert N.nf_equal(ctx, nf(ctx, swap_xy(swap_xy(ea, ctx), ctx)),
                          nf(ctx, ea))
    mirrored = [d.name for d in ctx.base_vars + ctx.alg_syms
                if ctx.mirror_of(d.name) is not None]
    assert {"L", "Ly", "u1", "v6", "r", "fax", "P", "sc"} <= set(mirrored)
    for n in mirrored:
        assert ctx.mirror_of(ctx.mirror_of(n)) == n, n


def test_swap_xy_rejects_unmirrored_symbols(ctx):
    for text in ("fa(uy + b)", "sqrt(uy + b)"):
        with pytest.raises(HypersymError):
            swap_xy(parse(text, ctx), ctx)


def test_swap_xy_respects_jet_range(ctx):
    # the y-ladder is shorter than the x-ladder; swapping u10 overflows it
    with pytest.raises(HypersymError):
        swap_xy(parse("u10", ctx), ctx)
