"""Floating-point oracle: consistent sampling, evaluation, probabilistic
zero classification, and finite-difference validation of derivative rules."""

import math
import random
import struct
from fractions import Fraction

import pytest

from hypersym import numeval, verify
from hypersym.catalog import Catalog
from hypersym.errors import (AdmissibilityError, EvalError, JetOrderError,
                             SampleError)
from hypersym.expr import normal as N
from hypersym.expr import tree
from hypersym.expr.context import default_context
from hypersym.expr.parser import parse
from hypersym.expr.tree import Add, Const, Div, Mul, Name, Pow
from hypersym.jet import EvolutionEq, HyperbolicEq, JetEngine, partial, swap_xy

BASE_BAND = (0.5, 2.0)


def test_sample_relations_hold(ctx):
    for seed in (0, 1, 7, 42):
        p = numeval.sample_point(ctx, seed)
        assert p.seed == seed
        worst = max(p.relation_residuals.values(), default=0.0)
        assert worst < 1e-12
        assert p.relation_residuals  # every tower symbol is accounted for


def test_sample_bands_and_signs(ctx):
    jets = ([f"u{k}" for k in range(1, 11)] + ["u"]
            + [f"v{k}" for k in range(1, 7)])
    for seed in range(5):
        p = numeval.sample_point(ctx, seed)
        for name in jets:
            v = abs(p[name])
            assert BASE_BAND[0] <= v <= BASE_BAND[1], (name, p[name])
        assert p["E"] > 0  # exponentials stay on the positive branch
        # the square roots are the positive branches of their relations
        assert p["r"] > 0 and abs(p["r"] ** 2 - p["u1"]) < 1e-12
        assert p["ry"] > 0 and abs(p["ry"] ** 2 - p["v1"]) < 1e-12


def test_sample_reproducible_bit_identical(ctx):
    a = numeval.sample_point(ctx, 5)
    b = numeval.sample_point(ctx, 5)
    assert a.assignment == b.assignment
    assert a.relation_residuals == b.relation_residuals
    c = numeval.sample_point(ctx, 6)
    assert c.assignment != a.assignment


def test_sample_respects_pinned_parameters(ctx):
    p = numeval.sample_point(ctx.bind({"mu": 0, "a": 2}), 1)
    assert p["mu"] == 0.0
    assert p["a"] == 2.0
    # fa's cubic now carries a^3 = 8 exactly
    fa, v1 = p["fa"], p["v1"]
    assert abs((fa + v1) ** 2 * (2 * fa - v1) + 8) < 1e-10


def test_sample_conflicting_pins_rejected(catalog):
    """A bound parameter keeps its value: fa's relation says a^3 = 1, so no
    context may put a = 2 beside it.  The same value binds again."""
    bound = catalog.get("S3", {"a": 1, "b": 0})
    with pytest.raises(AdmissibilityError, match="a is bound to 1, not 2"):
        bound.ctx.bind({"a": 2})
    assert bound.ctx.bind({"a": 1}) is bound.ctx
    assert bound.ctx.bind({"a": 1, "mu": 0}) is bound.ctx.bind({"mu": 0})
    p = numeval.sample_point(bound.ctx, 0)
    assert p["a"] == 1.0
    fa, v1 = p["fa"], p["v1"]
    assert abs((fa + v1) ** 2 * (2 * fa - v1) + 1) < 1e-10


def test_cubic_root_sets(ctx):
    # at u_1 = 1 the cubic (f+1)^2 (2f-1) + 1 factors as f^2 (2f+3)
    coeffs = numeval._coeffs_at(ctx, ctx.alg("f"), {"u1": 1.0})
    roots = numeval._real_roots(coeffs)
    assert any(abs(x) < 1e-9 for x in roots)
    assert any(abs(x + 1.5) < 1e-9 for x in roots)
    # at u_1 = 17/12 the root 7/12 comes from the parametrization at V = 2
    coeffs = numeval._coeffs_at(ctx, ctx.alg("f"), {"u1": 17.0 / 12.0})
    roots = numeval._real_roots(coeffs)
    assert any(abs(x - 7.0 / 12.0) < 1e-9 for x in roots)


def test_eval_exactness_and_errors(ctx):
    p = numeval.sample_point(ctx, 0)
    e = parse("u1^2 - u1*u1", ctx)
    assert numeval.eval(e, p) == 0.0
    rel = parse("(f(u1) + u1)^2*(2*f(u1) - u1) + 1", ctx)
    assert abs(numeval.eval(rel, p)) < 1e-12
    with pytest.raises(EvalError):
        numeval.eval(tree.div(Const(1), parse("u1 - u1", ctx)), p)
    with pytest.raises(EvalError):
        numeval.eval(Name("u1"), numeval.SamplePoint({}, 0))


def test_eval_and_numeric_zero_reject_normal_forms(ctx):
    # the oracle evaluates trees and programs only
    p = numeval.sample_point(ctx, 4)
    nf = N.normalize(ctx, parse("f(u1)^2*u2 - 3/(u1 + 1)", ctx))
    with pytest.raises(EvalError):
        numeval.eval(nf, p)
    with pytest.raises(EvalError):
        numeval.numeric_zero(nf, 2, ctx=ctx)


def test_numeric_zero_classification(ctx):
    z = numeval.numeric_zero(parse("0", ctx), 5, seed=1, ctx=ctx)
    assert z.zero_like and z.max_residual == 0.0
    dz = numeval.numeric_zero(
        parse("(sqrt(u1)*f(u1))^2 - u1*f(u1)^2", ctx), 8, seed=1, ctx=ctx)
    assert dz.zero_like  # disguised zero through the tower
    nz = numeval.numeric_zero(parse("f(u1) - u1", ctx), 10, seed=1, ctx=ctx)
    assert not nz.zero_like
    assert nz.max_residual > 1e-3
    assert len(nz.residuals) == 10
    assert nz.samples == 10


def test_numeric_zero_reproducible(ctx):
    e = parse("f(u1)*u2 - exp(u)", ctx)
    a = numeval.numeric_zero(e, 6, seed=3, ctx=ctx)
    b = numeval.numeric_zero(e, 6, seed=3, ctx=ctx)
    assert a.residuals == b.residuals


def test_exact_numeric_agreement_on_residuals(catalog, ctx):
    # the library invariant: exact zero implies the oracle sees zero
    F, G = catalog.get("hyp4"), catalog.get("ev12")
    r = verify.verify_pair(F, G, samples=10, seed=5)
    assert r.residual_is_zero and r.numeric_max_residual < 1e-9


def test_fd_checks_all_rules(ctx):
    for seed in (0, 3, 11):
        p = numeval.sample_point(ctx, seed)
        rows = numeval.fd_checks(ctx, p)
        names = {c.name for c in rows}
        assert {"f", "fa", "fax", "fy", "r", "ry", "fb", "rb", "P", "E",
                "L", "Ly"} <= names
        for c in rows:
            assert c.rel_error < 1e-6, (c.name, c.rel_error)


def test_fd_checks_chain_through_weierstrass(ctx):
    # P's relation reads W, not u: shifting u moves W by P*h along its own
    # rule, so re-solving P checks dP/du = 6W^2 directly
    p = numeval.sample_point(ctx, 8)
    row = next(c for c in numeval.fd_checks(ctx, p) if c.name == "P")
    assert row.wrt == "u"
    assert row.rel_error < 1e-6
    assert abs(row.symbolic - 6.0 * p["W"] ** 2) < 1e-6 * (
        1 + abs(row.symbolic))


def test_sc_is_sampled_as_sqrt_c(ctx):
    # sc is solved from its relation like every other symbol, and the
    # solve gives the correctly rounded square root
    for seed in range(200):
        p = numeval.sample_point(ctx, seed)
        assert p["sc"] == math.sqrt(p["c"]), seed
    p = numeval.sample_point(ctx.bind({"c": 3}), 0)
    assert p["c"] == 3.0 and p["sc"] == math.sqrt(3.0)


def test_eval_maps_overflow_to_eval_error(ctx):
    p = numeval.sample_point(ctx, 0)
    cases = [
        parse("(u1*10)^400*u1", ctx),                      # float **
        Add((Const(Fraction(10 ** 400)), Name("u1"))),     # float(Fraction)
        Add((Const(Fraction(10 ** 308)), Const(Fraction(10 ** 308)))),  # fsum
        # an infinite product is caught where it appears, not divided away
        Div(Const(1), Mul((Const(Fraction(10 ** 300)), Name("u1"),
                           Const(Fraction(10 ** 300))))),
    ]
    for e in cases:
        with pytest.raises(EvalError, match="non-finite intermediate value"):
            numeval.eval(e, p)
    with pytest.raises(EvalError, match="non-finite intermediate value"):
        numeval.numeric_zero(cases[0] - parse("u2", ctx), 2, ctx=ctx)


def test_negative_power_of_zero_is_eval_error(ctx):
    e = parse("(u1-u1)^(-2)", ctx)
    with pytest.raises(EvalError, match="denominator vanished"):
        numeval.eval(e, {"u1": 1.3})
    with pytest.raises(EvalError, match="denominator vanished"):
        numeval.numeric_zero(e, 2, ctx=ctx)


# -- the compiled oracle against the tree walker it replaced ---------------

def ref_eval(e, assignment, memo):
    """Recursive tree walker with an id-keyed memo, first visit wins; a
    quotient's denominator is evaluated and checked before its numerator."""
    key = id(e)
    hit = memo.get(key)
    if hit is not None and hit[0] is e:
        return hit[1]
    if isinstance(e, Const):
        v = float(e.value)
    elif isinstance(e, Name):
        try:
            v = assignment[e.name]
        except KeyError:
            raise EvalError(f"no value assigned for {e.name!r}")
    elif isinstance(e, Add):
        v = math.fsum(ref_eval(a, assignment, memo) for a in e.args)
    elif isinstance(e, Mul):
        v = 1.0
        for a in e.args:
            v *= ref_eval(a, assignment, memo)
    elif isinstance(e, Pow):
        v = ref_eval(e.base, assignment, memo) ** e.exp
    elif isinstance(e, Div):
        den = ref_eval(e.den, assignment, memo)
        if abs(den) < 1e-300:
            raise EvalError("denominator vanished at the sample point")
        v = ref_eval(e.num, assignment, memo) / den
    else:
        raise EvalError(f"cannot evaluate node {type(e).__name__}")
    if not math.isfinite(v):
        raise EvalError("non-finite intermediate value")
    memo[key] = (e, v)
    return v


def outcome(fn):
    """A value, or the class and message of what was raised; the walker's
    OverflowError is what the compiled oracle reports as non-finite, and
    its ZeroDivisionError (0.0 to a negative power) as a vanished
    denominator."""
    try:
        return fn()
    except OverflowError:
        return (EvalError, "non-finite intermediate value")
    except ZeroDivisionError:
        return (EvalError, "denominator vanished at the sample point")
    except EvalError as ex:
        return (type(ex), str(ex))


def copy_tree(e):
    """A structurally equal tree that shares no node with e."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Name):
        return Name(e.name)
    if isinstance(e, (Add, Mul)):
        return type(e)([copy_tree(a) for a in e.args])
    if isinstance(e, Pow):
        return Pow(copy_tree(e.base), e.exp)
    return Div(copy_tree(e.num), copy_tree(e.den))


def id_nodes(e):
    seen = {}
    todo = [e]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            todo.extend(getattr(n, "args", ()))
            todo.extend(getattr(n, a) for a in ("base", "num", "den")
                        if hasattr(n, a))
    return len(seen)


def shared_tree(rng, names, depth, pool):
    """Random tree over every node kind, built with the node classes so no
    constant folding changes its shape.  Subtrees built earlier come back
    from pool, either as the same object or as an equal copy."""
    if pool and rng.random() < 0.25:
        t = rng.choice(pool)
        return t if rng.random() < 0.5 else copy_tree(t)
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return Const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        return Name(rng.choice(names))
    kind = rng.choice("AAMMPD")
    sub = [shared_tree(rng, names, depth - 1, pool)
           for _ in range(rng.randint(1, 4) if kind in "AM" else 2)]
    if kind == "A":
        node = Add(sub)
    elif kind == "M":
        node = Mul(sub)
    elif kind == "P":
        node = Pow(sub[0], rng.choice((-3, -2, -1, 0, 2, 3)))
    else:
        node = Div(*sub)
    pool.append(node)
    return node


def test_compiled_eval_matches_walker_bit_for_bit(ctx):
    rng = random.Random(2024)
    names = ["u1", "u2", "v1", "f", "r", "E", "W", "P", "a", "b"]
    points = [numeval.sample_point(ctx, s).assignment for s in range(4)]
    seen = {"Add": 0, "other": 0, "value": 0, "error": 0}
    for _ in range(150):
        e = shared_tree(rng, names, 5, [])
        seen["Add" if isinstance(e, Add) else "other"] += 1
        for a in points:
            want = outcome(lambda: ref_eval(e, a, {}))
            got = outcome(lambda: numeval.eval(e, a))
            assert got == want
            seen["value" if isinstance(want, float) else "error"] += 1
    assert min(seen.values()) > 10, seen


def test_numeric_zero_matches_walker_residuals(ctx):
    # numeric_zero's residuals, rebuilt from the walker over the same points:
    # a top-level Add contributes its terms, any other root itself
    rng = random.Random(7)
    names = ["u1", "u2", "v1", "f", "fy", "ry", "L", "c"]
    roots = 0
    for _ in range(40):
        e = shared_tree(rng, names, 4, [])
        if not isinstance(e, Add) and rng.random() < 0.5:
            e = Add((e, copy_tree(e), Mul((Const(-2), e))))
        roots += isinstance(e, Add)
        draw = random.Random(3)
        want = []
        for _ in range(3):
            child = draw.getrandbits(48)
            a = numeval.sample_point(ctx, child).assignment
            terms = e.args if isinstance(e, Add) else (e,)
            memo = {}
            parts = [outcome(lambda: ref_eval(t, a, memo)) for t in terms]
            bad = [p for p in parts if not isinstance(p, float)]
            if bad:
                want = bad[0]
                break
            value = outcome(lambda: math.fsum(parts))
            if not isinstance(value, float):
                want = value
                break
            want.append(abs(value) / (1.0 + max(abs(p) for p in parts)))
        got = outcome(lambda: numeval.numeric_zero(
            e, 3, seed=3, ctx=ctx).residuals)
        assert got == want
    assert 0 < roots < 40


def test_compiled_errors_match_walker(ctx):
    a = numeval.sample_point(ctx, 1).assignment
    zero = Add((Name("u1"), Mul((Const(-1), Name("u1")))))
    missing = Name("nowhere")
    cases = [
        Div(Const(1), zero),
        Div(missing, zero),                    # the guard runs first
        Add((missing, Div(Const(1), zero))),   # the name comes first
        Mul((Div(Name("u2"), zero), missing)),
        Div(Name("u1"), Pow(missing, 2)),
    ]
    for e in cases:
        want = outcome(lambda: ref_eval(e, a, {}))
        assert isinstance(want, tuple) and want[0] is EvalError
        assert outcome(lambda: numeval.eval(e, a)) == want
    assert outcome(lambda: numeval.eval(cases[1], a))[1] == (
        "denominator vanished at the sample point")
    assert outcome(lambda: numeval.eval(cases[2], a))[1] == (
        "no value assigned for 'nowhere'")


def test_compiled_program_shares_equal_subtrees(ctx):
    t = parse("(f(u1)*u2 + 3*u1^2)/(u1 + 1) - exp(u)*u3", ctx)
    e = Add((t, copy_tree(t), Mul((copy_tree(t), t))))
    prog, slots = numeval._compile([e])
    assert len(prog) < id_nodes(e)
    # the copies compile to the slots of the original
    prog2, slots2 = numeval._compile([t, copy_tree(t)])
    assert slots2[0] == slots2[1]
    assert len(prog2) == len(numeval._compile([t])[0])
    a = numeval.sample_point(ctx, 2).assignment
    assert numeval.eval(e, a) == ref_eval(e, a, {})


# -- the residual program against its round trip through trees --------------

def tree_residual_program(F, G):
    """The residual built as a tree from JetEngine / jet.partial, whose
    derivatives are read back from op tables, then compiled, with R and its
    top-level terms as roots."""
    ctx = F.ctx
    eng = JetEngine(F)
    H = tree.add(Name("u5"), G.G)
    dyH = eng.d_y(H)
    dxH = eng.d_x(H)
    mixed = eng.d_x(dyH)
    Fu1 = partial(F.F, "u1", ctx)
    Fv1 = partial(F.F, "v1", ctx)
    Fu = partial(F.F, "u", ctx)
    R = tree.sub(
        tree.sub(tree.sub(mixed, tree.mul(Fu1, dxH)), tree.mul(Fv1, dyH)),
        tree.mul(Fu, H))
    return numeval._compile([R, *(R.args if isinstance(R, Add) else (R,))])


def shipped_claims(catalog):
    """(key, F, G) of every shipped claim, F swapped for a y-direction one
    as verify_pair does."""
    for c in sorted(catalog.pairings(), key=lambda c: c.key):
        F = catalog.get(c.hyperbolic_id, dict(c.bindings))
        G = catalog.get(c.evolution_id, dict(c.bindings))
        if c.direction == "y":
            F = HyperbolicEq(F.id, swap_xy(F.F, F.ctx), params=F.params,
                             ctx=F.ctx)
        yield c.key, F, G


def bits(values):
    return [struct.pack("d", v) for v in values]


def test_residual_program_is_the_compiled_tree(catalog):
    """Derivatives read back as trees, combined by expr.tree's helpers and
    compiled give the program residual_program builds on the ops, op for
    op, so the read-back keeps every float."""
    keys = []
    for key, F, G in shipped_claims(catalog):
        keys.append(key)
        want = tree_residual_program(F, G)
        got = numeval.residual_program(F, G)
        assert isinstance(got, numeval.Program)
        assert len(got.ops) == len(want.ops), key
        assert len(got.roots) == len(want.roots), key
        assert got == want, key
        for seed in range(5):
            a = numeval.sample_point(F.ctx, seed).assignment
            assert bits(numeval._run(*got, a)) == bits(numeval._run(*want, a)), key
    assert len(keys) == 12


def test_residual_program_keeps_the_tree_route_errors(ctx):
    # the program and its tree round trip fail alike:
    # a denominator that vanishes at the point: u = v1
    F = HyperbolicEq("t", parse("u1/(u - v1)", ctx), ctx=ctx)
    G = EvolutionEq("g", parse("u1*u3", ctx), ctx=ctx)
    a = numeval.sample_point(ctx, 0).assignment
    a["u"] = a["v1"]
    want = outcome(lambda: numeval._run(*tree_residual_program(F, G), a))
    assert want == (EvalError, "denominator vanished at the sample point")
    assert outcome(lambda: numeval._run(*numeval.residual_program(F, G), a)) == want
    # D_x(u5) past the x-jet range
    small = default_context(max_x_jet=5)
    F = HyperbolicEq("t", parse("u1*v1", small), ctx=small)
    G = EvolutionEq("g", parse("u2", small), ctx=small)
    with pytest.raises(JetOrderError, match=r"D_x\(u5\) exceeds max_x_jet=5"):
        tree_residual_program(F, G)
    with pytest.raises(JetOrderError, match=r"D_x\(u5\) exceeds max_x_jet=5"):
        numeval.residual_program(F, G)


def test_ops_read_back_as_the_trees_they_import(catalog, ctx):
    """_Ops.tree on the residual roots of every shipped claim: importing
    the tree gives the op again, it compiles to the program of the op, and
    it has one node per op, so equal subterms come back as one node."""
    for key, F, G in shipped_claims(catalog):
        t, twin = numeval._Ops(), numeval._Ops()
        R = numeval._residual(t, F, G)
        assert numeval._residual(twin, F, G) == R, key
        code, terms, _ = t.ops[R]
        for i in [R, *(terms if code == numeval._ADD else ())]:
            e = t.tree(i)
            assert t.imp(e) == i and twin.imp(e) == i, key
            prog = numeval._emit(t.ops, [i])
            assert numeval._compile([e]) == prog, key
            ops = sum(op[0] != numeval._GUARD for op in prog.ops)
            assert id_nodes(e) == ops, key
    t = numeval._Ops()
    s = parse("f(u1)*u2 + 3*u1^2/(u1 + 1)", ctx)
    e = t.tree(t.imp(Mul((s, copy_tree(s)))))
    assert e.args[0] is e.args[1] and e.args[0] == s


def test_numeric_zero_takes_a_program(ctx):
    e = parse("f(u1)*u2 - exp(u) + 3/(u1 + 1)", ctx)
    prog = numeval._compile([e, *e.args])
    by_tree = numeval.numeric_zero(e, 4, seed=2, ctx=ctx)
    by_prog = numeval.numeric_zero(prog, 4, seed=2, ctx=ctx)
    assert by_prog.residuals == by_tree.residuals


def memo_residuals(ctx, samples, seed):
    e = parse("f(u1)*u2 - exp(u) + 3/(u1 + 1)", ctx)
    return bits(numeval.numeric_zero(e, samples, seed=seed, ctx=ctx).residuals)


def count_sample_points(monkeypatch, fail_at=None):
    """Wrap numeval.sample_point: the list of its calls, and the call
    number fail_at raises SampleError instead of drawing."""
    calls, real = [], numeval.sample_point

    def counted(*args):
        calls.append(args)
        if len(calls) == fail_at:
            raise SampleError("injected")
        return real(*args)
    monkeypatch.setattr(numeval, "sample_point", counted)
    return calls


def test_numeric_zero_draws_each_point_once_per_seed(monkeypatch):
    """The kept points give the residuals of a fresh context bit for bit:
    after a call with another seed on the same context, and as the first n
    of a longer call with the same seed, whether the longer call comes
    before or after.  Only the last seed's points are kept, each drawn
    once."""
    fresh = memo_residuals(default_context(), 6, 4)
    calls = count_sample_points(monkeypatch)
    ctx = default_context()
    memo_residuals(ctx, 6, 9)
    assert memo_residuals(ctx, 6, 4) == fresh
    assert memo_residuals(ctx, 3, 4) == fresh[:3]
    assert len(calls) == 12
    assert ctx._sample_points[0] == 4 and len(ctx._sample_points[1]) == 6
    ctx = default_context()
    assert memo_residuals(ctx, 3, 4) == fresh[:3]
    assert memo_residuals(ctx, 6, 4) == fresh
    assert len(calls) == 18


def test_numeric_zero_after_a_draw_that_raises(monkeypatch):
    """A draw that raises keeps no point, so the next call on the context
    gives the residuals of a fresh one."""
    fresh = memo_residuals(default_context(), 5, 2)
    ctx = default_context()
    count_sample_points(monkeypatch, fail_at=3)
    with pytest.raises(SampleError, match="injected"):
        memo_residuals(ctx, 5, 2)
    assert memo_residuals(ctx, 5, 2) == fresh


def test_oracle_pass_draws_each_point_once(monkeypatch):
    """The work counter behind the oracle's speed: the 12 shipped claims
    use two contexts (the catalog's own and mu = 0), so 25 samples each
    draw 50 points, not 12 * 25 = 300."""
    cat = Catalog()
    calls = count_sample_points(monkeypatch)
    reports = verify.verify_all(cat, samples=25, seed=1, jobs=1)
    assert len(reports) == 12
    assert all(len(r.numeric_residuals) == 25 for r in reports)
    assert len(calls) == 50


FOLD_OPERANDS = [Const(0), Const(1), Const(-1), Const(Fraction(-3, 4)),
                 Const(2), Name("u1"), tree.mul(2, Name("u1")), -Name("u1")]


def _folded(build):
    """The tree build returns, or the ZeroDivisionError it raises."""
    try:
        return build()
    except ZeroDivisionError as exc:
        return (ZeroDivisionError, str(exc))


def test_ops_fold_constants_as_the_tree_helpers():
    """The op table's sub, div and pow_ fold constants rule for rule as
    tree.sub, tree.div and tree.pow_ do, raising the same errors: a
    difference of constants, -1 times a product (2*u1 gives -2*u1, -u1
    gives u1), a denominator of 0 or 1, a zero numerator, a constant base,
    a power of 0 or 1, and 0 to a negative power.  The op is read back as
    a tree to compare."""
    t = numeval._Ops()
    for a in FOLD_OPERANDS:
        for b in FOLD_OPERANDS:
            assert t.tree(t.sub(t.imp(a), t.imp(b))) == tree.sub(a, b), \
                ("sub", a, b)
            assert _folded(lambda: t.tree(t.div(t.imp(a), t.imp(b)))) == \
                _folded(lambda: tree.div(a, b)), ("div", a, b)
        for k in (-2, -1, 0, 1, 2, 3):
            assert _folded(lambda: t.tree(t.pow_(t.imp(a), k))) == \
                _folded(lambda: tree.pow_(a, k)), ("pow_", a, k)


def test_parameter_past_the_float_range_is_a_sample_error():
    """c = 10^400 has no float: sampling raises SampleError."""
    ctx = default_context().bind({"c": 10 ** 400})
    with pytest.raises(SampleError, match="outside the float range"):
        numeval.sample_point(ctx, 0)
