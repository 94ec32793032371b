"""Canonical normal forms over the algebraic tower: idempotence, ring laws,
derivative-rule consistency, inverses, and the zero test."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_invariants, random_expr, ref_rf_add
from hypersym.catalog import Catalog
from hypersym.errors import (AdmissibilityError, NotInvertibleError,
                             SizeLimitError)
from hypersym.expr import normal as N
from hypersym.expr import ratfunc as R
from hypersym.expr import tree
from hypersym.expr.context import default_context
from hypersym.expr.parser import parse
from hypersym.expr.tree import Name
from hypersym.jet import swap_xy

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


def ref_minpoly_expr(sym):
    """The relation of an algebraic symbol as a tree: the sum of its
    coefficients times powers of the symbol."""
    s = Name(sym.name)
    return tree.add(*(c * s ** k for k, c in enumerate(sym.minpoly_coeffs)))


def test_defining_relations_normalize_to_zero(ctx):
    for name in ("r", "ry", "f", "fy", "fa", "fax", "fb", "rb", "P", "sc"):
        assert nf(ctx, ref_minpoly_expr(ctx.alg(name))) == {}, name


def test_bind_aliases_twin_symbols(ctx):
    """A binding under which two symbols have the same argument and the same
    relation makes the later one an alias of the earlier, so their
    difference normalizes to zero instead of being a nonzero zero divisor.
    Symbols with different arguments or degrees are never aliased."""
    assert nf(ctx, "fa(uy + b) - fa(uy)") != {}
    b0 = ctx.bind({"b": 0})
    a1 = ctx.bind({"a": 1})
    both = ctx.bind({"a": 1, "b": 0})
    assert nf(b0, "fa(uy + b) - fa(uy)") == {}
    assert nf(b0, "sqrt(uy + b) - sqrt(uy)") == {}
    assert nf(a1, "fa(uy) - f(uy)") == {}
    assert nf(a1, "fa(u1) - f(u1)") == {}
    assert nf(both, "fa(uy + b) - f(uy)") == {}
    twins = {bound: {s.name: bound.resolve(s.name) for s in bound.alg_syms
                     if bound.resolve(s.name) != s.name}
             for bound in (b0, a1, both)}
    assert twins == {b0: {"fb": "fa", "rb": "ry"},
                     a1: {"fa": "fy", "fax": "f"},
                     both: {"fa": "fy", "fax": "f", "fb": "fy", "rb": "ry"}}
    assert nf(a1, "fa(u1) - fa(uy)") != {}
    assert nf(both, "sqrt(u1) - f(u1)") != {}
    # fb has no mirror of its own; its twin fa has
    assert nf(b0, tree.sub(swap_xy(parse("fa(uy + b)", b0), b0),
                           parse("fa(u1)", b0))) == {}


@pytest.mark.parametrize("bindings, text", [
    ({"c": 4}, "1/(sc - 2)"),
    ({"c": 4}, "(sc - 2)*(sc + 2)"),
    ({"c": 0}, "sc"),
    ({"a": 0}, "fa(uy)"),
    ({"a": 0}, "fa(u1)"),
    ({"a": 0}, "fa(uy + b)"),
])
def test_bind_refuses_reducible_relations(ctx, bindings, text):
    """A binding that splits a relation (sqrt(c) rational, or the fa-cubic
    at a = 0, (s + t)^2 (2s - t)) makes the symbol's first normal form
    raise; the context stays usable for everything else."""
    bound = ctx.bind(bindings)
    with pytest.raises(AdmissibilityError, match="reducible"):
        nf(bound, text)
    assert nf(bound, "u1 + f(u1)") != {}


def test_bind_keeps_irreducible_relations(ctx):
    """Bindings under which the relations stay irreducible are accepted."""
    for c in (2, -4):
        bound = ctx.bind({"c": c})
        assert nf(bound, f"(sc - 2)*(sc + 2) - ({c} - 4)") == {}
    bound = ctx.bind({"a": -1})
    assert nf(bound, "fa(uy)*(1/fa(uy)) - 1") == {}


def test_bind_refuses_a_fractional_square_discriminant(ctx):
    """sqrt(c) is rational at c = 9/16 too, where the discriminant 9/4 of
    sc's relation is a square that is not an integer."""
    bound = ctx.bind({"c": Fraction(9, 16)})
    with pytest.raises(AdmissibilityError, match="reducible at c=9/16"):
        nf(bound, "(sc - 3/4)*(sc + 3/4)")
    bound = ctx.bind({"c": Fraction(9, 8)})
    assert nf(bound, "sc*sc - 9/8") == {}


def test_minpoly_nf_is_made_once_per_context(ctx):
    bound = ctx.bind({"a": 2, "c": 3})
    first = [N.minpoly_nf(bound, s) for s in bound.alg_syms]
    assert all(N.minpoly_nf(bound, s) is f
               for s, f in zip(bound.alg_syms, first))
    for s, coeffs in zip(bound.alg_syms, first):
        assert all(N.nf_equal(bound, a, nf(bound, c))
                   for a, c in zip(coeffs, s.minpoly_coeffs))


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


def test_partial_times_a_rule_is_reduced_once(ctx):
    # the quotient-rule and chain-rule terms of da/dv, collected unreduced
    # times every term of a rule, give the product of the reduced partial
    # and the rule, factor for factor
    rng = random.Random(25)
    for _ in range(25):
        a = nf(ctx, random_expr(rng, TOWER_NAMES, 3))
        rule = nf(ctx, random_expr(rng, TOWER_NAMES, 2))
        for var in ("u1", "v1", "u"):
            got = N.nf_sum_products(ctx, (), [(a, var, rule)])
            want = N.nf_mul(ctx, N.nf_partial(ctx, a, var), rule)
            assert nf_struct_equal(got, want)


def test_partial_wrt_a_parameter_raises(ctx):
    # the relation of fa reads the parameter a, so no partial w.r.t. a is
    # defined, alone or times a rule, even of a form that does not read a
    for a in (nf(ctx, "a*u1 + fa"), {}):
        with pytest.raises(ValueError, match="parameter 'a'"):
            N.nf_partial(ctx, a, "a")
        with pytest.raises(ValueError, match="parameter 'a'"):
            N.nf_sum_products(ctx, (), [(a, "a", nf(ctx, "u2"))])


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
    a = nf(ctx, tree.pow_(Name("f"), -2))
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
    """Eager reference for normal._collect: add rf * (alg monomial) to out,
    reducing every product and every sum as it is formed, and rewriting the
    first symbol, in registration order, whose exponent reaches its degree."""
    lay = ctx.alg_layout
    stack = [(mono, rf)]
    while stack:
        m, c = stack.pop()
        over = next((i for i, s in enumerate(ctx.alg_syms)
                     if lay.exp(m, i) >= s.degree), -1)
        if over < 0:
            tot = c if m not in out else ref_rf_add(ctx, out[m], c)
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
    # out, in the same order, as from adding each reduced product eagerly
    rng = random.Random(5)
    lay, syms = ctx.alg_layout, ctx.alg_syms
    for _ in range(40):
        exps = [rng.choice((0, 0, 1, s.degree, s.degree + 1)) for s in syms]
        mono = lay.pack(exps)
        groups, want = {}, {}
        for k in range(2):
            rf = nf(ctx, f"u1 + {k + 1}")[0]
            N._collect(ctx, groups, mono + k * lay.unit(0), rf)
            ref_accumulate(ctx, want, mono + k * lay.unit(0), rf)
        got = N._reduce_groups(ctx, groups)
        assert list(got) == list(want)
        assert nf_struct_equal(got, want)


def ref_nf_mul(ctx, a, b):
    """nf_mul reducing eagerly: every term product and every partial sum
    reduced by rf_make as soon as it is formed."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            ref_accumulate(ctx, out, ma + mb, R.rf_mul(ctx, ca, cb))
    return out


@pytest.fixture(scope="module")
def own_ctx():
    # the inverses below intern factors; keep them out of the shared context
    return default_context()


DENOMINATORS = ["1", "u1", "u1 + 1", "sqrt(u1) + 1", "f(u1) + u1", "u2 - u1"]


def random_nf(ctx, rng, depth=3):
    """A random normal form over the tower, divided by one of a few
    denominators whose factors stay square-free and pairwise coprime."""
    num = nf(ctx, random_expr(rng, TOWER_NAMES, depth))
    den = N.nf_inverse(ctx, nf(ctx, rng.choice(DENOMINATORS)))
    return N.nf_mul(ctx, num, den)


def test_nf_mul_matches_eager_reduction(own_ctx):
    ctx = own_ctx
    rng = random.Random(31)
    for _ in range(40):
        a, b = random_nf(ctx, rng), random_nf(ctx, rng)
        got = N.nf_mul(ctx, a, b)
        assert nf_struct_equal(got, ref_nf_mul(ctx, a, b))
        for c in got.values():
            canonical_invariants(ctx, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_ring_axioms_property(seed):
    # a fresh context each time: nf_inverse(a) may intern a factor that
    # shares a divisor with an earlier one, and the base must stay coprime
    ctx = default_context()
    rng = random.Random(seed)
    a, b, c = (random_nf(ctx, rng, 2) for _ in range(3))
    mul, add = N.nf_mul, N.nf_add
    assert nf_struct_equal(mul(ctx, a, b), mul(ctx, b, a))
    assert nf_struct_equal(mul(ctx, mul(ctx, a, b), c),
                           mul(ctx, a, mul(ctx, b, c)))
    assert nf_struct_equal(mul(ctx, a, add(ctx, b, c)),
                           add(ctx, mul(ctx, a, b), mul(ctx, a, c)))
    if a:
        assert nf_struct_equal(mul(ctx, a, N.nf_inverse(ctx, a)),
                               N.nf_const(ctx, 1))


def test_nf_mul_reduces_once_per_output_monomial(ctx, monkeypatch):
    a = nf(ctx, "f(u1)^2 + sqrt(u1)*f(u1) + u1 + 1/u2")
    b = nf(ctx, "f(u1) + sqrt(u1) + 2*u2")
    N.nf_mul(ctx, a, b)  # builds the rewrite tables the product needs
    calls = []
    real = R.rf_make

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(R, "rf_make", counting)
    out = N.nf_mul(ctx, a, b)
    assert len(out) > 1
    assert len(calls) == len(out)


@pytest.fixture(scope="module")
def own_catalog():
    # the sums below intern factors; keep them out of the shared catalog
    return Catalog()


def catalog_or_bound(cat, which):
    return cat.ctx if which == "catalog" else cat.get("S3", {"a": 1, "b": 0}).ctx


OVER_COEFFS = ["u1 + 2", "3/(u1 + 1)", "(u2 - u1)/(2*u1^2)", "v1/(u1*(u2 + 1))",
               "-1/2"]


@pytest.mark.parametrize("which", ["catalog", "bound"])
def test_over_degree_sums_match_eager_rewriting(own_catalog, which):
    """Products over a symbol's degree are summed as they are and rewritten
    once per sum: the same terms come out, in the same order, as from
    rewriting and reducing each product on its own.  Cubic symbols reach
    degree + 1, two symbols are over at once, and the coefficients have
    factored denominators."""
    ctx = catalog_or_bound(own_catalog, which)
    lay, syms = ctx.alg_layout, ctx.alg_syms
    coeffs = [nf(ctx, t)[0] for t in OVER_COEFFS]
    rng = random.Random(17)
    seen = set()
    for _ in range(30):
        picked = rng.sample(range(len(syms)), 2)
        sums, want = {}, {}
        for _ in range(rng.randint(1, 6)):
            exps = [0] * len(syms)
            for i in picked:
                d = syms[i].degree
                exps[i] = rng.choice((0, 1, d - 1, d, d + 1))
            mono = lay.pack(exps)
            over = [i for i in picked if exps[i] >= syms[i].degree]
            if len(over) == 2:
                seen.add("two over")
            if any(exps[i] == syms[i].degree + 1 == 4 for i in over):
                seen.add("cubic + 1")
            a, b = rng.choice(coeffs), rng.choice(coeffs + [None])
            N._collect(ctx, sums, mono, a, b)
            ref_accumulate(ctx, want, mono, a if b is None else R.rf_mul(ctx, a, b))
        got = N._reduce_groups(ctx, sums)
        assert list(got) == list(want)
        assert nf_struct_equal(got, want)
    assert seen == {"two over", "cubic + 1"}
    assert any(f for c in coeffs for f in c.den_factors)


@pytest.mark.parametrize("which", ["catalog", "bound"])
def test_expansions_are_normal_forms_of_their_monomials(own_catalog, which):
    """Each stored expansion of a monomial over a symbol's degree is the
    normal form of that monomial alone: normalize of its tree, and its
    eager rewriting, monomial order included.  A name that the binding
    aliased (fa, fb, ...) normalizes as its twin, so its tree is skipped."""
    ctx = catalog_or_bound(own_catalog, which)
    lay = ctx.alg_layout
    own = [s for s in ctx.alg_syms if ctx.resolve(s.name) == s.name]
    for s in own:
        for t in own:
            N.normalize(ctx, parse(f"{s.name}^{s.degree + 1}*{t.name}^{t.degree}",
                                   ctx))
    assert len(ctx._expansion) > len(own)
    own = {s.index for s in own}
    for mono, triples in ctx._expansion.items():
        got = {m: R.RatFunc(num, *den) for m, den, num in triples if num}
        if set(lay.mono_vars(mono)) <= own:
            tree_of = N._term([], lay, ctx.alg_syms, mono)
            assert nf_struct_equal(got, N.normalize(ctx, tree_of))
        want = {}
        ref_accumulate(ctx, want, mono, R.rf_const(ctx, 1))
        assert list(got) == list(want)
        assert nf_struct_equal(got, want)


def test_term_budget_enforced_in_the_rewrite():
    """The rewrite of over-degree sums multiplies under the same term
    budget: each product of a with a is 21 terms times f(u1)^4, and f^4's
    expansion takes it over 40."""
    small = default_context(max_x_jet=10, max_y_jet=6, max_terms=40)
    a = nf(small, "(u2 + u3 + u4 + v1 + v2 + v3)*f(u1)^2")
    assert N.nf_size(a) == 6
    with pytest.raises(SizeLimitError, match="40 terms"):
        N.nf_sum_products(small, [(a, a), (a, nf(small, "f(u1)^2"))])


@pytest.mark.parametrize("bindings, name", [({"c": 4}, "sc"), ({"a": 0}, "fa")])
def test_over_degree_product_refuses_a_reducible_relation(bindings, name):
    """A relation that a binding made reducible is refused by the first
    normal form that uses its symbol, also when that is a product over the
    symbol's degree that only the rewrite meets."""
    bound = default_context().bind(bindings)
    s = bound.alg(name)
    power = {(s.degree - 1) * bound.alg_layout.unit(s.index): R.rf_const(bound, 1)}
    with pytest.raises(AdmissibilityError, match="reducible"):
        N.nf_mul(bound, power, power)
