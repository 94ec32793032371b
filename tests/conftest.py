"""Shared fixtures and deterministic random-expression generators."""

import math
import random
from fractions import Fraction

import pytest

from hypersym.catalog import Catalog
from hypersym.expr import poly as P
from hypersym.expr import ratfunc as R
from hypersym.expr import tree
from hypersym.expr.tree import Const, Name


@pytest.fixture(scope="session")
def catalog():
    return Catalog()


@pytest.fixture(scope="session")
def ctx(catalog):
    return catalog.ctx


# the dict-valued Context attributes that are not derived memos: the symbol
# definitions and aliases, the bound values, the factor base and the cache of
# bound contexts
NOT_MEMOS = {"_defs", "_aliases", "bound", "_factor_intern", "_bind_cache"}


def derived_memos(ctx):
    """The names of ctx's derived memos: every other dict-valued attribute,
    each empty in a fresh context and refilled on demand."""
    return sorted(k for k, v in vars(ctx).items()
                  if isinstance(v, dict) and k not in NOT_MEMOS)


def random_expr(rng: random.Random, names, depth: int) -> tree.Expr:
    """Random well-formed expression: +, *, small nonneg powers, rationals.

    Division is deliberately excluded so every generated expression is
    defined everywhere; inversion is exercised by dedicated tests.
    """
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            return Const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return Name(rng.choice(names))
    op = rng.choice(("add", "add", "mul", "mul", "pow"))
    if op == "add":
        return tree.add(random_expr(rng, names, depth - 1),
                        random_expr(rng, names, depth - 1))
    if op == "mul":
        return tree.mul(random_expr(rng, names, depth - 1),
                        random_expr(rng, names, depth - 1))
    return tree.pow_(random_expr(rng, names, depth - 1), rng.randint(0, 3))


def canonical_invariants(ctx, a):
    """Assert that the RatFunc a is in canonical reduced form."""
    if a.is_zero():
        assert a.den_scalar == 1 and a.den_factors == ()
        return
    assert a.den_scalar > 0
    g = 0
    for c in a.num.values():
        g = math.gcd(g, c)
    assert math.gcd(g, a.den_scalar) == 1
    fids = [f.fid for f, _ in a.den_factors]
    assert fids == sorted(fids)
    assert all(e > 0 for _, e in a.den_factors)
    for f, _ in a.den_factors:
        _, lc = P.pleading(f.poly)
        assert lc > 0 and P.pcontent(f.poly) == 1
        # reduced: no denominator factor divides the numerator
        assert P.pdiv_exact(a.num, f.poly, ctx.layout) is None


def ref_padd(a, b):
    """The polynomial sum a + b, term by term."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_rf_add(ctx, a, b):
    """The rational-function sum a + b."""
    return R.rf_sum(ctx, (a, b))


def ref_rf_equal(ctx, a, b):
    """Whether a - b is zero."""
    return R.rf_sum(ctx, (a, R.rf_neg(ctx, b))).is_zero()
