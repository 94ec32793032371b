"""Shared fixtures and deterministic random-expression generators."""

import math
import random
from fractions import Fraction

import pytest

from hypersym.catalog import Catalog
from hypersym.expr import poly as P
from hypersym.expr import tree
from hypersym.expr.tree import Const, Name


@pytest.fixture(scope="session")
def catalog():
    return Catalog()


@pytest.fixture(scope="session")
def ctx(catalog):
    return catalog.ctx


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
