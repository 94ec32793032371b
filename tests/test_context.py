"""The symbol registry: every name of the default context and of a context
with parameters bound, pinned field by field."""

import pytest

from hypersym.errors import UnknownNameError
from hypersym.expr.context import (ALG, AUX, PARAM, POSITIVE,
                                   POSITIVE_AWAY_FROM_ONE, SIGNED, TSYM, XJET,
                                   YJET, default_context)

AWAY = POSITIVE_AWAY_FROM_ONE

# name: (kind, index, order, argument, call head, mirror_of, band of a base
# variable or degree of an algebraic symbol), in registration order
REGISTRY = {
    "u": (XJET, 0, 0, None, None, "u", SIGNED),
    "u1": (XJET, 1, 1, None, None, "v1", AWAY),
    "u2": (XJET, 2, 2, None, None, "v2", SIGNED),
    "u3": (XJET, 3, 3, None, None, "v3", SIGNED),
    "u4": (XJET, 4, 4, None, None, "v4", SIGNED),
    "u5": (XJET, 5, 5, None, None, "v5", SIGNED),
    "u6": (XJET, 6, 6, None, None, "v6", SIGNED),
    "u7": (XJET, 7, 7, None, None, None, SIGNED),
    "u8": (XJET, 8, 8, None, None, None, SIGNED),
    "u9": (XJET, 9, 9, None, None, None, SIGNED),
    "u10": (XJET, 10, 10, None, None, None, SIGNED),
    "v1": (YJET, 11, 1, None, None, "u1", AWAY),
    "v2": (YJET, 12, 2, None, None, "u2", SIGNED),
    "v3": (YJET, 13, 3, None, None, "u3", SIGNED),
    "v4": (YJET, 14, 4, None, None, "u4", SIGNED),
    "v5": (YJET, 15, 5, None, None, "u5", SIGNED),
    "v6": (YJET, 16, 6, None, None, "u6", SIGNED),
    "E": (TSYM, 17, -1, "u", "exp", "E", SIGNED),
    "V": (AUX, 18, -1, None, None, "V", AWAY),
    "W": (TSYM, 19, -1, "u", "w", "W", SIGNED),
    "L": (TSYM, 20, -1, "u1", "ln", "Ly", SIGNED),
    "Ly": (TSYM, 21, -1, "v1", "ln", "L", SIGNED),
    "phi": (AUX, 22, -1, None, None, "phi", SIGNED),
    "s": (AUX, 23, -1, None, None, "s", SIGNED),
    "C2": (PARAM, 24, -1, None, None, "C2", SIGNED),
    "a": (PARAM, 25, -1, None, None, "a", SIGNED),
    "b": (PARAM, 26, -1, None, None, "b", POSITIVE),
    "c": (PARAM, 27, -1, None, None, "c", SIGNED),
    "lam1": (PARAM, 28, -1, None, None, "lam1", SIGNED),
    "lam2": (PARAM, 29, -1, None, None, "lam2", SIGNED),
    "mu": (PARAM, 30, -1, None, None, "mu", SIGNED),
    "mu1": (PARAM, 31, -1, None, None, "mu1", SIGNED),
    "mu2": (PARAM, 32, -1, None, None, "mu2", SIGNED),
    "r": (ALG, 0, -1, "u1", "sqrt", "ry", 2),
    "ry": (ALG, 1, -1, "v1", "sqrt", "r", 2),
    "f": (ALG, 2, -1, "u1", "f", "fy", 3),
    "fy": (ALG, 3, -1, "v1", "f", "f", 3),
    "fa": (ALG, 4, -1, "v1", "fa", "fax", 3),
    "fax": (ALG, 5, -1, "u1", "fa", "fa", 3),
    "fb": (ALG, 6, -1, "v1", "fa", None, 3),
    "rb": (ALG, 7, -1, "v1", "sqrt", None, 2),
    "P": (ALG, 8, -1, "u", "wp", "P", 2),
    "sc": (ALG, 9, -1, None, None, "sc", 2),
}

ALIASES = {"uy": "v1", "uyy": "v2", "uyyy": "v3", "u0": "u"}

# the twins a = 1, b = 0 alias: name -> (resolve, mirror_of)
BOUND_TWINS = {"fa": ("fy", "f"), "fax": ("f", "fy"), "fb": ("fy", "f"),
               "rb": ("ry", "r")}


def _contexts():
    ctx = default_context()
    return [(ctx, {}), (ctx.bind({"a": 1, "b": 0}), BOUND_TWINS)]


@pytest.mark.parametrize("ctx, twins", _contexts(), ids=["default", "a1b0"])
def test_registry_pins_every_name(ctx, twins):
    assert [d.name for d in ctx.base_vars + ctx.alg_syms] == list(REGISTRY)
    table = ctx.call_table()
    for name, (kind, index, order, arg, head, mirror, extra) in REGISTRY.items():
        resolved, mirror = twins.get(name, (name, mirror))
        is_alg = kind == ALG
        assert ctx.is_alg(name) == is_alg, name
        assert ctx.is_base(name) == (not is_alg), name
        d = ctx.alg(name) if is_alg else ctx.base(name)
        layout = ctx.alg_syms if is_alg else ctx.base_vars
        assert layout[index] is d, name
        assert (d.name, d.kind, d.order, d.arg) == (name, kind, order, arg)
        assert (d.call[0] if d.call else None) == head, name
        assert ctx.call_form(name) == d.call, name
        if d.call is not None:
            assert table[d.call] == name
        assert ctx.mirror_of(name) == mirror, name
        assert ctx.resolve(name) == resolved, name
        assert (d.degree if is_alg else d.band) == extra, name
        link = ctx.chain(name)
        assert (link is not None) == (kind in (TSYM, ALG)), name
        if link is not None:
            assert link == (d.arg, d.derivative), name


@pytest.mark.parametrize("ctx, twins", _contexts(), ids=["default", "a1b0"])
def test_aliases_resolve_for_base_lookups_only(ctx, twins):
    for alias, target in ALIASES.items():
        assert ctx.resolve(alias) == target
        assert ctx.is_base(alias) and ctx.base(alias) is ctx.base(target)
        assert not ctx.is_alg(alias)
        assert ctx.chain(alias) is None
        assert ctx.mirror_of(alias) == REGISTRY[target][5]
    for name, (target, _mirror) in twins.items():
        # a twin keeps its own record; only base lookups follow the alias
        assert ctx.alg(name).name == name
        assert not ctx.is_base(name)
        assert ctx.chain(name)[0] == REGISTRY[name][3]
        with pytest.raises(UnknownNameError):
            ctx.base(name)
    for name in ("r", "sc"):
        with pytest.raises(UnknownNameError):
            ctx.base(name)
    for name in ("u1", "E", "uy", "nosuch"):
        with pytest.raises(UnknownNameError):
            ctx.alg(name)
    with pytest.raises(UnknownNameError):
        ctx.base("nosuch")


# name: what Context.depends_on says it varies with; None for a constant
DEPENDS_ON = {"u1": "u1", "uy": "v1", "f": "u1", "E": "u", "V": "V",
              "sc": None, "a": None}


def test_depends_on_names_the_variable_a_name_varies_with():
    """A jet or auxiliary variable varies with itself (an alias with its
    target), a symbol with its argument, and a parameter or the
    argument-free sc with nothing; an unregistered name raises."""
    ctx = default_context()
    for name, var in DEPENDS_ON.items():
        assert ctx.depends_on(name) == var, name
    with pytest.raises(UnknownNameError):
        ctx.depends_on("nosuch")
