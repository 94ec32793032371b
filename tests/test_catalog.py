"""Catalog loading: the shipped entries, ordering, parameter declarations,
admissibility, pairing claims, and user-supplied catalog paths."""

import textwrap
from fractions import Fraction

import pytest

from conftest import derived_memos
from hypersym import verify
from hypersym.catalog import Catalog, parse_blocks
from hypersym.errors import (AdmissibilityError, CatalogError,
                             UnknownEntryError)
from hypersym.expr import normal as N
from hypersym.expr.parser import parse, print_expr, print_nf
from hypersym.expr.tree import substitute
from hypersym.jet import EvolutionEq, HyperbolicEq

EXPECTED_IDS = (
    ["hyp2", "hyp3", "hyp4"]
    + [f"ev{k}" for k in range(7, 22)]
    + ["S1", "S2", "S3", "S4", "S5", "S6"]
    + ["final1", "final2", "final3", "final4"]
)


def test_shipped_entries_and_order(catalog):
    assert [e.id for e in catalog.list()] == EXPECTED_IDS
    assert len(catalog.list()) == 28


def test_role_filtering(catalog):
    hyp = [e.id for e in catalog.list("hyperbolic")]
    ev = [e.id for e in catalog.list("evolution")]
    assert set(hyp) == {"hyp2", "hyp3", "hyp4", "S1", "S2", "S3", "S4", "S5",
                        "S6", "final1", "final2", "final3", "final4"}
    assert ev == [f"ev{k}" for k in range(7, 22)]
    with pytest.raises(CatalogError, match="role filter must be one of"):
        catalog.list(role="x")


def test_parameter_declarations(catalog):
    expected = {
        "S1": [("a", True)],
        "S2": [("a", False), ("b", False)],
        "S3": [("a", False), ("b", False)],
        "S4": [("a", True), ("b", False)],
        "S5": [("a", True), ("b", False)],
        "S6": [("a", False), ("c", False)],
        "ev13": [("lam1", False), ("lam2", False)],
        "ev14": [("lam1", False), ("lam2", True)],
        "ev15": [("mu1", False), ("mu2", False)],
        "ev17": [("mu", False)],
        "ev18": [("mu", False)],
        "ev19": [("c", False)],
        "ev20": [("c", False)],
        "ev21": [("c", True)],
        "final4": [("c", False)],
        "hyp4": [],
        "final1": [],
    }
    for eid, params in expected.items():
        entry = catalog.entry(eid)
        assert [(p.name, p.nonzero) for p in entry.params] == params, eid


def test_entry_lookup_and_unknown_id(catalog):
    entry = catalog.entry("hyp4")
    assert entry.role == "hyperbolic"
    with pytest.raises(UnknownEntryError):
        catalog.entry("nosuch")
    with pytest.raises(UnknownEntryError):
        catalog.get("nosuch")


def test_get_returns_equation_objects(catalog):
    F = catalog.get("hyp4")
    G = catalog.get("ev12")
    assert isinstance(F, HyperbolicEq) and F.id == "hyp4"
    assert isinstance(G, EvolutionEq) and G.id == "ev12"


def test_unbound_get_holds_the_parsed_tree(catalog):
    """The parser builds through the folding helpers, so substitute rebuilds
    every entry's tree unchanged, and an unbound get holds that tree itself
    (the oracle's float values follow its shape)."""
    for e in catalog.list():
        assert substitute(e.expression, {}) == e.expression, e.id
        eq = catalog.get(e.id)
        assert (eq.F if e.role == "hyperbolic" else eq.G) is e.expression, e.id


def test_get_with_bindings_substitutes_exactly(catalog):
    # parameters appearing as plain names are substituted in the expression
    G = catalog.get("ev17", {"mu": 0})
    assert "mu" not in print_expr(G.G, G.ctx)
    assert G.params == {"mu": Fraction(0)}
    # and the bound context specializes the defining relations themselves:
    # with a = 1 the fa cubic collapses onto the f cubic
    F = catalog.get("S3", {"a": 1, "b": 0})
    assert F.params == {"a": Fraction(1), "b": Fraction(0)}
    assert N.normalize(
        F.ctx, parse("(fa(uy) + uy)^2*(2*fa(uy) - uy) + 1", F.ctx)) == {}


def test_binding_cache_returns_identical_context(catalog):
    F = catalog.get("S3", {"mu": 0})
    G = catalog.get("ev17", {"mu": 0})
    assert F.ctx is G.ctx


def test_admissibility_enforced(catalog):
    with pytest.raises(AdmissibilityError):
        catalog.get("S1", {"a": 0})
    with pytest.raises(AdmissibilityError):
        catalog.get("ev21", {"c": 0})
    with pytest.raises(AdmissibilityError):
        catalog.get("ev14", {"lam2": 0})
    # zero is fine for parameters without a nonzero condition
    catalog.get("ev18", {"mu": 0})
    catalog.get("S3", {"a": 1, "b": 0})


def test_pairing_claims(catalog):
    claims = catalog.pairings()
    keys = [c.key for c in claims]
    assert keys == [
        "hyp4 ev12 x", "hyp4 ev12 y", "S1 ev11 x", "S2 ev12 x",
        "S3 ev17 x mu=0", "S4 ev18 x mu=0", "S5 ev18 x mu=0", "S6 ev21 x",
        "final1 ev12 x", "final2 ev18 x mu=0", "final3 ev18 x mu=0",
        "final4 ev21 x",
    ]
    assert len(claims) == 12
    statuses = {c.key: c.status for c in claims}
    assert statuses["S2 ev12 x"] == "resolved-by-tool"
    assert statuses["hyp4 ev12 x"] == "asserted-by-paper"


def test_expression_round_trip_all_entries(catalog):
    ctx = catalog.ctx
    for entry in catalog.list():
        printed = print_expr(entry.expression, ctx)
        assert N.nf_equal(ctx, N.normalize(ctx, entry.expression),
                          N.normalize(ctx, parse(printed, ctx))), entry.id


def test_parse_blocks_field_shapes():
    text = textwrap.dedent("""\
        id: demo
        role: evolution
        expr:
        u1 + u2
         + u3
        """)
    fields = parse_blocks(text, "<mem>")
    assert fields["id"] == "demo"
    assert fields["role"] == "evolution"
    assert fields["expr"] == ["u1 + u2", "+ u3"]


def test_extra_catalog_path(tmp_path, catalog):
    extra = tmp_path / "extra.txt"
    extra.write_text(textwrap.dedent("""\
        id: demo1
        role: hyperbolic
        params:
        provenance: demo
        expr:
        exp(u) + u1*v1
        """))
    cat = Catalog(extra_paths=[str(tmp_path)])
    assert "demo1" in [e.id for e in cat.list()]
    F = cat.get("demo1")
    assert isinstance(F, HyperbolicEq)


def entry_text(id="demo", role="hyperbolic", params="",
               expr="exp(u) + u1*v1"):
    """An entry file with every required header."""
    return (f"id: {id}\nrole: {role}\nparams: {params}\n"
            f"provenance: demo\nexpr:\n{expr}\n")


def test_duplicate_id_rejected(tmp_path):
    (tmp_path / "dup.txt").write_text(entry_text(id="hyp4", expr="exp(u)"))
    with pytest.raises(CatalogError, match="duplicate entry id"):
        Catalog(extra_paths=[str(tmp_path)])


def test_malformed_entry_rejected(tmp_path):
    (tmp_path / "bad.txt").write_text(
        entry_text(id="ooze", role="mystery", expr="u1"))
    with pytest.raises(CatalogError, match="role must be one of"):
        Catalog(extra_paths=[str(tmp_path)])


def test_entry_with_out_of_scope_variables_rejected(tmp_path):
    (tmp_path / "bad2.txt").write_text(entry_text(id="toodeep", expr="u3 + v1"))
    with pytest.raises(CatalogError, match="outside"):
        Catalog(extra_paths=[str(tmp_path)])


ENTRY = entry_text()


@pytest.mark.parametrize("files, target, message", [
    # entry files
    ({"e.txt": "id: a\n" + ENTRY}, None, "duplicate field 'id'"),
    ({"e.txt": "id: demo\nstray\n"}, None, "stray line 'stray'"),
    ({"e.txt": ENTRY.replace("params: ", "params:\na\n")}, None,
     "params must be a single line"),
    ({"e.txt": entry_text(params="a > 0")}, None, "bad param spec 'a > 0'"),
    ({"e.txt": entry_text(expr="")}, None, "expr block is empty"),
    ({"e.txt": entry_text(params="zeta")}, None,
     "'zeta' is not a registered parameter"),
    ({"e.txt": entry_text(expr="a*u1*v1")}, None,
     r"undeclared parameters \['a'\]"),
    # pairing files
    ({"p.txt": "hyp4 ev12 x\n"}, None, "short pairing line"),
    ({"p.txt": "hyp4 ev12 x maybe\n"}, None, "bad status 'maybe'"),
    ({"p.txt": "hyp4 ev12 z resolved-by-tool\n"}, None,
     "bad direction 'z'"),
    ({"p.txt": "S3 ev17 x mu resolved-by-tool\n"}, None,
     "bad binding 'mu'"),
    ({"p.txt": "S3 ev17 x mu=1/0 resolved-by-tool\n"}, None,
     "bad binding value 'mu=1/0'"),
    ({"p.txt": "nosuch ev12 x resolved-by-tool\n"}, None,
     "unknown id 'nosuch'"),
    ({"p.txt": "ev12 hyp4 x resolved-by-tool\n"}, None,
     "'ev12' is not a hyperbolic entry"),
    ({"p.txt": "S1 ev11 x a=0 resolved-by-tool\n"}, None,
     r"binding a=0 violates 'S1' admissibility \(a != 0\)"),
    # a_entry.txt loads first; "a!=0" is read as "a != 0"
    ({"a_entry.txt": entry_text(params="a!=0", expr="a*u1*v1"),
      "b_pairs.txt": "demo ev12 x a=0 resolved-by-tool\n"}, None,
     r"violates 'demo' admissibility \(a != 0\)"),
    # paths and transforms
    ({}, "nope", "does not exist"),
    ({"e.txt": entry_text(role="mystery")}, "e.txt", "role must be one of"),
    ({"t.txt": "id: T1\nrelations:\nu = v\n"}, None,
     "duplicate transform id 'T1'"),
    # an expression that does not parse names its file
    ({"e.txt": entry_text(expr="u4*u2 + zeta")}, None,
     r"e\.txt: unknown name 'zeta'"),
    ({"e.txt": entry_text(expr="u4*u2 +")}, None,
     r"e\.txt: unexpected token 'end of input'"),
    ({"e.txt": entry_text(expr="u4*u2/0")}, None,
     r"e\.txt: constant zero denominator \(at position 5\)"),
])
def test_catalog_input_checks(tmp_path, files, target, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    path = tmp_path / target if target else tmp_path
    with pytest.raises(CatalogError, match=message):
        Catalog(extra_paths=[str(path)])


DOUBLED = "(a^3 - uy^3)/(a^6 - 2*a^3*uy^3 + uy^6)"


def normal_text(cat, text):
    ctx = cat.ctx
    return print_expr(N.nf_to_expr(ctx, N.normalize(ctx, parse(text, ctx))),
                      ctx)


@pytest.mark.parametrize("poisoned", [False, True])
def test_catalogs_share_no_context(poisoned):
    """Each Catalog() owns its context: another catalog's factor base and
    memos never reach it.  Normalizing 1/(a^3 - uy^3) first interns
    a^3 - uy^3, next to which the square below would print reduced; in a
    catalog of its own it prints as in a fresh one."""
    other = Catalog()
    if poisoned:
        assert normal_text(other, "1/(a^3 - uy^3)") == "1/(a^3 - uy^3)"
    cat = Catalog()
    assert cat.ctx is not other.ctx
    assert (normal_text(cat, DOUBLED)
            == "(a^3 - uy^3)/(a^6 - 2*uy^3*a^3 + uy^6)")
    assert not {id(f) for f in cat.ctx.den_atoms} & {
        id(f) for f in other.ctx.den_atoms}
    # every derived memo: filled in each, shared by neither
    for c in (other, cat):
        assert (print_nf(N.normalize(c.ctx, parse(OVER_DEGREE, c.ctx)), c.ctx)
                == normal_text(c, OVER_DEGREE))
        assert not verify.verify_pair(c.get("hyp3"), c.get("ev12"),
                                      samples=1).residual_is_zero
        assert all(getattr(c.ctx, k) for k in derived_memos(c.ctx))
        assert any(type(key[0]) is int for key in c.ctx._atom_texts)
    assert derived_memos(cat.ctx) == derived_memos(other.ctx)
    assert not memo_objects(cat.ctx) & memo_objects(other.ctx)
    assert not text_objects(cat.ctx) & text_objects(other.ctx)


OVER_DEGREE = "(f(u1)^2/(u1 + 1))*(f(u1)^2/(u2 + 1))"


def text_objects(ctx):
    """The ids of the entries of ctx's text memo: each (text, precedence)
    pair, and the layout each monomial key names."""
    return ({id(v) for v in ctx._atom_texts.values()}
            | {id(key[1]) for key in ctx._atom_texts if type(key[0]) is int})


def memo_objects(ctx):
    """The ids of what ctx's derived memos hold: each memo, and each key
    and value in it, down through dicts, lists and tuples (factors,
    rational functions, normal forms, jet records, printed texts).  None,
    numbers, strings and the empty tuple may be shared by any two objects,
    so they count only inside a container."""
    out, todo = set(), [getattr(ctx, k) for k in derived_memos(ctx)]
    while todo:
        x = todo.pop()
        if isinstance(x, dict):
            todo.extend(x)
            todo.extend(x.values())
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
        if x not in (None, ()) and not isinstance(x, (int, str, Fraction,
                                                      float)):
            out.add(id(x))
    return out
