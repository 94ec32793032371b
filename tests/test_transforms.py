"""Point transformations between catalog equations: convention search,
fitted constants, and the point identities of S4S1, S5S3 and the final
list."""

import dataclasses
import textwrap

import pytest

from hypersym import transforms as T
from hypersym.catalog import Catalog
from hypersym.errors import TransformError
from hypersym.expr import normal as N
from hypersym.expr import tree
from hypersym.expr.parser import parse

TRANSFORM_IDS = ["S3i", "S3ii", "S4S1", "S5S3", "S6T", "T1"]


@pytest.fixture(scope="module")
def defs(catalog):
    return T.load_transforms(catalog)


@pytest.fixture(scope="module")
def reports(catalog):
    return {r.id: r for r in T.check_all(catalog)}


def convention(report, name):
    return next(c for c in report.conventions if c.name == name)


def test_shipped_transform_definitions(defs):
    assert sorted(defs) == TRANSFORM_IDS
    t1 = defs["T1"]
    assert t1.source == "S1"
    assert not t1.investigative
    assert len(t1.conventions) == 2
    assert defs["S6T"].investigative
    assert defs["S3i"].conventions == ("root-plus", "root-minus", "shift-b")


def test_check_all_is_deterministic(catalog):
    a = [r.structured_lines() for r in T.check_all(catalog)]
    b = [r.structured_lines() for r in T.check_all(catalog)]
    assert a == b
    assert [r.id for r in T.check_all(catalog)] == TRANSFORM_IDS


def test_t1_exactly_one_sign_verifies(reports):
    rep = reports["T1"]
    assert rep.status == "verified"
    assert rep.verified_convention == "second-coefficient-plus"
    zeros = [c.name for c in rep.conventions if c.residual_is_zero]
    assert zeros == ["second-coefficient-plus"]
    minus = convention(rep, "second-coefficient-minus")
    assert minus.residual_term_count == 2
    target = next(ch for ch in minus.checks if ch.name == "target_identity")
    assert target.text == "(-2)/3*fa(uy) + uy/3"


def test_t1_fitted_constants(reports):
    plus = convention(reports["T1"], "second-coefficient-plus")
    assert dict(plus.fitted) == {"c1": "1/3", "c2": "1/6*a^3"}
    # the two printed defining relations disagree by a factor of two;
    # both cross-derivative routes are recorded in the notes
    notes = dict(plus.notes)
    assert notes["v_xy_from_u_relation"] == "uy/2"
    assert notes["v_xy_from_exp_relation"] == "uy"
    assert notes["exp_route_over_u_route"] == "2"


def test_s3i_conventions(reports, catalog):
    rep = reports["S3i"]
    assert rep.verified_convention == "root-plus"
    plus = convention(rep, "root-plus")
    assert plus.residual_is_zero
    assert {ch.name for ch in plus.checks} == {
        "root_membership", "adjoined_rule_commutation", "v_y_route_residual"}
    minus = convention(rep, "root-minus")
    assert not minus.residual_is_zero
    counts = {ch.name: ch.term_count for ch in minus.checks}
    assert counts["root_membership"] == 4
    assert counts["adjoined_rule_commutation"] == 0
    assert counts["v_y_route_residual"] == 1
    # On the square-free factor base the residual is reduced to one term.
    # The earlier pin of 2 terms was the same function with (V^3 - 1)
    # left uncancelled against the a*(V^3 - 1)^2 denominator.
    route = next(ch for ch in minus.checks if ch.name == "v_y_route_residual")
    assert route.text == "(-3*uyy*V^2)/(V^3*a - a)*sqrt(u1)"
    ctx = catalog.get(rep.source, {"b": 0}).ctx
    old = "(-3*uyy*V^5 + 3*uyy*V^2)/(V^6*a - 2*V^3*a + a)*sqrt(u1)"
    assert N.nf_equal(ctx, N.normalize(ctx, parse(old, ctx)),
                      N.normalize(ctx, parse(route.text, ctx)))
    shift = convention(rep, "shift-b")
    assert shift.residual_is_zero  # symbolic b verifies formally


def test_s3ii_new_cubic(reports):
    rep = reports["S3ii"]
    assert rep.verified_convention == "root-plus"
    plus = convention(rep, "root-plus")
    assert dict(plus.fitted) == {"kappa": "-1/4*a^3"}
    assert plus.residual_is_zero
    assert {ch.name for ch in plus.checks} == {
        "w_y_is_shifted_root", "cross_commutation", "target_form",
        "new_cubic_membership", "inverse_relation"}
    minus = convention(rep, "root-minus")
    counts = {ch.name: ch.term_count for ch in minus.checks}
    assert counts["new_cubic_membership"] == 10
    assert counts["inverse_relation"] == 1
    inv = next(ch for ch in minus.checks if ch.name == "inverse_relation")
    assert inv.text == "2*fa(uy + b)"


def test_s4_is_swapped_s1_at_unit_parameter(reports):
    rep = reports["S4S1"]
    assert rep.status == "verified"
    conv = convention(rep, "normalized")
    notes = dict(conv.notes)
    assert notes["mapped_source"] == notes["target"] == "2*f(u1)*u"


def test_s5_is_swapped_s3_at_unit_parameter(reports):
    rep = reports["S5S3"]
    assert rep.status == "verified"
    conv = convention(rep, "normalized")
    notes = dict(conv.notes)
    assert notes["mapped_source"] == notes["target"] == "2*f(u1)*sqrt(uy)"


def test_s6_map_exact_in_both_sign_conventions(reports):
    rep = reports["S6T"]
    assert rep.investigative
    assert rep.ok
    # the enumeration is the contract; both signs in fact verify exactly
    for name in ("sc-plus", "sc-minus"):
        conv = convention(rep, name)
        assert conv.residual_is_zero, name
        assert dict(conv.notes)["exp_v_terms"] == "8"
        counts = {ch.name: ch.term_count for ch in conv.checks}
        assert counts == {"cross_commutation": 0, "target_residual": 0}


def test_check_transform_accepts_id(catalog):
    rep = T.check_transform("T1", catalog)
    assert rep.id == "T1" and rep.status == "verified"
    with pytest.raises(TransformError):
        T.check_transform("nosuch", catalog)


def test_s3i_unknown_convention_is_rejected(catalog, defs, monkeypatch):
    bogus = dataclasses.replace(defs["S3i"], conventions=("bogus",))
    monkeypatch.setattr(T, "load_transforms", lambda catalog: {"S3i": bogus})
    with pytest.raises(TransformError, match="unknown convention .bogus."):
        T.check_transform("S3i", catalog)


def test_parametrization_and_scaling(ctx):
    assert T.check_parametrization(ctx) == {}
    assert T.check_scaling_law(ctx) == {}


def test_curve_relation_expands_to_depressed_cubic(ctx):
    phi, s = tree.name("phi"), tree.name("s")
    built = T.curve_relation(phi, s, tree.const(5))
    expanded = parse("2*phi^3 + 3*s*phi^2 - s^3 + 5", ctx)
    assert N.nf_equal(ctx, N.normalize(ctx, built),
                      N.normalize(ctx, expanded))


def test_final_list_identities(catalog):
    rows = {li.final_id: li for li in T.final_list_identities(catalog)}
    assert set(rows) == {"final1", "final2", "final3", "final4"}
    assert all(li.holds for li in rows.values())
    assert rows["final1"].source_id == "hyp4" and not rows["final1"].swapped
    assert rows["final2"].source_id == "S1" and rows["final2"].swapped
    assert dict(rows["final2"].bindings) == {"a": 1}
    assert rows["final3"].source_id == "S3" and rows["final3"].swapped
    assert dict(rows["final3"].bindings) == {"a": 1, "b": 0}
    assert rows["final4"].source_id == "S6" and not rows["final4"].swapped
    assert dict(rows["final4"].bindings) == {"a": 1}


def test_malformed_transform_definitions_rejected(tmp_path):
    base = textwrap.dedent("""\
        id: badt
        source: S1
        target: v_xy = exp(v)
        provenance: none
        relations:
        {rel}
        conventions:
        {conv}
        """)
    # an unregistered identifier inside a relation
    bad_rel = tmp_path / "a"
    bad_rel.mkdir()
    (bad_rel / "t.txt").write_text(
        base.format(rel="mystery(u1) = exp(v)", conv="only"))
    with pytest.raises(TransformError):
        T.load_transforms(Catalog(extra_paths=[str(bad_rel)]))
    # an unknown source id
    bad_src = tmp_path / "b"
    bad_src.mkdir()
    (bad_src / "t.txt").write_text(
        base.format(rel="u = 2*v_x", conv="only").replace(
            "source: S1", "source: nosuch"))
    with pytest.raises(TransformError):
        T.load_transforms(Catalog(extra_paths=[str(bad_src)]))
    # no conventions declared
    bad_conv = tmp_path / "c"
    bad_conv.mkdir()
    (bad_conv / "t.txt").write_text(
        "id: badt\nsource: S1\ntarget: x\nprovenance: n\n"
        "relations:\nu = 2*v_x\n")
    with pytest.raises(TransformError):
        T.load_transforms(Catalog(extra_paths=[str(bad_conv)]))


def test_unknowns_are_admitted_in_relations(defs):
    # relation text may use declared unknowns (the target-side function v)
    t1 = defs["T1"]
    assert "v" in t1.unknowns or any("v" in r for r in t1.relations)
