"""The determining identity: exact residuals, coefficient localization, the
order-reduction conditions, ODE checks, and parameter forcing."""

import dataclasses
import gc
import hashlib
import math
import os
import pickle
import signal
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from hypersym import numeval, transforms, verify
from hypersym.catalog import Catalog
from hypersym.errors import (LemmaPremiseError, SizeLimitError,
                             UnknownNameError)
from hypersym.expr import normal as N
from hypersym.expr import poly as P
from hypersym.expr import tree
from hypersym.expr.context import XJET, YJET, default_context, std_context
from hypersym.expr.parser import parse, print_expr
from hypersym.expr.ratfunc import rf_from_poly
from hypersym.jet import (EvolutionEq, HyperbolicEq, NFJet, nf_flow, nf_jet,
                          nf_partials, swap_xy)

# pairings whose residual must be exactly zero, with their bindings
ZERO_PAIRS = [
    ("hyp4", "ev12", "x", {}),
    ("hyp4", "ev12", "y", {}),
    ("S1", "ev11", "x", {}),
    ("S2", "ev12", "x", {}),
    ("S3", "ev17", "x", {"mu": 0}),
    ("S4", "ev18", "x", {"mu": 0}),
    ("S5", "ev18", "x", {"mu": 0}),
    ("S6", "ev21", "x", {}),
    ("final1", "ev12", "x", {}),
    ("final2", "ev18", "x", {"mu": 0}),
    ("final3", "ev18", "x", {"mu": 0}),
    ("final4", "ev21", "x", {}),
]


def get_pair(catalog, hid, eid, bindings):
    return catalog.get(hid, bindings), catalog.get(eid, bindings)


def test_flagship_pair_is_exact_both_directions(catalog):
    F, G = get_pair(catalog, "hyp4", "ev12", {})
    for direction in ("x", "y"):
        r = verify.verify_pair(F, G, direction=direction)
        assert r.residual_is_zero, direction
        assert r.residual_term_count == 0
        assert r.failing_coefficients == []


def test_all_claimed_pairs_are_exact(catalog):
    for hid, eid, direction, bindings in ZERO_PAIRS:
        F, G = get_pair(catalog, hid, eid, bindings)
        r = verify.verify_pair(F, G, direction=direction)
        assert r.residual_is_zero, (hid, eid, direction)


def test_near_miss_localizes_failing_coefficients(catalog):
    # exp(u) - exp(-u) paired against the flagship flow fails, and the
    # report names the exact jet monomials carrying the obstruction
    F, G = get_pair(catalog, "hyp3", "ev12", {})
    r = verify.verify_pair(F, G)
    assert not r.residual_is_zero
    assert r.residual_term_count == 5
    assert r.failing_coefficients == [
        ("u1^3*u2", "10"),
        ("u1^2*u3", "-20"),
        ("u1*u2^2", "-30"),
        ("u1*u4", "10"),
        ("u2*u3", "20"),
    ]
    assert r.cleared_denominator == "exp(u)"


def ref_cleared(ctx, R):
    """R times the lcm of its denominators, made one factor power at a time:
    each numerator is scaled to the common integer denominator and then
    multiplied by every factor power its own denominator lacks."""
    scalar = math.lcm(*(rf.den_scalar for rf in R.values()))
    emax = {}
    for rf in R.values():
        for fac, e in rf.den_factors:
            emax[fac] = max(emax.get(fac, 0), e)
    out = {}
    for alg_mono, rf in R.items():
        p = P.pscale(rf.num, scalar // rf.den_scalar)
        have = {fac: e for fac, e in rf.den_factors}
        for fac, e in emax.items():
            for _ in range(e - have.get(fac, 0)):
                p = P.pmul(p, fac.poly, ctx.layout)
        out[alg_mono] = p
    return out


def ref_jet_coefficients(ctx, R):
    """The full conversion jet_coefficients made before it stopped at the
    printed groups: every group, in descending jet order."""
    layout = ctx.layout
    jet_mask = layout.field_mask(
        v.index for v in ctx.base_vars if v.kind in (XJET, YJET))
    groups = {}
    for alg_mono, p in ref_cleared(ctx, R).items():
        for mono, c in p.items():
            jet = layout.restrict(mono, jet_mask)
            bucket = groups.setdefault(jet, {}).setdefault(alg_mono, {})
            bucket[mono - jet] = bucket.get(mono - jet, 0) + c
    out = []
    for jet in sorted(groups, reverse=True):
        coeff_nf = {}
        for alg_mono, p in groups[jet].items():
            p = {m: c for m, c in p.items() if c}
            if p:
                coeff_nf[alg_mono] = rf_from_poly(ctx, p)
        if coeff_nf:
            out.append((verify._mono_text(ctx, jet, layout,
                                          verify._base_names(ctx)),
                        N.nf_to_expr(ctx, coeff_nf)))
    return out


@pytest.mark.parametrize("hid, eid, groups", [
    ("hyp4", "ev10", 13), ("S1", "ev12", 116), ("S4", "ev17", 541),
    ("S3", "ev21", 1449)])
def test_jet_coefficients_convert_only_printed_groups(catalog, hid, eid,
                                                       groups):
    """S3 ev21's residual has 33 algebraic monomials over 23 distinct
    denominators, so its cleared form shares cofactors."""
    F, G = get_pair(catalog, hid, eid, {})
    ctx = F.ctx
    R = verify.determining_residual(F, G)
    cleared, _den = verify._clear_denominators(ctx, R)
    assert dict(cleared) == ref_cleared(ctx, R)
    ref = ref_jet_coefficients(ctx, R)
    got, _den, total = verify.jet_coefficients(ctx, R)
    assert total == len(ref) == groups
    assert len(got) == min(total, verify.MAX_REPORTED_COEFFS)
    text = [(m, print_expr(c, ctx)) for m, c in got]
    assert text == [(m, print_expr(c, ctx))
                    for m, c in ref[:verify.MAX_REPORTED_COEFFS]]
    r = verify.verify_pair(F, G)
    assert r.failing_total == total
    assert r.failing_coefficients == text


def test_pure_exponential_neighbor_is_also_exact(catalog):
    # u_xy = e^u admits the same fifth-order flow exactly: the residual
    # vanishes identically (confirmed independently by the numeric oracle).
    F, G = get_pair(catalog, "hyp2", "ev12", {})
    r = verify.verify_pair(F, G, samples=10, seed=1)
    assert r.residual_is_zero
    assert r.numeric_max_residual < 1e-9


def test_numeric_oracle_agrees_with_exact_verdicts(catalog):
    zero = verify.verify_pair(*get_pair(catalog, "hyp4", "ev12", {}),
                              samples=5, seed=2)
    assert zero.residual_is_zero and zero.numeric_max_residual < 1e-9
    nonzero = verify.verify_pair(*get_pair(catalog, "hyp3", "ev12", {}),
                                 samples=10, seed=2)
    assert not nonzero.residual_is_zero
    hits = sum(1 for x in nonzero.numeric_residuals if x > 1e-3)
    assert hits >= 9


G_TABLE = {
    "ev7": "0", "ev8": "0", "ev9": "0", "ev10": "0", "ev11": "0",
    "ev12": "0", "ev13": "0", "ev14": "0",
    "ev15": "-1/u1", "ev16": "-1/u1",
    "ev17": "-1/(2*u1)",
    "ev18": "(f(u1) - u1)/(2*f(u1)^2)",
    "ev19": "(f(u1) - u1)/(2*f(u1)^2)",
    "ev20": "(f(u1) - u1)/(2*f(u1)^2)",
    "ev21": "(f(u1) - u1)/(2*f(u1)^2)",
}


def test_g_table(catalog, ctx):
    for eid, expected in G_TABLE.items():
        g = verify.extract_g(catalog.get(eid))
        want = N.normalize(ctx, parse(expected, ctx))
        assert N.nf_equal(ctx, N.normalize(ctx, g), want), eid


def test_extract_g_premise_violations(ctx):
    # dG/du_4 must be 5 u_2 g(u_1): a v-jet or extra x-jet factor is rejected
    # (the v-jet case, u4*v1, is already refused by EvolutionEq)
    with pytest.raises(ValueError):
        EvolutionEq("bad1", parse("u4*v1", ctx), ctx=ctx)
    bad2 = EvolutionEq("bad2", parse("u4*u2^2", ctx), ctx=ctx)
    with pytest.raises(LemmaPremiseError):
        verify.extract_g(bad2)


def test_lemma_split_conditions_vanish_for_claimed_pairs(catalog):
    for hid, eid, direction, bindings in ZERO_PAIRS:
        F, G = get_pair(catalog, hid, eid, bindings)
        if direction == "y":
            F = HyperbolicEq(F.id, swap_xy(F.F, F.ctx), params=F.params,
                             ctx=F.ctx)
        g = verify.extract_g(G)
        dec = verify.lemma_split(F, g)  # raises if the expansion mismatches
        assert dec.eq28 == {}, (hid, eid)
        assert dec.eq29 == {}, (hid, eid)


def test_lemma_split_nonsolution_leaves_residue(catalog, ctx):
    # pairing S3's right-hand side with the wrong g leaves both conditions
    dec = verify.lemma_split(catalog.get("S3"), parse("0", ctx))
    assert dec.eq28 != {}
    assert dec.eq29 != {}


def test_u5_constraint_zero_for_claimed_pairs(catalog):
    for hid, eid, direction, bindings in ZERO_PAIRS:
        if direction != "x":
            continue
        F, G = get_pair(catalog, hid, eid, bindings)
        assert verify.u5_constraint(F, G) == {}, (hid, eid)


ODE_ROWS = [
    ("0", "1"),
    ("0", "u1"),
    ("-1/u1", "u1"),
    ("-1/u1", "u1*ln(u1)"),
    ("-1/(2*u1)", "sqrt(u1)"),
    ("-1/(2*u1)", "u1"),
]


def test_ode_rows_all_zero(ctx):
    for g_text, w_text in ODE_ROWS:
        g = parse(g_text, ctx)
        w = parse(w_text, ctx)
        assert verify.ode_check(w, g, ctx) == {}, (g_text, w_text)


def test_ode_rejects_non_solutions(ctx):
    assert verify.ode_check(parse("u1^2", ctx), parse("0", ctx), ctx) != {}
    assert verify.ode_check(parse("1", ctx), parse("-1/u1", ctx), ctx) != {}


def test_param_conditions_force_lambda_zero(catalog, ctx):
    F = catalog.get("S2")
    G = catalog.get("ev13")
    conds = verify.param_conditions(F, G)
    assert conds
    assert verify.conditions_hold(conds, {"lam1": 0, "lam2": 0}, ctx)
    assert not verify.conditions_hold(conds, {"lam1": 1, "lam2": 0}, ctx)
    assert not verify.conditions_hold(conds, {"lam1": 0, "lam2": Fraction(1, 3)},
                                      ctx)
    # and the forced binding indeed verifies exactly
    r = verify.verify_pair(catalog.get("S2", {"lam1": 0, "lam2": 0}),
                           catalog.get("ev13", {"lam1": 0, "lam2": 0}))
    assert r.residual_is_zero


def test_param_conditions_force_mu_zero(catalog, ctx):
    F = catalog.get("S3")
    G = catalog.get("ev17")
    conds = verify.param_conditions(F, G)
    assert conds
    assert verify.conditions_hold(conds, {"mu": 0}, ctx)
    assert not verify.conditions_hold(conds, {"mu": 1}, ctx)
    # a name that is not a parameter is an error, not a failed condition
    for name in ("m", "zzz", "u1"):
        with pytest.raises(UnknownNameError,
                           match=f"'{name}' is not a bindable parameter"):
            verify.conditions_hold(conds, {name: 0}, ctx)


def test_param_conditions_empty_for_exact_pairs(catalog):
    assert verify.param_conditions(catalog.get("hyp4"),
                                   catalog.get("ev12")) == []
    # S2 vs ev12 is exact for ALL a, b: no conditions on the parameters
    assert verify.param_conditions(catalog.get("S2"),
                                   catalog.get("ev12")) == []


@pytest.mark.parametrize("hid, eid, count, first, digest", [
    ("S3", "ev17", 79, "u1^3*u2*v1^4 = -60*mu",
     "32fcdd7221e5365a4ff6b144d663e7147cb0e4beb7f988c661887af9a741d110"),
    ("S2", "ev13", 32, "u1^2*v1*E^14 = 80*lam1^4",
     "5c1cd3b3e06110b7457bc6d94626f8e7c0254456f285e2e236e5f41ca538808b"),
])
def test_param_conditions_text_is_pinned(catalog, ctx, hid, eid, count,
                                         first, digest):
    """The conditions print as captured: their number, the first line and
    the sha256 of all lines 'monomial = condition', each ending in a
    newline."""
    conds = verify.param_conditions(catalog.get(hid), catalog.get(eid))
    lines = [f"{m} = {print_expr(c, ctx)}\n" for m, c in conds]
    assert len(lines) == count
    assert lines[0] == first + "\n"
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest


def test_swap_symmetric_entries(catalog, ctx):
    # the S2-form and S6 right-hand sides are invariant under x <-> y
    for eid in ("hyp4", "hyp2", "hyp3", "S2"):
        F = catalog.get(eid).F
        assert N.nf_equal(ctx, N.normalize(ctx, swap_xy(F, ctx)),
                          N.normalize(ctx, F)), eid
    # S6 swaps onto its mirror image: the two cubic symbols trade arguments
    S6 = catalog.get("S6").F
    mirrored = parse("-2*f(v1)*fa(u1)*wp(u)/w(u)", ctx)
    assert N.nf_equal(ctx, N.normalize(ctx, swap_xy(S6, ctx)),
                      N.normalize(ctx, mirrored))


def test_report_key_and_structured_lines(catalog):
    F, G = get_pair(catalog, "S3", "ev17", {"mu": 0})
    r = verify.verify_pair(F, G, samples=4, seed=9)
    assert r.key == "S3 ev17 x mu=0"
    lines = r.structured_lines()
    assert lines[0] == "pair = S3 ev17 x mu=0"
    assert "residual_is_zero = true" in lines
    assert f"seed = 9" in lines
    # deterministic: a rerun yields the identical serialized report
    r2 = verify.verify_pair(F, G, samples=4, seed=9)
    assert r2.structured_lines() == lines


def test_verify_all_order_and_verdicts(catalog):
    reports = verify.verify_all(catalog, samples=0, jobs=1)
    keys = [r.key for r in reports]
    assert keys == sorted(keys)
    assert len(reports) == 12
    assert all(r.residual_is_zero for r in reports)
    # numeric sampling must not change any verdict
    sampled = verify.verify_all(catalog, samples=5, seed=3, jobs=2)
    assert [r.key for r in sampled] == keys
    for r in sampled:
        assert r.residual_is_zero
        assert r.numeric_max_residual < r.tolerance


def test_verify_claim_uses_declared_bindings(catalog):
    claim = next(c for c in catalog.pairings() if c.key == "S3 ev17 x mu=0")
    r = verify.verify_claim(catalog, claim)
    assert r.residual_is_zero
    assert dict(r.bindings)["mu"] == 0
    assert r.pairing is claim


def test_verify_all_verifies_the_catalog_it_is_given(catalog):
    std = std_context()
    before = len(std.den_atoms)
    own = Catalog(ctx=default_context())
    reports = verify.verify_all(own, jobs=1)
    assert len(own.ctx.den_atoms) > 0
    assert len(std.den_atoms) == before
    assert [r.structured_lines() for r in reports] == [
        r.structured_lines() for r in verify.verify_all(catalog, jobs=1)]


SRC = Path(verify.__file__).resolve().parent.parent

# Run in a child process, so that a pool that never returns fails the test.
_WORKERS_SCRIPT = """
import shutil, sys
from hypersym import verify
from hypersym.catalog import Catalog
cat = Catalog()
cat.load_path(sys.argv[1])
shutil.rmtree(sys.argv[1])
two = verify.verify_all(cat, jobs=2)
one = verify.verify_all(cat, jobs=1)
assert [r.structured_lines() for r in two] == [
    r.structured_lines() for r in one]
assert len(two) == 13 and all(r.residual_is_zero for r in two)
assert "hyp4copy ev12 x" in [r.key for r in two]
"""


def test_verify_all_workers_verify_the_callers_catalog(tmp_path):
    """The workers verify the catalog they are handed, not one loaded again
    from its files: an extra directory deleted after loading gives the
    reports of one worker from two."""
    extra = tmp_path / "extra"
    extra.mkdir()
    (extra / "hyp4copy.txt").write_text(textwrap.dedent("""\
        id: hyp4copy
        role: hyperbolic
        params:
        provenance: test
        expr:
        exp(u) + exp(-2*u)
        """))
    (extra / "pairs.txt").write_text("hyp4copy ev12 x asserted-by-paper\n")
    proc = subprocess.Popen(
        [sys.executable, "-c", _WORKERS_SCRIPT, str(extra)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool's workers too
        proc.communicate()
        pytest.fail("verify_all(jobs=2) did not return within 60 s")
    assert proc.returncode == 0, err
    assert not extra.exists()


def test_a_pickled_catalog_verifies_as_the_original():
    """Under spawn or forkserver each worker gets the catalog pickled; a
    copy made after the sampled claims filled its context's caches gives
    the original's reports."""
    cat = Catalog(ctx=default_context())
    before = [r.structured_lines()
              for r in verify.verify_all(cat, samples=5, seed=3, jobs=1)]
    copy = pickle.loads(pickle.dumps(cat))
    assert copy.ctx is not cat.ctx and copy.ctx._sample_points[0] == 3
    assert [r.structured_lines() for r in verify.verify_all(
        copy, samples=5, seed=3, jobs=1)] == before


def test_verify_all_workers_keep_the_context_limits():
    # the size limit of the catalog's context holds whatever the worker count
    cat = Catalog(ctx=default_context(max_terms=50))
    for jobs in (1, 2):
        with pytest.raises(SizeLimitError):
            verify.verify_all(cat, jobs=jobs)


def _mixed_both_orders(F, G):
    """D_y(D_xH) and D_x(D_yH) for H = u5 + G, as normal forms."""
    ctx = F.ctx
    nfj = NFJet(F)
    H = N.nf_add(ctx, N.nf_base(ctx, "u5"), N.normalize(ctx, G.G))
    return nfj.d_y(nfj.d_x(H)), nfj.d_x(nfj.d_y(H))


def _nf_shape(a):
    """Every coefficient's numerator, scalar and factor keys and exponents."""
    return {m: (rf.num, rf.den_scalar,
                tuple((f.key, e) for f, e in rf.den_factors))
            for m, rf in a.items()}


@pytest.mark.parametrize("hid,eid,direction,bindings", ZERO_PAIRS + [
    ("S1", "ev19", "x", {}),
    ("S3", "ev19", "x", {}),
    ("hyp2", "ev18", "x", {}),
    ("final2", "ev18", "x", {}),
])
def test_mixed_derivative_does_not_depend_on_order(catalog, hid, eid,
                                                   direction, bindings):
    """On the square-free factor base a rational function has one reduced
    form, so determining_residual may take the mixed derivative in either
    order: the two normal forms agree key for key and factor for factor."""
    F, G = get_pair(catalog, hid, eid, bindings)
    if direction == "y":
        F = HyperbolicEq(F.id, swap_xy(F.F, F.ctx), params=F.params,
                         ctx=F.ctx)
    yx, xy = _mixed_both_orders(F, G)
    assert yx
    assert _nf_shape(yx) == _nf_shape(xy)


def two_step_residual(F, G):
    """determining_residual with every partial of D_yH reduced on its own
    before its product with the rule, as it was composed before the
    partials were fused with their rules.  Returns (whether the mixed
    derivative took D_x(D_yH), R)."""
    ctx = F.ctx
    nfj, flow = nf_jet(F), nf_flow(G)
    H, dxH = flow.H, flow.dxH
    dyH = N.nf_sum_products(ctx, nfj.pair_rules(flow.partials, "y"))
    tables = sum(N.nf_size(nfj.dxk_F(k)) for k in range(5))
    x_first = 50 * N.nf_size(dyH) < N.nf_size(dxH) * tables
    if x_first:
        mixed = nfj.pair_rules(nf_partials(ctx, dyH), "x")
    else:
        mixed = nfj.pair_rules(flow.dx_partials, "y")
    return x_first, N.nf_sum_products(ctx, mixed + [
        (N.nf_neg(ctx, nfj.partial_F("u1")), dxH),
        (N.nf_neg(ctx, nfj.partial_F("v1")), dyH),
        (N.nf_neg(ctx, nfj.partial_F("u")), H)])


@pytest.mark.parametrize("hid,eid,x_first", [
    ("S3", "ev21", False),
    ("final4", "ev21", True),
    ("S4", "ev18", True),
])
def test_residual_matches_the_two_step_route(catalog, hid, eid, x_first):
    """On the D_x(D_yH) route the terms of D_x(D_yH) go unreduced into the
    sum that gives R; R must equal the two-step composition factor for
    factor, on that route and on D_y(D_xH)."""
    F, G = get_pair(catalog, hid, eid, {})
    took_x_first, want = two_step_residual(F, G)
    assert took_x_first == x_first
    assert _nf_shape(verify.determining_residual(F, G)) == _nf_shape(want)


PAIRS_195 = Path(__file__).parent / "data" / "verify_pairs_195.sha256"


@pytest.fixture(scope="module")
def pairs_195():
    """(F, G, exact report) for every hyperbolic x evolution pair, made in
    one process in catalog order."""
    cat = Catalog()
    out = []
    for h in cat.list("hyperbolic"):
        for e in cat.list("evolution"):
            F, G = cat.get(h.id), cat.get(e.id)
            out.append((F, G, verify.verify_pair(F, G)))
    return out


def test_every_hyperbolic_evolution_pair_is_pinned(pairs_195):
    """The exact report of every hyperbolic x evolution pair matches its
    pinned digest (the first 16 hex digits of the sha256 of its structured
    lines)."""
    lines = []
    for F, G, r in pairs_195:
        text = "\n".join(r.structured_lines()).encode()
        verdict = "zero" if r.residual_is_zero else "nonzero"
        lines.append(f"{F.id} {G.id} {verdict} "
                     f"{hashlib.sha256(text).hexdigest()[:16]}\n")
    assert len(lines) == 195
    assert "".join(lines).encode() == PAIRS_195.read_bytes()
    zero = [ln.split()[:2] for ln in lines if ln.split()[2] == "zero"]
    assert zero == [["hyp2", "ev12"], ["hyp4", "ev12"], ["S1", "ev11"],
                    ["S2", "ev12"], ["S6", "ev21"], ["final1", "ev12"],
                    ["final4", "ev21"]]


def report_mismatches(F, G, r, points):
    """The points at which the printed report r, read back as
    d^-1 * sum of c_m * m (d the cleared denominator, c_m the coefficient
    of the jet monomial m), differs from the oracle's residual program of
    (F, G) by more than a relative 1e-8.  The program never sees a normal
    form, so a wrong coefficient, denominator or printed sign shows."""
    ctx = F.ctx
    total = tree.add(*(tree.mul(parse(c, ctx), parse(m, ctx))
                       for m, c in r.failing_coefficients))
    if r.cleared_denominator is not None:
        total = tree.div(total, parse(r.cleared_denominator, ctx))
    prog = numeval.residual_program(F, G)
    out = []
    for k, p in enumerate(points):
        want = numeval._run(prog.ops, prog.roots, p)[0]
        got = numeval.eval(total, p)
        if abs(got - want) > 1e-8 * max(abs(got), abs(want)):
            out.append((k, got, want))
    return out


def fully_printed_nonzero(pairs):
    return [(F, G, r) for F, G, r in pairs
            if not r.residual_is_zero
            and r.failing_total == len(r.failing_coefficients)]


def oracle_points(ctx, n=5):
    return [numeval.sample_point(ctx, seed).assignment for seed in range(n)]


def test_nonzero_reports_say_what_the_residual_is(pairs_195):
    """Every nonzero report that prints all its coefficients (at most
    MAX_REPORTED_COEFFS) evaluates to the residual at 5 oracle points."""
    checked = fully_printed_nonzero(pairs_195)
    assert len(checked) == 56
    points = oracle_points(checked[0][0].ctx)
    bad = {f"{F.id} {G.id}": m for F, G, r in checked
           if (m := report_mismatches(F, G, r, points))}
    assert not bad


def test_report_identity_sees_a_changed_coefficient_or_denominator(
        pairs_195):
    checked = fully_printed_nonzero(pairs_195)
    points = oracle_points(checked[0][0].ctx)
    for F, G, r in checked:
        (mono, coeff), *rest = r.failing_coefficients
        scaled = [(mono, f"(1 + 1/1000000)*({coeff})"), *rest]
        den = r.cleared_denominator
        for doctored in (
                dataclasses.replace(r, failing_coefficients=scaled),
                dataclasses.replace(r, cleared_denominator=(
                    f"2*({den})" if den else "2"))):
            assert report_mismatches(F, G, doctored, points), (F.id, G.id)


def test_nonzero_report_does_not_depend_on_worker_count(tmp_path):
    (tmp_path / "pairs.txt").write_text("hyp3 ev12 x asserted-by-paper\n")
    cat = Catalog()
    cat.load_path(str(tmp_path))
    serial, fanned = (verify.verify_all(cat, jobs=jobs) for jobs in (1, 2))
    nonzero = [r for r in serial if not r.residual_is_zero]
    assert [r.key for r in nonzero] == ["hyp3 ev12 x"]
    assert nonzero[0].failing_coefficients
    assert ([r.structured_lines() for r in fanned]
            == [r.structured_lines() for r in serial])


def test_warm_memos_do_not_change_a_report():
    """The normal forms of F and the flow record of u5 + G are memoized per
    context and tree; a report made with the memos warm from other flows
    and other equations equals the report made in a fresh context.  S6 ev21
    takes the order D_x(D_yH), so S3 ev21 makes the partials of D_xH on a
    record that another equation made; hyp4 ev12 y follows hyp4 ev12 x."""
    warm = Catalog(ctx=default_context())
    order = [("S6", "ev21", "x"), ("S3", "ev21", "x"), ("hyp3", "ev12", "x"),
             ("hyp3", "ev21", "x"), ("S6", "ev12", "x"), ("hyp4", "ev12", "x"),
             ("hyp4", "ev12", "y")]
    for h, e, d in order:
        cold = Catalog(ctx=default_context())
        assert (verify.verify_pair(warm.get(h), warm.get(e),
                                   direction=d).structured_lines()
                == verify.verify_pair(cold.get(h), cold.get(e),
                                      direction=d).structured_lines()), (h, e, d)
        if (h, e) == ("S6", "ev21"):
            assert "dx_partials" not in nf_flow(warm.get(e)).__dict__
    # an unbound Catalog.get returns one tree per entry, and an equal new
    # tree (as swap_xy builds from hyp4's F, its own mirror) finds the same
    # memo entry
    assert len(warm.ctx._nf_jets) == 4 and len(warm.ctx._flow_nf) == 2
    assert nf_jet(warm.get("S6")) is nf_jet(warm.get("S6"))
    # a bound context keeps its own tables, even for an F free of mu
    F, Fb = warm.get("hyp3"), warm.get("hyp3", {"mu": 0})
    assert Fb.ctx is not F.ctx and Fb.F == F.F
    assert nf_jet(Fb) is not nf_jet(F) and nf_jet(Fb).ctx is Fb.ctx


@pytest.mark.parametrize("hid", ["hyp3", "S3", "S6"])
def test_flow_record_does_not_read_F(hid):
    """The flow record's D_xH, made from the jet rules' names alone, equals
    D_xH taken with F's rules, on a context where nothing else ran."""
    cat = Catalog(ctx=default_context())
    flow = nf_flow(cat.get("ev21"))
    want = NFJet(cat.get(hid)).d_x(flow.H)
    assert want and _nf_shape(flow.dxH) == _nf_shape(want)


def test_a_verdict_leaves_no_reference_cycles():
    """Everything a verdict and the transform checks build is freed by
    reference counting, also on a warm flow record: the recursive walkers
    hold no cycles."""
    cat = Catalog()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        # the second verdict takes D_y(D_xH) on the flow the first made
        verify.verify_pair(cat.get("S6"), cat.get("ev21"))
        verify.verify_pair(cat.get("S3"), cat.get("ev21"))
        transforms.check_all(cat)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def count_poly_work(monkeypatch):
    """Wrap poly.pmul, poly.pmul_into and poly.pdiv_exact wherever a
    hypersym module binds them: term products len(a) * len(b) of the
    outermost multiplication (pmul runs on pmul_into), and division calls."""
    work = {"products": 0, "pdiv_exact": 0}
    depth = [0]

    def multiply(real, first):
        def counted(*args, **kwargs):
            a, b = args[first:first + 2]
            if not depth[0]:
                work["products"] += len(a) * len(b)
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1
        return counted

    def divide(*args):
        work["pdiv_exact"] += 1
        return real_pdiv(*args)

    real_pdiv = P.pdiv_exact
    wrapped = {id(P.pmul): multiply(P.pmul, 0),
               id(P.pmul_into): multiply(P.pmul_into, 1),
               id(P.pdiv_exact): divide}
    for name, mod in list(sys.modules.items()):
        if name == "hypersym" or name.startswith("hypersym."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    monkeypatch.setattr(mod, attr, wrapped[id(obj)])
    return work


def test_audit_pass_term_products(monkeypatch):
    """The work counter behind the exact route's speed: the 12 claims
    exact, then the 6 transforms.  Each coefficient is summed by
    denominator, with one cofactor product per distinct denominator, not
    one per summand (157,455 term products before, 131,737 after).  Each
    total derivative is then reduced once, not once per partial and again
    after the products with the rules: trial divisions fell from 5,481 to
    2,651, and term products rose to 138,583, because the unreduced
    quotient-rule and chain-rule terms, larger than the reduced partial,
    are what is multiplied by the rules."""
    cat = Catalog(ctx=default_context())
    work = count_poly_work(monkeypatch)
    reports = verify.verify_all(cat, samples=0, jobs=1)
    assert all(r.residual_is_zero for r in reports)
    assert all(r.ok for r in transforms.check_all(cat))
    assert work == {"products": 138583, "pdiv_exact": 2651}
