"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Run as `pytest -v tests/test_acceptance.py`; each test function is one
criterion with its tolerances pinned as constants below.

Criterion 3 encodes the expectation that the pair (hyp2, ev12) FAILS
verification.  The mathematics says otherwise: that residual vanishes
identically (established by two independent symbolic routes and the
numeric oracle, see also test_verify.py).  The criterion is kept in its
original form so the discrepancy stays visible: this one test fails by
design and the failure is documented in README.md.
"""

import random
import time

from conftest import random_expr
from hypersym import cli, numeval, transforms, verify
from hypersym.expr import normal as N
from hypersym.expr.parser import parse
from hypersym.jet import HyperbolicEq, NFJet, swap_xy

NUMERIC_TOL = 1e-9        # max relative residual for a zero-like pairing
NEGATIVE_TOL = 1e-3       # min relative residual at a nonzero point
FD_REL_TOL = 1e-6         # finite-difference vs symbolic derivative
FLAGSHIP_WALL_S = 30.0    # criterion 1 wall-clock budget
VERIFY_ALL_WALL_S = 600.0  # criterion 10 wall-clock budget
FLAGSHIP_SAMPLES = 25
FD_POINTS = 20
COMMUTATION_EXPRS = 100


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    fields = {}
    for line in out.strip().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return code, out, fields


def test_criterion_01_flagship_x_symmetry(capsys):
    """verify hyp4 ev12: symbolic zero, numeric < 1e-9 over 25 samples,
    under 30 s."""
    t0 = time.perf_counter()
    code, _, fields = run_cli(capsys, "--format", "structured", "verify",
                              "hyp4", "ev12",
                              "--samples", str(FLAGSHIP_SAMPLES))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert fields["residual_is_zero"] == "true"
    assert fields["samples"] == str(FLAGSHIP_SAMPLES)
    assert float(fields["numeric_max_residual"]) < NUMERIC_TOL
    assert elapsed < FLAGSHIP_WALL_S


def test_criterion_02_flagship_y_symmetry(capsys):
    """verify hyp4 ev12 --dir y: symbolic zero through the swap machinery."""
    code, _, fields = run_cli(capsys, "--format", "structured", "verify",
                              "hyp4", "ev12", "--dir", "y")
    assert code == 0
    assert fields["pair"] == "hyp4 ev12 y"
    assert fields["residual_is_zero"] == "true"


def test_criterion_03_negative_control(catalog):
    """verify hyp2 ev12 reports nonzero, >= 1 failing coefficient, and
    numeric residual > 1e-3 at >= 9 of 10 points.

    KNOWN FAILURE: the residual of this pairing is identically zero, so
    the premise of the criterion is unattainable; the test is kept
    faithful instead of being weakened (see module docstring)."""
    F = catalog.get("hyp2")
    G = catalog.get("ev12")
    r = verify.verify_pair(F, G, samples=10, seed=0)
    hits = sum(1 for x in r.numeric_residuals if x > NEGATIVE_TOL)
    assert not r.residual_is_zero, (
        "the (hyp2, ev12) residual is identically zero; "
        "a nonzero verdict cannot be produced honestly")
    assert len(r.failing_coefficients) >= 1
    assert hits >= 9


def test_criterion_04_g_table(catalog, ctx):
    """extract_g over ev7..ev21 matches the four closed forms exactly."""
    expected = {}
    for eid in (f"ev{k}" for k in range(7, 15)):
        expected[eid] = "0"
    expected["ev15"] = expected["ev16"] = "-1/u1"
    expected["ev17"] = "-1/(2*u1)"
    for eid in ("ev18", "ev19", "ev20", "ev21"):
        expected[eid] = "(f(u1) - u1)/(2*f(u1)^2)"
    for eid, text in expected.items():
        g = N.normalize(ctx, verify.extract_g(catalog.get(eid)))
        want = N.normalize(ctx, parse(text, ctx))
        assert N.nf_equal(ctx, g, want), eid


def test_criterion_05_ode_rows(ctx):
    """the six (g, w) rows all normalize w'' + g w' + g' w to zero."""
    rows = [("0", "1"), ("0", "u1"), ("-1/u1", "u1"),
            ("-1/u1", "u1*ln(u1)"), ("-1/(2*u1)", "sqrt(u1)"),
            ("-1/(2*u1)", "u1")]
    for g_text, w_text in rows:
        res = verify.ode_check(parse(w_text, ctx), parse(g_text, ctx), ctx)
        assert res == {}, (g_text, w_text)


def test_criterion_06_lemma_consistency(catalog):
    """every zero pairing satisfies u5_constraint = 0, and the top-order
    expansion equals eq28*u2 + eq29 exactly (lemma_split raises on any
    mismatch of the two computations)."""
    for claim in catalog.pairings():
        bindings = dict(claim.bindings)
        F = catalog.get(claim.hyperbolic_id, bindings)
        G = catalog.get(claim.evolution_id, bindings)
        if claim.direction == "y":
            F = HyperbolicEq(F.id, swap_xy(F.F, F.ctx), params=F.params,
                             ctx=F.ctx)
        r = verify.verify_pair(F, G)
        assert r.residual_is_zero, claim.key
        assert verify.u5_constraint(F, G) == {}, claim.key
        g = verify.extract_g(G)
        dec = verify.lemma_split(F, g)  # internal expansion cross-check
        assert dec.eq28 == {} and dec.eq29 == {}, claim.key


def test_criterion_07_parametrization_and_scaling(ctx):
    """check_parametrization and check_scaling_law are exactly zero."""
    assert transforms.check_parametrization(ctx) == {}
    assert transforms.check_scaling_law(ctx) == {}


def test_criterion_08_derivative_rule_oracle(ctx):
    """df/du1, dfa/dv1 and dP/du match central finite differences to
    relative 1e-6 at 20 seeded points each."""
    for name in ("f", "fa", "P"):
        for seed in range(FD_POINTS):
            p = numeval.sample_point(ctx, seed=1000 + seed)
            row = next(c for c in numeval.fd_checks(ctx, p)
                       if c.name == name)
            assert row.rel_error < FD_REL_TOL, (name, seed, row.rel_error)


def test_criterion_09_jet_commutation(catalog):
    """normalize(DxDy e - DyDx e) = 0 for 100 random expressions against
    every catalog hyperbolic right-hand side."""
    rng = random.Random(20260816)
    names = ["u", "u1", "u2", "u3", "v1"]
    exprs = [random_expr(rng, names, 4) for _ in range(COMMUTATION_EXPRS)]
    for entry in catalog.list("hyperbolic"):
        eq = catalog.get(entry.id)
        eng = NFJet(eq)
        for e in exprs:
            a = N.normalize(eq.ctx, e)
            assert N.nf_equal(eq.ctx, eng.d_x(eng.d_y(a)),
                              eng.d_y(eng.d_x(a))), entry.id


def test_criterion_10_classified_pairs(catalog):
    """verify-all finishes under 10 minutes; the claimed pairings verify
    to symbolic zero; any nonzero outcome must localize failing
    coefficients (never fail silently)."""
    t0 = time.perf_counter()
    reports = verify.verify_all(catalog, samples=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < VERIFY_ALL_WALL_S
    by_key = {r.key: r for r in reports}
    for key in ("S1 ev11 x", "S2 ev12 x", "hyp4 ev12 x", "S3 ev17 x mu=0",
                "S4 ev18 x mu=0", "S5 ev18 x mu=0", "S6 ev21 x"):
        assert by_key[key].residual_is_zero, key
    for r in reports:
        if not r.residual_is_zero:
            assert r.failing_coefficients, r.key


def test_criterion_11_transforms(catalog):
    """T1 verifies for exactly one sign with fitted (1/3, a^3/6); S3(i)
    verifies exactly; S4 = swap(S1) and S5 = swap(S3) hold exactly at the
    stated normalizations."""
    reports = {r.id: r for r in transforms.check_all(catalog)}
    t1 = reports["T1"]
    zeros = [c for c in t1.conventions if c.residual_is_zero]
    assert len(zeros) == 1
    assert zeros[0].name == "second-coefficient-plus"
    assert dict(zeros[0].fitted) == {"c1": "1/3", "c2": "1/6*a^3"}
    assert reports["S3i"].status == "verified"
    assert reports["S4S1"].status == "verified"
    assert reports["S5S3"].status == "verified"


def test_criterion_12_determinism(capsys):
    """two runs of verify-all --seed 7 produce byte-identical structured
    reports (with and without numeric sampling)."""
    for extra in ((), ("--samples", "25")):
        argv = ("--format", "structured", "verify-all", "--seed", "7",
                *extra)
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
