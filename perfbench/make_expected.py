"""Regenerate perfbench/expected.json, the pinned answers the benchmark checks.

Every verdict comes from the numeric oracle applied to the expression-tree
residual, which this script builds itself from the public jet and tree
layers:

    R = D_x D_y H - F_{u1} D_x H - F_{v1} D_y H - F_u H,   H = u5 + G,

with the mixed derivative taken y-first.  The exact normal-form engine
that the benchmark measures is never consulted, so a defect in it cannot
leak into the expectations.  Transform statuses are not computed: they
are the ones the acceptance criteria and tests/test_transforms.py require.

Run from the repository root:

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from hypersym import numeval  # noqa: E402
from hypersym.catalog import Catalog  # noqa: E402
from hypersym.expr import tree  # noqa: E402
from hypersym.expr.tree import Name  # noqa: E402
from hypersym.jet import HyperbolicEq, JetEngine, partial, swap_xy  # noqa: E402

SAMPLES = 25          # the flagship sample count of acceptance criterion 1
SEED = 0
ZERO_TOL = 1e-9       # max relative residual of a zero verdict
NONZERO_TOL = 1e-3    # a nonzero verdict must clear this at some sample
TRANSFORM_STATUS = {  # pinned by the acceptance criteria and transform tests
    "S3i": "verified", "S3ii": "verified", "S4S1": "verified",
    "S5S3": "verified", "S6T": "verified", "T1": "verified",
}


def tree_residual(F: HyperbolicEq, G) -> tree.Expr:
    ctx = F.ctx
    eng = JetEngine(F)
    H = tree.add(Name("u5"), G.G)
    dyH = eng.d_y(H)
    dxH = eng.d_x(H)
    mixed = eng.d_x(dyH)
    Fu1 = partial(F.F, "u1", ctx)
    Fv1 = partial(F.F, "v1", ctx)
    Fu = partial(F.F, "u", ctx)
    return tree.sub(
        tree.sub(tree.sub(mixed, tree.mul(Fu1, dxH)), tree.mul(Fv1, dyH)),
        tree.mul(Fu, H))


def oracle(F: HyperbolicEq, G, label: str) -> dict:
    v = numeval.numeric_zero(tree_residual(F, G), SAMPLES, ZERO_TOL, SEED,
                             ctx=F.ctx)
    if not v.zero_like and v.max_residual < NONZERO_TOL:
        raise SystemExit(f"{label}: oracle undecided "
                         f"(max residual {v.max_residual!r})")
    return {"zero": v.zero_like, "max_residual": v.max_residual}


def main() -> None:
    cat = Catalog()
    claims = []
    for c in cat.pairings():
        b = dict(c.bindings)
        F, G = cat.get(c.hyperbolic_id, b), cat.get(c.evolution_id, b)
        if c.direction == "y":
            F = HyperbolicEq(F.id, swap_xy(F.F, F.ctx), params=F.params,
                             ctx=F.ctx)
        claims.append({"key": c.key, **oracle(F, G, c.key)})
        print(c.key, claims[-1], flush=True)
    hyps = [e.id for e in cat.list("hyperbolic")]
    evs = [e.id for e in cat.list("evolution")]
    pairs = {}
    for h in hyps:
        for e in evs:
            key = f"{h} {e}"
            pairs[key] = oracle(cat.get(h), cat.get(e), key)
            print(key, pairs[key], flush=True)
    data = {
        "oracle": {"samples": SAMPLES, "seed": SEED, "zero_tol": ZERO_TOL,
                   "nonzero_tol": NONZERO_TOL},
        "claims": claims,
        "transforms": [{"id": tid, "status": TRANSFORM_STATUS[tid]}
                       for tid in cat.transform_texts],
        "screen": {"hyperbolic": hyps, "evolution": evs, "pairs": pairs},
    }
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
