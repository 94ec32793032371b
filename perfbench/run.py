"""hypersym benchmark: exact verdicts timed end to end, or traced per layer.

    python3 perfbench/run.py --workload audit|oracle|screen --seed N \\
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Each pass is a fresh ``python3 perfbench/passrun.py``
process that sets up (import plus ``Catalog()``) and computes the same
verdicts one at a time (a closed loop with one client).  Passes run back
to back until the next one would end after ``--seconds``; at least
MIN_PASSES run.  Every verdict is checked against perfbench/expected.json.

Workloads (see README.md for why each was chosen):

  audit   every shipped claim exactly, then every transform, catalog order
  oracle  every shipped claim with 25 numeric samples, master seed = --seed
  screen  the 13 hyperbolic entries against ev12 and ev21 with parameters
          symbolic, 26 pairs in an order drawn from --seed

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate untraced and
traced on the first pass's inputs and the metrics are per layer, plus
the tracing slowdown.  The exit status is 0 when every verdict matched,
1 when one did not, and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import reference  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("audit", "oracle", "screen")
ORACLE_SAMPLES = 25    # the flagship sample count of acceptance criterion 1
SCREEN_FLOWS = ("ev12", "ev21")  # see README.md: why a fixed set of pairs
MIN_PASSES = 3         # untraced passes; a traced run makes 2 of each kind
HARD_STOP_S = 150.0    # start no pass after this, whatever --seconds says
PASS_TIMEOUT_S = 170.0

LAYERS = ("catalog", "parser", "tree", "poly", "ratfunc", "normal", "jet",
          "verify", "numeval", "transforms")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("verdict_p50_s", "s"),
              ("verdict_max_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [
        ("poly.pdiv_exact.calls", "count"), ("poly.pdiv_exact.fail_ratio", "ratio"),
        ("poly.pmul.calls", "count"),
        ("ratfunc.rf_make.calls", "count"), ("ratfunc.rf_inverse.calls", "count"),
        ("ratfunc.factors_interned", "count"),
        ("normal.nf_mul.calls", "count"), ("normal.nf_partial.calls", "count"),
        ("normal.nf_inverse.calls", "count"), ("normal.peak_nf_terms", "terms"),
        ("jet.nf_derivs", "count"), ("jet.tree_derivs", "count"),
        ("jet.tree_derivs.self_s", "s"),
        ("verify.jet_coefficients.calls", "count"),
        ("verify.jet_coefficients.self_s", "s"), ("parser.print_expr.self_s", "s"),
        ("parser.parse.calls", "count"),
        ("numeval.sample_point.calls", "count"),
        ("numeval.numeric_zero.self_s", "s"), ("numeval.tree_nodes", "count"),
        ("transforms.check_transform.self_s", "s"),
        ("trace.spans", "count"), ("trace.slowdown", "ratio"),
    ]
    return out


# -- inputs ------------------------------------------------------------------

def pass_inputs(workload, seed, expected):
    """The verdicts of one pass; every pass of a run repeats them."""
    claims = [c["key"] for c in expected["claims"]]
    if workload == "audit":
        return ([{"kind": "claim", "key": k, "samples": 0, "seed": 0}
                 for k in claims]
                + [{"kind": "transform", "id": t["id"], "key": t["id"]}
                   for t in expected["transforms"]])
    if workload == "oracle":
        return [{"kind": "claim", "key": k, "samples": ORACLE_SAMPLES,
                 "seed": seed} for k in claims]
    items = [{"kind": "pair", "hyp": h, "ev": e, "key": f"{h} {e}"}
             for e in SCREEN_FLOWS for h in expected["screen"]["hyperbolic"]]
    random.Random(seed).shuffle(items)
    return items


# -- checking ------------------------------------------------------------------

def check(item, res, expected):
    """None when the verdict matches its pinned answer, else the reason."""
    if "error" in res:
        return res["error"]
    if item["kind"] == "transform":
        want = {t["id"]: t["status"] for t in expected["transforms"]}[item["id"]]
        return None if res["status"] == want else f"status {res['status']}"
    if item["kind"] == "claim":
        want = {c["key"]: c["zero"] for c in expected["claims"]}[item["key"]]
    else:
        want = expected["screen"]["pairs"][item["key"]]["zero"]
    if res["zero"] != want:
        return f"residual_is_zero {res['zero']}, expected {want}"
    if not want and res["failing"] < 1:
        return "nonzero residual without a failing coefficient"
    if item.get("samples"):
        tol = expected["oracle"]["zero_tol"]
        if res["numeric_max"] is None or not res["numeric_max"] < tol:
            return f"numeric residual {res['numeric_max']} not below {tol}"
    return None


# -- passes --------------------------------------------------------------------

def run_pass(items, trace, spans_path, timeout):
    job = {"src": SRC, "items": items, "trace": trace, "spans_path": spans_path}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "passrun.py")],
        input=json.dumps(job), capture_output=True, text=True,
        timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(report["package"]).startswith(SRC + os.sep):
        raise RuntimeError(f"imported hypersym from {report['package']}, "
                           f"not from {SRC}")
    return report


def run_passes(items, seconds, trace, spans_path):
    """Run passes until the next one would end after `seconds`.  A traced
    run alternates untraced and traced passes and writes the spans of its
    first traced pass to `spans_path`.  Returns [(traced, report)]."""
    done = []
    durations = []
    need = 4 if trace else MIN_PASSES
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        k = len(done)
        if not (trace and k % 2):
            if k and elapsed > HARD_STOP_S:
                break
            if k >= need and elapsed + statistics.median(durations) > seconds:
                break
        traced = trace and k % 2 == 1
        ts = time.perf_counter()
        report = run_pass(items, traced, spans_path if k == 1 else None,
                          max(10.0, PASS_TIMEOUT_S - elapsed))
        durations.append(time.perf_counter() - ts)
        done.append((traced, report))
    return done


# -- metrics ---------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def unscaled_wall(report):
    return sum(res["seconds"] for res in report["results"])


def scaled(report):
    """The pass's verdict times brought to the reference speed, each by the
    mean of the kernel times just before and just after it."""
    k = report["kernel_s"]
    return [res["seconds"] * reference.scale(reference.VERDICT_ROUNDS,
                                             (k[i] + k[i + 1]) / 2)
            for i, res in enumerate(report["results"])]


def end_to_end(done):
    """Each metric is a statistic of one pass, and the run reports its
    median over the passes.  Times are scaled to the reference speed (see
    reference.py): the set-up by the kernel timed just before it, every
    verdict by scaled().  wall_s is the sum of a pass's verdict times."""
    series = {"setup_s": [], "wall_s": [], "verdict_p50_s": [],
              "verdict_max_s": [], "peak_rss_mb": [], "unscaled wall_s": []}
    slowest = {}
    for _, r in done:
        times = scaled(r)
        series["setup_s"].append(r["setup_s"] * reference.scale(
            reference.SETUP_ROUNDS, r["kernel_setup_s"]))
        series["wall_s"].append(sum(times))
        series["verdict_p50_s"].append(statistics.median(times))
        series["verdict_max_s"].append(max(times))
        series["peak_rss_mb"].append(r["peak_rss_kb"] / 1024.0)
        series["unscaled wall_s"].append(unscaled_wall(r))
        top = r["results"][times.index(max(times))]["key"]
        slowest[top] = slowest.get(top, 0) + 1
    for name, v in series.items():
        lo, hi = quartiles(v)
        print(f"  {name} over {len(v)} passes: median "
              f"{statistics.median(v):.6g} quartiles {lo:.6g} .. {hi:.6g}")
    print("  slowest verdict of a pass: " + ", ".join(
        f"{k} ({n}x)" for k, n in sorted(slowest.items(), key=lambda kv: -kv[1])))
    return {name: statistics.median(series[name]) for name, _ in END_TO_END}


def layer_metrics(done):
    """Counters from the first traced pass, self times as medians over the
    traced passes (scaled like the end-to-end times), and the slowdown as
    the ratio of unscaled median walls of the interleaved traced and
    untraced passes.  Also returns the names of the counters on which two
    traced passes disagree."""
    traced = [(r["layers"], sum(scaled(r)) / unscaled_wall(r))
              for t, r in done if t]
    walls = {flag: statistics.median(unscaled_wall(r)
                                     for t, r in done if t == flag)
             for flag in (False, True)}
    first = traced[0][0]

    def value(summary, name):
        if name == "jet.nf_derivs":
            return sum(summary.get(f"jet.NFJet.{m}.calls", 0)
                       for m in ("d_x", "d_y"))
        if name.startswith("jet.tree_derivs"):
            field = name[len("jet.tree_derivs"):] or ".calls"
            return sum(summary.get(f"jet.JetEngine.{m}{field}", 0)
                       for m in ("d_x", "d_y"))
        return summary.get(name, 0)

    values = {}
    for name, _ in per_layer_metrics():
        if name == "trace.slowdown":
            values[name] = walls[True] / walls[False]
        elif name.endswith("_s"):
            values[name] = statistics.median(value(s, name) * f
                                             for s, f in traced)
        else:
            values[name] = value(first, name)
    unstable = [name for name in first if not name.endswith("_s")
                and any(s.get(name) != first[name] for s, _ in traced[1:])]
    print(f"  traced wall_s {walls[True]:.4f} vs untraced {walls[False]:.4f}:"
          f" slowdown {values['trace.slowdown']:.3f}x over {len(traced)}"
          f" traced passes")
    total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    for layer in LAYERS:
        share = values[f"{layer}.self_s"] / total if total else 0.0
        print(f"  {layer:<10} calls {values[f'{layer}.calls']:>9}  "
              f"self {values[f'{layer}.self_s']:.4f} s  ({share:6.1%})")
    return values, unstable


# -- main ------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hypersym", "__init__.py")):
        print(f"error: no hypersym package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    compileall.compile_dir(SRC, quiet=1)

    items = pass_inputs(args.workload, args.seed, expected)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(items)} verdicts a pass")
    spans_path = None
    if args.trace:
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    os.makedirs(OUT, exist_ok=True)
    try:
        done = run_passes(items, args.seconds, bool(args.trace), spans_path)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with open(os.path.join(OUT, f"passes-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump([{"traced": t, "report": r} for t, r in done], fh)

    attempted = failed = 0
    for _, report in done:
        for item, res in zip(items, report["results"]):
            attempted += 1
            why = check(item, res, expected)
            if why is not None:
                failed += 1
                print(f"  WRONG {item['key']}: {why}")
    print(f"  {len(done)} passes, {attempted} verdicts, {failed} wrong, "
          f"failed_ratio {failed / attempted:.6g}")

    correct = failed == 0
    if args.trace:
        values, unstable = layer_metrics(done)
        if unstable:
            correct = False
            print(f"  counters differ between traced passes: {unstable}")
        units = dict(per_layer_metrics())
    else:
        values = end_to_end(done)
        units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
