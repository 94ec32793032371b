"""One benchmark pass in a fresh process.

Reads a JSON job from stdin: the package source directory, the list of
verdicts to compute, whether to trace, and where to write the spans.
Times the set-up (import plus ``Catalog()``) and every verdict, one at a
time, and the reference kernel before the set-up and between verdicts
(see reference.py).  Prints one JSON line with the raw results.  It judges nothing:
run.py compares the verdicts with perfbench/expected.json.

Only the public API is used: ``Catalog``, ``verify.verify_claim``,
``verify.verify_pair`` and ``transforms.check_transform``.
"""

import json
import sys
import time

import reference

JOB = json.load(sys.stdin)
REF_SETUP = reference.timed(reference.SETUP_ROUNDS)
sys.path.insert(0, JOB["src"])

t_start = time.perf_counter()
from hypersym import transforms, verify  # noqa: E402
from hypersym.catalog import Catalog  # noqa: E402

tracer = None
if JOB["trace"]:
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
cat = Catalog()
t_setup = time.perf_counter()


def run_item(item, claims):
    kind = item["kind"]
    if kind == "claim":
        r = verify.verify_claim(cat, claims[item["key"]],
                                samples=item["samples"], seed=item["seed"])
    elif kind == "pair":
        r = verify.verify_pair(cat.get(item["hyp"]), cat.get(item["ev"]))
    else:
        t = transforms.check_transform(item["id"], cat)
        return {"status": t.status}
    return {"zero": r.residual_is_zero,
            "failing": len(r.failing_coefficients),
            "numeric_max": r.numeric_max_residual}


def main():
    claims = {c.key: c for c in cat.pairings()}
    results = []
    kernel = [reference.timed(reference.VERDICT_ROUNDS)]
    for item in JOB["items"]:
        t0 = time.perf_counter()
        try:
            out = run_item(item, claims)
        except Exception as exc:  # one failed verdict must not end the pass
            out = {"error": f"{type(exc).__name__}: {exc}"}
        out["seconds"] = time.perf_counter() - t0
        out["key"] = item["key"]
        results.append(out)
        kernel.append(reference.timed(reference.VERDICT_ROUNDS))
    import resource
    report = {
        "python": sys.version.split()[0],
        "package": verify.__file__,
        "setup_s": t_setup - t_start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
        "kernel_setup_s": REF_SETUP,
        "kernel_s": kernel,
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        if JOB.get("spans_path"):
            tracer.write_spans(JOB["spans_path"])
    print(json.dumps(report))


main()
