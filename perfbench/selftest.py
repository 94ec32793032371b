"""Checks of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

Takes about two minutes: it makes two short traced runs per workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 11
_TRACED = {}


def traced(workload):
    """Per-layer metrics of two traced runs with the same seed."""
    if workload not in _TRACED:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", "1"],
                capture_output=True, text=True, cwd=ROOT, timeout=300)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        _TRACED[workload] = runs
    return _TRACED[workload]


def is_counter(name):
    return not name.endswith("_s") and name != "trace.slowdown"


class Counters(unittest.TestCase):
    def test_counters_repeat_exactly(self):
        for workload in run.WORKLOADS:
            first, second = traced(workload)
            counters = [n for n in first if is_counter(n)]
            self.assertIn("normal.peak_nf_terms", counters)
            self.assertIn("numeval.tree_nodes", counters)
            for name in counters:
                self.assertEqual(first[name], second[name],
                                 f"{workload} {name}")

    def test_every_per_layer_metric_is_reported(self):
        names = [n for n, _ in run.per_layer_metrics()]
        for workload in run.WORKLOADS:
            self.assertEqual(sorted(traced(workload)[0]), sorted(names))


class LayerSeparation(unittest.TestCase):
    def test_oracle_is_numeric_and_tree_work(self):
        m = traced("oracle")[0]
        total = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
        share = (m["numeval.self_s"] + m["tree.self_s"]
                 + m["jet.tree_derivs.self_s"]) / total
        self.assertGreater(share, 0.5)
        self.assertGreater(m["numeval.tree_nodes"], 0)

    def test_numeval_idle_outside_oracle(self):
        for workload in ("audit", "screen"):
            m = traced(workload)[0]
            self.assertEqual(m["numeval.calls"], 0, workload)
            self.assertEqual(m["numeval.self_s"], 0.0, workload)

    def test_localization_only_on_screen(self):
        for workload in run.WORKLOADS:
            calls = traced(workload)[0]["verify.jet_coefficients.calls"]
            self.assertEqual(calls > 0, workload == "screen", workload)

    def test_transforms_only_on_audit(self):
        for workload in run.WORKLOADS:
            own = traced(workload)[0]["transforms.self_s"]
            self.assertEqual(own > 0, workload == "audit", workload)


class Expectations(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "expected.json")) as fh:
            self.expected = json.load(fh)

    def test_screen_pins_every_pair(self):
        screen = self.expected["screen"]
        pairs = screen["pairs"]
        self.assertEqual(len(pairs), len(screen["hyperbolic"])
                         * len(screen["evolution"]))
        zero = sorted(k for k, v in pairs.items() if v["zero"])
        self.assertIn("hyp2 ev12", zero)
        self.assertEqual(len(zero), 7)
        floor = self.expected["oracle"]["nonzero_tol"]
        for key, v in pairs.items():
            if not v["zero"]:
                self.assertGreaterEqual(v["max_residual"], floor, key)

    def test_screen_pass_is_a_seeded_order_of_fixed_pairs(self):
        items = run.pass_inputs("screen", SEED, self.expected)
        keys = [item["key"] for item in items]
        hyps = self.expected["screen"]["hyperbolic"]
        self.assertEqual(sorted(keys), sorted(f"{h} {e}" for h in hyps
                                              for e in run.SCREEN_FLOWS))
        self.assertIn("hyp2 ev12", keys)
        self.assertEqual(items, run.pass_inputs("screen", SEED, self.expected))
        other = run.pass_inputs("screen", SEED + 1, self.expected)
        self.assertNotEqual(keys, [item["key"] for item in other])


class Tracing(unittest.TestCase):
    def test_aliases_are_wrapped(self):
        script = (
            "import sys; sys.path[:0] = [%r, %r]\n"
            "from tracing import Tracer\n"
            "Tracer().install()\n"
            "from hypersym import verify, jet, catalog, expr\n"
            "from hypersym.expr import poly, parser, tree\n"
            "assert verify.pmul is poly.pmul\n"
            "assert poly.pmul.__wrapped__\n"
            "assert verify.print_expr is parser.print_expr\n"
            "assert verify.partial is jet.partial and jet.partial.__wrapped__\n"
            "assert catalog.parse is parser.parse and expr.parse is parser.parse\n"
            "assert catalog.substitute is tree.substitute\n"
            "assert jet.NFJet.d_x.__wrapped__ and jet.JetEngine.d_y.__wrapped__\n"
            % (os.path.join(ROOT, "src"), HERE))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_refuses_to_run_without_the_package(self):
        bare = os.path.join(ROOT, ".perfbench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "audit",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
