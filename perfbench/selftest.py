"""Self-tests of the benchmark itself.

Usage: python3 perfbench/selftest.py

Checks that the metrics the benchmark emits are the ones BENCHMARK.json
declares, that a tampered behaviour reference fails every run, that the
layer attribution accounts for the whole profile, and that the seed
argument reaches the generated inputs.
"""

import cProfile
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from attribution import attribute  # noqa: E402
from child import make_spec  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    LAYERS,
    MOVES,
    WORKLOADS,
    describe,
    per_layer_metrics,
)

#: The quickest workload; the code paths under test are the same for all.
QUICK = "unap-nav"


class DeclaredMetrics(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.bench = json.load(fh)

    def test_emitted_metrics_are_the_declared_ones(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run.measure(QUICK, 0, 0, trace)
            self.assertTrue(result["correct"])
            declared = {m["name"]: m["unit"] for m in self.bench[section]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(emitted, declared)

    def test_declarations_match_the_benchmark_tables(self):
        self.assertEqual(
            {w["name"]: w["why"] for w in self.bench["workloads"]},
            {name: describe(name) for name in WORKLOADS},
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"]) for m in self.bench["end_to_end"]},
            END_TO_END,
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in self.bench["per_layer"]},
            per_layer_metrics(),
        )

    def test_every_layer_predicts_a_movement(self):
        self.assertTrue(set(LAYERS) <= set(MOVES))
        for metric, moves_on, stays_on in MOVES.values():
            self.assertIn(metric, END_TO_END)
            self.assertTrue(set(moves_on) | set(stays_on) <= set(WORKLOADS))


class BehaviourCheck(unittest.TestCase):
    def test_tampered_reference_fails_every_run(self):
        reference = run.load_reference()[QUICK]
        tampered = {
            seed: {**record, "bytes_received": record["bytes_received"] + 1}
            for seed, record in reference.items()
        }
        result = run.measure(QUICK, 0, 0, 0, reference=tampered)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_reference_covers_two_seeds_per_workload(self):
        reference = run.load_reference()
        for workload in WORKLOADS:
            self.assertEqual(sorted(reference[workload]), ["0", "1"])


class Attribution(unittest.TestCase):
    def test_tiny_run_sums_to_its_total(self):
        import repro
        from repro.build import WorldBuilder

        profiler = cProfile.Profile()
        profiler.enable()
        WorldBuilder(make_spec("psm-contention", 0, duration_s=1.0)).build().run()
        profiler.disable()
        profiler.create_stats()
        trace = attribute(profiler.stats, os.path.dirname(repro.__file__), LAYERS)
        accounted = sum(trace["self_s"].values()) + trace["other_repro_s"] + trace["outside_s"]
        self.assertTrue(trace["sum_ok"])
        self.assertAlmostEqual(accounted, trace["total_s"], delta=1e-6 * trace["total_s"])
        self.assertGreater(trace["self_s"]["sim"], 0.0)
        self.assertGreater(trace["self_s"]["mac"], 0.0)
        self.assertGreater(trace["calls_in"]["mac"], 0)

    def test_outside_callees_are_charged_along_caller_edges(self):
        pkg = os.path.join(os.sep, "x", "src", "repro")
        sim = (os.path.join(pkg, "sim", "core.py"), 1, "run")
        mac = (os.path.join(pkg, "mac", "dcf.py"), 1, "send")
        heappush = ("~", 0, "<built-in method _heapq.heappush>")
        stdlib = (os.path.join(os.sep, "usr", "lib", "random.py"), 1, "expovariate")
        log = ("~", 0, "<built-in method math.log>")
        stats = {
            sim: (1, 1, 1.0, 5.0, {}),
            mac: (2, 2, 2.0, 3.0, {sim: (2, 2, 2.0, 3.0)}),
            heappush: (3, 3, 0.3, 0.3, {sim: (2, 2, 0.2, 0.2), mac: (1, 1, 0.1, 0.1)}),
            stdlib: (1, 1, 0.5, 0.9, {mac: (1, 1, 0.5, 0.9)}),
            log: (1, 1, 0.4, 0.4, {stdlib: (1, 1, 0.4, 0.4)}),
        }
        trace = attribute(stats, pkg, LAYERS)
        self.assertAlmostEqual(trace["self_s"]["sim"], 1.2)
        self.assertAlmostEqual(trace["self_s"]["mac"], 3.0)
        self.assertEqual(trace["calls_in"]["mac"], 2)
        self.assertEqual(trace["calls_in"]["sim"], 0)
        self.assertAlmostEqual(trace["total_s"], 4.2)
        self.assertTrue(trace["sum_ok"])


class Seed(unittest.TestCase):
    def test_seed_argument_changes_the_generated_inputs(self):
        for workload in WORKLOADS:
            self.assertEqual(make_spec(workload, 5).seed, 5)
        first, again, other = (
            run.run_child(QUICK, seed, False, 120.0).out["record"] for seed in (0, 0, 1)
        )
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)


if __name__ == "__main__":
    unittest.main()
