"""Self-tests of the benchmark's own code (no build needed).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name, make in gen.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(gen.to_jsonl(make(7)), gen.to_jsonl(make(7)))
                self.assertEqual([gen.run_args(c) for c in make(7)],
                                 [gen.run_args(c) for c in make(7)])

    def test_seed_changes_inputs(self):
        for name, make in gen.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertNotEqual(gen.to_jsonl(make(1)),
                                    gen.to_jsonl(make(2)))

    def test_sweep_small_covers_the_registry(self):
        cells = gen.sweep_small(3)
        self.assertEqual({c["protocol"] for c in cells}, set(gen.REGISTRY))
        adaptive = sum(1 for c in cells if "adversary" in c)
        self.assertTrue(0.10 <= adaptive / len(cells) <= 0.20)
        self.assertTrue(all(c["n"] <= 64 for c in cells))

    def test_sweep_lossy_is_all_shimmed(self):
        for c in gen.sweep_lossy(3):
            self.assertTrue(c["reliable"])
            self.assertTrue(0.05 <= c["loss"] <= 0.2)

    def test_workloads_avoid_known_defect_shapes(self):
        for seed in (1, 2, 3):
            for c in gen.sweep_small(seed) + gen.sweep_lossy(seed):
                if c["protocol"] in gen.GRID_ONLY:
                    self.assertEqual(c["family"], "grid")
                if c["protocol"] == gen.GN_ENTRY:
                    self.assertLessEqual(c["w"], gen.GN_MAX_W)

    def test_known_defects_are_fixed_cells(self):
        self.assertEqual({c["protocol"] for c in gen.KNOWN_DEFECTS},
                         {"slt-dist", "mst-fast", gen.GN_ENTRY})
        self.assertIn(gen.cell(gen.GN_ENTRY, "gn", 16, 16, 1),
                      gen.KNOWN_DEFECTS)
        self.assertTrue(all(c["check"] for c in gen.KNOWN_DEFECTS))

    def test_run_args_round_trip_the_cell(self):
        c = gen.cell("mst-fast", "random", 1024, 8, 420566,
                     delay="seeded:181", loss=0.05, fault_seed=244874,
                     reliable=True)
        self.assertEqual(
            gen.run_args(c),
            ["run", "mst-fast", "-f", "random", "-n", "1024", "-w", "8",
             "--seed", "420566", "--delay", "seeded:181", "--reliable",
             "--loss", "0.05", "--fault-seed", "244874", "--check"])


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # p90 of 99 samples has 9 beyond it: not reported.
        self.assertIsNone(stats.percentile(range(1, 100), 90))
        value, beyond, n = stats.percentile(range(1, 101), 90)
        self.assertEqual((value, beyond, n), (90, 10, 100))

    def test_states_the_count(self):
        value, beyond, n = stats.percentile(range(1000), 50)
        self.assertEqual(n, 1000)
        self.assertEqual(beyond, 500)
        self.assertGreaterEqual(beyond, stats.MIN_BEYOND)

    def test_empty(self):
        self.assertIsNone(stats.percentile([], 50))

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)


class DigestTest(unittest.TestCase):
    def test_digest_sees_every_simulated_statistic(self):
        base = {0: {"state": "done", "comm": 5, "time": 2.5, "messages": 3,
                    "retransmissions": 0},
                1: {"state": "failed", "code": 1}}
        d = stats.digest(base)
        for field, value in (("comm", 6), ("time", 2.5000001),
                             ("messages", 4), ("retransmissions", 1)):
            changed = {0: dict(base[0], **{field: value}), 1: base[1]}
            self.assertNotEqual(stats.digest(changed), d, field)
        self.assertNotEqual(
            stats.digest({0: base[0], 1: {"state": "failed", "code": 4}}), d)


class MetricTableTest(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK_JSON) as f:
            self.spec = json.load(f)

    def test_names_are_well_formed(self):
        names = ([m[0] for m in metrics.END_TO_END]
                 + ["cell_ms_p90", "cells_failed_frac"]
                 + [m[0] for m in metrics.PER_LAYER]
                 + [w["name"] for w in self.spec["workloads"]])
        for name in names:
            self.assertRegex(name, r"\A[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
        self.assertEqual(len(names), len(set(names)))

    def test_counts_within_limits(self):
        self.assertLessEqual(len(metrics.END_TO_END), 16)
        self.assertLessEqual(len(metrics.PER_LAYER), 128)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)

    def test_benchmark_json_matches_the_tables(self):
        self.assertEqual(
            self.spec["end_to_end"],
            [{"name": n, "unit": u, "better": b, "bound": d}
             for n, u, b, d in metrics.END_TO_END])
        self.assertEqual(
            self.spec["per_layer"],
            [{"name": n, "unit": u, "better": b}
             for n, u, b in metrics.PER_LAYER])
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(gen.WORKLOADS))
        self.assertIn("setup_s", [m[0] for m in metrics.END_TO_END])

    def test_traced_run_reports_every_per_layer_metric(self):
        def span(name, cell, ms, **counts):
            return dict(kind="span", span=name, cell=cell, t0=0.0,
                        t1=ms / 1000.0, words=100.0, **counts)
        spans = [
            span("Cell.graph", 0, 2.0, n=16, m=40),
            span("Params.compute", 0, 1.0, sources=16, busy_ms=1.5,
                 domains=2),
            span("Engine.run", 0, 0.5, messages=60),
            span("Protocol.execute", 0, 3.0, protocol="flood",
                 reliable=True, messages=90, retransmissions=9),
            span("Protocol.execute.clean", 0, 1.0, messages=30),
            span("M.invariant", 0, 0.2),
            span("Cell.codec", -1, 1.0, cells=20),
            span("Manifest", -1, 4.0, cells=1),
            span("Farm.sweep", -1, 5.0, cells=1, cell_ms=4.0),
        ]
        out = run.layer_metrics(spans, spans, cli_start_ms=2.0)
        self.assertEqual(list(out), [m[0] for m in metrics.PER_LAYER])
        self.assertEqual(out["transport.wire_msgs_per_app_msg"], 3.0)
        self.assertEqual(out["transport.overhead_x"], 3.0)
        self.assertAlmostEqual(out["params.pool_busy_frac"], 0.75)
        self.assertAlmostEqual(out["farm.overhead_ms_per_cell"], 1.0)
        self.assertEqual(out["protocol.mst-centr.ns_per_msg"], 0.0)
        entries = [span("Protocol.execute", 1, 2.0, protocol="mst-centr",
                        reliable=False, messages=4, retransmissions=0)]
        out = run.layer_metrics(spans, entries, cli_start_ms=2.0)
        self.assertEqual(out["protocol.mst-centr.ns_per_msg"], 500000.0)
        self.assertEqual(out["protocol.flood.ns_per_msg"], 0.0)
        self.assertEqual(out["protocol.exec_ms"], 3.0)


if __name__ == "__main__":
    unittest.main()
