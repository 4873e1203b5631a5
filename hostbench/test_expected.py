#!/usr/bin/env python3
"""Consistency checks for the host-cost benchmark's item table.

    python3 hostbench/test_expected.py

- every item that names a committed seed (BENCH_seed.json,
  BENCH_scale_seed.json) has the seed's shape and agrees with the seed's
  latency_us (and critical_path_us, and the wall-clock probe's event count);
- every item carries the expected values its workload checks;
- BENCHMARK.json names exactly the table's workloads and one
  osu.peak_rss_mb.<item> metric per item;
- hostbench/baseline.json maps every per-layer metric to the end-to-end
  metrics it should move and holds a reading of every end-to-end metric.
"""
import json
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Expected values each workload mode checks on every item.
REQUIRED = {
    "analyzed": ("latency_us", "critical_path_us"),
    "counted": ("latency_us", "events"),
    "plain": ("latency_us",),
}


def load(path):
    with open(path) as f:
        return json.load(f)


def close(a, b):
    # The seeds print nine significant digits.
    return abs(a - b) <= 5e-9 * max(abs(a), abs(b))


def format_size(n):
    for unit, scale in (("MiB", 1 << 20), ("KiB", 1 << 10)):
        if n >= scale and n % scale == 0:
            return "%d%s" % (n // scale, unit)
    return "%dB" % n


class ExpectedTable(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.table = load(os.path.join(HERE, "expected.json"))
        cls.seeds = {}

    def seed(self, name):
        if name not in self.seeds:
            self.seeds[name] = load(os.path.join(ROOT, name))
        return self.seeds[name]

    def items(self):
        for w in self.table["workloads"]:
            for item in w["items"]:
                yield w, item

    def test_items_carry_expected_values(self):
        for w in self.table["workloads"]:
            ids = [i["id"] for i in w["items"]]
            self.assertEqual(len(ids), len(set(ids)), w["name"])
            self.assertIn(w["warmup"], ids, w["name"])
            for item in w["items"]:
                for key in REQUIRED[w["mode"]]:
                    self.assertIn(key, item, "%s/%s" % (w["name"], item["id"]))

    def test_seed_scenarios_agree(self):
        checked = 0
        for w, item in self.items():
            ref = item.get("seed")
            if not ref or "scenario" not in ref:
                continue
            with self.subTest(item=item["id"]):
                scenarios = {s["id"]: s for s in self.seed(ref["file"])["scenarios"]}
                sc = scenarios[ref["scenario"]]
                self.assertEqual(sc["kind"], item["op"])
                self.assertEqual(sc["subject"], item["subject"])
                self.assertEqual((sc["nodes"], sc["ppn"], sc["hcas"], sc["faults"]),
                                 (item["nodes"], item["ppn"], 0, ""))
                points = {p["x"]: p["metrics"] for p in sc["points"]}
                metrics = points[item["bytes"]]
                self.assertTrue(close(item["latency_us"], metrics["latency_us"]),
                                (item["latency_us"], metrics["latency_us"]))
                if "critical_path_us" in item:
                    self.assertTrue(close(item["critical_path_us"],
                                          metrics["critical_path_us"]),
                                    (item["critical_path_us"],
                                     metrics["critical_path_us"]))
                checked += 1
        self.assertGreater(checked, 0)

    def test_wallclock_probe_events_agree(self):
        checked = 0
        for w, item in self.items():
            ref = item.get("seed")
            if not ref or not ref.get("probe"):
                continue
            with self.subTest(item=item["id"]):
                wc = self.seed(ref["file"])["wallclock"]
                self.assertEqual(wc["probe"], "allgather %s %d nodes x %d ppn %s" % (
                    item["subject"], item["nodes"], item["ppn"],
                    format_size(item["bytes"])))
                self.assertEqual(item["events"], wc["events"])
                checked += 1
        self.assertGreater(checked, 0)

    def test_benchmark_json_matches_table(self):
        bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         [w["name"] for w in self.table["workloads"]])
        per_layer = {m["name"] for m in bench["per_layer"]}
        peaks = {n for n in per_layer if n.startswith("osu.peak_rss_mb.")}
        self.assertEqual(peaks, {"osu.peak_rss_mb." + i["id"]
                                 for _, i in self.items()})

    def test_layer_map_covers_per_layer_metrics(self):
        bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        baseline = load(os.path.join(HERE, "baseline.json"))
        mapped = {m for layer in baseline["layers"] for m in layer["metrics"]}
        per_layer = {m["name"] for m in bench["per_layer"]}
        self.assertEqual(
            mapped, {n for n in per_layer if not n.startswith("osu.peak_rss_mb.")}
            | {"osu.peak_rss_mb.<item>"})
        end_to_end = {m["name"] for m in bench["end_to_end"]}
        for w in bench["workloads"]:
            self.assertEqual(set(baseline["end_to_end"][w["name"]]) - {"items_per_run"},
                             end_to_end, w["name"])


if __name__ == "__main__":
    unittest.main()
