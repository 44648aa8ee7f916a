"""The benchmark's own tests.  From the root of a checkout:

    python3 perfbench/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = [15, 20, 35, 40, 50]
        self.assertEqual(run.percentile(values, 5), 15)
        self.assertEqual(run.percentile(values, 30), 20)
        self.assertEqual(run.percentile(values, 40), 20)
        self.assertEqual(run.percentile(values, 50), 35)
        self.assertEqual(run.percentile(values, 100), 50)

    def test_order_and_tail(self):
        values = list(range(1000, 0, -1))
        self.assertEqual(run.percentile(values, 50), 500)
        self.assertEqual(run.percentile(values, 99), 990)
        self.assertEqual(run.percentile([7.5], 99), 7.5)

    def test_empty(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class GcStats(unittest.TestCase):
    BLOCK = (b"allocated_words: 820295873\nminor_words: 16023645\n"
             b"promoted_words: 3022008\nmajor_words: 807294236\n"
             b"minor_collections: 652\nmajor_collections: 602\n"
             b"forced_major_collections: 0\nheap_words: 6979498\n"
             b"top_heap_words: 8837243\nmean_space_overhead: 53.041806\n")

    def test_strips_exit_block(self):
        rest, stats = run.split_gc(b"preflight: warning NL005\nvcd written to o.vcd\n" + self.BLOCK)
        self.assertEqual(rest, b"preflight: warning NL005\nvcd written to o.vcd\n")
        self.assertEqual(stats["top_heap_words"], 8837243)
        self.assertEqual(stats["major_collections"], 602)
        self.assertEqual(stats["mean_space_overhead"], 53.041806)
        self.assertEqual(len(stats), len(run.GC_KEYS))
        self.assertAlmostEqual(run.gc_mb(stats), 8837243 * 8 / 1e6)

    def test_no_block(self):
        text = b"halotis: error[io]: missing\nkey: 12\n"
        self.assertEqual(run.split_gc(text), (text, {}))

    def test_only_trailing_lines(self):
        rest, stats = run.split_gc(b"heap_words: 5\nfaults: done\n")
        self.assertEqual(stats, {})
        self.assertEqual(rest, b"heap_words: 5\nfaults: done\n")


class Metrics(unittest.TestCase):
    def test_names_and_units(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)
        self.assertFalse(set(run.END_TO_END) & set(run.PER_LAYER))

    def test_benchmark_json_matches(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        gated = [w["name"] for w in spec["workloads"]]
        self.assertTrue(2 <= len(gated) and set(gated) <= set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class SeededInputs(unittest.TestCase):
    FILES = ("c.hnl", "s.hsv", "serve.ndjson", "manifest.json")

    @classmethod
    def setUpClass(cls):
        run.build(ROOT)
        cls.tmp = ROOT / ".perfbench_work" / "tests"
        shutil.rmtree(cls.tmp, ignore_errors=True)
        cls.tmp.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def gen(self, workload, seed, tag):
        out = self.tmp / f"{workload}-{seed}-{tag}"
        subprocess.run([str(ROOT / "_build/default/perfbench/hbench.exe"), "gen", workload,
                        str(seed), str(out)], check=True)
        return {f: (out / f).read_bytes() for f in self.FILES}

    def test_same_seed_same_bytes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a, b = self.gen(workload, 7, "a"), self.gen(workload, 7, "b")
                self.assertEqual(a, b)
                other = self.gen(workload, 8, "c")
                self.assertNotEqual(a["serve.ndjson"], other["serve.ndjson"])
                if workload != "vary-mult8":
                    self.assertNotEqual(a["c.hnl"], other["c.hnl"])
                self.assertNotEqual(a["s.hsv"], other["s.hsv"])
                if workload != "serve-mix":
                    # the campaign and corner seeds travel in the commands
                    self.assertNotEqual(a["manifest.json"], other["manifest.json"])

    def test_daemon_hello(self):
        # the serve driver over a hello-only script: one round trip
        # counted from spawn, no failure, exit statistics parsed
        r = run.Run(ROOT, "serve-mix", 1)
        r.work = self.tmp / "daemon"
        (r.work / "tmp").mkdir(parents=True)
        r.env["TMPDIR"] = str(r.work / "tmp")
        _, _, [(rtts, missed, gc)] = r.daemons([run.HELLO], "hello")
        self.assertEqual((len(rtts), missed, r.attempted, r.failed), (1, [], 1, 0))
        self.assertGreater(rtts[0], 0)
        self.assertGreater(gc["top_heap_words"], 0)


if __name__ == "__main__":
    unittest.main()
