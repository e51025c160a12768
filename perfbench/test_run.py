#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/test_run.py
"""

import filecmp
import json
import os
import random
import shutil
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SCRATCH = os.path.join(run.STATE, "test")


def scratch(name):
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Percentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(99)), 0.9))
        self.assertEqual(run.percentile(list(range(100)), 0.9), 89)
        self.assertEqual(sum(1 for x in range(100) if x > 89), 10)

    def test_p50_needs_twenty_samples(self):
        self.assertIsNone(run.percentile(list(range(19)), 0.5))
        self.assertEqual(run.percentile(list(range(20)), 0.5), 9)

    def test_order_does_not_matter(self):
        xs = list(range(200))
        random.Random(3).shuffle(xs)
        self.assertEqual(run.percentile(xs, 0.9), 179)

    def test_empty(self):
        self.assertIsNone(run.percentile([], 0.5))


class Checks(unittest.TestCase):
    REF = "multiplet (1 members, 9 candidates considered):\n  g1 sa0\n"

    def test_single_accepts_the_reference(self):
        self.assertIsNone(run.check_single(0, "circuit: x\n" + self.REF, self.REF))

    def test_single_catches_a_corrupted_report(self):
        bad = self.REF.replace("sa0", "sa1")
        self.assertIsNotNone(run.check_single(0, "circuit: x\n" + bad, self.REF))

    def test_single_catches_a_nonzero_exit(self):
        self.assertIsNotNone(run.check_single(1, self.REF, self.REF))

    def write_batch(self, out, reports):
        for name, report in reports.items():
            with open(os.path.join(out, name + ".json"), "w") as f:
                json.dump({"die": name, "report": report, "stats": {"cache.hits": 7}}, f)
        with open(os.path.join(out, "rollup.json"), "w") as f:
            json.dump({"dies": len(reports)}, f)

    def test_batch(self):
        out = scratch("batch")
        refs = {"a": self.REF, "b": self.REF + "x\n"}
        self.write_batch(out, refs)
        self.assertEqual(run.check_batch(0, out, ["a", "b"], refs), {"a": None, "b": None})
        # Per-die counters may differ (drain order); only the report counts.
        self.write_batch(out, {"a": self.REF, "b": "corrupted"})
        errors = run.check_batch(0, out, ["a", "b"], refs)
        self.assertIsNone(errors["a"])
        self.assertIsNotNone(errors["b"])
        with open(os.path.join(out, "a.json"), "w") as f:
            f.write("{not json")
        self.assertIsNotNone(run.check_batch(0, out, ["a"], refs)["a"])
        os.remove(os.path.join(out, "a.json"))
        self.assertIsNotNone(run.check_batch(0, out, ["a"], refs)["a"])
        self.write_batch(out, refs)
        self.assertTrue(all(run.check_batch(2, out, ["a", "b"], refs).values()))

    def test_serve_line(self):
        line = json.dumps({"die": "d", "report": self.REF})
        self.assertIsNone(run.check_serve_line(line, "d", self.REF))
        self.assertIsNotNone(run.check_serve_line(line, "e", self.REF))
        self.assertIsNotNone(run.check_serve_line(line, "d", self.REF + "!"))
        self.assertIsNotNone(run.check_serve_line("not json", "d", self.REF))

    def test_snapshot_rewrite_is_seen(self):
        store = scratch("store")
        path = os.path.join(store, "sig-0.mddsig")
        with open(path, "wb") as f:
            f.write(b"arena")
        before = run.snapshot_state(store)
        self.assertEqual(run.snapshot_state(store), before)
        # The program saves with tmp + rename: same bytes, new file.
        with open(path + ".tmp", "wb") as f:
            f.write(b"arena")
        os.replace(path + ".tmp", path)
        self.assertNotEqual(run.snapshot_state(store), before)


class Generator(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        # Any pattern set of the right width will do for determinism.
        cls.dir = scratch("gen")
        rng = random.Random(5)
        cls.patterns = os.path.join(cls.dir, "patterns.txt")
        with open(cls.patterns, "w") as f:
            for _ in range(64):
                f.write("".join(rng.choice("01") for _ in range(32)) + "\n")

    def gen(self, seed, name):
        out = os.path.join(self.dir, name)
        run.run_tool(["gen", "--patterns", self.patterns, "--seed", str(seed), "--dies", "4",
                      "--out", out, "--domains", "1"], "gen")
        return out

    def same_tree(self, a, b):
        cmp = filecmp.dircmp(a, b)
        if cmp.left_only or cmp.right_only:
            return False
        _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
        return not mismatch and not errors and all(
            self.same_tree(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)

    def test_same_seed_same_bytes(self):
        self.assertTrue(self.same_tree(self.gen(7, "a"), self.gen(7, "b")))

    def test_other_seed_other_dies(self):
        a, c = self.gen(7, "a2"), self.gen(8, "c")
        self.assertFalse(filecmp.cmp(os.path.join(a, "dies", "die_001.datalog"),
                                     os.path.join(c, "dies", "die_001.datalog"), shallow=False))

    def test_ground_truth_stays_out_of_the_datalogs(self):
        out = self.gen(7, "d")
        with open(os.path.join(out, "truth.json")) as f:
            truth = json.load(f)
        self.assertEqual([d["multiplicity"] for d in truth["dies"]], [1, 2, 3, 4])
        for d in truth["dies"]:
            with open(os.path.join(out, "dies", d["die"] + ".datalog")) as f:
                text = f.read()
            for defect in d["defects"]:
                self.assertNotIn(defect, text)


class Environment(unittest.TestCase):
    def test_mdd_switches_are_stripped(self):
        os.environ["MDD_PREWARM"] = "1"
        try:
            self.assertFalse(any(k.startswith("MDD_") for k in run.child_env()))
        finally:
            del os.environ["MDD_PREWARM"]


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
