#!/usr/bin/env python3
"""Self-test of the benchmark's seeded input generators.

    python3 perfbench/tests/test_inputs.py

Builds perfbench (through run.py) and, for every workload in
BENCHMARK.json, dumps the request and scenario lists it draws from a
seed: the same seed must give identical bytes, a different seed a
different list.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
sys.dont_write_bytecode = True

import run  # noqa: E402  (perfbench/run.py: build helpers)


def dump(workload, seed, seconds):
    return subprocess.run(
        [os.path.join(run.BUILD, "perfbench"), "--dump-inputs", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        check=True, stdout=subprocess.PIPE).stdout


class SeededInputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_same_seed_same_bytes(self):
        for w in self.bench["workloads"]:
            a = dump(w["name"], 7, self.bench["run_seconds"])
            b = dump(w["name"], 7, self.bench["run_seconds"])
            self.assertTrue(a, w["name"])
            self.assertEqual(a, b, w["name"])

    def test_other_seed_other_list(self):
        for w in self.bench["workloads"]:
            a = dump(w["name"], 7, self.bench["run_seconds"])
            b = dump(w["name"], 8, self.bench["run_seconds"])
            # Only the header line names the seed; the lists themselves
            # must differ too.
            self.assertNotEqual(a.split(b"\n", 1)[1], b.split(b"\n", 1)[1],
                                w["name"])

    def test_every_section_drawn(self):
        for w in self.bench["workloads"]:
            text = dump(w["name"], 7, self.bench["run_seconds"]).decode()
            kinds = {line.split(" ", 1)[0] for line in text.splitlines()[1:]}
            self.assertEqual(kinds, {"engine", "scale", "hot", "client0",
                                     "client1", "mixed"}, w["name"])

    def test_unknown_workload_refused(self):
        r = subprocess.run(
            [os.path.join(run.BUILD, "perfbench"), "--dump-inputs", "nope",
             "--seed", "1", "--seconds", "10"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.assertNotEqual(r.returncode, 0)


if __name__ == "__main__":
    unittest.main()
