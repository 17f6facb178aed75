#!/usr/bin/env python3
"""Tests of tools/pairs.py that start no benchmark run.

    python3 tools/test_pairs.py
"""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import pairs  # noqa: E402


def result(value):
    return {"metrics": {"pipeline_s": {"value": value, "unit": "s"}}}


SPEC = {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.25}


class PairsTest(unittest.TestCase):
    def test_seeds(self):
        self.assertEqual(pairs.parse_seeds("1301-1304"), [1301, 1302, 1303, 1304])
        self.assertEqual(pairs.parse_seeds("5,9,11-12"), [5, 9, 11, 12])

    def test_quartiles(self):
        self.assertEqual(pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0))
        self.assertEqual(pairs.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_a_clear_gain(self):
        parent = [result(v) for v in (0.30, 0.32, 0.34, 0.31, 0.33)]
        change = [result(v) for v in (0.20, 0.21, 0.22, 0.20, 0.21)]
        lines = pairs.report(SPEC, [1, 2, 3, 4, 5], parent, change)
        self.assertIn("  seed 3: parent 0.34  change 0.22", lines)
        self.assertIn("change won 5 of 5 pairs, lost 0; gain: yes", lines[-1])

    def test_ties_count_for_neither_side(self):
        parent = [result(v) for v in (0.30, 0.30, 0.30)]
        change = [result(v) for v in (0.30, 0.20, 0.40)]
        lines = pairs.report(SPEC, [1, 2, 3], parent, change)
        self.assertIn("change won 1 of 3 pairs, lost 1; gain: no; worse: +0.0% (bound 25%)", lines[-1])

    def test_a_slower_change_reads_worse(self):
        higher = dict(SPEC, name="pipeline_s", better="higher")
        parent = [result(v) for v in (100.0, 100.0)]
        change = [result(v) for v in (80.0, 80.0)]
        self.assertIn("worse: +20.0%", pairs.report(higher, [1, 2], parent, change)[-1])


if __name__ == "__main__":
    unittest.main()
