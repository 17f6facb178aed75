"""Tests of the launcher's result line. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import pathlib
import unittest

import run

BENCH = json.loads((pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def raw(names, **extra):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {n: 1.5 for n in names}, **extra}


class FormatResultTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            specs = BENCH[key]
            result = run.format_result(BENCH, raw([s["name"] for s in specs]), trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(list(result["metrics"]), [s["name"] for s in specs])
            for s in specs:
                self.assertEqual(result["metrics"][s["name"]], {"value": 1.5, "unit": s["unit"]})

    def test_a_missing_or_unknown_metric_is_an_error(self):
        names = [s["name"] for s in BENCH["end_to_end"]]
        with self.assertRaises(ValueError):
            run.format_result(BENCH, raw(names[1:]), False)
        with self.assertRaises(ValueError):
            run.format_result(BENCH, raw(names + ["bogus"]), False)

    def test_a_value_that_is_not_a_finite_number_is_an_error(self):
        names = [s["name"] for s in BENCH["end_to_end"]]
        for bad in (float("nan"), float("inf"), "1.0", True):
            r = raw(names)
            r["metrics"][names[0]] = bad
            with self.assertRaises(ValueError):
                run.format_result(BENCH, r, False)

    def test_failed_operations_make_the_run_incorrect(self):
        names = [s["name"] for s in BENCH["end_to_end"]]
        result = run.format_result(BENCH, raw(names, failed=2), False)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (3, 2))


if __name__ == "__main__":
    unittest.main()
