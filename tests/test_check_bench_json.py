#!/usr/bin/env python3
"""Tests for scripts/check_bench_json.py: one valid record passes, and each
malformed fixture makes the checker exit 1.

    python3 tests/test_check_bench_json.py [path/to/check_bench_json.py]

ctest runs it (test `check_bench_json`) with CMake's Python3 interpreter.
Stdlib only.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, os.pardir, "scripts", "check_bench_json.py")

VALID = {"bench": "bench_ring", "metric": "crossings-ring-b8",
         "value": 0.3, "unit": "count", "better": "lower"}


def with_fields(**changes):
    rec = dict(VALID)
    for key, val in changes.items():
        if val is None:
            del rec[key]
        else:
            rec[key] = val
    return json.dumps(rec)


class CheckBenchJsonTest(unittest.TestCase):
    def run_checker(self, lines, *flags):
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as f:
            f.write("\n".join(lines) + "\n")
        try:
            return subprocess.run(
                [sys.executable, CHECKER, *flags, f.name],
                capture_output=True, text=True, check=False).returncode
        finally:
            os.unlink(f.name)

    def test_valid_record_passes_with_every_flag(self):
        self.assertEqual(self.run_checker(
            [json.dumps(VALID)], "--expect", "bench_ring",
            "--expect-max", "bench_ring:crossings-ring-b8:0.5",
            "--expect-min", "bench_ring:crossings-ring-b8:0.1"), 0)

    def test_malformed_records_fail(self):
        fixtures = {
            "missing key": with_fields(unit=None),
            "unknown key": with_fields(threads=2),
            "unit outside the set": with_fields(unit="req/s"),
            "better not higher/lower": with_fields(better="up"),
            "NaN value": with_fields(value=float("nan")),
            "infinite value": with_fields(value=float("inf")),
            "string value": with_fields(value="0.3"),
            "not an object": json.dumps([VALID]),
            "invalid JSON": "{\"bench\": ",
        }
        for name, line in fixtures.items():
            with self.subTest(name):
                self.assertEqual(self.run_checker([line]), 1)

    def test_threshold_naming_no_record_fails(self):
        self.assertEqual(self.run_checker(
            [json.dumps(VALID)],
            "--expect-max", "bench_ring:crossings-ring-b4:0.5"), 1)

    def test_violated_thresholds_fail(self):
        self.assertEqual(self.run_checker(
            [json.dumps(VALID)],
            "--expect-max", "bench_ring:crossings-ring-b8:0.2"), 1)
        self.assertEqual(self.run_checker(
            [json.dumps(VALID)],
            "--expect-min", "bench_ring:crossings-ring-b8:0.4"), 1)

    def test_expected_bench_without_records_fails(self):
        self.assertEqual(self.run_checker(
            [json.dumps(VALID)], "--expect", "bench_obs"), 1)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1].endswith(".py"):
        CHECKER = sys.argv.pop(1)
    unittest.main()
