#!/usr/bin/env python3
"""Tests for tools/check_bench_json.py's hardware stamp handling.

A stamp is validated when present; --compare refuses two stamps that
disagree on sha_ni and compares against an unstamped baseline (every
committed one) as before, reporting its hardware as unknown. Table I and
Fig. 13 outputs fail the check when their paper-shape gate is false.
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import check_bench_json  # noqa: E402

BASELINE = REPO / "bench" / "baselines" / "BENCH_repair.json"

STAMP = {"cpu_model": "Test CPU", "nproc": 4, "sha_ni": True, "avx2": True}

TABLE1 = {
    "hardware": STAMP,
    "config": {"samples": 1000, "rsa_bits": 1024},
    "results": [
        {"type": t, "size_bytes": n, "hash_ms_mean": h,
         "hash_ms_stdev": 0.01, "hash_sign_ms_mean": h + 0.3,
         "hash_sign_ms_stdev": 0.02}
        for t, n, h in (("Steering", 20, 0.0004), ("Scan", 8705, 0.006),
                        ("Image", 921641, 0.6))
    ],
    "gate": {"hash_grows_with_size": True},
    "table1_ok": True,
}


class CheckBenchJsonTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def run_main(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = check_bench_json.main(["check_bench_json.py", *args])
        return rc, out.getvalue()

    def stamped_baseline(self, **stamp):
        doc = json.loads(BASELINE.read_text())
        doc["hardware"] = dict(STAMP, **stamp)
        return doc

    def test_unstamped_baseline_compares_with_hardware_unknown(self):
        current = self.write("cur.json", self.stamped_baseline())
        rc, out = self.run_main(current, "--compare", str(BASELINE))
        self.assertEqual(rc, 0, out)
        self.assertIn(f"{BASELINE}: hardware unknown", out)
        self.assertIn("no regression", out)

    def test_compare_refuses_differing_sha_ni(self):
        current = self.write("cur.json", self.stamped_baseline(sha_ni=False))
        base = self.write("base.json", self.stamped_baseline(sha_ni=True))
        rc, out = self.run_main(current, "--compare", base)
        self.assertEqual(rc, 1, out)
        self.assertIn("sha_ni=false", out)

    def test_compare_accepts_matching_stamps(self):
        current = self.write("cur.json", self.stamped_baseline(avx2=False))
        base = self.write("base.json", self.stamped_baseline())
        rc, out = self.run_main(current, "--compare", base)
        self.assertEqual(rc, 0, out)
        self.assertNotIn("hardware unknown", out)

    def test_malformed_stamp_fails(self):
        for field, value in (("sha_ni", "yes"), ("nproc", 0),
                             ("cpu_model", None)):
            doc = self.stamped_baseline()
            doc["hardware"][field] = value
            rc, out = self.run_main(self.write("bad.json", doc))
            self.assertEqual(rc, 1, f"{field}={value!r}: {out}")
            self.assertIn("hardware", out)

    def test_table1_gate(self):
        rc, out = self.run_main(self.write("t1.json", TABLE1))
        self.assertEqual(rc, 0, out)
        broken = copy.deepcopy(TABLE1)
        broken["gate"]["hash_grows_with_size"] = False
        broken["table1_ok"] = False
        rc, out = self.run_main(self.write("t1_bad.json", broken))
        self.assertEqual(rc, 1, out)


if __name__ == "__main__":
    unittest.main()
