#!/usr/bin/env python3
"""Tests for bench_diff.py's verdict on cell overlap: two reports that
share no cell must fail (nothing was compared), while one shared cell is
enough for a clean pass.  Run directly or via ctest (test name:
bench_diff_overlap)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIFF = os.path.join(HERE, "bench_diff.py")


def report(*cells):
    return {"benchmark": "serve_load", "hardware_concurrency": 4,
            "cells": [dict(algo=algo, log2_n=10, threads=threads,
                           wall_seconds=1.0)
                      for algo, threads in cells]}


class Overlap(unittest.TestCase):

    def diff(self, base, cand):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, body in (("base.json", base), ("cand.json", cand)):
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(body, fh)
                paths.append(path)
            proc = subprocess.run([sys.executable, BENCH_DIFF, *paths],
                                  capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def test_disjoint_cells_fail(self):
        code, out = self.diff(report(("hf", 4)), report(("hf", 2)))
        self.assertNotEqual(code, 0, out)
        self.assertIn("nothing was compared", out)

    def test_one_shared_cell_passes(self):
        code, out = self.diff(report(("hf", 4), ("ba", 4)),
                              report(("hf", 4), ("ba", 2)))
        self.assertEqual(code, 0, out)
        self.assertIn("1 of 3 cells compared", out)


if __name__ == "__main__":
    unittest.main()
