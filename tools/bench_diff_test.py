#!/usr/bin/env python3
"""Tests for bench_diff.py: two reports that share no cell must fail
(nothing was compared), while one shared cell is enough for a clean pass;
the par_speedup speedup_vs_seq gate; the wall band, judged on matching
hardware only; and alloc counts, not judged in oversubscribed cells.  Run
directly or via ctest (test name: bench_diff_overlap)."""

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


class DiffCase(unittest.TestCase):

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


class Overlap(DiffCase):

    def test_disjoint_cells_fail(self):
        code, out = self.diff(report(("hf", 4)), report(("hf", 2)))
        self.assertNotEqual(code, 0, out)
        self.assertIn("nothing was compared", out)

    def test_one_shared_cell_passes(self):
        code, out = self.diff(report(("hf", 4), ("ba", 4)),
                              report(("hf", 4), ("ba", 2)))
        self.assertEqual(code, 0, out)
        self.assertIn("1 of 3 cells compared", out)


def speedup_report(hardware_concurrency, **fields):
    return {"benchmark": "par_speedup",
            "hardware_concurrency": hardware_concurrency,
            "experiments": [{"name": "par:ba", "cells": [
                dict(algo="par:ba", log2_n=17, threads=4, wall_seconds=1.0,
                     speedup=3.0, is_max_threads=True, **fields)]}]}


class SpeedupVsSeq(DiffCase):

    def test_drop_beyond_band_fails(self):
        code, out = self.diff(speedup_report(4, speedup_vs_seq=2.0),
                              speedup_report(4, speedup_vs_seq=1.5))
        self.assertEqual(code, 1, out)
        self.assertIn("speedup_vs_seq -25.0% < band", out)

    def test_drop_within_band_passes(self):
        code, out = self.diff(speedup_report(4, speedup_vs_seq=2.0),
                              speedup_report(4, speedup_vs_seq=1.9))
        self.assertEqual(code, 0, out)

    def test_other_hardware_is_skipped(self):
        code, out = self.diff(speedup_report(1, speedup_vs_seq=2.0),
                              speedup_report(4, speedup_vs_seq=1.0))
        self.assertEqual(code, 0, out)

    def test_baseline_without_field_is_skipped(self):
        code, out = self.diff(speedup_report(4),
                              speedup_report(4, speedup_vs_seq=1.0))
        self.assertEqual(code, 0, out)


def cell_report(hardware_concurrency, threads=4, **fields):
    return {"benchmark": "par_speedup", "alloc_probe": True,
            "hardware_concurrency": hardware_concurrency,
            "experiments": [{"name": "par:ba", "cells": [
                dict(algo="par:ba", log2_n=17, threads=threads, **fields)]}]}


class WallBand(DiffCase):

    def test_slower_on_same_hardware_fails(self):
        code, out = self.diff(cell_report(4, wall_seconds=1.0),
                              cell_report(4, wall_seconds=1.3))
        self.assertEqual(code, 1, out)
        self.assertIn("wall +30.0% > band", out)

    def test_other_hardware_is_a_note(self):
        code, out = self.diff(cell_report(1, wall_seconds=1.0),
                              cell_report(4, wall_seconds=1.3))
        self.assertEqual(code, 0, out)
        self.assertIn("hardware_concurrency differs", out)
        self.assertIn("wall +30.0%", out)


class OversubscribedAllocs(DiffCase):

    def test_increase_within_core_count_fails(self):
        code, out = self.diff(cell_report(4, threads=4, alloc_count=10),
                              cell_report(4, threads=4, alloc_count=13))
        self.assertEqual(code, 1, out)
        self.assertIn("alloc_count +3", out)

    def test_increase_when_oversubscribed_is_printed_only(self):
        code, out = self.diff(cell_report(4, threads=8, alloc_count=10),
                              cell_report(4, threads=8, alloc_count=13))
        self.assertEqual(code, 0, out)
        self.assertIn("allocs +3", out)
        self.assertIn("oversubscribed", out)


if __name__ == "__main__":
    unittest.main()
