#!/usr/bin/env python3
"""Self-checks of bench/ab.py that need no benchmark run.

    python3 bench/test_ab.py

Run from anywhere inside the repository's git checkout.
"""

import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402


class ExportTest(unittest.TestCase):
    def test_same_revision_twice_gives_two_trees(self):
        here = os.path.dirname(os.path.abspath(__file__))
        root = subprocess.run(["git", "-C", here, "rev-parse", "--show-toplevel"],
                              capture_output=True, text=True, check=True).stdout.strip()
        tmp = tempfile.mkdtemp(prefix="ab-test-")
        try:
            base = ab.export("HEAD", root, tmp, "base")
            change = ab.export("HEAD", root, tmp, "change")
            self.assertNotEqual(base, change)
            for tree in (base, change):
                self.assertTrue(os.path.isfile(os.path.join(tree, "bench", "ab.py")))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


class BootstrapTest(unittest.TestCase):
    def test_identical_samples_give_ratio_one(self):
        b = [10.0, 12.0, 11.0, 13.0, 9.0]
        self.assertEqual(ab.bootstrap_ratio(b, list(b), random.Random(0)), (1.0, 1.0))

    def test_uniform_shift_excludes_one(self):
        b = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        lo, hi = ab.bootstrap_ratio(b, [1.1 * x for x in b], random.Random(0))
        self.assertGreater(lo, 1.0)
        self.assertLess(hi, 1.2)


if __name__ == "__main__":
    unittest.main()
