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


class LayoutTest(unittest.TestCase):
    def test_padding_prepends_kept_string_data(self):
        tmp = tempfile.mkdtemp(prefix="ab-test-")
        try:
            path = os.path.join(tmp, "prog.ml")
            original = "(* a program *)\nlet () = print_string \"hi\"\n"
            with open(path, "w") as f:
                f.write(original)
            ab.pad_source(path, 0)
            with open(path) as f:
                self.assertEqual(f.read(), original)
            ab.pad_source(path, 3 * 64)
            with open(path) as f:
                padded = f.read()
            first, rest = padded.split("\n", 1)
            self.assertEqual(rest, original)
            self.assertEqual(first, 'let _layout_pad = Sys.opaque_identity "%s"' % ("x" * 192))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_layout_copies_the_working_tree_and_leaves_it_alone(self):
        here = os.path.dirname(os.path.abspath(__file__))
        root = subprocess.run(["git", "-C", here, "rev-parse", "--show-toplevel"],
                              capture_output=True, text=True, check=True).stdout.strip()
        source = os.path.join(root, "perfbench", "perfbench.ml")
        with open(source) as f:
            before = f.read()
        tmp = tempfile.mkdtemp(prefix="ab-test-")
        try:
            self.assertEqual(ab.layout_tree(".", root, tmp, "change", 0), root)
            tree = ab.layout_tree(".", root, tmp, "change", 2)
            self.assertNotEqual(tree, root)
            self.assertFalse(os.path.exists(os.path.join(tree, "_build")))
            with open(os.path.join(tree, "perfbench", "perfbench.ml")) as f:
                self.assertEqual(f.read(), 'let _layout_pad = Sys.opaque_identity "%s"\n'
                                 % ("x" * 128) + before)
            self.assertTrue(os.path.isfile(os.path.join(tree, "bench", "ab.py")))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        with open(source) as f:
            self.assertEqual(f.read(), before)


class BootstrapTest(unittest.TestCase):
    def test_identical_samples_give_ratio_one(self):
        b = [10.0, 12.0, 11.0, 13.0, 9.0]
        self.assertEqual(ab.bootstrap_ratio(b, list(b), random.Random(0)), (1.0, 1.0))

    def test_uniform_shift_excludes_one(self):
        b = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        lo, hi = ab.bootstrap_ratio(b, [1.1 * x for x in b], random.Random(0))
        self.assertGreater(lo, 1.0)
        self.assertLess(hi, 1.2)


class SetupTest(unittest.TestCase):
    def test_pairs_alternate_which_side_goes_first(self):
        calls = []

        def run(exe, workload):
            self.assertEqual(workload, "compile")
            calls.append(exe)
            return {"B": 2.0, "C": 1.0}[exe]

        samples = ab.setup_pairs({"base": "B", "change": "C"}, "compile", 4, run=run)
        self.assertEqual(calls, ["B", "C", "C", "B", "B", "C", "C", "B"])
        self.assertEqual(samples, {"base": [2.0] * 4, "change": [1.0] * 4})

    def test_summary_of_a_uniform_speedup(self):
        b = [1.3, 1.5, 1.4, 1.8, 1.6, 1.35, 1.45, 1.7, 1.55, 1.4]
        s = ab.summary(b, [0.75 * x for x in b], "lower", random.Random(0))
        self.assertAlmostEqual(s["base"], 1.475)
        self.assertAlmostEqual(s["ratio"], 0.75)
        self.assertAlmostEqual(s["ci"][0], 0.75)
        self.assertAlmostEqual(s["ci"][1], 0.75)
        self.assertEqual(s["wins"], 10)
        q1, q3 = s["base_q"]
        self.assertLess(q1, s["base"])
        self.assertGreater(q3, s["base"])
        self.assertAlmostEqual(s["change_q"][0], 0.75 * q1)

    def test_wins_follow_the_better_direction(self):
        b, c = [1.0, 2.0, 3.0], [1.5, 1.5, 3.0]
        self.assertEqual(ab.summary(b, c, "lower", random.Random(0))["wins"], 1)
        self.assertEqual(ab.summary(b, c, "higher", random.Random(0))["wins"], 1)
        self.assertEqual(ab.summary(b, b, "lower", random.Random(0))["wins"], 0)


class AlignmentTest(unittest.TestCase):
    # Synthetic `nm` output: the dispatch loop and the kernel's fib at
    # known addresses, tak missing, and look-alike symbols that must
    # not match (a local of exec, data of Jobs, another module's fib).
    NM = "\n".join([
        "00000000000cbde0 T camlVm_core.exec_636",
        "00000000000cbe17 t camlVm_core.exec_inner_637",
        "00000000000ae390 T camlDune__exe__Jobs.fib_535",
        "00000000000ae3c4 T camlOther.fib_12",
        "00000000001ba108 D camlDune__exe__Jobs",
        "                 U caml_modify",
    ])

    def test_offsets_mod_64_of_the_named_functions(self):
        self.assertEqual(ab.alignments(self.NM),
                         [("Vm_core.exec", 0xcbde0 % 64), ("Jobs.fib", 0xae390 % 64),
                          ("Jobs.tak", None)])
        self.assertEqual(ab.alignments(self.NM)[0][1], 32)
        self.assertEqual(ab.alignments(self.NM)[1][1], 16)

    def test_first_definition_wins_and_unprefixed_modules_match(self):
        nm = "\n".join(["0000000000000041 T camlJobs.tak_9",
                         "0000000000000080 T camlJobs.tak_10"])
        self.assertEqual(ab.alignments(nm)[2], ("Jobs.tak", 1))

    def test_line_names_side_layout_and_missing_symbols(self):
        self.assertEqual(ab.alignment_line("change", 1, self.NM),
                         "change layout 1, offset mod 64: "
                         "Vm_core.exec 32, Jobs.fib 16, Jobs.tak ?")


if __name__ == "__main__":
    unittest.main()
