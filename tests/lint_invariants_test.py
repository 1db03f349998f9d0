#!/usr/bin/env python3
"""Unit tests for ci/lint_invariants.py against the known-good / known-bad
fixtures in tests/lint_fixtures/.

Each rule is pinned from both sides: the bad fixture must produce exactly
the expected findings (right rule, right function), and the good fixture —
which exercises every accepted discharge pattern, including the justified
RSR_LINT_OK suppression syntax — must produce none. A final test drives the
CLI end to end and checks the exit-code contract (0 clean / 1 findings).

Registered with CTest as `lint_invariants_selftest`; runnable directly:
  python3 tests/lint_invariants_test.py
"""

import importlib.util
import os
import subprocess
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINTER = os.path.join(REPO_ROOT, "ci", "lint_invariants.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")


def load_linter():
    spec = importlib.util.spec_from_file_location("lint_invariants", LINTER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolves the module by name
    spec.loader.exec_module(mod)
    return mod


LINT = load_linter()


def lint_fixture(name):
    """Findings for one fixture file, via the pure-regex path (the tested
    contract — the container has no libclang bindings)."""
    return LINT.lint_file(os.path.join(FIXTURES, name), use_libclang=False)


def rules_of(findings):
    return [f.rule for f in findings]


class ReaderCheckTest(unittest.TestCase):
    def test_bad_flags_unchecked_getters(self):
        findings = lint_fixture("bad_reader_check.cc")
        self.assertEqual(rules_of(findings), ["reader-check"])
        self.assertIn("ReadHeader", findings[0].message)

    def test_good_patterns_all_pass(self):
        self.assertEqual(lint_fixture("good_reader_check.cc"), [])


class BoundsCheckTest(unittest.TestCase):
    def test_bad_flags_unvalidated_counts(self):
        findings = lint_fixture("bad_bounds_check.cc")
        self.assertEqual(rules_of(findings),
                         ["bounds-check", "bounds-check"])
        messages = " ".join(f.message for f in findings)
        self.assertIn("ReadKeysUnbounded", messages)
        self.assertIn("ReadNested", messages)

    def test_good_validated_counts_pass(self):
        self.assertEqual(lint_fixture("good_bounds_check.cc"), [])

    def test_bad_flags_counts_outside_read_functions(self):
        # The rule covers any function that parses a count, not only
        # Read*/ReadFrom bodies: protocol code parses message counts inline.
        findings = lint_fixture("bad_bounds_check_protocol.cc")
        self.assertEqual(rules_of(findings), ["bounds-check"])
        self.assertIn("ApplyPeerMessage", findings[0].message)

    def test_good_count_fits_passes(self):
        self.assertEqual(lint_fixture("good_bounds_check_protocol.cc"), [])


class BoundedPeelTest(unittest.TestCase):
    def test_bad_flags_capless_loop(self):
        findings = lint_fixture("bad_bounded_peel.cc")
        self.assertEqual(rules_of(findings), ["bounded-peel"])
        self.assertIn("PeelForever", findings[0].message)

    def test_good_capped_and_annotated_loops_pass(self):
        self.assertEqual(lint_fixture("good_bounded_peel.cc"), [])


class ZeroAllocTest(unittest.TestCase):
    def test_bad_flags_each_allocation_kind(self):
        findings = lint_fixture("bad_zero_alloc.cc")
        self.assertEqual(sorted(rules_of(findings)),
                         ["zero-alloc", "zero-alloc", "zero-alloc"])
        messages = " ".join(f.message for f in findings)
        self.assertIn("direct allocation", messages)
        self.assertIn("local container", messages)
        self.assertIn("non-pooled", messages)

    def test_good_pooled_storage_passes(self):
        # Includes the multi-declarator `static thread_local a, b;` pool —
        # regression for the parser bug that only pooled the last declarator.
        self.assertEqual(lint_fixture("good_zero_alloc.cc"), [])


class SuppressionHygieneTest(unittest.TestCase):
    def test_bare_and_unknown_rule_markers_are_findings(self):
        findings = lint_fixture("bad_suppression.cc")
        self.assertEqual(rules_of(findings), ["suppression", "suppression"])
        self.assertIn("malformed", findings[0].message)
        self.assertIn("unknown rule", findings[1].message)


class CliTest(unittest.TestCase):
    def run_cli(self, *paths):
        return subprocess.run(
            [sys.executable, LINTER, "--no-libclang", *paths],
            capture_output=True, text=True)

    def test_good_fixtures_exit_zero(self):
        goods = [os.path.join(FIXTURES, n) for n in sorted(os.listdir(FIXTURES))
                 if n.startswith("good_")]
        self.assertTrue(goods)
        proc = self.run_cli(*goods)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_bad_fixtures_exit_one_with_findings(self):
        bads = [os.path.join(FIXTURES, n) for n in sorted(os.listdir(FIXTURES))
                if n.startswith("bad_")]
        self.assertTrue(bads)
        proc = self.run_cli(*bads)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        for rule in ("reader-check", "bounds-check", "bounded-peel",
                     "zero-alloc", "suppression"):
            self.assertIn(f"[{rule}]", proc.stdout)

    def test_tree_is_clean(self):
        # The shipped sources must satisfy their own wall.
        proc = self.run_cli(os.path.join(REPO_ROOT, "src"))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
