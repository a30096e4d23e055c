#!/usr/bin/env python3
"""tools/ab's summary must call a loss a loss.

Feeds summarize() fixed pair sets and checks the direction it reports,
whether the median moved beyond the base's IQR, and whether the pairs
meet the claim rule (at least 9 wins in 10, median better by more than
the base's IQR).

    python3 tests/tools/test_ab_summarize.py
"""
import contextlib
import importlib.machinery
import importlib.util
import io
import os
import unittest

AB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                  "tools", "ab")


def load_ab():
    loader = importlib.machinery.SourceFileLoader("ab", AB)
    spec = importlib.util.spec_from_loader("ab", loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


ab = load_ab()

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def summary(better, base, head):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ab.summarize("metric", better, base, head)
    return out.getvalue()


class Summarize(unittest.TestCase):
    def test_ten_pair_loss_reads_worse_and_beyond(self):
        text = summary("higher", BASE, [v * 0.8 for v in BASE])
        self.assertIn("wins 0/10", text)
        self.assertIn("worse", text)
        self.assertIn("beyond the base's spread", text)
        self.assertIn("claim rule", text)
        self.assertIn("not met", text)
        self.assertNotIn(": met", text)

    def test_loss_on_a_lower_is_better_metric(self):
        text = summary("lower", BASE, [v * 1.2 for v in BASE])
        self.assertIn("wins 0/10", text)
        self.assertIn("worse", text)
        self.assertIn("beyond the base's spread", text)
        self.assertIn("not met", text)

    def test_ten_pair_gain_meets_the_claim_rule(self):
        text = summary("lower", BASE, [v * 0.6 for v in BASE])
        self.assertIn("wins 10/10", text)
        self.assertIn("better", text)
        self.assertIn("beyond the base's spread", text)
        self.assertIn(": met", text)

    def test_eight_wins_do_not_meet_the_claim_rule(self):
        head = [v * 1.5 for v in BASE]
        head[0] = BASE[0] * 0.9
        head[1] = BASE[1] * 0.9
        text = summary("higher", BASE, head)
        self.assertIn("wins 8/10", text)
        self.assertIn("better", text)
        self.assertIn("not met", text)

    def test_small_gain_stays_within_the_spread(self):
        text = summary("higher", BASE, [v + 0.01 for v in BASE])
        self.assertIn("within the base's spread", text)
        self.assertIn("not met", text)


if __name__ == "__main__":
    unittest.main()
