"""Self-tests of the benchmark's own arithmetic and tracing.

Run from the root of a checkout::

    python3 perfbench/selftest.py

The tracer tests wrap plain local functions, so they need no program
sources and finish in well under a second.
"""

from __future__ import annotations

import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import measure  # noqa: E402
from perfbench.layers import Tracer, missing_boundaries  # noqa: E402
from perfbench.measure import (  # noqa: E402
    Stopwatch,
    highest_percentile,
    percentile,
    quartile_spread,
    self_time,
    union_length,
)


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(percentile(range(999), 0.99))
        self.assertEqual(percentile(range(1000), 0.99), 989)
        self.assertIsNone(percentile(range(19), 0.5))
        self.assertEqual(percentile(range(20), 0.5), 9)
        self.assertIsNone(percentile(range(99), 0.9))
        self.assertEqual(percentile(range(100), 0.9), 89)

    def test_exactly_ten_beyond(self):
        values = list(range(1, 201))
        value = percentile(values, 0.95)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_does_not_matter(self):
        self.assertEqual(percentile([5, 1, 4, 2, 3] * 10, 0.5), 3)

    def test_highest_reportable(self):
        self.assertEqual(highest_percentile(range(300))[0], 0.95)
        self.assertEqual(highest_percentile(range(1000))[0], 0.99)
        self.assertIsNone(highest_percentile(range(15)))

    def test_rejects_bad_quantile(self):
        with self.assertRaises(ValueError):
            percentile([1, 2, 3], 1.0)


class Spread(unittest.TestCase):
    def test_quartile_spread_is_share_of_median(self):
        self.assertAlmostEqual(quartile_spread([10.0] * 10), 0.0)
        values = [9.0, 9.5, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.5, 11.0]
        self.assertAlmostEqual(quartile_spread(values), (10.125 - 9.875) / 10.0)


class StolenTime(unittest.TestCase):
    def test_steal_is_shared_across_the_cpus_used(self):
        readings = iter([5.0, 5.6])
        original = measure.steal_s
        measure.steal_s = lambda cpus: next(readings)
        try:
            with Stopwatch({0, 1}) as watch:
                time.sleep(0.01)
        finally:
            measure.steal_s = original
        self.assertAlmostEqual(watch.stolen, 0.3)
        self.assertAlmostEqual(watch.seconds, watch.wall - 0.3)

    def test_reads_this_machine(self):
        self.assertGreaterEqual(measure.steal_s({0}), 0.0)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(self_time(0.0, 4.0, []), 4.0)

    def test_disjoint_children(self):
        self.assertEqual(self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]), 6.0)

    def test_overlapping_children_count_once(self):
        self.assertEqual(self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0)]), 4.0)

    def test_children_clipped_to_the_span(self):
        self.assertEqual(self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]), 2.0)
        self.assertEqual(self_time(2.0, 6.0, [(7.0, 9.0)]), 4.0)

    def test_union_length(self):
        self.assertEqual(union_length([]), 0.0)
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]), 4.0)


class TracerSpans(unittest.TestCase):
    def test_parent_self_time_excludes_child(self):
        tracer = Tracer()

        def child():
            time.sleep(0.02)

        wrapped_child = tracer.span("child", child, False)

        def parent():
            time.sleep(0.01)
            wrapped_child()

        wrapped_parent = tracer.span("parent", parent, False)
        tracer.enabled = True
        wrapped_parent()
        self.assertEqual(tracer.calls, {"child": 1, "parent": 1})
        self.assertGreaterEqual(tracer.self_s["child"], 0.02)
        self.assertLess(tracer.self_s["parent"], 0.02)
        self.assertEqual(len(tracer.top), 1)

    def test_outermost_only(self):
        tracer = Tracer()

        def recurse(n):
            return n if n == 0 else wrapped(n - 1)

        wrapped = tracer.span("rec", recurse, True)
        tracer.enabled = True
        wrapped(5)
        self.assertEqual(tracer.calls["rec"], 1)

    def test_disabled_records_nothing(self):
        tracer = Tracer()
        tracer.span("x", lambda: None, False)()
        tracer.count("n", lambda: None)()
        self.assertEqual(tracer.all_calls(), {})

    def test_weighted_count(self):
        tracer = Tracer()
        counted = tracer.count("cells", lambda spec, seeds: None, lambda a, k: len(a[1]))
        tracer.enabled = True
        counted("spec", [1, 2, 3])
        self.assertEqual(tracer.counts["cells"], 3)

    def test_attributed_share(self):
        tracer = Tracer()
        tracer.top.extend([(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)])
        self.assertAlmostEqual(tracer.attributed_share(0.0, 10.0), 0.4)

    def test_zero_call_guard(self):
        self.assertEqual(missing_boundaries({"a": 3, "b": 0}, ["a", "b", "c"]), ["b", "c"])


if __name__ == "__main__":
    unittest.main()
