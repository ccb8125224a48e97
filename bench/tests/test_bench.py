"""Tests of the benchmark itself.

    python3 -m pytest bench/tests        (or: python3 -m unittest discover bench/tests)

Covers the self-time arithmetic, the patching of by-name bindings, a
tiny-size traced run of every workload, the exact repeat counts of the two
table workloads, and the agreement of BENCHMARK.json with the code.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402  (puts the checkout's src/ on sys.path)
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            Span("root", 0.0, 10.0, None),
            Span("a", 1.0, 4.0, 0),
            Span("a.child", 2.0, 3.0, 1),
            Span("b", 3.5, 6.0, 0),       # overlaps a: the union [1, 6] is covered once
            Span("c", 9.0, 11.0, 0),      # runs past its parent: only [9, 10] counts
        ]
        self.assertEqual(self_times(spans), [4.0, 2.0, 1.0, 2.5, 2.0])

    def test_tracer_nesting_with_a_fake_clock(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        def leaf():
            return 1

        def outer():
            return leaf() + leaf()

        leaf = tracer.wrap("layer.leaf", leaf)
        outer = tracer.wrap("layer.outer", outer)
        self.assertEqual(outer(), 2)
        summary = tracer.summary()["spans"]
        # outer 0..5 holds leaf 1..2 and leaf 3..4.
        self.assertEqual(summary["layer.outer"], {"calls": 1, "self_s": 3.0, "total_s": 5.0})
        self.assertEqual(summary["layer.leaf"], {"calls": 2, "self_s": 2.0, "total_s": 2.0})


class PatchingTest(unittest.TestCase):
    def test_by_name_bindings_are_wrapped_and_restored(self):
        import qpfs.cli
        import qpfs.ingest
        import qpfs.pipeline

        original = qpfs.ingest.discretize
        load_csv = qpfs.ingest.load_csv
        with Tracer().installed():
            self.assertIsNot(qpfs.ingest.discretize, original)
            self.assertIs(qpfs.pipeline.discretize, qpfs.ingest.discretize)
            self.assertIs(qpfs.cli.load_csv, qpfs.ingest.load_csv)
            self.assertIsNot(qpfs.cli.load_csv, load_csv)
        self.assertIs(qpfs.pipeline.discretize, original)
        self.assertIs(qpfs.cli.load_csv, load_csv)


def traced_small_run(name: str, seed: int = 1) -> dict:
    with tempfile.TemporaryDirectory() as work:
        return child.run_sample(name, seed, Path(work), trace=True, small=True)


class WorkloadSmokeTest(unittest.TestCase):
    samples: dict = {}

    @classmethod
    def setUpClass(cls):
        cls.samples = {name: traced_small_run(name) for name in workloads.WORKLOADS}

    def test_every_mapped_metric_records_calls(self):
        for name, sample in self.samples.items():
            self.assertIsNone(sample["error"], name)
            spans = sample["trace"]["spans"]
            metrics = tracing.layer_metrics(sample["trace"])
            for metric in workloads.WORKLOADS[name].layer_metrics:
                for span in tracing.PER_LAYER[metric][2]:
                    with self.subTest(workload=name, metric=metric, span=span):
                        self.assertGreater(spans.get(span, {}).get("calls", 0), 0)
                with self.subTest(workload=name, metric=metric):
                    self.assertGreater(metrics[metric], 0)

    def test_every_layer_has_self_time_somewhere(self):
        for layer in tracing.LAYERS:
            totals = [tracing.layer_metrics(s["trace"])[f"{layer}.self_s"]
                      for s in self.samples.values()]
            self.assertGreater(max(totals), 0.0, layer)

    def test_repeat_counts_are_exact(self):
        # 2 datasets x 6 methods select once each; --strict adds 10 folds apiece.
        expected = {
            "tables": {"ingest.discretize": (12, 2), "infotheory.redundancy": (6, 2)},
            "tables-strict": {"ingest.discretize": (132, 22),
                              "infotheory.redundancy": (66, 22)},
        }
        for name, pairs in expected.items():
            trace = self.samples[name]["trace"]
            for span, (calls, distinct) in pairs.items():
                with self.subTest(workload=name, span=span):
                    self.assertEqual(trace["spans"][span]["calls"], calls)
                    self.assertEqual(trace["distinct"][span], distinct)
            self.assertEqual(trace["spans"]["evaluation.train_logistic"]["calls"], 120)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        manifest = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in manifest["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]},
                         {k: v[:2] for k, v in tracing.PER_LAYER.items()})


if __name__ == "__main__":
    unittest.main()
