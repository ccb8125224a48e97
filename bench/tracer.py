"""Span tracer that wraps qpfs's public layer functions from outside the package.

A traced benchmark sample installs a ``Tracer`` in its child process before
the CLI call.  Every wrapped call records a span (name, start, end, parent);
spans stay in memory and are summarised once the call returns.  Layers are
the package modules; ``fetch`` needs the network and is not traced.

The program is single-threaded and nothing in it waits on another thread or
process, so a layer's cost is fully described by its self time (span
duration minus the part its child spans cover) plus its call and work counts.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("ingest", "infotheory", "qp", "baselines", "evaluation", "pipeline", "cli")

# Bookkeeping done by the tracer itself (input fingerprints, counters) runs
# inside a span of this name, so it is never charged to a program layer.
RECORD_SPAN = "trace.record"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None        # index of the enclosing span, None for a root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        clipped = sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                         for c in kids)
        for lo, hi in clipped:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


# ---------------------------------------------------------------------------
# What gets wrapped, and what is counted at each boundary
# ---------------------------------------------------------------------------

def _record_discretize(tracer, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    policy = args[1] if len(args) > 1 else kwargs.get("policy")
    tracer.note_input("ingest.discretize", hash((data.name, tuple(data.rows), policy)))


def _codes_fingerprint(dd) -> bytes:
    codes = dd.feature_codes
    digest = hashlib.blake2b(codes.tobytes(), digest_size=16)
    digest.update(repr(codes.shape).encode())
    digest.update(dd.target.tobytes())
    return digest.digest()


def _record_redundancy(tracer, args, kwargs, result):
    dd = args[0] if args else kwargs["data"]
    tracer.note_input("infotheory.redundancy", _codes_fingerprint(dd))
    m = dd.n_features
    tracer.add("infotheory.pairs", m * (m - 1) // 2)


def _record_solve(tracer, args, kwargs, result):
    tracer.add("qp.solve_iterations", result.iterations)
    tracer.add("qp.fallback_count", int(result.fallback_used))
    tracer.add("qp.path." + result.solver, 1)
    tracer.maximum("qp.kkt_residual_max", result.kkt_residual)


# (span name, module, attribute path, recorder)
TARGETS = (
    ("ingest.load_csv", "qpfs.ingest", "load_csv", None),
    ("ingest.discretize", "qpfs.ingest", "discretize", _record_discretize),
    ("infotheory.redundancy", "qpfs.infotheory", "build_redundancy_matrix",
     _record_redundancy),
    ("infotheory.relevance", "qpfs.infotheory", "build_relevance_vector", None),
    ("qp.estimate_alpha", "qpfs.qp", "estimate_alpha", None),
    ("qp.assemble", "qpfs.qp", "assemble", None),
    ("qp.solve", "qpfs.qp", "solve", _record_solve),
    ("qp.rank", "qpfs.qp", "rank", None),
    ("baselines.relieff", "qpfs.baselines", "relieff", None),
    ("baselines.cfs", "qpfs.baselines", "cfs", None),
    ("baselines.mrmr_greedy", "qpfs.baselines", "mrmr_greedy", None),
    ("baselines.information_gain", "qpfs.baselines", "information_gain", None),
    ("baselines.max_rel", "qpfs.baselines", "max_rel", None),
    ("evaluation.evaluate", "qpfs.evaluation", "evaluate", None),
    ("evaluation.encode_fit", "qpfs.evaluation", "DesignEncoder.fit", None),
    ("evaluation.encode_transform", "qpfs.evaluation", "DesignEncoder.transform", None),
    ("evaluation.train_logistic", "qpfs.evaluation", "train_logistic", None),
    ("pipeline.select_features", "qpfs.pipeline", "select_features", None),
    ("pipeline.reproduce_tables", "qpfs.pipeline", "reproduce_tables", None),
    ("cli.main", "qpfs.cli", "main", None),
)

SOLVER_PATHS = ("active-set", "projected-gradient", "vertex")


class Tracer:
    """In-memory span recorder; ``installed()`` patches the program for its duration."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.inputs: dict[str, set] = {}
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = self.clock()
            self._stack.pop()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def note_input(self, name: str, fingerprint) -> None:
        self.inputs.setdefault(name, set()).add(fingerprint)

    def wrap(self, name: str, fn, recorder=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if recorder is not None:
                with self.span(RECORD_SPAN):
                    recorder(self, args, kwargs, result)
            return result
        return traced

    # -- patching ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target wherever a qpfs module holds a reference to it.

        ``pipeline`` and ``cli`` bind several layer functions by name at
        import, so patching only the defining module would miss those calls.
        """
        import qpfs.cli  # noqa: F401  (imports every layer module)

        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "qpfs" or key.startswith("qpfs.")]
        patched = []
        try:
            for name, module_name, path, recorder in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, leaf = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self.wrap(name, original, recorder)
                homes = [(owner, leaf)]
                for mod in modules:
                    homes += [(mod, key) for key, value in vars(mod).items()
                              if value is original and mod is not owner]
                for obj, key in homes:
                    setattr(obj, key, wrapper)
                    patched.append((obj, key, original))
            yield self
        finally:
            for obj, key, original in reversed(patched):
                setattr(obj, key, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self and total seconds; plus the counters."""
        per_name: dict[str, dict] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = per_name.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += span.end - span.start
        return {
            "spans": per_name,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "distinct": {name: len(keys) for name, keys in self.inputs.items()},
        }


# ---------------------------------------------------------------------------
# Per-layer metrics derived from one summary
# ---------------------------------------------------------------------------

# name -> (unit, better, span names whose calls the metric depends on)
PER_LAYER = {
    "ingest.load_csv_s": ("s", "lower", ("ingest.load_csv",)),
    "ingest.discretize_s": ("s", "lower", ("ingest.discretize",)),
    "ingest.discretize_calls": ("count", "lower", ("ingest.discretize",)),
    "ingest.discretize_distinct_ratio": ("ratio", "higher", ("ingest.discretize",)),
    "infotheory.redundancy_s": ("s", "lower", ("infotheory.redundancy",)),
    "infotheory.redundancy_calls": ("count", "lower", ("infotheory.redundancy",)),
    "infotheory.redundancy_distinct_ratio": ("ratio", "higher", ("infotheory.redundancy",)),
    "infotheory.pairs": ("count", "lower", ("infotheory.redundancy",)),
    "infotheory.relevance_s": ("s", "lower", ("infotheory.relevance",)),
    "qp.assemble_s": ("s", "lower", ("qp.assemble",)),
    "qp.solve_s": ("s", "lower", ("qp.solve",)),
    "qp.solve_calls": ("count", "lower", ("qp.solve",)),
    "qp.solve_iterations": ("count", "lower", ("qp.solve",)),
    "qp.fallback_count": ("count", "lower", ("qp.solve",)),
    "qp.kkt_residual_max": ("abs", "lower", ("qp.solve",)),
    "qp.path_active_set": ("count", "lower", ("qp.solve",)),
    "qp.path_projected_gradient": ("count", "lower", ("qp.solve",)),
    "qp.path_vertex": ("count", "lower", ("qp.solve",)),
    "baselines.relieff_s": ("s", "lower", ("baselines.relieff",)),
    "baselines.cfs_s": ("s", "lower", ("baselines.cfs",)),
    "baselines.mrmr_greedy_s": ("s", "lower", ("baselines.mrmr_greedy",)),
    "baselines.information_gain_s": ("s", "lower", ("baselines.information_gain",)),
    "baselines.max_rel_s": ("s", "lower", ("baselines.max_rel",)),
    "evaluation.evaluate_self_s": ("s", "lower", ("evaluation.evaluate",)),
    "evaluation.encode_s": ("s", "lower",
                            ("evaluation.encode_fit", "evaluation.encode_transform")),
    "evaluation.train_logistic_s": ("s", "lower", ("evaluation.train_logistic",)),
    "evaluation.train_logistic_calls": ("count", "lower", ("evaluation.train_logistic",)),
    "pipeline.select_features_s": ("s", "lower", ("pipeline.select_features",)),
    "pipeline.select_features_calls": ("count", "lower", ("pipeline.select_features",)),
    "cli.self_s": ("s", "lower", ("cli.main",)),
    **{f"{layer}.self_s": ("s", "lower", ()) for layer in LAYERS if layer != "cli"},
    "trace.record_s": ("s", "lower", ()),
    "trace.wall_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
}


def layer_metrics(summary: dict) -> dict[str, float]:
    """Every PER_LAYER metric but trace.wall_s and trace.overhead_s, which the
    driver computes from whole samples, from one traced call."""
    spans = summary["spans"]

    def own(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def distinct_ratio(name):
        return summary["distinct"].get(name, 0) / calls(name) if calls(name) else 0.0

    counts = summary["counts"]
    metrics = {
        "ingest.load_csv_s": own("ingest.load_csv"),
        "ingest.discretize_s": own("ingest.discretize"),
        "ingest.discretize_calls": calls("ingest.discretize"),
        "ingest.discretize_distinct_ratio": distinct_ratio("ingest.discretize"),
        "infotheory.redundancy_s": own("infotheory.redundancy"),
        "infotheory.redundancy_calls": calls("infotheory.redundancy"),
        "infotheory.redundancy_distinct_ratio": distinct_ratio("infotheory.redundancy"),
        "infotheory.pairs": counts.get("infotheory.pairs", 0),
        "infotheory.relevance_s": own("infotheory.relevance"),
        "qp.assemble_s": own("qp.assemble"),
        "qp.solve_s": own("qp.solve"),
        "qp.solve_calls": calls("qp.solve"),
        "qp.solve_iterations": counts.get("qp.solve_iterations", 0),
        "qp.fallback_count": counts.get("qp.fallback_count", 0),
        "qp.kkt_residual_max": summary["maxima"].get("qp.kkt_residual_max", 0.0),
        **{"qp.path_" + path.replace("-", "_"): counts.get("qp.path." + path, 0)
           for path in SOLVER_PATHS},
        "baselines.relieff_s": own("baselines.relieff"),
        "baselines.cfs_s": own("baselines.cfs"),
        "baselines.mrmr_greedy_s": own("baselines.mrmr_greedy"),
        "baselines.information_gain_s": own("baselines.information_gain"),
        "baselines.max_rel_s": own("baselines.max_rel"),
        "evaluation.evaluate_self_s": own("evaluation.evaluate"),
        "evaluation.encode_s": own("evaluation.encode_fit", "evaluation.encode_transform"),
        "evaluation.train_logistic_s": own("evaluation.train_logistic"),
        "evaluation.train_logistic_calls": calls("evaluation.train_logistic"),
        "pipeline.select_features_s": own("pipeline.select_features"),
        "pipeline.select_features_calls": calls("pipeline.select_features"),
        "cli.self_s": own("cli.main"),
        "trace.record_s": own(RECORD_SPAN),
    }
    for layer in LAYERS:
        if layer != "cli":
            metrics[f"{layer}.self_s"] = own(*(n for n in spans if n.startswith(layer + ".")))
    return metrics
