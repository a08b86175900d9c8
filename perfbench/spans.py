"""Outside-in tracing: spans around the module-level names the package calls.

The package reaches its own layers through module globals (``engine`` calls
``build_junction_tree`` via ``bnmarg.engine.build_junction_tree``, and so
on).  Replacing those globals with wrappers records one span per call
without touching the package's source.  Spans stay in memory; self times
and per-layer totals are computed after the run.  A name that a later
refactor removes is reported, and its metrics read 0, instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass


def _estimate_counts(est):
    samples = ess = 0.0
    exact = approx = 0
    for r in est.per_subset:
        if r.method == "exact":
            exact += 1
            continue
        approx += 1
        m = r.sample_count or 0
        samples += m
        # Kish effective sample size of weights with relative variance v
        ess += m / (1.0 + (r.weight_variance or 0.0))
    return {"exact_subsets": exact, "approx_subsets": approx, "samples": samples, "ess": ess}


def _decomposition_counts(dec):
    return {"subsets": len(dec.subsets), "relevant_nodes": len(dec.relevant_nodes)}


def _tree_counts(jt):
    return {"clique_states_max": max(math.prod(jt.cards[v] for v in c) for c in jt.cliques)}


# (module under bnmarg, global name, span name, counts taken from the result)
TARGETS = (
    ("engine", "marginal", "engine.marginal", _estimate_counts),
    ("classify", "marginal_sgs", "engine.marginal", _estimate_counts),
    ("classify", "classify", "classify.classify", None),
    ("engine", "evidence_only_factor", "engine.evidence_only_factor", None),
    ("engine", "decompose", "decompose.decompose", _decomposition_counts),
    ("engine", "relevant_subgraph", "decompose.relevant_subgraph", None),
    ("sampling", "relevant_subgraph", "decompose.relevant_subgraph", None),
    ("decompose", "relevant_subgraph", "decompose.relevant_subgraph", None),
    ("decompose", "find_subsets", "decompose.find_subsets", None),
    ("decompose", "subset_boundaries", "decompose.subset_boundaries", None),
    ("decompose", "moralize", "graphs.moralize", None),
    ("junction", "moralize", "graphs.moralize", None),
    ("junction", "triangulate", "graphs.triangulate", None),
    ("engine", "build_junction_tree", "junction.build_junction_tree", _tree_counts),
    ("engine", "incorporate_evidence", "junction.incorporate_evidence", None),
    ("engine", "log_tree_sum", "junction.log_tree_sum", None),
    ("engine", "loopy_bp", "sampling.loopy_bp", None),
    ("sampling", "loopy_bp", "sampling.loopy_bp", None),
    ("engine", "importance_estimate", "sampling.importance_estimate", None),
    ("randnet", "gen_network", "randnet.gen_network", None),
    ("randnet", "gen_cpts", "randnet.gen_cpts", None),
    ("randnet", "pick_evidence", "randnet.pick_evidence", None),
    ("netformat", "serialize_network", "netformat.serialize_network", None),
    ("netformat", "parse_network", "netformat.parse_network", None),
)


@dataclass
class Span:
    name: str
    label: tuple  # what the harness was doing: ("setup", r), ("input", q) or ("query", q)
    parent: int  # index of the enclosing span, -1 at top level
    start: int
    end: int = 0
    counts: dict | None = None


class SpanRecorder:
    """Records nested spans in memory; single-threaded."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.label: tuple = ()
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.label, parent, self.clock()))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._open.pop()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children.

        Spans come from one thread and nest properly, so children of one span
        never overlap and their durations add up to the time they cover.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "label": list(s.label), "parent": s.parent,
                                     "start_ns": s.start, "end_ns": s.end, "counts": s.counts}) + "\n")


class Tracer:
    """Installs and removes the span wrappers of ``TARGETS``."""

    def __init__(self, recorder: SpanRecorder, targets=TARGETS):
        self.recorder = recorder
        self.targets = targets
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        self.absent = []
        for module_name, attr, span, probe in self.targets:
            try:
                module = importlib.import_module(f"bnmarg.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, probe))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, fn, span, probe):
        rec = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = rec.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if probe is not None:
                rec.spans[index].counts = probe(out)
            return out

        return traced


def layer_totals(recorder: SpanRecorder, keep) -> tuple[dict, dict, dict]:
    """Per span name: call count, self time in ms, and summed counts.

    Only spans whose label satisfies ``keep`` are included.  Counts named
    ``*_max`` are maxima; all others are sums.
    """
    calls: dict = defaultdict(int)
    self_ms: dict = defaultdict(float)
    counts: dict = defaultdict(float)
    for span, own in zip(recorder.spans, recorder.self_ns()):
        if not keep(span.label):
            continue
        calls[span.name] += 1
        self_ms[span.name] += own / 1e6
        for key, value in (span.counts or {}).items():
            if key.endswith("_max"):
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    return calls, self_ms, counts
