"""The benchmark's phases, metrics and output; ``run.py`` is the entry point.

One run measures one workload in its own process, as a closed loop with a
single client: the next query starts when the previous one returned.

1. Set-up, repeated ``SETUP_REPEATS`` times from cold caches.  ``setup_s``
   is the median time of one set-up: the shared inputs (networks, files)
   plus the first batch of query inputs.
2. ``WARMUP_QUERIES`` untimed queries on inputs of their own.
3. The timed phase, tracing off: queries until their summed time reaches
   ``--seconds`` and at least ``MIN_QUERIES`` have run.  Each query's input
   is built between queries, outside the timing.
4. With ``--trace 1`` only: a traced phase on fresh inputs, wrapping the
   package's layers (``spans.py``), for at least ``TRACE_QUERIES`` queries.
5. Untimed: every query's exact reference is computed in forked worker processes
   that rebuild the same inputs from the seed, and every answer is checked.

Reported times are at reference speed.  On a shared machine the CPU speed
drifts by tens of percent over seconds, more than a run can average out, so
a fixed piece of work (the probe) is timed right before every query and
set-up, and each time is scaled by ``PROBE_REF_S`` over the median of the
probes around it.  A slower program still reads slower; a slower machine
does not.  Wall-clock figures are printed next to them.

The last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import spans
from workloads import TIMED, TRACED, WARMUP, WORKLOADS, Verdict

SETUP_REPEATS = 5
WARMUP_QUERIES = 2
MIN_QUERIES = 100  # leaves 10 samples beyond the 90th percentile
TRACE_QUERIES = 30  # per-query counts come from this many traced queries
OUT_DIR = Path(__file__).resolve().parent / "out"
# the probe's duration at reference speed: about what it takes on an otherwise
# idle 2-vCPU Intel Xeon virtual machine
PROBE_REF_S = 4.0e-3
_PROBE_TABLE = list(range(2000))
PROBE_WINDOW = 2  # probes on each side that gauge the speed during one query

# (name, unit); every workload reports all of them
END_TO_END = (
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("throughput_qps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# log_err_rms and fail_frac are printed next to the end-to-end metrics but not
# bounded, because both are 0 on some workloads; fail_frac travels as
# failed/attempted and log_err_rms as a per-layer metric

# span names timed per query, and per set-up
QUERY_LAYERS = (
    "decompose.decompose", "decompose.relevant_subgraph", "decompose.find_subsets",
    "decompose.subset_boundaries", "graphs.moralize", "graphs.triangulate",
    "junction.build_junction_tree", "junction.incorporate_evidence", "junction.log_tree_sum",
    "sampling.loopy_bp", "sampling.importance_estimate", "engine.marginal",
    "engine.evidence_only_factor", "classify.classify",
)
SETUP_LAYERS = (
    "randnet.gen_network", "randnet.gen_cpts", "randnet.pick_evidence",
    "netformat.serialize_network", "netformat.parse_network",
)
CALLS = (
    "decompose.decompose", "decompose.relevant_subgraph", "junction.build_junction_tree",
    "sampling.loopy_bp", "sampling.importance_estimate", "engine.marginal",
)
PER_LAYER = (
    *((f"{name}.calls", "count") for name in CALLS),
    *((f"{name}.self_ms", "ms") for name in QUERY_LAYERS + SETUP_LAYERS),
    ("decompose.subsets_per_query", "count"),
    ("decompose.relevant_nodes_per_query", "count"),
    ("junction.max_clique_states", "count"),
    ("sampling.samples_drawn", "count"),
    ("sampling.ess_ratio", "ratio"),
    ("engine.exact_subsets", "count"),
    ("engine.approx_subsets", "count"),
    ("trace.query_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("log_err_rms", "nats"),
)


def tail_percentile(values, pct: int, min_beyond: int = 10) -> float:
    """Nearest-rank percentile; refuses when fewer than ``min_beyond`` samples lie beyond it."""
    xs = sorted(values)
    rank = -(-pct * len(xs) // 100)
    if len(xs) - rank < min_beyond:
        raise ValueError(f"p{pct} of {len(xs)} samples has fewer than {min_beyond} beyond it")
    return xs[rank - 1]


def probe() -> float:
    """Seconds taken by a fixed piece of work: a gauge of the machine's current speed.

    The mix is like the package's own (tuple-keyed dicts, sets of strings,
    sorting, many small array operations), so a busy neighbour slows it about
    as much as it slows a query; it calls nothing in the package.  It lasts a
    few milliseconds: shorter probes read as noisy as the speed they gauge.
    """
    t0 = time.perf_counter()
    table = _PROBE_TABLE
    counts = {}
    for i in range(5000):
        key = (table[i * 7919 % len(table)], i % 13)
        counts[key] = counts.get(key, 0) + 1
    names = set()
    for i in range(3000):
        names.add(str(i * 31 % 20000))
    sorted(counts, key=lambda k: (k[1], k[0]))
    a = np.ones(16)
    for _ in range(60):
        a = (a * 0.5 + np.arange(16.0)).reshape(4, 4).sum(axis=0).repeat(4)
    return time.perf_counter() - t0


def at_reference_speed(seconds, probes) -> list:
    """Each time scaled by ``PROBE_REF_S`` over the median probe around it."""
    return [
        t * PROBE_REF_S / statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
        for i, t in enumerate(seconds)
    ]


def clear_caches() -> None:
    """Empty every functools cache in the package, so a set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name.startswith("bnmarg."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@dataclass
class Timed:
    """Wall seconds and the probe before each of a series of timed calls."""

    seconds: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def ms(self) -> list:
        return [s * 1e3 for s in at_reference_speed(self.seconds, self.probes)]


def set_up(cls, seed: int, recorder=None):
    """Repeated cold set-ups; returns the last workload and their timings."""
    timed = Timed()
    for r in range(SETUP_REPEATS):
        clear_caches()
        timed.probes.append(probe())
        if recorder is not None:
            recorder.label = ("setup", r)
        t0 = time.perf_counter()
        w = cls(seed)
        w.setup()
        w.inputs(TIMED, 0)
        timed.seconds.append(time.perf_counter() - t0)
    return w, timed


def run_phase(w, phase: int, seconds: float, min_queries: int, recorder=None) -> Timed:
    """Closed loop until ``seconds`` of query time and ``min_queries`` queries."""
    timed = Timed()
    q = 0
    while q < min_queries or sum(timed.seconds) < seconds:
        if recorder is not None:
            recorder.label = ("input", q)
        inp = w.inputs(phase, q)
        timed.probes.append(probe())
        if recorder is not None:
            recorder.label = ("query", q)
        t0 = time.perf_counter()
        try:
            out = w.query(inp)
        except Exception as exc:  # a failed query is counted, not fatal
            out = exc
            traceback.print_exc(file=sys.stderr)
        timed.seconds.append(time.perf_counter() - t0)
        timed.outputs.append(out)
        q += 1
    return timed


class ReferenceFailure:
    """Stands in for a reference whose computation raised."""

    def __init__(self, detail: str):
        self.detail = detail


_worker = None  # the workload rebuilt inside one reference worker process


def _init_worker(name: str, seed: int) -> None:
    global _worker
    clear_caches()  # a forked worker starts with the parent's caches
    _worker = WORKLOADS[name](seed)
    _worker.setup()


def _reference(key):
    try:
        return _worker.reference(_worker.inputs(*key))
    except Exception:  # reported as a failed query by the parent
        return ReferenceFailure(traceback.format_exc())


def references(name: str, seed: int, keys, workers: int):
    """Exact references for ``keys`` = [(phase, q)], computed in forked workers.

    Not spawned: the spawn start method leaves a resource-tracker process
    behind that outlives the run; forked workers are all joined here.
    """
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, math.ceil(len(keys) / (4 * workers)))
    with ctx.Pool(workers, initializer=_init_worker, initargs=(name, seed)) as pool:
        refs = pool.map(_reference, keys, chunksize=chunk)
        pool.close()
        pool.join()
    return refs


def judge(cls, out, ref) -> Verdict:
    """Verdict for one query: it failed if it raised, or its answer fails the check."""
    if isinstance(out, Exception):
        return Verdict(f"query raised {out!r}", (), ())
    if isinstance(ref, ReferenceFailure):
        return Verdict(f"reference raised: {ref.detail}", (), ())
    try:
        return cls.check(out, ref)
    except Exception as exc:  # an answer of unexpected shape
        return Verdict(f"answer could not be checked: {exc!r}", (), ())


def rms(errors) -> float:
    errors = list(errors)
    return math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else 0.0


def per_layer_metrics(recorder, traced: Timed, untraced: Timed) -> dict:
    n_traced = len(traced.seconds)
    calls, _, counts = spans.layer_totals(
        recorder, lambda label: label[0] == "query" and label[1] < TRACE_QUERIES
    )
    _, query_ms, _ = spans.layer_totals(recorder, lambda label: label[0] == "query")
    _, setup_ms, _ = spans.layer_totals(recorder, lambda label: label[0] == "setup")
    m = {f"{name}.calls": calls[name] / TRACE_QUERIES for name in CALLS}
    m.update({f"{name}.self_ms": query_ms[name] / n_traced for name in QUERY_LAYERS})
    m.update({f"{name}.self_ms": setup_ms[name] / SETUP_REPEATS for name in SETUP_LAYERS})
    m["decompose.subsets_per_query"] = counts["subsets"] / TRACE_QUERIES
    m["decompose.relevant_nodes_per_query"] = counts["relevant_nodes"] / TRACE_QUERIES
    m["junction.max_clique_states"] = counts["clique_states_max"]
    m["sampling.samples_drawn"] = counts["samples"] / TRACE_QUERIES
    m["sampling.ess_ratio"] = counts["ess"] / counts["samples"] if counts["samples"] else 0.0
    m["engine.exact_subsets"] = counts["exact_subsets"] / TRACE_QUERIES
    m["engine.approx_subsets"] = counts["approx_subsets"] / TRACE_QUERIES
    # self times above are wall clock, and so is their base
    m["trace.query_ms"] = statistics.fmean(traced.seconds) * 1e3
    m["trace.overhead_frac"] = statistics.median(traced.ms()) / statistics.median(untraced.ms()) - 1.0
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cls = WORKLOADS[name]
    recorder = spans.SpanRecorder()
    tracer = spans.Tracer(recorder)
    if trace:
        tracer.install()
    w, setups = set_up(cls, seed, recorder if trace else None)
    tracer.uninstall()

    for q in range(WARMUP_QUERIES):
        w.query(w.inputs(WARMUP, q))
    timed = run_phase(w, TIMED, seconds, MIN_QUERIES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = Timed()
    if trace:
        tracer.install()
        traced = run_phase(w, TRACED, seconds, TRACE_QUERIES, recorder)
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        recorder.dump(OUT_DIR / f"{name}-seed{seed}.spans.jsonl")

    keys = [(TIMED, q) for q in range(len(timed.outputs))] + [(TRACED, q) for q in range(len(traced.outputs))]
    workers = min(2, len(os.sched_getaffinity(0)))
    refs = references(name, seed, keys, workers)
    verdicts = [judge(cls, out, ref) for out, ref in zip(timed.outputs + traced.outputs, refs)]
    failures = [v.failure for v in verdicts if v.failure]
    for reason in failures[:5]:
        print(f"FAILED: {reason}", file=sys.stderr)
    # the first MIN_QUERIES timed queries are the same on every run with this seed
    first = verdicts[:MIN_QUERIES]
    log_err_rms = rms(e for v in first if not v.failure for e in v.log_errors)
    digest = hashlib.sha256(repr([v.log_values for v in first]).encode()).hexdigest()[:16]

    if trace:
        metrics = per_layer_metrics(recorder, traced, timed)
        metrics["log_err_rms"] = log_err_rms
        units = dict(PER_LAYER)
        if tracer.absent:
            print(f"absent from the package, reported as 0: {', '.join(tracer.absent)}")
    else:
        query_ms = timed.ms()
        metrics = {
            "query_ms_p50": statistics.median(query_ms),
            "query_ms_p90": tail_percentile(query_ms, 90),
            "throughput_qps": 1e3 * len(query_ms) / sum(query_ms),
            "setup_s": statistics.median(setups.ms()) / 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        wall_ms = [s * 1e3 for s in timed.seconds]
        for key, value, unit in (
            ("log_err_rms", log_err_rms, "nats"),
            ("fail_frac", len(failures) / len(verdicts), "ratio"),
            ("wall.query_ms_p50", statistics.median(wall_ms), "ms"),
            ("wall.query_ms_p90", tail_percentile(wall_ms, 90), "ms"),
            ("wall.setup_s", statistics.median(setups.seconds), "s"),
            ("probe_ms_p50", statistics.median(timed.probes) * 1e3, "ms"),
        ):
            print(f"{key:40s} {value:14.6g} {unit}")
        print(f"{'answers_sha256':40s} {digest:>14s} (log marginals of the first {len(first)} timed queries)")
    for key, value in metrics.items():
        print(f"{key:40s} {value:14.6g} {units[key]}")
    return {
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        # each workload in a fresh process of its own, one at a time
        run_py = str(Path(__file__).with_name("run.py"))
        codes = [
            subprocess.run([sys.executable, run_py, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    print(f"workload {args.workload} seed {args.seed} nproc {len(os.sched_getaffinity(0))} "
          f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0
