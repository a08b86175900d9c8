"""Accuracy-versus-time benchmark over random networks.

For every generated instance the harness computes an exact reference value
(full junction tree, falling back to direct summation), then runs each
requested method at each sample budget for a fixed number of repetitions.
One result row aggregates the repetitions of one (instance, method, budget)
cell: the error column is the root mean squared deviation of the repeated
estimates from the reference, normalized by the reference, and the time
column is the mean wall-clock milliseconds per repetition.

Budgets are sample counts, not wall-time limits; measured time is recorded
next to them so accuracy-versus-time curves can still be plotted.  Every
repetition owns a seed derived from (instance seed, method, budget,
repetition index), so results do not depend on execution order.  Instances
whose reference value cannot be computed, and (instance, method) cells that
exceed capacity, are reported in the rejected list instead of producing rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .engine import METHODS, SgsConfig, canonical_method, marginal
from .errors import CapacityError, DataFormatError
from .junction import DEFAULT_TABLE_CAP
from .network import derive_seed, is_integer, log_enumerate_marginal
from .randnet import GenSpec, gen_network, nrmse, pick_evidence
from .sampling import SamplerConfig

CSV_HEADER = ("family", "n", "C", "f", "S", "method", "budget", "wall_time_ms", "nrmse", "rep")

DEFAULT_METHODS = ("sgs", "lbp-is", "gs")
DEFAULT_BUDGETS = (1000,)
DEFAULT_REPETITIONS = 10


@dataclass(frozen=True)
class BenchRow:
    """One (instance, method, budget) cell, aggregated over repetitions."""

    family: str
    n: int
    categories: int
    evidence_fraction: float
    mb_size: float
    method: str
    budget: int
    wall_time_ms: float
    nrmse: float
    repetitions: int


@dataclass(frozen=True)
class BenchRejection:
    spec: GenSpec
    method: Optional[str]  # None when the reference itself was infeasible
    reason: str


@dataclass(frozen=True)
class BenchResult:
    rows: tuple
    rejected: tuple


def _reference_log(bn, evidence, table_cap: int) -> float:
    try:
        return marginal(bn, evidence, "jt", SgsConfig(table_cap=table_cap)).log_value
    except CapacityError:
        return log_enumerate_marginal(bn, evidence)


def run_benchmark(
    specs: Sequence[GenSpec],
    methods: Sequence[str] = DEFAULT_METHODS,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    repetitions: int = DEFAULT_REPETITIONS,
    n_max: int = SgsConfig().n_max,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> BenchResult:
    if not is_integer(repetitions) or repetitions < 1:
        raise DataFormatError(f"repetitions must be an integer of at least 1, got {repetitions!r}")
    if not budgets or not all(is_integer(b) and b >= 1 for b in budgets):
        raise DataFormatError(f"budgets must be positive integer sample counts, got {budgets!r}")
    names = [canonical_method(m) for m in methods]
    if not names:
        raise DataFormatError("no methods requested")

    rows = []
    rejected = []
    for spec in specs:
        bn = gen_network(spec)
        evidence = pick_evidence(bn, spec.evidence_fraction, derive_seed(spec.seed, 2))
        try:
            truth = math.exp(_reference_log(bn, evidence, table_cap))
        except CapacityError as exc:
            rejected.append(BenchRejection(spec, None, f"reference infeasible: {exc}"))
            continue
        if truth <= 0.0:
            rejected.append(
                BenchRejection(spec, None, "reference value underflowed to zero")
            )
            continue

        for method in names:
            mi = METHODS.index(method)
            for budget in budgets:
                budget = int(budget)
                estimates = []
                elapsed_ms = []
                try:
                    for rep in range(repetitions):
                        cfg = SgsConfig(
                            n_max=n_max,
                            sampler=SamplerConfig(
                                sample_count=budget,
                                seed=derive_seed(spec.seed, 3, mi, budget, rep),
                            ),
                            table_cap=table_cap,
                        )
                        t0 = time.perf_counter()
                        est = marginal(bn, evidence, method=method, cfg=cfg)
                        elapsed_ms.append((time.perf_counter() - t0) * 1000.0)
                        estimates.append(est.value)
                except CapacityError as exc:
                    rejected.append(BenchRejection(spec, method, str(exc)))
                    continue
                rows.append(
                    BenchRow(
                        family=spec.family,
                        n=spec.n,
                        categories=spec.categories,
                        evidence_fraction=spec.evidence_fraction,
                        mb_size=spec.mb_size,
                        method=method,
                        budget=budget,
                        wall_time_ms=float(np.mean(elapsed_ms)),
                        nrmse=nrmse(truth, estimates),
                        repetitions=repetitions,
                    )
                )
    return BenchResult(rows=tuple(rows), rejected=tuple(rejected))


def _row_fields(r: BenchRow) -> list:
    """The CSV_HEADER fields of one row as text; floats keep full precision."""
    return [
        r.family,
        str(r.n),
        str(r.categories),
        repr(float(r.evidence_fraction)),
        repr(float(r.mb_size)),
        r.method,
        str(r.budget),
        repr(float(r.wall_time_ms)),
        repr(float(r.nrmse)),
        str(r.repetitions),
    ]


def rows_to_csv(rows: Iterable[BenchRow]) -> str:
    """Serialize rows; floats keep full precision so parsing them back is exact."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows(_row_fields(r) for r in rows)
    return out.getvalue()


def rows_to_gnuplot(rows: Iterable[BenchRow]) -> str:
    """Tab-separated variant with a commented header line."""
    lines = ["# " + "\t".join(CSV_HEADER)]
    lines.extend("\t".join(_row_fields(r)) for r in rows)
    return "\n".join(lines) + "\n"


def load_bench_file(text: str):
    """Parse a benchmark description (JSON).

    Shape: {"specs": [{...generator fields...}, ...],
            "methods": [...], "budgets": [...], "repetitions": int}
    with methods/budgets/repetitions optional.  Generator fields are the
    GenSpec fields; those without a default (family/n/mb_size) are required.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"benchmark file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "specs" not in doc:
        raise DataFormatError('benchmark file needs a top-level "specs" list')
    unknown_top = set(doc) - {"specs", "methods", "budgets", "repetitions"}
    if unknown_top:
        raise DataFormatError(f"benchmark file has unknown fields {sorted(unknown_top)}")
    raw_specs = doc["specs"]
    if not isinstance(raw_specs, list) or not raw_specs:
        raise DataFormatError('"specs" must be a non-empty list')
    allowed = {f.name for f in fields(GenSpec)}
    required = {f.name for f in fields(GenSpec) if f.default is MISSING}
    specs = []
    for i, entry in enumerate(raw_specs):
        if not isinstance(entry, dict):
            raise DataFormatError(f"specs[{i}] must be an object")
        unknown = set(entry) - allowed
        if unknown:
            raise DataFormatError(f"specs[{i}] has unknown fields {sorted(unknown)}")
        missing = required - set(entry)
        if missing:
            raise DataFormatError(f"specs[{i}] is missing fields {sorted(missing)}")
        specs.append(GenSpec(**entry))
    methods = doc.get("methods", list(DEFAULT_METHODS))
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise DataFormatError(f'"methods" must be a list of method names, got {methods!r}')
    budgets = doc.get("budgets", list(DEFAULT_BUDGETS))
    if not isinstance(budgets, list) or not all(map(is_integer, budgets)):
        raise DataFormatError(f'"budgets" must be a list of integers, got {budgets!r}')
    repetitions = doc.get("repetitions", DEFAULT_REPETITIONS)
    if not is_integer(repetitions):
        raise DataFormatError(f'"repetitions" must be an integer, got {repetitions!r}')
    return specs, tuple(methods), tuple(budgets), repetitions
