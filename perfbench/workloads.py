"""Seeded workloads of the benchmark, their input builders and answer checks.

Every input is a pure function of the workload seed and a query key
``(phase, q)``: the same seed gives the same networks, evidence and records,
so the reference phase can rebuild any query's input in another process.

The library is reached through its module objects, looked up at call time,
so that the traced run can wrap the module-level names the package calls
itself through (see ``spans.py``).  ``importlib`` is used because the package
attributes ``bnmarg.decompose`` and ``bnmarg.classify`` are functions, not
modules.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

engine = importlib.import_module("bnmarg.engine")
classify_mod = importlib.import_module("bnmarg.classify")
graphs = importlib.import_module("bnmarg.graphs")
netformat = importlib.import_module("bnmarg.netformat")
network = importlib.import_module("bnmarg.network")
randnet = importlib.import_module("bnmarg.randnet")

# query phases; each draws its inputs from its own seed stream
WARMUP, TIMED, TRACED = 0, 1, 2

# library default: subsets smaller than this are summed exactly
N_MAX = engine.SgsConfig().n_max
REL_TOL = 1e-9


def derive(seed: int, *key: int) -> int:
    """A 32-bit seed for one purpose, derived from the workload seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint32)[0])


def er_dag(n: int, mean_degree: float, seed: int):
    """Erdos-Renyi DAG with fixed edge probability ``mean_degree / (n - 1)``.

    Edges run from lower to higher index and are drawn one row at a time, so
    memory stays O(n + E); nodes are named as ``randnet.gen_dag`` names them.
    """
    rng = np.random.default_rng(seed)
    p = mean_degree / (n - 1)
    width = len(str(n - 1))
    names = tuple(f"X{i:0{width}d}" for i in range(n))
    edges = []
    for i in range(n - 1):
        for j in np.flatnonzero(rng.random(n - 1 - i) < p):
            edges.append((names[i], names[i + 1 + int(j)]))
    return graphs.Dag(names, edges)


def er_network(n: int, mean_degree: float, seed: int):
    """Binary network on ``er_dag`` with CPTs from the public ``gen_cpts``."""
    dag = er_dag(n, mean_degree, derive(seed, 0))
    return randnet.gen_cpts(dag, 2, derive(seed, 1))


def exact_reference(bn, evidence):
    """The ``sgs`` estimate with ``n_max`` above every subset size: all exact."""
    cfg = engine.SgsConfig(n_max=len(bn) + 1)
    return engine.marginal(bn, evidence, "sgs", cfg)


def _close(a: float, b: float) -> bool:
    return a == b or abs(math.expm1(a - b)) <= REL_TOL


def check_marginal(log_value: float, ref, exact_pairs) -> Optional[str]:
    """Why one timed marginal fails against its exact reference, or None.

    ``exact_pairs`` holds ``(label, timed log factor, reference log factor)``
    for every part the timed run solved exactly; each must agree to within
    ``REL_TOL`` relative in linear space.
    """
    if not math.isfinite(log_value):
        return "non-finite estimate"
    if not math.isfinite(ref.log_value):
        return "non-finite reference"
    if any(r.method != "exact" for r in ref.per_subset):
        return "reference fell back to sampling"
    for label, got, want in exact_pairs:
        if not _close(got, want):
            return f"{label}: {got!r} differs from exact {want!r}"
    return None


def sgs_exact_pairs(est, ref):
    """Exactly solved parts of an ``sgs`` estimate, paired with the reference."""
    pairs = [
        (f"subset {i}", a.log_factor, b.log_factor)
        for i, (a, b) in enumerate(zip(est.per_subset, ref.per_subset))
        if a.method == "exact"
    ]
    pairs.append(("leftover_log", est.leftover_log, ref.leftover_log))
    return pairs


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one query: a failure reason, its log marginals and their errors."""

    failure: Optional[str]
    log_values: tuple
    log_errors: tuple


class SgsSparse3000:
    """ER networks (n=3000, mean degree 1.6); ``sgs`` on fresh 30 % evidence.

    Why: about 1,400 relevant nodes and 210 subsets per query stress
    ``decompose``, ``junction`` and ``engine`` at n >= 3000, and each network
    serves every ``networks``-th query, so a per-network cache would pay off
    here.  Queries cycle through ``networks`` networks rather than one,
    because one network's query cost varies by about 15 % from seed to seed.
    """

    name = "sgs-sparse3000"
    n, mean_degree, evidence_fraction, networks = 3000, 1.6, 0.3, 4
    chunk = 32  # forward records drawn per batch

    def __init__(self, seed: int):
        self.seed = seed
        self._records = {}  # network index -> (batch key, records)

    def setup(self):
        self.bns = [er_network(self.n, self.mean_degree, derive(self.seed, 1, g)) for g in range(self.networks)]

    def inputs(self, phase: int, q: int):
        g, i = q % self.networks, q // self.networks
        bn = self.bns[g]
        # One forward record per query, as pick_evidence draws, but sampled in
        # batches: pick_evidence costs a whole forward pass per call.
        key = (phase, g, i // self.chunk)
        if self._records.get(g, (None,))[0] != key:
            self._records[g] = (key, network.sample_forward(bn, self.chunk, derive(self.seed, 2, *key)))
        record = self._records[g][1][i % self.chunk]
        rng = np.random.default_rng(derive(self.seed, 3, phase, q))
        count = math.floor(self.evidence_fraction * self.n)
        chosen = np.sort(rng.choice(self.n, size=count, replace=False))
        ids = bn.node_ids
        return bn, {ids[k]: record[ids[k]] for k in chosen}

    @staticmethod
    def query(inp):
        bn, evidence = inp
        return engine.marginal(bn, evidence, "sgs")

    @staticmethod
    def reference(inp):
        return exact_reference(*inp)

    @staticmethod
    def check(est, ref) -> Verdict:
        if [r.nodes for r in est.per_subset] != [r.nodes for r in ref.per_subset]:
            failure = "subsets differ from the reference's"
        else:
            failure = check_marginal(est.log_value, ref, sgs_exact_pairs(est, ref))
        return Verdict(failure, (est.log_value,), (est.log_value - ref.log_value,))


class LbpisFresh2000:
    """A fresh ER network per query (n=2000, mean degree 1.8, 20 % evidence), ``lbp-is``.

    Why: loopy BP does most of the work, with no decomposition and no
    junction tree, and no network is reused, so per-network caches get
    nothing here.
    """

    name = "lbpis-fresh2000"
    n, mean_degree, evidence_fraction = 2000, 1.8, 0.2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        pass

    def inputs(self, phase: int, q: int):
        bn = er_network(self.n, self.mean_degree, derive(self.seed, 4, phase, q))
        evidence = randnet.pick_evidence(bn, self.evidence_fraction, derive(self.seed, 5, phase, q))
        return bn, evidence

    @staticmethod
    def query(inp):
        bn, evidence = inp
        return engine.marginal(bn, evidence, "lbp-is")

    @staticmethod
    def reference(inp):
        return exact_reference(*inp)

    @staticmethod
    def check(est, ref) -> Verdict:
        failure = check_marginal(est.log_value, ref, ())
        return Verdict(failure, (est.log_value,), (est.log_value - ref.log_value,))


class ClassifyEr120:
    """``classify`` of forward records with 30 % missing values against three models.

    The models come from the calibrated generator (``gen_network``, er,
    n=120, mb_size=4) and go through ``serialize_network``/``parse_network``.
    Why: thousands of tiny ``sgs`` calls, where per-call overhead dominates,
    and the only workload whose set-up runs ``randnet`` calibration and
    ``netformat``.  Queries cycle through ``groups`` sets of three models,
    because the cost of one set varies by about 10 % from seed to seed.
    """

    name = "classify-er120"
    n, mb_size, models, groups, missing_fraction = 120, 4.0, 3, 6, 0.3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.model_sets = []
        for g in range(self.groups):
            models = []
            for k in range(self.models):
                spec = randnet.GenSpec("er", n=self.n, mb_size=self.mb_size, seed=derive(self.seed, 6, g, k))
                text = netformat.serialize_network(randnet.gen_network(spec))
                models.append((f"m{k}", netformat.parse_network(text)))
            self.model_sets.append(models)

    def inputs(self, phase: int, q: int):
        models = self.model_sets[q % self.groups]
        rng = np.random.default_rng(derive(self.seed, 8, phase, q))
        bn = models[int(rng.integers(self.models))][1]
        record = network.sample_forward(bn, 1, derive(self.seed, 7, phase, q))[0]
        ids = bn.node_ids
        hidden = {ids[i] for i in rng.choice(self.n, size=math.floor(self.missing_fraction * self.n), replace=False)}
        observed = {v: bn.state_names[v][s] for v, s in record.items() if v not in hidden}
        return classify_mod.PartialRecord(observed=observed, missing=frozenset(hidden)), models

    @staticmethod
    def query(inp):
        record, models = inp
        return classify_mod.classify(record, models)

    @staticmethod
    def reference(inp):
        record, models = inp
        refs = []
        for _, bn in models:
            evidence = {v: bn.state_names[v].index(s) for v, s in record.observed.items()}
            refs.append(exact_reference(bn, evidence))
        return tuple(refs)

    @staticmethod
    def check(result, refs) -> Verdict:
        # classify exposes only each model's total; it is exact whenever every
        # subset lies below n_max
        failure = None
        for score, ref in zip(result.scores, refs):
            exact = all(len(r.nodes) < N_MAX for r in ref.per_subset)
            pairs = [(f"model {score.name}", score.log_likelihood, ref.log_value)] if exact else []
            failure = failure or check_marginal(score.log_likelihood, ref, pairs)
        logs = tuple(s.log_likelihood for s in result.scores)
        return Verdict(failure, logs, tuple(v - r.log_value for v, r in zip(logs, refs)))


WORKLOADS = {w.name: w for w in (SgsSparse3000, LbpisFresh2000, ClassifyEr120)}
