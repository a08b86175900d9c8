"""Random categorical networks with controlled Markov blanket density.

Four structure families, all oriented from lower to higher node index so the
result is acyclic by construction:

* ``er``      edges drawn independently; the edge probability is calibrated
              by bisection against pilot draws so the expected mean Markov
              blanket size hits the requested target.
* ``ba``      preferential attachment; each node attaches to earlier nodes
              with probability proportional to degree + 1, and the number of
              attachments per node is calibrated against the same target.
* ``ws``      ring lattice with random rewiring, calibrated over the (even)
              lattice degree.
* ``islands`` near-equal independent ``er`` blocks joined by one bridge edge
              between consecutive blocks.

Calibration uses common random numbers (a fixed pilot ensemble per size), so
the fitted parameter is deterministic and monotone searches are valid.  CPT
rows are independent uniform draws, normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, DomainError, ParameterError
from .graphs import Dag, moral_adjacency
from .network import CategoricalBN, derive_seed, sample_forward_array

FAMILIES = ("er", "ba", "ws", "islands")
FAMILY_ALIASES = {
    "erdos_renyi": "er",
    "barabasi_albert": "ba",
    "watts_strogatz": "ws",
    "er_islands": "islands",
}

_PILOT_COUNT = 8
_PILOT_ENTROPY = 0x9D2C5680  # fixed so calibration is reproducible everywhere
# calibrations remembered per (size, target) and pilot seed sets per size; the
# pilot matrices, n x n each, are kept for one size only
_CALIBRATIONS_KEPT = 64


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random network draw."""

    family: str
    n: int
    mb_size: float  # target mean Markov blanket size
    categories: int = 2
    evidence_fraction: float = 0.0
    seed: int = 0
    islands: int = 3
    rewire_prob: float = 0.1

    def __post_init__(self):
        object.__setattr__(
            self, "family", FAMILY_ALIASES.get(self.family, self.family)
        )
        if self.family not in FAMILIES:
            raise ParameterError(
                f"unknown family {self.family!r}, expected one of {FAMILIES}"
            )
        if self.n < 2:
            raise ParameterError(f"need at least 2 nodes, got {self.n}")
        if not (self.mb_size > 0.0):
            raise ParameterError("target mean Markov blanket size must be positive")
        if self.mb_size > self.n - 1:
            raise ParameterError(
                f"mean Markov blanket size {self.mb_size} is impossible "
                f"with {self.n} nodes (max {self.n - 1})"
            )
        if self.categories < 2:
            raise ParameterError("categories must be at least 2")
        if not (0.0 <= self.evidence_fraction <= 1.0):
            raise ParameterError("evidence fraction must lie in [0, 1]")
        if self.seed < 0:
            raise ParameterError("seed must be non-negative")
        if self.family == "islands" and self.islands < 2:
            raise ParameterError("need at least 2 islands")
        if self.family == "islands" and self.n < 2 * self.islands:
            raise ParameterError(
                f"{self.islands} islands need at least {2 * self.islands} nodes"
            )
        if not (0.0 <= self.rewire_prob <= 1.0):
            raise ParameterError("rewire probability must lie in [0, 1]")


def adjacency_mean_mb(adj: np.ndarray) -> float:
    """Mean Markov blanket size of a boolean parent->child adjacency matrix."""
    a = np.asarray(adj, dtype=bool)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError("adjacency must be a square matrix")
    co = (a.astype(np.int64) @ a.T.astype(np.int64)) > 0
    mb = a | a.T | co
    np.fill_diagonal(mb, False)
    return float(mb.sum(axis=1).mean())


def mean_markov_blanket(dag: Dag) -> float:
    """Mean Markov blanket size: the mean degree of the moral graph."""
    adj = moral_adjacency(dag, dag.node_ids)
    return sum(map(len, adj)) / len(adj)


@lru_cache(maxsize=1)
def _pilot_uniforms(n: int):
    """Fixed upper-triangular uniform matrices shared by every calibration."""
    rng = np.random.default_rng(np.random.SeedSequence(_PILOT_ENTROPY + n))
    mats = []
    for _ in range(_PILOT_COUNT):
        u = rng.random((n, n))
        u.flags.writeable = False
        mats.append(u)
    return tuple(mats)


@lru_cache(maxsize=_CALIBRATIONS_KEPT)
def _pilot_seeds(n: int):
    ss = np.random.SeedSequence(_PILOT_ENTROPY ^ n)
    return tuple(int(s) for s in ss.generate_state(_PILOT_COUNT, np.uint64))


def _er_adjacency(n: int, p: float, u: np.ndarray) -> np.ndarray:
    return np.triu(u < p, k=1)


@lru_cache(maxsize=_CALIBRATIONS_KEPT)
def _calibrate_er(n: int, target: float) -> float:
    """Edge probability whose pilot mean Markov blanket size hits the target."""

    def pilot_mean(p: float) -> float:
        return float(
            np.mean([adjacency_mean_mb(_er_adjacency(n, p, u)) for u in _pilot_uniforms(n)])
        )

    if target > pilot_mean(1.0):
        raise ParameterError(
            f"mean Markov blanket size {target} is not reachable with {n} nodes"
        )
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if pilot_mean(mid) < target:
            lo = mid
        else:
            hi = mid
    # pilot_mean is a step function of p, so pick the closest of the bracket
    # ends; a target below the first step clamps to the edgeless graph
    best = min((0.0, lo, hi), key=lambda p: abs(pilot_mean(p) - target))
    return best


def _ba_adjacency(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    degree = np.zeros(n, dtype=np.int64)
    for v in range(1, n):
        k = min(m, v)
        weights = (degree[:v] + 1).astype(float)
        targets = rng.choice(v, size=k, replace=False, p=weights / weights.sum())
        for t in targets:
            adj[t, v] = True
            degree[t] += 1
            degree[v] += 1
    return adj


@lru_cache(maxsize=_CALIBRATIONS_KEPT)
def _calibrate_ba(n: int, target: float) -> int:
    def pilot_mean(m: int) -> float:
        vals = []
        for s in _pilot_seeds(n):
            rng = np.random.default_rng(s)
            vals.append(adjacency_mean_mb(_ba_adjacency(n, m, rng)))
        return float(np.mean(vals))

    best_m, best_gap = 1, math.inf
    for m in range(1, n):
        mean = pilot_mean(m)
        gap = abs(mean - target)
        if gap < best_gap:
            best_m, best_gap = m, gap
        if mean > target + 2.0:
            break
    return best_m


def _ws_adjacency(n: int, k: int, rewire: float, rng: np.random.Generator) -> np.ndarray:
    half = k // 2
    pairs = set()
    for i in range(n):
        for j in range(1, half + 1):
            u, v = i, (i + j) % n
            pairs.add((min(u, v), max(u, v)))
    edges = sorted(pairs)
    rewired = set(edges)
    for u, v in edges:
        if rng.random() >= rewire:
            continue
        rewired.discard((u, v))
        for _ in range(4 * n):
            w = int(rng.integers(n))
            cand = (min(u, w), max(u, w))
            if w != u and cand not in rewired:
                rewired.add(cand)
                break
        else:
            rewired.add((u, v))
    adj = np.zeros((n, n), dtype=bool)
    for u, v in rewired:
        adj[u, v] = True
    return adj


@lru_cache(maxsize=_CALIBRATIONS_KEPT)
def _calibrate_ws(n: int, target: float, rewire: float) -> int:
    def pilot_mean(k: int) -> float:
        vals = []
        for s in _pilot_seeds(n):
            rng = np.random.default_rng(s)
            vals.append(adjacency_mean_mb(_ws_adjacency(n, k, rewire, rng)))
        return float(np.mean(vals))

    best_k, best_gap = 2, math.inf
    k = 2
    while k <= n - 1:
        mean = pilot_mean(k)
        gap = abs(mean - target)
        if gap < best_gap:
            best_k, best_gap = k, gap
        if mean > target + 2.0:
            break
        k += 2
    return best_k


def _islands_adjacency(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    n, count = spec.n, spec.islands
    sizes = [n // count + (1 if i < n % count else 0) for i in range(count)]
    starts = np.cumsum([0] + sizes[:-1])
    adj = np.zeros((n, n), dtype=bool)
    for size, start in zip(sizes, starts):
        p = _calibrate_er(size, min(spec.mb_size, size - 1))
        block = np.triu(rng.random((size, size)) < p, k=1)
        adj[start : start + size, start : start + size] = block
    for i in range(count - 1):
        # one bridge from the last node of each island to the first of the next
        u = starts[i] + sizes[i] - 1
        v = starts[i + 1]
        adj[u, v] = True
    return adj


def _adjacency(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.family == "er":
        p = _calibrate_er(spec.n, spec.mb_size)
        return _er_adjacency(spec.n, p, rng.random((spec.n, spec.n)))
    if spec.family == "ba":
        m = _calibrate_ba(spec.n, spec.mb_size)
        return _ba_adjacency(spec.n, m, rng)
    if spec.family == "ws":
        k = _calibrate_ws(spec.n, spec.mb_size, spec.rewire_prob)
        return _ws_adjacency(spec.n, k, spec.rewire_prob, rng)
    return _islands_adjacency(spec, rng)


def gen_dag(spec: GenSpec) -> Dag:
    """Draw the structure for ``spec``; node names sort like node order."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    adj = _adjacency(spec, rng)
    width = len(str(spec.n - 1))
    names = tuple(f"X{i:0{width}d}" for i in range(spec.n))
    edges = [(names[u], names[v]) for u, v in zip(*np.nonzero(adj))]
    return Dag(names, edges)


def gen_cpts(dag: Dag, categories: int, seed: int) -> CategoricalBN:
    """Attach uniformly drawn, row-normalized CPTs with a shared cardinality."""
    if categories < 2:
        raise ParameterError("categories must be at least 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cards = {v: categories for v in dag.node_ids}
    cpts = {}
    for v in dag.node_ids:
        rows = 1
        for p in dag.parents(v):
            rows *= cards[p]
        table = rng.random((rows, categories))
        cpts[v] = table / table.sum(axis=1, keepdims=True)
    return CategoricalBN(dag, cards, cpts)


def gen_network(spec: GenSpec) -> CategoricalBN:
    """Draw a full network: gen_dag's structure plus CPTs from a derived seed."""
    dag = gen_dag(spec)
    return gen_cpts(dag, spec.categories, derive_seed(spec.seed, 1))


def pick_evidence(bn: CategoricalBN, fraction: float, seed: int):
    """Observe floor(fraction * n) nodes with states from one forward draw.

    States come from a forward sample of the whole network, so the returned
    assignment always has positive probability.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ArgumentError("evidence fraction must lie in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = len(bn.node_ids)
    count = int(math.floor(fraction * n))
    if count == 0:
        return {}
    chosen = rng.choice(n, size=count, replace=False)
    sample = sample_forward_array(bn, 1, rng)[0]
    return {bn.node_ids[i]: int(sample[i]) for i in sorted(chosen)}


def nrmse(truth: float, estimates) -> float:
    """Root mean squared error of the estimates, relative to the truth."""
    est = np.asarray(list(estimates), dtype=float)
    if est.size == 0:
        raise DomainError("need at least one estimate")
    if not (truth > 0.0):
        raise DomainError("reference value must be positive")
    return float(np.sqrt(np.mean((est - truth) ** 2)) / truth)
