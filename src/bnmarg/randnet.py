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
the fitted parameter is deterministic and monotone searches are valid.  Every
blanket count sorts the pairs read off edge arrays.  The ``er`` pilots stream
their uniforms in row chunks and keep the O(n * mb) entries below a cap,
sorted, so the edges at any p below it are a prefix; each count is memoized
by the pilots' edge counts.  No n x n matrix is held.  CPT rows are
independent uniform draws, normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import ArgumentError, DomainError, ParameterError
from .graphs import Dag
from .network import (
    CategoricalBN,
    default_state_names,
    derive_seed,
    require_integer,
    require_integers,
    require_number,
    sample_forward_array,
)

FAMILIES = ("er", "ba", "ws", "islands")
FAMILY_ALIASES = {
    "erdos_renyi": "er",
    "barabasi_albert": "ba",
    "watts_strogatz": "ws",
    "er_islands": "islands",
}

_PILOT_COUNT = 8
_PILOT_ENTROPY = 0x9D2C5680  # fixed so calibration is reproducible everywhere
# calibrations remembered per (size, target) and pilot seed sets per size
_CALIBRATIONS_KEPT = 64
# uniforms drawn at a time when an n x n uniform matrix is streamed in rows
_CHUNK_ENTRIES = 1 << 18
# most CPT entries gen_cpts draws for one network (512 MiB of floats), far
# above the benchmark's and the tests' networks; a denser spec (say
# GenSpec("er", 60, 40.0, categories=3), 167 GiB) is refused before drawing
MAX_CPT_ENTRIES = 1 << 26
# er pilots first keep their entries below this many times the edge
# probability max(target, 1) / (n - 1), at which the expected skeleton degree
# is the target
_CAP_FACTOR = 2.0


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
        if not isinstance(self.family, str):
            raise ParameterError(f"family must be a string, got {self.family!r}")
        object.__setattr__(
            self, "family", FAMILY_ALIASES.get(self.family, self.family)
        )
        if self.family not in FAMILIES:
            raise ParameterError(
                f"unknown family {self.family!r}, expected one of {FAMILIES}"
            )
        require_integers(self, ("n", "categories", "seed", "islands"), ParameterError)
        for name in ("mb_size", "evidence_fraction", "rewire_prob"):
            require_number(name, getattr(self, name), ParameterError)
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


def blanket_means(parents, children, n: int, graphs: int = 1) -> np.ndarray:
    """Mean Markov blanket size of each of ``graphs`` disjoint graphs of ``n`` nodes.

    The edges are ``parents[i] -> children[i]``, as positions; graph g owns
    positions ``g * n`` to ``g * n + n - 1``.  A blanket pair is a
    parent-child pair or two parents of one child, so a graph's blanket sizes
    sum to twice its distinct blanket pairs, and each mean is that count over
    n exactly.  Sorts one key per parent-child pair and per co-parent pair,
    O(E + the sum of squared in-degrees) keys for E edges.
    """
    pa = np.asarray(parents, dtype=np.int64)
    ch = np.asarray(children, dtype=np.int64)
    size = graphs * n
    order = np.lexsort((pa, ch))  # by child, then parent
    pa, ch = pa[order], ch[order]
    # each edge's parent pairs with the parents after it in its child's run
    later = np.searchsorted(ch, ch, side="right") - np.arange(len(ch)) - 1
    first = np.repeat(np.arange(len(ch)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    keys = np.concatenate(
        (np.minimum(pa, ch) * size + np.maximum(pa, ch), pa[first] * size + pa[second])
    )
    keys.sort()
    distinct = keys[np.diff(keys, prepend=-1) != 0]
    # a pair's smaller position, and so its key, lies in its own graph's band
    pairs = np.bincount(distinct // (n * size), minlength=graphs)
    return 2 * pairs / n


def mean_markov_blanket(dag: Dag) -> float:
    """Mean Markov blanket size: the mean degree of the moral graph."""
    parents = [dag.index(u) for u, _ in dag.edges]
    children = [dag.index(v) for _, v in dag.edges]
    return float(blanket_means(parents, children, len(dag.node_ids))[0])


def _ensemble_mean(edge_sets, n: int) -> float:
    """Mean over the pilots of their mean blanket sizes; ``edge_sets`` holds
    one (parents, children) pair of position arrays per pilot."""
    parents = np.concatenate([p + k * n for k, (p, _) in enumerate(edge_sets)])
    children = np.concatenate([c + k * n for k, (_, c) in enumerate(edge_sets)])
    return float(np.mean(blanket_means(parents, children, n, len(edge_sets))))


@lru_cache(maxsize=_CALIBRATIONS_KEPT)
def _pilot_seeds(n: int):
    ss = np.random.SeedSequence(_PILOT_ENTROPY ^ n)
    return tuple(int(s) for s in ss.generate_state(_PILOT_COUNT, np.uint64))


def _stream_er(rng: np.random.Generator, n: int, p: float):
    """Rows, columns and values, row-major, of the entries above the diagonal
    of ``rng.random((n, n))`` that lie below ``p``.

    The matrix is drawn in row chunks, which take the same values from the
    stream as one draw, so only the kept entries outlive a chunk.
    """
    step = max(1, _CHUNK_ENTRIES // n)
    rows, cols, vals = [], [], []
    for r0 in range(0, n, step):
        u = rng.random((min(step, n - r0), n))
        r, c = np.nonzero(u[:, r0 + 1 :] < p)
        c += r0 + 1
        keep = c > r + r0
        r, c = r[keep], c[keep]
        rows.append(r + r0)
        cols.append(c)
        vals.append(u[r, c])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _er_pilots(n: int, cap: float) -> list:
    """Each pilot's upper-triangle uniforms below ``cap``, sorted by value, with
    their rows and columns; the pilot's edges at p < cap are a prefix."""
    rng = np.random.default_rng(np.random.SeedSequence(_PILOT_ENTROPY + n))
    pilots = []
    for _ in range(_PILOT_COUNT):
        rows, cols, vals = _stream_er(rng, n, cap)
        order = np.argsort(vals, kind="stable")
        pilots.append((vals[order], rows[order], cols[order]))
    return pilots


@lru_cache(maxsize=_CALIBRATIONS_KEPT)
def _calibrate_er(n: int, target: float) -> float:
    """Edge probability whose pilot mean Markov blanket size hits the target.

    A blanket is never smaller than its node's skeleton degree, so once the
    pilots' mean skeleton degree reaches the target at a cap, every midpoint
    at or above the cap lowers ``hi`` without a count, and the pilots keep
    only their entries below it.  The pilot mean is a step function of p, so
    each count is made once per tuple of pilot edge counts.
    """
    if target > n - 1:  # the pilot mean at p = 1: every pair is an edge
        raise ParameterError(
            f"mean Markov blanket size {target} is not reachable with {n} nodes"
        )
    cap = min(1.0, _CAP_FACTOR * max(target, 1.0) / (n - 1))
    pilots = _er_pilots(n, cap)
    # the pilot mean's own float formula with edges for blanket pairs, so it
    # bounds the pilot mean at every p >= cap from below, rounding included
    while cap < 1.0 and float(np.mean([2 * len(v) / n for v, _, _ in pilots])) < target:
        cap = min(1.0, 2.0 * cap)
        pilots = _er_pilots(n, cap)
    seen = {}

    def pilot_mean(p: float) -> float:
        nonlocal cap, pilots
        if p >= 1.0:
            return float(n - 1)
        if p >= cap:  # only a final bracket end can lie above the cap
            cap = min(1.0, 2.0 * p)
            pilots = _er_pilots(n, cap)
        counts = tuple(int(np.searchsorted(v, p)) for v, _, _ in pilots)
        if counts not in seen:
            seen[counts] = _ensemble_mean([(r[:k], c[:k]) for k, (_, r, c) in zip(counts, pilots)], n)
        return seen[counts]

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid < cap and pilot_mean(mid) < target:
            lo = mid
        else:
            hi = mid
    # pilot_mean is a step function of p, so pick the closest of the bracket
    # ends; a target below the first step clamps to the edgeless graph
    best = min((0.0, lo, hi), key=lambda p: abs(pilot_mean(p) - target))
    return best


def _ba_edges(n: int, m: int, rng: np.random.Generator):
    parents, children = [], []
    degree = np.zeros(n, dtype=np.int64)
    for v in range(1, n):
        k = min(m, v)
        weights = (degree[:v] + 1).astype(float)
        targets = rng.choice(v, size=k, replace=False, p=weights / weights.sum())
        degree[targets] += 1
        degree[v] += k
        parents.extend(targets.tolist())
        children.extend([v] * k)
    return np.array(parents, dtype=np.int64), np.array(children, dtype=np.int64)


@lru_cache(maxsize=_CALIBRATIONS_KEPT)
def _calibrate_ba(n: int, target: float) -> int:
    def pilot_mean(m: int) -> float:
        return _ensemble_mean([_ba_edges(n, m, np.random.default_rng(s)) for s in _pilot_seeds(n)], n)

    best_m, best_gap = 1, math.inf
    for m in range(1, n):
        mean = pilot_mean(m)
        gap = abs(mean - target)
        if gap < best_gap:
            best_m, best_gap = m, gap
        if mean > target + 2.0:
            break
    return best_m


def _ws_edges(n: int, k: int, rewire: float, rng: np.random.Generator):
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
    parents, children = np.array(sorted(rewired), dtype=np.int64).reshape(-1, 2).T
    return parents, children


@lru_cache(maxsize=_CALIBRATIONS_KEPT)
def _calibrate_ws(n: int, target: float, rewire: float) -> int:
    def pilot_mean(k: int) -> float:
        return _ensemble_mean(
            [_ws_edges(n, k, rewire, np.random.default_rng(s)) for s in _pilot_seeds(n)], n
        )

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


def _islands_edges(spec: GenSpec, rng: np.random.Generator):
    n, count = spec.n, spec.islands
    sizes = [n // count + (1 if i < n % count else 0) for i in range(count)]
    starts = np.cumsum([0] + sizes[:-1])
    parents, children = [], []
    for size, start in zip(sizes, starts):
        p = _calibrate_er(size, min(spec.mb_size, size - 1))
        rows, cols, _ = _stream_er(rng, size, p)
        parents.append(rows + start)
        children.append(cols + start)
    # one bridge from the last node of each island to the first of the next
    parents.append(starts[1:] - 1)
    children.append(starts[1:])
    return np.concatenate(parents), np.concatenate(children)


def _edges(spec: GenSpec, rng: np.random.Generator):
    """Parent and child positions of the structure's edges, in any order."""
    if spec.family == "er":
        rows, cols, _ = _stream_er(rng, spec.n, _calibrate_er(spec.n, spec.mb_size))
        return rows, cols
    if spec.family == "ba":
        m = _calibrate_ba(spec.n, spec.mb_size)
        return _ba_edges(spec.n, m, rng)
    if spec.family == "ws":
        k = _calibrate_ws(spec.n, spec.mb_size, spec.rewire_prob)
        return _ws_edges(spec.n, k, spec.rewire_prob, rng)
    return _islands_edges(spec, rng)


def gen_dag(spec: GenSpec) -> Dag:
    """Draw the structure for ``spec``; node names sort like node order."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    parents, children = _edges(spec, rng)
    order = np.lexsort((children, parents))  # row-major, as the edges are listed
    width = len(str(spec.n - 1))
    names = tuple(f"X{i:0{width}d}" for i in range(spec.n))
    edges = [(names[u], names[v]) for u, v in zip(parents[order].tolist(), children[order].tolist())]
    return Dag(names, edges)


def gen_cpts(dag: Dag, categories: int, seed: int) -> CategoricalBN:
    """Attach uniformly drawn, row-normalized CPTs with a shared cardinality.

    Every table has ``categories`` columns, so one uniform block holds them
    all, table after table in canonical node order: the stream of one
    ``rng.random((rows, categories))`` draw per table.  One division
    normalizes every row; the block is then made read-only and each node's
    table is a view of its rows, and every node shares one state-name tuple.
    More than ``MAX_CPT_ENTRIES`` entries in all raise ParameterError before
    anything is drawn.
    """
    require_integer("categories", categories, ParameterError)
    if categories < 2:
        raise ParameterError("categories must be at least 2")
    categories = int(categories)
    ids = dag.node_ids
    cuts = list(accumulate((categories ** len(dag.parents(v)) for v in ids), initial=0))
    if cuts[-1] * categories > MAX_CPT_ENTRIES:
        raise ParameterError(
            f"CPTs of {cuts[-1] * categories} entries exceed the generator's cap of {MAX_CPT_ENTRIES}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    block = rng.random((cuts[-1], categories))
    block /= block.sum(axis=1, keepdims=True)
    block.setflags(write=False)
    tables = {v: block[a:b] for v, a, b in zip(ids, cuts, cuts[1:])}
    cards = dict.fromkeys(ids, categories)
    return CategoricalBN._trusted(dag, cards, tables, dict.fromkeys(ids, default_state_names(categories)))


def gen_network(spec: GenSpec) -> CategoricalBN:
    """Draw a full network: gen_dag's structure plus CPTs from a derived seed."""
    dag = gen_dag(spec)
    return gen_cpts(dag, spec.categories, derive_seed(spec.seed, 1))


def pick_evidence(bn: CategoricalBN, fraction: float, seed: int):
    """Observe floor(fraction * n) nodes with states from one forward draw.

    States come from a forward sample of the whole network, so the returned
    assignment always has positive probability.
    """
    require_number("evidence fraction", fraction, ArgumentError)
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
