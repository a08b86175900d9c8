"""Approximate evidence marginals: belief-propagation and Gibbs-frequency
proposals, and the importance estimate that both feed.

The estimators share one identity: for any strictly positive factorized
proposal q over the free variables,

    sum_x prod_f CPT_f(x, e)  =  E_q[ prod_f CPT_f(X, e) / q(X) ],

so an average of importance weights is an unbiased estimate of the evidence
sum no matter how q was obtained.  Proposal quality only moves the variance.
Weights are accumulated in log space throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import ArgumentError, InternalConsistencyError
from .network import CategoricalBN, _log_cpt, sample_forward_array


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs shared by the sampling estimators.

    sample_count is the importance-sample budget M; for the Gibbs baseline it
    is also the number of recorded sweeps.  belief_floor keeps proposals
    strictly positive so importance weights stay finite.
    """

    sample_count: int
    lbp_iterations: int = 10
    lbp_tolerance: float = 1e-6
    seed: int = 0
    belief_floor: float = 1e-6

    def __post_init__(self):
        if self.sample_count < 1:
            raise ArgumentError("sample_count must be >= 1")
        if self.lbp_iterations < 1:
            raise ArgumentError("lbp_iterations must be >= 1")
        if not self.lbp_tolerance > 0:
            raise ArgumentError("lbp_tolerance must be positive")
        if not 0 < self.belief_floor < 0.1:
            raise ArgumentError("belief_floor must lie in (0, 0.1)")
        if int(self.seed) < 0:
            raise ArgumentError("seed must be a non-negative integer")


@dataclass(frozen=True)
class ImportanceDistribution:
    """A fully factorized distribution over a set of nodes.

    probs is a float array of shape ``(len(nodes), width)``.  Row i holds
    the distribution of ``nodes[i]``: its leading entries, one per state,
    are positive and sum to one, and the entries past its cardinality are
    zero.
    """

    nodes: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2 or p.shape[0] != len(self.nodes):
            raise ArgumentError(
                f"probs must have shape ({len(self.nodes)}, width), got {p.shape}"
            )
        # a node's states are its leading positive entries; the rest is padding
        states = np.logical_and.accumulate(p > 0.0, axis=1)
        padding = np.any(np.where(states, 0.0, p) != 0.0, axis=1)
        few = states.sum(axis=1) < 2
        off = np.abs(p.sum(axis=1) - 1.0) > 1e-6
        bad = padding | few | off
        if bad.any():
            i = int(np.argmax(bad))
            why = (
                "has a non-positive state or non-zero padding" if padding[i]
                else "has fewer than two positive states" if few[i]
                else "does not sum to one"
            )
            raise ArgumentError(f"proposal for {self.nodes[i]!r} {why}")
        object.__setattr__(self, "probs", p)

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m iid draws per node (inverse CDF): a ``(len(nodes), m)`` int
        matrix whose row i holds the states of ``nodes[i]``.

        Row i of one ``(len(nodes), m)`` uniform block drives node i, the same
        stream as one ``rng.random(m)`` call per node in order.
        """
        u = rng.random((len(self.nodes), m))
        cum = np.cumsum(self.probs, axis=1)
        # cum never decreases, so counting a node's first card-1 entries below
        # u is the state index, capped at the last state; the rest never count
        card = np.count_nonzero(self.probs, axis=1)
        cum[np.arange(cum.shape[1]) >= card[:, None] - 1] = np.inf
        draws = np.zeros(u.shape, dtype=int)
        for j in range(cum.shape[1] - 1):
            draws += cum[:, j, None] < u
        return draws

    def log_prob(self, draws: np.ndarray) -> np.ndarray:
        """Log density of each joint draw (a column of ``draws``, laid out as
        :meth:`sample` returns it), summed over nodes in node order."""
        with np.errstate(divide="ignore"):
            log_p = np.log(self.probs)
        total = 0.0
        for t in np.take_along_axis(log_p, draws, axis=1):
            total = total + t
        return np.asarray(total, dtype=float)


@dataclass(frozen=True)
class ImportanceResult:
    """One importance-sampling run.

    weight_variance is the unbiased sample variance of w / mean(w): scale
    free, and estimate * sqrt(weight_variance / sample_count) reconstructs
    the standard error of the estimate.
    """

    estimate: float
    log_estimate: float
    weight_variance: float
    sample_count: int


def _reduced_factor(bn: CategoricalBN, v, evidence: Mapping):
    """CPT of v with observed family members fixed; returns (free_vars, table).

    The table's axes follow the canonical order of the free family members.
    """
    family, table = bn.family_table(v)
    table = table[tuple(int(evidence[u]) if u in evidence else slice(None) for u in family)]
    return tuple(u for u in family if u not in evidence), table


def _normalized(rows: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """Each row divided by its sum; rows summing to zero become ``uniform``."""
    s = rows.sum(axis=1, keepdims=True)
    return np.divide(rows, s, out=uniform.copy(), where=s > 0)


def loopy_bp(
    bn: CategoricalBN,
    evidence: Mapping,
    cfg: SamplerConfig,
    nodes: Optional[Iterable] = None,
    factor_nodes: Optional[Iterable] = None,
) -> ImportanceDistribution:
    """Factor-graph sum-product beliefs as a factorized proposal.

    One factor per node in ``factor_nodes`` (its evidence-clamped CPT), one
    variable per free node of the scope.  All messages start at one; each
    round recomputes every factor-to-variable message from the previous
    round, then every variable-to-factor message from those (the flooding
    schedule), so the result is independent of node order.  Runs up to
    ``cfg.lbp_iterations`` rounds or until the largest belief change drops
    below ``cfg.lbp_tolerance``.  Beliefs are floored at
    ``cfg.belief_floor`` and renormalized, so every node's own states are
    strictly positive; the floored belief matrix, zero past each node's
    cardinality, is the proposal.  On tree-shaped factor graphs the
    converged beliefs are the exact conditionals.

    Messages live in one array per direction with a row per (factor,
    variable) edge, zero-padded to the largest cardinality.  Factor tables
    are stacked per distinct shape, so a round costs a few array operations
    per shape and per variable degree rather than one per message.
    """
    dag = bn.dag
    scope = set(dag.node_ids) if nodes is None else set(nodes)
    dag.check_nodes(scope)
    factors_of = set(scope) if factor_nodes is None else set(factor_nodes)
    if not factors_of <= scope:
        raise ArgumentError("factor_nodes must lie inside the scope")
    free = [v for v in dag.node_ids if v in scope and v not in evidence]
    if not free:
        raise ArgumentError("no free nodes to form a proposal over")

    var_of = {v: i for i, v in enumerate(free)}
    edge_var = []  # variable of each edge; a factor's edges are contiguous
    shapes = {}  # table shape -> ([table], [edge ids by position])
    for v in dag.sort(factors_of):
        if not set(dag.parents(v)) <= scope:
            raise ArgumentError(f"family of factor node {v!r} reaches outside the scope")
        fvars, table = _reduced_factor(bn, v, evidence)
        if fvars:
            tables, edges = shapes.setdefault(table.shape, ([], []))
            tables.append(table)
            edges.append(range(len(edge_var), len(edge_var) + len(fvars)))
            edge_var.extend(var_of[u] for u in fvars)
    groups = [(np.stack(t), np.array(e, dtype=np.intp)) for t, e in shapes.values()]

    card = np.array([bn.cardinalities[v] for v in free])
    width = int(card.max())
    var_live = (np.arange(width) < card[:, None]).astype(float)
    var_uniform = var_live / card[:, None]
    edge_var = np.array(edge_var, dtype=np.intp)
    edge_live = var_live[edge_var]
    edge_uniform = var_uniform[edge_var]

    # each variable's edges in factor order, grouped by the variable's degree
    degree = np.bincount(edge_var, minlength=len(free))
    by_var = np.argsort(edge_var, kind="stable")
    first = np.cumsum(degree) - degree
    incident = []  # (variables of degree d, their (count, d) edge ids)
    for d in np.unique(degree[degree > 0]).tolist():
        vs = np.flatnonzero(degree == d)
        incident.append((vs, by_var[first[vs, None] + np.arange(d)]))

    vf = edge_live  # variable-to-factor messages start at one
    beliefs = var_uniform
    for _ in range(cfg.lbp_iterations):
        fv = np.zeros_like(edge_live)
        for tables, edges in groups:
            ndim = edges.shape[1]
            incoming = []
            for k in range(ndim):
                shape = [len(edges)] + [1] * ndim
                shape[1 + k] = tables.shape[1 + k]
                incoming.append(vf[edges[:, k], : shape[1 + k]].reshape(shape))
            for k in range(ndim):
                t = tables
                for k2 in range(ndim):
                    if k2 != k:
                        t = t * incoming[k2]
                axes = tuple(1 + k2 for k2 in range(ndim) if k2 != k)
                fv[edges[:, k], : tables.shape[1 + k]] = t.sum(axis=axes) if axes else t
        fv = _normalized(fv, edge_uniform)

        vf = np.zeros_like(edge_live)
        raw = var_live.copy()  # a variable touching no factor keeps a flat belief
        for vs, edges in incident:
            msgs = fv[edges]
            ones = var_live[vs, None]
            fwd = np.cumprod(msgs, axis=1)
            # message to factor i: the product of the others, multiplied left
            # to right as a per-message loop would, so beliefs match it bit
            # for bit; like that loop, the work is quadratic in the degree
            excl = np.concatenate([ones, fwd[:, :-1]], axis=1)
            for j in range(1, msgs.shape[1]):
                excl[:, :j] *= msgs[:, j, None]
            vf[edges] = excl
            raw[vs] = fwd[:, -1]
        vf = _normalized(vf, edge_uniform)
        nxt = _normalized(raw, var_uniform)
        delta = float(np.max(np.abs(nxt - beliefs)))
        beliefs = nxt
        if delta < cfg.lbp_tolerance:
            break

    floored = np.maximum(beliefs, cfg.belief_floor) * var_live
    floored = floored / floored.sum(axis=1, keepdims=True)
    return ImportanceDistribution(nodes=tuple(free), probs=floored)


def _is_summary(logw: np.ndarray) -> tuple[float, float]:
    """(log mean weight, unbiased relative variance of the weights)."""
    m = float(logw.max())
    n = logw.size
    if not math.isfinite(m):
        return -math.inf, 0.0
    w = np.exp(logw - m)
    m1 = float(w.mean())
    if n == 1 or m1 <= 0.0:
        return m + math.log(m1) if m1 > 0 else -math.inf, 0.0
    m2 = float((w * w).mean())
    rel = max((m2 / (m1 * m1) - 1.0) * n / (n - 1), 0.0)
    return m + math.log(m1), rel


def _log_weight_terms(
    bn: CategoricalBN, factor_nodes: Iterable, samples: Mapping, evidence: Mapping, m: int
) -> np.ndarray:
    """Sum of log CPT lookups for the given factor nodes, vectorized over samples."""
    states = {**samples, **evidence}
    logw = np.zeros(m)
    for v in bn.dag.sort(set(factor_nodes)):
        try:
            row = bn.row_index(v, states)
        except KeyError as exc:
            raise InternalConsistencyError(
                f"factor {v!r} depends on {exc.args[0]!r}, which is neither sampled nor observed"
            ) from None
        logw = logw + _log_cpt(bn.cpts[v])[row, states[v]]
    return logw


def importance_estimate(
    bn: CategoricalBN,
    q: ImportanceDistribution,
    factor_nodes: Iterable,
    evidence: Mapping,
    rng: np.random.Generator,
    m: int,
) -> ImportanceResult:
    """Unbiased importance estimate of sum_x prod_{v in factor_nodes} CPT_v(x, e).

    Draws m joint configurations of every node of q from ``rng`` and averages
    w = prod_v CPT_v(x, e) / q(x).  Every free factor node must be one of
    q's nodes.
    """
    factors = set(factor_nodes)
    if not {v for v in factors if v not in evidence} <= set(q.nodes):
        raise ArgumentError("proposal does not cover the free factor nodes")
    draws = q.sample(rng, m)
    logw = _log_weight_terms(bn, factors, dict(zip(q.nodes, draws)), evidence, m)
    log_est, rel = _is_summary(logw - q.log_prob(draws))
    return ImportanceResult(
        estimate=math.exp(log_est),
        log_estimate=log_est,
        weight_variance=rel,
        sample_count=m,
    )


def _gibbs_plan(bn: CategoricalBN, free: list):
    """Flattened index structures for the single-site update loop."""
    cols = {v: i for i, v in enumerate(bn.node_ids)}
    plan = []
    for v in free:
        own = bn.cpts[v].ravel().tolist()
        card = bn.cardinalities[v]
        pcols = [cols[p] for p in bn.dag.parents(v)]
        pstrides = list(bn.parent_strides(v))
        kids = []
        for c in bn.dag.children(v):
            flat = bn.cpts[c].ravel().tolist()
            ccard = bn.cardinalities[c]
            ks = []
            vstride = 0
            for p, stride in zip(bn.dag.parents(c), bn.parent_strides(c)):
                if p == v:
                    vstride = stride
                else:
                    ks.append((cols[p], stride))
            kids.append((flat, ccard, cols[c], ks, vstride))
        plan.append((cols[v], own, card, pcols, pstrides, kids))
    return cols, plan


def gibbs_proposal(
    bn: CategoricalBN,
    evidence: Mapping,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    burn_in: int = 100,
) -> ImportanceDistribution:
    """Factorized proposal from the state frequencies of a Gibbs chain.

    Starts from one forward draw with the evidence clamped, runs
    systematic-scan single-site Gibbs over every non-evidence node of ``bn``
    (Markov-blanket conditionals), discards ``burn_in`` sweeps, records
    per-node state frequencies over cfg.sample_count further sweeps, and
    floors and normalizes each node's own states.  Every draw comes from
    ``rng``, which the ``gs`` baseline goes on to use for its importance
    samples.
    """
    if burn_in < 0:
        raise ArgumentError("burn_in must be non-negative")
    free = [v for v in bn.node_ids if v not in evidence]
    state = list(sample_forward_array(bn, 1, rng)[0])
    cols, plan = _gibbs_plan(bn, free)
    for v, s in evidence.items():
        state[cols[v]] = int(s)

    m = cfg.sample_count
    cards = np.array([bn.cardinalities[v] for v in free], dtype=int)
    live = np.arange(cards.max(initial=0)) < cards[:, None]
    rows, free_cols = np.arange(len(free)), [cols[v] for v in free]
    counts = np.zeros(live.shape)
    for sweep in range(burn_in + m):
        u = rng.random(len(plan))
        for k, (col, own, card, pcols, pstrides, kids) in enumerate(plan):
            row = 0
            for pc, st in zip(pcols, pstrides):
                row += st * state[pc]
            base = row * card
            total = 0.0
            weights = []
            for s in range(card):
                w = own[base + s]
                for flat, ccard, ccol, ks, vstride in kids:
                    crow = vstride * s
                    for pc, st in ks:
                        crow += st * state[pc]
                    w *= flat[crow * ccard + state[ccol]]
                weights.append(w)
                total += w
            if total > 0.0:
                target = u[k] * total
                acc = 0.0
                pick = card - 1
                for s in range(card):
                    acc += weights[s]
                    if acc >= target:
                        pick = s
                        break
                state[col] = pick
        if sweep >= burn_in:
            counts[rows, [state[c] for c in free_cols]] += 1

    f = np.maximum(counts / m, cfg.belief_floor) * live
    return ImportanceDistribution(nodes=tuple(free), probs=f / f.sum(axis=1, keepdims=True))
