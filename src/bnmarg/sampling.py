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
from itertools import accumulate, chain, compress, repeat
from operator import mul
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import ArgumentError, InvalidAssignmentError
from .network import CategoricalBN, require_integer, require_integers, require_number, sample_forward_array


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
        require_integers(self, ("sample_count", "lbp_iterations", "seed"), ArgumentError)
        for name in ("lbp_tolerance", "belief_floor"):
            require_number(name, getattr(self, name), ArgumentError)
        if self.sample_count < 1:
            raise ArgumentError("sample_count must be >= 1")
        if self.lbp_iterations < 1:
            raise ArgumentError("lbp_iterations must be >= 1")
        if not self.lbp_tolerance > 0:
            raise ArgumentError("lbp_tolerance must be positive")
        if not 0 < self.belief_floor < 0.1:
            raise ArgumentError("belief_floor must lie in (0, 0.1)")
        if self.seed < 0:
            raise ArgumentError("seed must be a non-negative integer")


@dataclass(frozen=True)
class ImportanceDistribution:
    """A fully factorized distribution over a set of nodes.

    probs is a read-only float array of shape ``(len(nodes), width)``, a
    copy of the one given.  Row i holds the distribution of ``nodes[i]``:
    its leading entries, one per state, are positive and sum to one, and
    the entries past its cardinality are zero.  The tables that
    :meth:`states` and :meth:`log_prob` read are built from it once, here.
    """

    nodes: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
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
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        # cum never decreases, so counting a node's first card-1 entries below
        # u is the state index, capped at the last state; the rest never count
        cum = np.cumsum(p, axis=1)
        cum[np.arange(cum.shape[1]) >= states.sum(axis=1)[:, None] - 1] = np.inf
        object.__setattr__(self, "_cum", cum)
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_flat", np.log(p).ravel())
        object.__setattr__(self, "_rows", np.arange(0, p.size, p.shape[1])[:, None])

    def states(self, u: np.ndarray) -> np.ndarray:
        """The states a block of uniforms picks by inverse CDF, row i for
        node i; a column slice of a block picks what the block does."""
        cum, draws = self._cum, np.zeros(u.shape, dtype=int)
        for j in range(cum.shape[1] - 1):
            draws += cum[:, j, None] < u
        return draws

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m iid draws per node: a ``(len(nodes), m)`` int matrix whose row i
        holds the states of ``nodes[i]``.

        Row i of one ``(len(nodes), m)`` uniform block drives node i, the same
        stream as one ``rng.random(m)`` call per node in order.
        """
        return self.states(rng.random((len(self.nodes), m)))

    def log_prob(self, draws: np.ndarray) -> np.ndarray:
        """Log density of each joint draw (a column of ``draws``, laid out as
        :meth:`sample` returns it): one gather from the flattened
        ``log(probs)``, the node terms added in node order."""
        return _sum_rows(self._log_flat[self._rows + draws])


def _normalized(rows: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """Each row divided by its sum; rows summing to zero become ``uniform``."""
    s = rows.sum(axis=1, keepdims=True)
    return np.divide(rows, s, out=uniform.copy(), where=s > 0)


BLOCK = 128  # draws per column block of the importance weights


def _sum_rows(t: np.ndarray) -> np.ndarray:
    """The rows of ``t`` added one after another, first to last.

    NumPy's ``add.reduce`` over the first axis does exactly that when there
    are two or more columns, but sums a single column pairwise, which can
    differ in the last bit; ``cumsum`` is sequential in every case.
    """
    if t.shape[1] == 1 and len(t):
        return np.cumsum(t, axis=0)[-1]
    return np.add.reduce(t, axis=0)


@dataclass(frozen=True)
class ClampedFactors:
    """The CPTs of a set of factor nodes with the evidence fixed, stacked per
    table shape, as :func:`clamp_factors` builds them.

    ``free`` holds the free nodes of the scope in node order, ``cards`` their
    cardinalities.  Each group is ``(tables, edges, rows)``:
    - the clamped tables of one shape, stacked in one C-contiguous array,
      the layout that sets the order of loopy BP's sums; a table's axes are
      its factor's free family members in node order, and a factor whose
      family is all observed is a constant of shape ``()``;
    - the ``(k, ndim)`` ids of those (factor, variable) edges, numbered
      factor by factor in node order; ``edge_var[e]`` is edge e's index
      into ``free``;
    - each factor's position among all ``size`` factors in node order.
    """

    free: tuple
    cards: np.ndarray
    edge_var: np.ndarray
    groups: tuple
    size: int

    @property
    def width(self) -> int:
        """The largest cardinality among the free nodes: the padded width of
        the message and belief rows :func:`loopy_bp` keeps for them."""
        return int(self.cards.max())

    def _log_weights(self, q: "ImportanceDistribution"):
        """A function from a block of draws of ``q`` (a column slice of what
        ``q.sample`` returns) to the log of the product of the factors for
        each column: one gather per shape group from ``np.log`` of the
        stacked tables, and the factor terms added in node order."""
        at = {v: i for i, v in enumerate(q.nodes)}
        q_row = np.array([at.get(v, -1) for v in self.free], dtype=np.intp)
        plan = []  # per group: flat log tables, table offsets, (draw rows, stride) per axis, rows
        with np.errstate(divide="ignore"):
            for tables, edges, rows in self.groups:
                draw_rows = q_row[self.edge_var[edges]]
                if (draw_rows < 0).any():
                    raise ArgumentError("proposal does not cover the free factor nodes")
                shape = tables.shape[1:]
                size = math.prod(shape)
                axes = [(draw_rows[:, j], math.prod(shape[j + 1 :])) for j in range(len(shape))]
                offsets = np.arange(0, size * len(tables), size)[:, None]
                plan.append((np.log(tables).ravel(), offsets, axes, rows))

        def log_weights(draws):
            terms = np.empty((self.size, draws.shape[1]))
            for flat, idx, axes, rows in plan:
                for draw_rows, stride in axes:
                    x = draws[draw_rows]  # a fresh array: safe to update in place
                    if stride != 1:
                        x *= stride
                    x += idx
                    idx = x
                terms[rows] = flat[idx]
            return _sum_rows(terms)

        return log_weights


_FREE = np.iinfo(np.intp).min  # the state clamp_factors reads for a node not observed


def clamp_factors(
    bn: CategoricalBN,
    evidence: Mapping,
    nodes: Optional[Iterable] = None,
    factor_nodes: Optional[Iterable] = None,
) -> ClampedFactors:
    """One factor per node of ``factor_nodes`` (default: the scope), its CPT
    with the observed family members fixed, over the free nodes of the
    scope ``nodes`` (default: the whole network).

    Refuses factor nodes outside the scope, a factor whose family reaches
    outside it, a scope with no free node, a negative observed state in
    the scope and an out-of-range one in a factor's family.

    The Python work per factor is reading its parent tuple and its CPT;
    the rest are array operations over all factors at once.  A matrix with
    a row of scope positions per family gives each member's stride in its
    CPT and each table's offset, evidence included, into the factors'
    concatenated CPT entries.  A shape group's stack is then one gather
    from those entries into a new C-contiguous array, also where a node's
    axis moves before a free parent that follows it in node order.
    """
    dag = bn.dag
    index, parents, cards, cpts = dag._index, dag._parents, bn.cardinalities, bn.cpts
    if nodes is None:
        scope, at = dag.node_ids, index
    else:
        scope = set(nodes)
        dag.check_nodes(scope)
        scope = sorted(scope, key=index.__getitem__)
        at = dict(zip(scope, range(len(scope))))
    if factor_nodes is None:
        order = scope
    else:
        order = set(factor_nodes)
        if not all(map(at.__contains__, order)):
            raise ArgumentError("factor_nodes must lie inside the scope")
        order = sorted(order, key=index.__getitem__)

    # per scope position, and for padding (position -1, one past the end):
    # the cardinality, and the observed state or _FREE
    n = len(scope)
    s_card = np.fromiter(chain(map(cards.__getitem__, scope), (1,)), np.intp, n + 1)
    s_state = np.fromiter(chain(map(evidence.get, scope, repeat(_FREE)), (0,)), np.intp, n + 1)
    s_free = s_state == _FREE
    free = list(compress(scope, s_free.tolist()))
    if not free:
        raise ArgumentError("no free nodes to form a proposal over")
    if (s_state < 0).sum() > len(free):
        u = scope[((s_state < 0) & ~s_free).argmax()]
        raise InvalidAssignmentError(f"state {evidence[u]} out of range for {u!r}")

    # a row per factor: its family's scope positions, parents then the node
    # itself, right-aligned; row f's parents end at flat index (f+1)*width-2
    k = len(order)
    families = list(map(parents.__getitem__, order))
    n_par = np.fromiter(map(len, families), np.intp, k)
    at_par = np.fromiter(map(at.get, chain.from_iterable(families), repeat(-1)), np.intp, int(n_par.sum()))
    if (at_par < 0).any():
        f = np.searchsorted(n_par.cumsum(), (at_par < 0).argmax(), side="right")
        raise ArgumentError(f"family of factor node {order[f]!r} reaches outside the scope")
    width = int(n_par.max(initial=0)) + 1
    pos = np.full((k, width), -1, dtype=np.intp)
    pos[:, -1] = np.arange(k) if order is scope else np.fromiter(map(at.__getitem__, order), np.intp, k)
    row_ends = np.arange(1, k + 1) * width - 1 - n_par.cumsum()
    pos.reshape(-1)[np.arange(len(at_par)) + row_ends.repeat(n_par)] = at_par
    card, obs, is_free = s_card[pos], s_state[pos], s_free[pos]
    if (obs >= card).any():
        u = scope[pos[obs >= card][0]]
        raise InvalidAssignmentError(f"state {evidence[u]} out of range for {u!r} (cardinality {cards[u]})")

    # each member's stride in its CPT, and each table's offset into the
    # concatenated CPTs: its CPT's, plus the observed members' terms; every
    # CPT is a C-contiguous float array, so their bytes join into one
    span = card[:, ::-1].cumprod(axis=1)[:, ::-1]  # a member's stride times its cardinality
    stride = span // card
    base = span[:, 0].cumsum() - span[:, 0] + (np.maximum(obs, 0) * stride).sum(axis=1)
    flat = np.frombuffer(b"".join(map(cpts.__getitem__, order)), dtype=float)

    # the edges: each row's free members, in node order, row after row; a
    # node's own axis moves before the free parents that follow it
    r, c = np.nonzero(is_free)
    o = np.argsort(r * (n + 1) + pos[r, c], kind="stable")
    r, c = r[o], c[o]
    edge_var = (s_free.cumsum() - 1)[pos[r, c]]
    edge_stride = stride[r, c]
    degree = np.bincount(r, minlength=k)
    edge_start = degree.cumsum() - degree
    shape = np.zeros((k, width), dtype=np.intp)  # each table's shape, zero-padded
    shape[r, np.arange(len(r)) - edge_start[r]] = card[r, c]

    # factors grouped by table shape; a stable sort keeps each group's
    # factors in node order, and groups go in order of their first factor
    o = np.lexsort(shape.T)
    cuts = np.flatnonzero((shape[o[1:]] != shape[o[:-1]]).any(axis=1)) + 1
    groups = []
    for rows in sorted(np.split(o, cuts) if k else [], key=lambda rows: rows[0]):
        dims = tuple(shape[rows[0], : degree[rows[0]]].tolist())
        edges = edge_start[rows, None] + np.arange(len(dims))
        # the entry at index i of a table: its offset plus i . strides
        grid = np.indices(dims).reshape(len(dims), math.prod(dims))
        tables = flat[(base[rows, None] + edge_stride[edges] @ grid).reshape(-1, *dims)]
        groups.append((tables, edges, rows))
    return ClampedFactors(
        free=tuple(free),
        cards=s_card[:-1][s_free[:-1]],
        edge_var=edge_var,
        groups=tuple(groups),
        size=k,
    )


def loopy_bp(parts: tuple, cfg: SamplerConfig) -> tuple:
    """Factor-graph sum-product beliefs as factorized proposals, one per
    part of ``parts``, a tuple of :class:`ClampedFactors` of one
    :attr:`ClampedFactors.width`.

    Each part holds one factor per factor node (its evidence-clamped CPT)
    and one variable per free node of its scope.  All messages start at
    one; each round recomputes every factor-to-variable message from the
    previous round, then every variable-to-factor message from those (the
    flooding schedule), so the result is independent of node order.  Runs
    up to ``cfg.lbp_iterations`` rounds or until the largest belief change
    drops below ``cfg.lbp_tolerance``.  Beliefs are floored at
    ``cfg.belief_floor`` and renormalized, so every node's own states are
    strictly positive; the floored belief matrix, zero past each node's
    cardinality, is the proposal.  On tree-shaped factor graphs the
    converged beliefs are the exact conditionals.

    The parts share one run of rounds, and each stops on its own: its
    beliefs are those of the first round whose largest change within the
    part drops below the tolerance, or of the last round.  Every proposal
    equals, byte for byte, the one a call on that part alone returns.  (A
    part is padded to the run's width, and rows of eight or more columns
    would be summed pairwise, so parts of different widths are refused
    rather than padded.)

    The parts are stacked into one factor graph: part j's variables and
    edges follow those of the parts before it, and each of its C-contiguous
    table stacks joins those of the same table shape.  Messages live in one
    array per direction with a row per (factor, variable) edge, zero-padded
    to the largest cardinality, so a round costs a few array operations per
    shape and per variable degree rather than one per message.
    """
    if not parts:
        return ()
    width = parts[0].width
    if any(p.width != width for p in parts):
        raise ArgumentError("the parts of one loopy-BP run must share one width")
    n_vars = [len(p.free) for p in parts]
    var_start = np.cumsum([0] + n_vars[:-1])
    edge_start = np.cumsum([0] + [len(p.edge_var) for p in parts[:-1]]).tolist()
    card = np.concatenate([p.cards for p in parts])
    edge_var = np.concatenate([p.edge_var + s for p, s in zip(parts, var_start.tolist())])
    stacks = {}  # table shape -> [(tables, edge ids)] over the parts
    for p, s in zip(parts, edge_start):
        for tables, edges, _ in p.groups:
            if edges.shape[1]:
                stacks.setdefault(tables.shape[1:], []).append((tables, edges + s))

    # the round plan: per stack, and per axis k of its tables, the message
    # rows of its edges (the edge id column, cut to the axis's states when
    # they are fewer than the width), the shape a message takes to broadcast
    # along the axis, and the axes a message to it sums out
    plan = []
    for group in stacks.values():
        tables = np.concatenate([t for t, _ in group])
        edges = np.concatenate([e for _, e in group])
        ndim = edges.shape[1]
        axes = []
        for k in range(ndim):
            c = tables.shape[1 + k]
            rows = np.ascontiguousarray(edges[:, k])
            shape = [len(edges)] + [1] * ndim
            shape[1 + k] = c
            summed = tuple(1 + k2 for k2 in range(ndim) if k2 != k)
            axes.append((rows if c == width else (rows, slice(c)), tuple(shape), summed))
        plan.append((tables, axes))

    var_live = (np.arange(width) < card[:, None]).astype(float)
    var_uniform = var_live / card[:, None]
    edge_live = var_live[edge_var]
    edge_uniform = var_uniform[edge_var]

    # each variable's edges in factor order, grouped by the variable's degree
    degree = np.bincount(edge_var, minlength=len(card))
    by_var = np.argsort(edge_var, kind="stable")
    first = np.cumsum(degree) - degree
    incident = []  # (variables of degree d, their (count, d) edge ids, their live states)
    for d in np.unique(degree[degree > 0]).tolist():
        vs = np.flatnonzero(degree == d)
        incident.append((vs, by_var[first[vs, None] + np.arange(d)], var_live[vs, None]))

    part_of_var = np.repeat(np.arange(len(parts)), n_vars)
    running = np.ones(len(parts), dtype=bool)
    vf = edge_live  # variable-to-factor messages start at one
    beliefs = var_uniform
    stopped = np.empty_like(beliefs)  # each part's rows from the round it stopped in
    for _ in range(cfg.lbp_iterations):
        fv = np.zeros_like(edge_live)
        for tables, axes in plan:
            incoming = [vf[at].reshape(shape) for at, shape, _ in axes]
            # message k is (T * m0 * ... * m(k-1)) * m(k+1) * ... * m(d-1):
            # the left-to-right product that skips m(k), on shared prefixes
            prefix = tables
            for k, (at, _, summed) in enumerate(axes):
                t = prefix
                for m in incoming[k + 1 :]:
                    t = t * m
                fv[at] = t.sum(axis=summed) if summed else t
                if k + 1 < len(axes):
                    prefix = prefix * incoming[k]
        fv = _normalized(fv, edge_uniform)

        vf = np.zeros_like(edge_live)
        raw = var_live.copy()  # a variable touching no factor keeps a flat belief
        for vs, edges, ones in incident:
            msgs = fv[edges]
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
        delta = np.maximum.reduceat(np.abs(nxt - beliefs).max(axis=1), var_start)
        beliefs = nxt
        done = running & (delta < cfg.lbp_tolerance)
        if done.any():
            rows = done[part_of_var]
            stopped[rows] = beliefs[rows]
            running &= ~done
            if not running.any():
                break
    rows = running[part_of_var]
    stopped[rows] = beliefs[rows]

    floored = np.maximum(stopped, cfg.belief_floor) * var_live
    floored = floored / floored.sum(axis=1, keepdims=True)
    return tuple(
        ImportanceDistribution(nodes=p.free, probs=floored[s : s + len(p.free)])
        for p, s in zip(parts, var_start.tolist())
    )


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


def importance_estimate(
    factors: ClampedFactors,
    q: ImportanceDistribution,
    rng: np.random.Generator,
    m: int,
) -> tuple[float, float]:
    """Unbiased importance estimate of the sum over the free nodes of the
    product of the clamped ``factors``: ``(log estimate, weight variance)``,
    where the weight variance is the unbiased sample variance of
    w / mean(w), so that exp(log estimate) * sqrt(weight variance / m) is
    the standard error of the estimate.

    Draws m joint configurations of every node of q from ``rng``, as
    ``q.sample`` does, and averages w = prod_f factor_f(x) / q(x).  Every
    free node a factor depends on must be one of q's nodes.  The weights
    are computed in column blocks of at most ``BLOCK`` draws, so apart from
    the uniforms and the m weights every temporary is block-sized; in each
    block, log w is the factor terms added in node order less
    ``q.log_prob``, bit for bit.
    """
    log_weights = factors._log_weights(q)
    u = rng.random((len(q.nodes), m))
    logw = np.empty(m)
    for start in range(0, m, BLOCK):
        c = slice(start, start + BLOCK)
        draws = q.states(u[:, c])
        logw[c] = log_weights(draws) - q.log_prob(draws)
    return _is_summary(logw)


def gibbs_proposal(
    bn: CategoricalBN,
    clamped: ClampedFactors,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    burn_in: int = 100,
) -> ImportanceDistribution:
    """Factorized proposal from the state frequencies of a Gibbs chain.

    Starts from one forward draw of ``bn``, runs systematic-scan single-site
    Gibbs over every free node of ``clamped`` (Markov-blanket conditionals),
    discards ``burn_in`` sweeps, records per-node state frequencies over
    cfg.sample_count further sweeps, and floors and normalizes each node's
    own states.  Every draw comes from ``rng``, which the ``gs`` baseline
    goes on to use for its importance samples.

    The chain reads ``clamped``, the factors ``clamp_factors(bn, evidence)``
    builds with the evidence folded in, which the ``gs`` baseline goes on
    to weight its draws with.  A node's conditional multiplies its own
    factor's entries first, then those of its children's factors in node
    order.  Factors over less than the whole of ``bn`` are refused.
    """
    require_integer("burn_in", burn_in, ArgumentError)
    if burn_in < 0:
        raise ArgumentError("burn_in must be non-negative")
    if clamped.size != len(bn):
        raise ArgumentError("the Gibbs chain needs a factor for every node of the network")
    start = sample_forward_array(bn, 1, rng)[0]
    free, index = clamped.free, bn.dag._index
    state = start[[index[v] for v in free]].tolist()

    # per free node, each factor over it: (node order of the factor, its
    # flat table, the (free node, stride) of its other axes, its own stride)
    touching = [[] for _ in free]
    for tables, edges, rows in clamped.groups:
        shape = tables.shape[1:]
        strides = [math.prod(shape[j + 1 :]) for j in range(len(shape))]
        for table, nodes, f in zip(tables, clamped.edge_var[edges].tolist(), rows.tolist()):
            flat = table.ravel().tolist()
            axes = list(zip(nodes, strides))
            for i, stride in axes:
                touching[i].append((f, flat, [a for a in axes if a[0] != i], stride))
    plan = []
    for v, card, factors in zip(free, clamped.cards.tolist(), touching):
        own = index[v]
        factors.sort(key=lambda t: (t[0] != own, t[0]))
        plan.append((card, [t[1:] for t in factors]))

    m = cfg.sample_count
    live = np.arange(clamped.width) < clamped.cards[:, None]
    rows = np.arange(len(free))
    counts = np.zeros(live.shape)
    for sweep in range(burn_in + m):
        u = rng.random(len(plan)).tolist()
        for k, (card, factors) in enumerate(plan):
            weights = None
            for flat, others, stride in factors:
                at = 0
                for j, st in others:
                    at += st * state[j]
                entries = flat[at : at + (card - 1) * stride + 1 : stride]
                weights = entries if weights is None else list(map(mul, weights, entries))
            cum = list(accumulate(weights))
            if cum[-1] > 0.0:
                target = u[k] * cum[-1]
                pick = card - 1
                for s, acc in enumerate(cum):
                    if acc >= target:
                        pick = s
                        break
                state[k] = pick
        if sweep >= burn_in:
            counts[rows, state] += 1

    f = np.maximum(counts / m, cfg.belief_floor) * live
    return ImportanceDistribution(nodes=free, probs=f / f.sum(axis=1, keepdims=True))
