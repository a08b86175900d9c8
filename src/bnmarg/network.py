"""Categorical Bayesian networks over a Dag, with exact brute-force queries.

A network attaches to every node a conditional probability table (CPT) stored
as a 2-d float array of shape ``(number of parent configurations, cardinality)``.
Parent configurations are indexed mixed-radix with parents taken in canonical
node order and the last parent least significant, i.e. row index

    row = x[p1]*C[p2]*...*C[pk] + x[p2]*C[p3]*...*C[pk] + ... + x[pk]

for parents p1 < p2 < ... < pk in canonical order.  Two methods read this
layout, and nothing outside this module repeats it: ``CategoricalBN.row_index``
looks rows up for one assignment or a vector of them, and
``CategoricalBN.family_table`` views a CPT with one axis per family member.

All probability accumulation happens in log space; sums of probabilities go
through a stable log-sum-exp reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np
from scipy.special import logsumexp

from .errors import (
    ArgumentError,
    CapacityError,
    InvalidAssignmentError,
    UnknownNodeError,
)
from .graphs import Dag

DEFAULT_ENUM_BITS_CAP = 22.0


@dataclass(frozen=True)
class Violation:
    """One defect found by validate(); ``row`` is None for node-level defects."""

    node: object
    kind: str
    row: Optional[int]
    detail: str


class CategoricalBN:
    """A categorical Bayesian network.

    Construction enforces the structural contract (cardinalities >= 2, CPT
    array shapes matching parent configurations); numeric defects such as
    rows that do not sum to one are left for :func:`validate` to report, so
    that deliberately broken tables can be inspected.

    ``state_names`` is optional presentation metadata used by the file format
    and command line; it defaults to ``s0, s1, ...`` per node.
    """

    def __init__(
        self,
        dag: Dag,
        cardinalities: Mapping,
        cpts: Mapping,
        state_names: Optional[Mapping] = None,
    ):
        self.dag = dag
        cards = {}
        for v in dag.node_ids:
            if v not in cardinalities:
                raise ArgumentError(f"missing cardinality for node {v!r}")
            c = int(cardinalities[v])
            if c < 2:
                raise ArgumentError(f"node {v!r} has cardinality {c}; need >= 2")
            cards[v] = c
        extra = set(cardinalities) - set(dag.node_ids)
        if extra:
            raise UnknownNodeError(f"cardinalities name unknown nodes {sorted(map(repr, extra))}")
        self.cardinalities = cards

        tables = {}
        for v in dag.node_ids:
            if v not in cpts:
                raise ArgumentError(f"missing CPT for node {v!r}")
            t = np.array(cpts[v], dtype=float)
            rows = 1
            for p in dag.parents(v):
                rows *= cards[p]
            if t.shape != (rows, cards[v]):
                raise ArgumentError(
                    f"CPT for {v!r} has shape {t.shape}; expected ({rows}, {cards[v]})"
                )
            t.setflags(write=False)
            tables[v] = t
        extra = set(cpts) - set(dag.node_ids)
        if extra:
            raise UnknownNodeError(f"CPTs name unknown nodes {sorted(map(repr, extra))}")
        self.cpts = tables

        names = {}
        state_names = dict(state_names or {})
        for v in dag.node_ids:
            given = state_names.get(v)
            if given is None:
                names[v] = tuple(f"s{i}" for i in range(cards[v]))
            else:
                given = tuple(str(s) for s in given)
                if len(given) != cards[v] or len(set(given)) != len(given):
                    raise ArgumentError(f"state names for {v!r} do not match cardinality")
                names[v] = given
        self.state_names = names

    # -- indexing helpers ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.dag)

    @property
    def node_ids(self) -> tuple:
        return self.dag.node_ids

    def parent_strides(self, v) -> tuple:
        """Mixed-radix stride of each canonical parent in v's row index."""
        ps = self.dag.parents(v)
        strides = [1] * len(ps)
        for i in range(len(ps) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.cardinalities[ps[i + 1]]
        return tuple(strides)

    def row_index(self, v, assignment: Mapping):
        """Row of v's CPT for the parent states in ``assignment``: ints, or
        int arrays of one shape, which give an array of rows."""
        row = 0
        for p, s in zip(self.dag.parents(v), self.parent_strides(v)):
            row = row + s * assignment[p]
        return row

    def family_table(self, v) -> tuple[tuple, np.ndarray]:
        """v's family in canonical order, and a view of v's CPT with one axis
        per family member in that order."""
        ps = self.dag.parents(v)
        cards = self.cardinalities
        table = self.cpts[v].reshape([cards[p] for p in ps] + [cards[v]])
        # parents are canonically sorted; v's axis moves to its canonical slot
        at = len(ps)
        while at and self.dag.index(ps[at - 1]) > self.dag.index(v):
            at -= 1
        if at == len(ps):
            return ps + (v,), table
        return ps[:at] + (v,) + ps[at:], np.moveaxis(table, -1, at)

    def restrict(self, nodes: Iterable) -> "CategoricalBN":
        """Induced sub-network; every retained node must keep all its parents.

        Raises UnknownNodeError for a name outside the network and
        ArgumentError when a retained node would lose a parent.  The result
        is built from this already-validated network without re-checking
        it: it shares the node ids, the read-only CPT arrays and the
        state-name tuples, and its graph takes this graph's topological
        order, filtered (see :meth:`Dag.subgraph`).
        """
        keep = set(nodes)
        sub = self.dag.subgraph(keep)
        for v in sub.node_ids:
            if len(sub._parents[v]) != len(self.dag._parents[v]):
                raise ArgumentError(
                    f"cannot restrict: node {v!r} loses parents "
                    f"{[p for p in self.dag.parents(v) if p not in keep]}"
                )
        net = CategoricalBN.__new__(CategoricalBN)  # trusted: skips __init__'s checks and copies
        net.dag = sub
        net.cardinalities = {v: self.cardinalities[v] for v in sub.node_ids}
        net.cpts = {v: self.cpts[v] for v in sub.node_ids}
        net.state_names = {v: self.state_names[v] for v in sub.node_ids}
        return net


def derive_seed(seed: int, *key: int) -> int:
    """Seed of the independent stream numbered ``key`` under ``seed``.

    Depends on (seed, key) only, never on how many streams were derived
    before, so results do not depend on the order work is done in.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def validate(bn: CategoricalBN, tol: float = 1e-9) -> list[Violation]:
    """Report value-level CPT defects: out-of-range entries and bad row sums."""
    out = []
    for v in bn.node_ids:
        t = bn.cpts[v]
        for r in range(t.shape[0]):
            row = t[r]
            if np.any(row < 0.0) or np.any(row > 1.0):
                out.append(Violation(v, "value-range", r, f"entries outside [0, 1]: {row}"))
            s = float(row.sum())
            if abs(s - 1.0) > tol:
                out.append(Violation(v, "row-normalization", r, f"row sums to {s!r}"))
    return out


def _check_full_assignment(bn: CategoricalBN, x: Mapping) -> None:
    for v in bn.node_ids:
        if v not in x:
            raise InvalidAssignmentError(f"assignment is missing node {v!r}")
    validate_evidence(bn, x)


def validate_evidence(bn: CategoricalBN, e: Mapping) -> None:
    """Raise InvalidAssignmentError unless e maps known nodes to valid states."""
    for v, s in e.items():
        if v not in bn.dag:
            raise InvalidAssignmentError(f"assignment names unknown node {v!r}")
        if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
            raise InvalidAssignmentError(f"state for {v!r} must be an integer, got {s!r}")
        if not 0 <= s < bn.cardinalities[v]:
            raise InvalidAssignmentError(
                f"state {s} out of range for {v!r} (cardinality {bn.cardinalities[v]})"
            )


def log_cpt_product(bn: CategoricalBN, nodes: Iterable, x: Mapping) -> float:
    """Sum over ``nodes`` of log P(x[v] | x[pa(v)]); -inf at the first entry
    that is not positive.  ``x`` must hold every node and parent named."""
    total = 0.0
    for v in nodes:
        p = float(bn.cpts[v][bn.row_index(v, x), x[v]])
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def log_joint_probability(bn: CategoricalBN, x: Mapping) -> float:
    """Log of the joint probability of one complete assignment."""
    _check_full_assignment(bn, x)
    return log_cpt_product(bn, bn.node_ids, x)


def _log_cpt(t: np.ndarray) -> np.ndarray:
    """Entrywise log, -inf at zeros; it can differ in the last bit from the
    ``math.log`` of one entry that :func:`log_cpt_product` takes."""
    with np.errstate(divide="ignore"):
        return np.log(t)


def log_enumerate_marginal(
    bn: CategoricalBN, e: Mapping, bits_cap: float = DEFAULT_ENUM_BITS_CAP
) -> float:
    """Log marginal probability of the evidence by direct summation.

    Sums the joint over every configuration of the free (non-evidence)
    variables.  Deliberately independent of the junction-tree and sampling
    machinery: this is the ground-truth oracle the rest of the package is
    checked against.  Free state spaces above ``bits_cap`` binary-variable
    equivalents raise CapacityError.
    """
    validate_evidence(bn, e)
    free = [v for v in bn.node_ids if v not in e]
    bits = sum(math.log2(bn.cardinalities[v]) for v in free)
    if bits > bits_cap:
        raise CapacityError(
            f"enumeration over {len(free)} free variables needs {bits:.1f} bits "
            f"(cap {bits_cap})"
        )

    n_cfg = 1
    for v in free:
        n_cfg *= bn.cardinalities[v]
    if n_cfg == 0:
        raise ArgumentError("network has a node with empty state space")

    # mixed-radix decode of configuration index -> per-node state vectors
    strides = {}
    acc = 1
    for v in reversed(free):
        strides[v] = acc
        acc *= bn.cardinalities[v]
    idx = np.arange(n_cfg, dtype=np.int64)
    states = dict(e)
    for v in free:
        states[v] = (idx // strides[v]) % bn.cardinalities[v]

    logp = np.zeros(n_cfg, dtype=float)
    for v in bn.node_ids:
        logp += _log_cpt(bn.cpts[v])[bn.row_index(v, states), states[v]]
    return float(logsumexp(logp))


def enumerate_marginal(
    bn: CategoricalBN, e: Mapping, bits_cap: float = DEFAULT_ENUM_BITS_CAP
) -> float:
    """Marginal probability of the evidence by direct summation."""
    return math.exp(log_enumerate_marginal(bn, e, bits_cap))


def sample_forward_array(bn: CategoricalBN, n: int, rng) -> np.ndarray:
    """Ancestral samples as an int array of shape (n, len(bn)).

    Columns follow canonical node order.  ``rng`` is a numpy Generator or a
    seed accepted by ``numpy.random.default_rng``.
    """
    if n < 0:
        raise ArgumentError("sample count must be non-negative")
    rng = np.random.default_rng(rng)
    cols = {v: i for i, v in enumerate(bn.node_ids)}
    out = np.zeros((n, len(bn.node_ids)), dtype=np.int64)
    drawn = {}
    for v in bn.dag._topo:
        card = bn.cardinalities[v]
        # a root's row is the int 0: its one CPT row broadcasts over the draws
        cum = np.cumsum(bn.cpts[v][bn.row_index(v, drawn)], axis=-1)
        u = rng.random(n)
        drawn[v] = np.minimum((cum < u[:, None]).sum(axis=1), card - 1)
        out[:, cols[v]] = drawn[v]
    return out


def sample_forward(bn: CategoricalBN, n: int, seed: int = 0) -> list[dict]:
    """Ancestral (forward) samples as a list of complete assignments."""
    arr = sample_forward_array(bn, n, seed)
    ids = bn.node_ids
    return [dict(zip(ids, map(int, arr[i]))) for i in range(n)]
