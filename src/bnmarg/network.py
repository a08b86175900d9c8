"""Categorical Bayesian networks over a Dag, with exact brute-force queries.

A network attaches to every node a conditional probability table (CPT) stored
as a 2-d float array of shape ``(number of parent configurations, cardinality)``.
Parent configurations are indexed mixed-radix with parents taken in canonical
node order and the last parent least significant, i.e. row index

    row = x[p1]*C[p2]*...*C[pk] + x[p2]*C[p3]*...*C[pk] + ... + x[pk]

for parents p1 < p2 < ... < pk in canonical order.  ``CategoricalBN.row_index``
looks rows up for one assignment or a vector of them.  Two other readers view
a CPT with one axis per family member, moving the node's own axis to its
canonical slot when a parent follows it: ``junction.build_junction_tree``,
which reshapes each CPT straight into its clique's axis order, and
``sampling.clamp_factors``, which gathers from every factor's flattened CPT
with per-member strides.  :func:`sample_forward_array` reads the rows with
the same strides: it cumulates every CPT row into one table and draws the
nodes of one topological level together, from one block of uniforms whose
row t drives the t-th node of the topological order, so its draws are those
of one inverse-CDF draw per node in that order.

All probability accumulation happens in log space; sums of probabilities go
through a stable log-sum-exp reduction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import (
    ArgumentError,
    CapacityError,
    InvalidAssignmentError,
    UnknownNodeError,
)
from .graphs import Dag

DEFAULT_ENUM_BITS_CAP = 22.0
DRAW_BLOCK = 256  # forward draws per pass of sample_forward_array
ENUM_BLOCK = 1 << 15  # configurations decoded per pass of log_enumerate_marginal


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
    array shapes matching parent configurations) and stores each CPT as a
    read-only C-contiguous float copy, whatever the layout of the array it
    was given; numeric defects such as
    rows that do not sum to one are left for :func:`validate` to report, so
    that deliberately broken tables can be inspected.  The parser, the
    generator and :meth:`restrict` build their networks through
    :meth:`_trusted` instead, from parts they have checked themselves.

    ``state_names`` is optional presentation metadata used by the file format
    and command line; it defaults to ``s0, s1, ...`` per node, one tuple
    shared by the nodes of each cardinality (:func:`default_state_names`).
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
            t = np.array(cpts[v], dtype=float, order="C")
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
                names[v] = default_state_names(cards[v])
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

    def row_index(self, v, assignment: Mapping):
        """Row of v's CPT for the parent states in ``assignment``: ints, or
        int arrays of one shape, which give an array of rows.  Horner's rule
        over the parents in canonical order, exact for ints and int arrays."""
        cards = self.cardinalities
        row = 0
        for p in self.dag.parents(v):
            row = row * cards[p] + assignment[p]
        return row

    def restrict(self, nodes: Iterable) -> "CategoricalBN":
        """Induced sub-network; every retained node must keep all its parents.

        Raises UnknownNodeError for a name outside the network and
        ArgumentError when a retained node would lose a parent.  The result
        is built from this already-validated network without re-checking
        it: it shares the node ids, the read-only CPT arrays, the state-name
        tuples and every parent tuple, and its graph takes this graph's
        topological order, filtered (see :meth:`Dag._ancestral_subgraph`).
        This is the package's one builder of induced subgraphs.
        """
        keep = set(nodes)
        sub = self.dag._ancestral_subgraph(keep)
        if sub is None:
            v = next(v for v in self.node_ids if v in keep and not keep.issuperset(self.dag._parents[v]))
            raise ArgumentError(
                f"cannot restrict: node {v!r} loses parents "
                f"{[p for p in self.dag.parents(v) if p not in keep]}"
            )
        ids, cards, cpts, names = sub.node_ids, self.cardinalities, self.cpts, self.state_names
        return CategoricalBN._trusted(
            sub, {v: cards[v] for v in ids}, {v: cpts[v] for v in ids}, {v: names[v] for v in ids}
        )

    @classmethod
    def _trusted(cls, dag: Dag, cardinalities: dict, cpts: dict, state_names: dict) -> "CategoricalBN":
        """A network from parts its caller has already checked, without
        ``__init__``'s checks and copies.  Each dict must be keyed by
        ``dag.node_ids`` in that order, with int cardinalities, read-only
        C-contiguous float CPT arrays of the right shapes and tuples of
        string state names."""
        net = cls.__new__(cls)
        net.dag = dag
        net.cardinalities = cardinalities
        net.cpts = cpts
        net.state_names = state_names
        return net


@functools.lru_cache(maxsize=16)
def default_state_names(card: int) -> tuple:
    """The state names ``("s0", "s1", ...)`` of a node with ``card`` states
    and none given; one tuple per cardinality, shared by every such node."""
    return tuple(f"s{i}" for i in range(card))


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


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` or NumPy integer, the package's rule
    for counts, seeds and states: a bool or a float, integral or not, is
    not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_integer(name: str, value, error: type) -> None:
    """Raise ``error`` unless ``value`` :func:`is_integer`."""
    if not is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")


def is_number(value) -> bool:
    """Whether ``value`` is a real number, the package's rule for float
    parameters: an ``int``, a ``float`` or a NumPy integer or float; a bool
    or a string is not one."""
    return isinstance(value, (float, np.floating)) or is_integer(value)


def require_number(name: str, value, error: type) -> None:
    """Raise ``error`` unless ``value`` :func:`is_number`."""
    if not is_number(value):
        raise error(f"{name} must be a number, got {value!r}")


def require_integers(obj, names: Iterable[str], error: type) -> None:
    """:func:`require_integer` on each attribute of ``obj`` named in ``names``."""
    for name in names:
        require_integer(name, getattr(obj, name), error)


def validate_evidence(bn: CategoricalBN, e: Mapping) -> None:
    """Raise InvalidAssignmentError unless e maps known nodes to valid states."""
    for v, s in e.items():
        if v not in bn.dag:
            raise InvalidAssignmentError(f"assignment names unknown node {v!r}")
        if not is_integer(s):
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


def _log_sum_exp(values) -> float:
    """Log of the sum of the exponentials of a 1-d sequence of reals.

    Bit for bit ``scipy.special.logsumexp`` 1.17.1: the entries equal to the
    maximum stay out of the shifted sum, which goes through ``log1p``
    (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41(4), 2021).  A result
    that is not finite is summed directly, so all ``-inf`` gives ``-inf``,
    as does an empty input.
    """
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return -math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max()
        at_top = a == top
        m = float(np.count_nonzero(at_top))
        s = np.add.reduce(np.exp(np.where(at_top, -np.inf, a) - top))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + top
        if not np.isfinite(out):
            out = np.log(np.add.reduce(np.exp(a)))
    return float(out)


def log_enumerate_marginal(
    bn: CategoricalBN, e: Mapping, bits_cap: float = DEFAULT_ENUM_BITS_CAP
) -> float:
    """Log marginal probability of the evidence by direct summation.

    Sums the joint over every configuration of the free (non-evidence)
    variables, in log space with :func:`_log_sum_exp`.  Deliberately
    independent of the junction-tree and sampling machinery: this is the
    ground-truth oracle the rest of the package is checked against.  Free
    state spaces above ``bits_cap`` binary-variable equivalents raise
    CapacityError.  States are decoded ``ENUM_BLOCK`` configurations at a
    time, each adding its node terms in node order into the log joints.
    """
    validate_evidence(bn, e)
    free = [v for v in bn.node_ids if v not in e]
    bits = sum(math.log2(bn.cardinalities[v]) for v in free)
    if bits > bits_cap:
        raise CapacityError(
            f"enumeration over {len(free)} free variables needs {bits:.1f} bits "
            f"(cap {bits_cap})"
        )

    # mixed-radix decode of configuration index -> per-node state vectors
    strides = {}
    n_cfg = 1
    for v in reversed(free):
        strides[v] = n_cfg
        n_cfg *= bn.cardinalities[v]
    tables = [(v, _log_cpt(bn.cpts[v])) for v in bn.node_ids]
    logp = np.zeros(n_cfg, dtype=float)
    for start in range(0, n_cfg, ENUM_BLOCK):
        idx = np.arange(start, min(start + ENUM_BLOCK, n_cfg), dtype=np.int64)
        states = dict(e)
        for v in free:
            states[v] = (idx // strides[v]) % bn.cardinalities[v]
        block = logp[start : start + ENUM_BLOCK]
        for v, table in tables:
            block += table[bn.row_index(v, states), states[v]]
    return _log_sum_exp(logp)


def sample_forward_array(bn: CategoricalBN, n: int, rng) -> np.ndarray:
    """Ancestral samples as a C-ordered int64 array of shape (n, len(bn)).

    Columns follow canonical node order.  ``rng`` is a numpy Generator or a
    seed accepted by ``numpy.random.default_rng``.  Row t of one
    ``(len(bn), n)`` uniform block drives the t-th node of the topological
    order: the same stream as one ``rng.random(n)`` call per node in that
    order, and the generator ends where those calls leave it.  A node's
    state is the number of entries below its uniform among the first
    card-1 of its cumulated CPT row, which is the inverse-CDF draw when the
    row is non-negative (:func:`validate` reports any that is not).

    The nodes of one level, 1 plus the largest level among their parents,
    draw together: each level gathers its parents' states, forms CPT rows
    from mixed-radix strides, and compares its uniforms with those rows of
    one cumulated table.  The index arrays are built once, and no NumPy
    call is made per node.  Draws go in blocks of ``DRAW_BLOCK``, so that
    a level's temporaries, which hold a few entries per node and draw, stay
    bounded by the network's size, not the sample count's.
    """
    require_integer("sample count", n, ArgumentError)
    if n < 0:
        raise ArgumentError("sample count must be non-negative")
    n = int(n)
    rng = np.random.default_rng(rng)
    pos, stride, cum, bounds, order, out_rows = _forward_plan(bn)
    k = len(order)
    u = rng.random((k, n))
    out = np.empty((n, k), dtype=np.int64)
    for c in range(0, n, DRAW_BLOCK):
        ub = u[order, c : c + DRAW_BLOCK, None]
        # row k holds the padding's zero states, and row k + 1 ones, which
        # the last column of pos reads with each node's first row as stride
        x = np.zeros((k + 2, ub.shape[1]), dtype=np.int64)
        x[k + 1] = 1
        for a, b, w in bounds:
            rows = np.matmul(stride[a:b, None, -w:], x[pos[a:b, -w:]])[:, 0]
            np.add.reduce(cum[rows] < ub[a:b], axis=2, out=x[a:b])
        out[c : c + DRAW_BLOCK] = x[out_rows].T
    return out


def _forward_plan(bn: CategoricalBN) -> tuple:
    """Index arrays for :func:`sample_forward_array`, nodes in level order
    (by level, then by topological position).

    ``pos`` has a row per node: its parents' rows of the state array,
    right-aligned and padded with the zero-state row, and then the ones
    row; ``stride`` holds each parent's mixed-radix stride and, last, the
    node's first row in ``cum``.  ``cum`` holds every CPT row cumulated,
    padded to the widest cardinality less one, with +inf from entry card-1
    on.  ``bounds`` lists each level's slice and the width of its last
    columns that cover its parents and the ones column; ``order`` takes
    topological positions to level order and ``out_rows`` canonical ones.
    """
    dag, cards, cpts = bn.dag, bn.cardinalities, bn.cpts
    topo, parents = dag._topo, dag._parents
    k = len(topo)
    level = {}
    for v in topo:
        level[v] = 1 + max(map(level.__getitem__, parents[v]), default=-1)
    level = np.fromiter(level.values(), np.intp, k)
    order = np.argsort(level, kind="stable")
    rank = np.empty(k, dtype=np.intp)
    rank[order] = np.arange(k)

    # the parent matrix, right-aligned as in clamp_factors, in level order
    at = dict(zip(topo, range(k)))
    families = list(map(parents.__getitem__, topo))
    n_par = np.fromiter(map(len, families), np.intp, k)
    width = int(n_par.max(initial=0)) + 1
    pos = np.full((k, width), k, dtype=np.intp)
    pos[:, -1] = k + 1
    row_ends = np.arange(1, k + 1) * width - 1 - n_par.cumsum()
    par = np.fromiter(map(at.__getitem__, chain.from_iterable(families)), np.intp, int(n_par.sum()))
    pos.reshape(-1)[np.arange(len(par)) + row_ends.repeat(n_par)] = rank[par]
    pos = pos[order]
    card = np.fromiter(map(cards.__getitem__, topo), np.intp, k)[order]
    pcard = np.append(card, (1, 1))[pos]
    stride = pcard[:, ::-1].cumprod(axis=1)[:, ::-1] // pcard
    n_rows = stride[:, 0] * pcard[:, 0]
    stride[:, -1] = n_rows.cumsum() - n_rows

    # every CPT row, cumulated over its first card-1 entries, then +inf
    in_order = [topo[t] for t in order.tolist()]
    flat = np.frombuffer(b"".join(map(cpts.__getitem__, in_order)), dtype=float)
    row_card = card.repeat(n_rows)
    cols = np.arange(int(card.max(initial=2)) - 1)
    live = cols < row_card[:, None] - 1
    entry = (row_card.cumsum() - row_card)[:, None] + cols
    cum = np.cumsum(np.where(live, flat[np.where(live, entry, 0)], 0.0), axis=1)
    cum[~live] = np.inf

    counts = np.bincount(level)
    ends = counts.cumsum()
    starts = ends - counts
    widths = np.maximum.reduceat(n_par[order], starts) + 1 if k else starts
    bounds = list(zip(starts.tolist(), ends.tolist(), widths.tolist()))
    out_rows = rank[np.fromiter(map(at.__getitem__, dag.node_ids), np.intp, k)]
    return pos, stride, cum, bounds, order, out_rows


def sample_forward(bn: CategoricalBN, n: int, seed: int = 0) -> list[dict]:
    """Ancestral (forward) samples as a list of complete assignments."""
    ids = bn.node_ids
    return [dict(zip(ids, row)) for row in sample_forward_array(bn, n, seed).tolist()]
