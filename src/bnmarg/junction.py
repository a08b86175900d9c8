"""Junction-tree inference for evidence sums over small variable groups.

The pipeline is the classical one, with the first three steps done in a
single elimination pass: the moral graph of the scope is read off the parent
lists, greedy min-fill eliminates its nodes, and each elimination clique is
recorded as it forms, so the maximal cliques come out of the same pass and a
clique whose table would exceed the cap stops the build at once.  The
cliques are then joined by a maximum-sepset-weight spanning tree, every
requested CPT is multiplied into the smallest clique containing its family,
table entries that contradict the observed evidence are zeroed, and one
collect pass of sum-product messages runs to a root whose belief then sums
to the target probability.

Boundary evidence nodes whose CPTs must act as the constant one (their
parents live outside the subgraph) are handled by simply not multiplying
their CPTs in: ``factor_nodes`` names the nodes whose CPTs enter.

Tables are kept in linear space with an attached log-scale that absorbs the
magnitude, so results remain exact in log space for networks far below the
double-precision floor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, combinations
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import ArgumentError, InternalConsistencyError
from .graphs import moral_adjacency, triangulate
from .network import CategoricalBN

DEFAULT_TABLE_CAP = 2**20


@dataclass(frozen=True)
class CliqueTree:
    """A clique tree ready for message passing.

    ``cliques`` hold node tuples in canonical order; ``tree_edges`` are
    (i, j, sepset) triples forming a spanning tree over clique indices (the
    sepset may be empty when the moral graph is disconnected); ``potentials``
    are linear-space arrays whose axes follow the clique's node order.
    """

    nodes: tuple
    cliques: tuple
    tree_edges: tuple
    potentials: tuple
    cards: Mapping


def _smallest_clique(clique_sets: list, family: tuple) -> int:
    """Index of the smallest clique covering the family, -1 if none does; ties
    fall to the first, which is the canonically smallest content."""
    covering = (i for i, c in enumerate(clique_sets) if c.issuperset(family))
    return min(covering, key=lambda i: len(clique_sets[i]), default=-1)


def _spanning_tree(cliques: list[tuple]) -> list[tuple]:
    """Maximum-sepset-weight spanning tree over the cliques (Kruskal).

    Only pairs that share a variable are scored, counted from a variable →
    cliques index, and taken by decreasing weight, then by index pair.  What
    that leaves disconnected is joined by empty sepsets: clique 0 to the
    smallest clique of each other component, in ascending order, which is
    the pair order Kruskal would take among zero-weight pairs.  So a
    disconnected moral graph yields a tree whose cross-component messages
    are scalars.
    """
    n = len(cliques)
    if n < 3:  # one possible tree, whatever the weights
        return [(0, 1)] if n == 2 else []
    holders = {}
    for i, c in enumerate(cliques):
        for v in c:
            holders.setdefault(v, []).append(i)
    shared = Counter(chain.from_iterable(combinations(h, 2) for h in holders.values() if len(h) > 1))
    cand = sorted([(-w, i, j) for (i, j), w in shared.items()])
    cand += [(0, 0, j) for j in range(1, n)]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for negw, i, j in cand:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        edges.append((i, j))
        if len(edges) == n - 1:
            break
    return edges


def build_junction_tree(
    bn: CategoricalBN,
    nodes: Optional[Iterable] = None,
    factor_nodes: Optional[Iterable] = None,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> CliqueTree:
    """Clique tree over the induced subgraph on ``nodes``.

    ``factor_nodes`` names the nodes whose CPTs are multiplied into the
    potentials (default: all of ``nodes``); each such node's family must lie
    inside ``nodes``.  The product of all potentials therefore equals the
    product of exactly the requested CPTs.

    The cliques come from one min-fill elimination pass over the scope's
    moral graph (:func:`bnmarg.graphs.triangulate`), which raises
    CapacityError as soon as an elimination clique's joint state count
    exceeds ``table_cap``: before the rest of the graph is eliminated and
    before any table is allocated.
    """
    dag = bn.dag
    if nodes is None:
        node_set = set(dag.node_ids)
    else:
        node_set = set(nodes)
        dag.check_nodes(node_set)
    scope = dag.sort(node_set)
    if not scope:
        raise ArgumentError("empty node set")
    factors = set(scope) if factor_nodes is None else set(factor_nodes)
    if not factors <= node_set:
        raise ArgumentError("factor_nodes must be a subset of nodes")

    for v in factors:
        if not set(dag.parents(v)) <= node_set:
            raise ArgumentError(
                f"family of factor node {v!r} reaches outside the subgraph"
            )

    cards = [bn.cardinalities[v] for v in scope]
    cliques = triangulate(scope, moral_adjacency(dag, scope), cards, table_cap).cliques

    clique_sets = [set(c) for c in cliques]
    tree = []
    for i, j in _spanning_tree(cliques):
        sep = tuple(v for v in cliques[i] if v in clique_sets[j])
        tree.append((i, j, sep))

    potentials = [np.ones([bn.cardinalities[v] for v in c], dtype=float) for c in cliques]
    for v in scope:
        if v not in factors:
            continue
        family, table = bn.family_table(v)
        k = _smallest_clique(clique_sets, family)
        if k < 0:
            raise InternalConsistencyError(f"no clique contains family of {v!r}")
        potentials[k] *= _expand(table, family, cliques[k], bn.cardinalities)
    return CliqueTree(
        nodes=scope,
        cliques=tuple(cliques),
        tree_edges=tuple(tree),
        potentials=tuple(potentials),
        cards={v: bn.cardinalities[v] for v in scope},
    )


def _expand(table: np.ndarray, vars_: tuple, clique: tuple, cards: Mapping) -> np.ndarray:
    """Reshape a table over a subset of a clique's variables for broadcasting.

    Both variable tuples are in canonical order, so inserting singleton axes
    suffices; no transposition is needed.
    """
    present = set(vars_)
    shape = [cards[v] if v in present else 1 for v in clique]
    return table.reshape(shape)


def incorporate_evidence(jt: CliqueTree, values: Mapping) -> CliqueTree:
    """Zero every potential entry inconsistent with the observed values.

    Returns a new tree; the input is not modified.
    """
    if not set(values) <= set(jt.nodes):
        raise ArgumentError("evidence names nodes outside the clique tree scope")
    pots = []
    for c, pot in zip(jt.cliques, jt.potentials):
        pot = pot.copy()
        for axis, v in enumerate(c):
            if v not in values:
                continue
            s = values[v]
            if not 0 <= s < jt.cards[v]:
                raise ArgumentError(f"state {s} out of range for {v!r}")
            sel = [slice(None)] * pot.ndim
            sel[axis] = np.arange(jt.cards[v]) != s
            pot[tuple(sel)] = 0.0
        pots.append(pot)
    return replace(jt, potentials=tuple(pots))


def log_tree_sum(jt: CliqueTree, root: int = 0) -> float:
    """Collect sum-product messages to ``root`` and return log sum of belief.

    One upward pass suffices for a total sum: each edge message sums its
    clique's belief over the variables outside the sepset, and the root
    belief's total is the requested probability mass.  Invariant under the
    choice of root.
    """
    n = len(jt.cliques)
    if not 0 <= root < n:
        raise ArgumentError(f"root index {root} out of range")
    adj = {i: [] for i in range(n)}
    seps = {}
    for i, j, sep in jt.tree_edges:
        adj[i].append(j)
        adj[j].append(i)
        seps[(i, j)] = sep
        seps[(j, i)] = sep

    # iterative post-order from the root
    order = []
    parent = {root: -1}
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    if len(order) != n:
        raise InternalConsistencyError("clique tree is not connected")

    beliefs: dict[int, tuple[np.ndarray, float]] = {}
    messages: dict[int, tuple[np.ndarray, float]] = {}
    for i in reversed(order):
        pot = jt.potentials[i]
        scale = 0.0
        val = pot
        for u in adj[i]:
            if u == parent[i]:
                continue
            msg, s = messages[u]
            val = val * _expand(msg, seps[(u, i)], jt.cliques[i], jt.cards)
            scale += s
        beliefs[i] = (val, scale)
        if parent[i] >= 0:
            sep = set(seps[(i, parent[i])])
            axes = tuple(k for k, v in enumerate(jt.cliques[i]) if v not in sep)
            msg = val.sum(axis=axes) if axes else val.copy()
            m = float(msg.max()) if msg.size else 0.0
            if m > 0.0:
                msg = msg / m
                scale += math.log(m)
            else:
                scale = 0.0  # all-zero message: contradiction propagates as zero
            messages[i] = (msg, scale)

    val, scale = beliefs[root]
    total = float(val.sum())
    if total <= 0.0:
        return -math.inf
    return math.log(total) + scale
