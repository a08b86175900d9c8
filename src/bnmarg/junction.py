"""Junction-tree inference for evidence sums over small variable groups.

Each scope is solved in one pass over integer positions.  Every scope node's
family is read off its parent list once, as positions in the scope, and
serves twice: the families give the moral graph, and later each CPT's place.
Greedy min-fill eliminates the moral graph's nodes and records each
elimination clique as it forms, so the maximal cliques come out of the same
pass and a clique whose table would exceed the cap stops the build at once;
once the graph left is complete it is taken whole, so a complete moral graph
(one clique: about half the subsets of a sparse query) needs no elimination
step at all.  The cliques are then joined by a maximum-sepset-weight spanning
tree, every requested CPT is reshaped straight into the axis order of the
smallest clique containing its family and multiplied in, table entries that
contradict the observed evidence are zeroed (one zero table and one copy per
clique that holds evidence), and one collect pass of sum-product messages
runs to a root whose belief then sums to the target probability.

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
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import ArgumentError, InternalConsistencyError
from .graphs import moral_graph, triangulate
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
    before any table is allocated.  Each scope node's family is read off its
    parent list once, as positions in the scope, and serves both the moral
    graph and the placement of its CPT.
    """
    dag = bn.dag
    if nodes is None:
        scope = dag.node_ids
    else:
        scope = dag.sort(set(nodes))
    if not scope:
        raise ArgumentError("empty node set")
    pos = {v: i for i, v in enumerate(scope)}
    factors = pos.keys() if factor_nodes is None else set(factor_nodes)
    if not factors <= pos.keys():
        raise ArgumentError("factor_nodes must be a subset of nodes")

    parents = dag._parents
    families = []  # positions of each node's parents in the scope, ascending, then its own
    for i, v in enumerate(scope):
        ps = parents[v]
        family = [pos[p] for p in ps if p in pos]
        if len(family) < len(ps) and v in factors:
            raise ArgumentError(f"family of factor node {v!r} reaches outside the subgraph")
        family.append(i)
        families.append(family)

    cards = [bn.cardinalities[v] for v in scope]
    tri = triangulate(scope, moral_graph(families), cards, table_cap)
    cliques = tri.positions
    clique_sets = [set(c) for c in cliques]
    tree = []
    for i, j in _spanning_tree(cliques):
        tree.append((i, j, tuple(scope[u] for u in cliques[i] if u in clique_sets[j])))

    potentials = [None] * len(cliques)
    for i, v in enumerate(scope):
        if v not in factors:
            continue
        family = families[i]
        k = -1  # the smallest clique covering the family; ties fall to the
        # first, which is the canonically smallest content
        for c, members in enumerate(clique_sets):
            if (k < 0 or len(members) < len(clique_sets[k])) and members.issuperset(family):
                k = c
        if k < 0:
            raise InternalConsistencyError(f"no clique contains family of {v!r}")
        clique = cliques[k]
        # the CPT's axes are v's parents in canonical order, then v: one
        # reshape puts them in clique order with singleton axes for the rest,
        # unless a parent follows v; then v's axis, last, moves to its slot
        if len(family) < 2 or family[-2] < i:
            table = bn.cpts[v].reshape([cards[u] if u in family else 1 for u in clique])
        else:
            shape = [cards[u] if u in family else 1 for u in clique if u != i]
            table = np.moveaxis(bn.cpts[v].reshape(shape + [cards[i]]), -1, clique.index(i))
        if potentials[k] is None:  # one times a table is that table: copy it in
            potentials[k] = np.empty([cards[u] for u in clique])
            potentials[k][...] = table
        else:
            potentials[k] *= table
    for k, c in enumerate(cliques):
        if potentials[k] is None:
            potentials[k] = np.ones([cards[u] for u in c])
    return CliqueTree(
        nodes=scope,
        cliques=tri.cliques,
        tree_edges=tuple(tree),
        potentials=tuple(potentials),
        cards=dict(zip(scope, cards)),
    )


def incorporate_evidence(jt: CliqueTree, values: Mapping) -> CliqueTree:
    """Zero every potential entry inconsistent with the observed values.

    Returns a new tree; the input is not modified.  A clique holding
    evidence gets a fresh zero table with the consistent entries copied in;
    the others share their tables with the input.
    """
    cards = jt.cards
    if not cards.keys() >= values.keys():
        raise ArgumentError("evidence names nodes outside the clique tree scope")
    for v, s in values.items():
        if not 0 <= s < cards[v]:
            raise ArgumentError(f"state {s} out of range for {v!r}")
    pots = []
    for c, pot in zip(jt.cliques, jt.potentials):
        if not values.keys().isdisjoint(c):
            at = tuple(values[v] if v in values else slice(None) for v in c)
            out = np.zeros(pot.shape)
            out[at] = pot[at]
            pot = out
        pots.append(pot)
    return CliqueTree(jt.nodes, jt.cliques, jt.tree_edges, tuple(pots), cards)


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
    adj = [[] for _ in range(n)]  # (neighbour, sepset), in tree-edge order
    for i, j, sep in jt.tree_edges:
        adj[i].append((j, sep))
        adj[j].append((i, sep))

    # breadth-first from the root; reversed, every clique comes after its children
    order = [root]
    parent = [None] * n
    parent[root] = -1
    up = [()] * n  # sepset towards the parent
    for v in order:  # order grows while it is read
        for u, sep in adj[v]:
            if parent[u] is None:
                parent[u] = v
                up[u] = sep
                order.append(u)
    if len(order) != n:
        raise InternalConsistencyError("clique tree is not connected")

    cards = jt.cards
    messages = [None] * n
    for i in reversed(order):
        clique = jt.cliques[i]
        val = jt.potentials[i]
        scale = 0.0
        for u, sep in adj[i]:
            if u == parent[i]:
                continue
            msg, s = messages[u]
            val = val * msg.reshape([cards[v] if v in sep else 1 for v in clique])
            scale += s
        if parent[i] >= 0:
            sep = up[i]
            msg = val.sum(axis=tuple(k for k, v in enumerate(clique) if v not in sep))
            m = float(msg.max())
            if m > 0.0:
                msg = msg / m
                scale += math.log(m)
            else:
                scale = 0.0  # all-zero message: contradiction propagates as zero
            messages[i] = (msg, scale)

    # the root comes last, so val and scale are its belief
    total = float(val.sum())
    if total <= 0.0:
        return -math.inf
    return math.log(total) + scale
