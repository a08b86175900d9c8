"""Junction-tree inference for evidence sums over small variable groups.

The solver has two parts.  A plan depends only on a scope's structure: the
positions, in the scope, of each node's family, which nodes' CPTs enter,
the cardinalities and the table cap.  It holds the cliques, the tree that
joins them, each CPT's clique and the reshape (and axis
permutation) that lines the CPT up with that clique's axes, and the collect
schedule with each message's shape and summed axes.  The numeric pass fills
the tables from the CPTs, zeroes the entries that contradict the evidence
and runs the collect.  The same structure recurs across the subsets of one
query and across queries, so plans are kept, pickled, in a bounded
``functools.lru_cache`` keyed by that structure as bytes; a scope too large
for the key, or one over the table cap, is planned per call and not kept.

A plan is built in one pass over integer positions.  Every scope node's
family is read off its parent list once, as positions in the scope, and
serves twice: the families give the moral graph, and later each CPT's place.
Most moral graphs of subset scopes are chordal, and a chordal graph has one
set of maximal cliques, so maximum cardinality search
(:func:`bnmarg.graphs.chordal_cliques`) reads them off in linear time,
without eliminating anything.  A graph that is not chordal, or one with a
clique table over the cap, goes through greedy min-fill
(:func:`bnmarg.graphs.triangulate`), which finds the same cliques for a
chordal graph and refuses an oversized clique as soon as it forms, naming
it.  The cliques are then joined by a maximum-sepset-weight spanning tree,
and every requested CPT goes to the smallest clique containing its family;
only the cliques that hold the family's own node are searched, so placement
takes time linear in the total clique size, not quadratic in the scope.
In the numeric pass each CPT is reshaped straight into that clique's axis
order and multiplied in, table entries that contradict the observed
evidence are zeroed (one zero table and one copy per clique that holds
evidence), and one collect pass of sum-product messages runs to a root
whose belief then sums to the target probability.

In the benchmark's regime (two warm-up queries, then a closed loop) about
23 % of the exact subsets of a sparse 3,000-node ``sgs`` query, and about
39 % of those of the 120-node ``classify`` models, miss the cache.  Nearly
all of these misses are structures not seen before, so a larger cache would
keep few of them.  Nearly every missed ``sgs`` scope, and about three in
four missed ``classify`` scopes, has a chordal moral graph.

Boundary evidence nodes whose CPTs must act as the constant one (their
parents live outside the subgraph) are handled by simply not multiplying
their CPTs in: ``factor_nodes`` names the nodes whose CPTs enter.

Tables are kept in linear space with an attached log-scale that absorbs the
magnitude, so results remain exact in log space for networks far below the
double-precision floor.
"""

from __future__ import annotations

import math
import pickle
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import ArgumentError, CapacityError, InternalConsistencyError, UnknownNodeError
from .graphs import chordal_cliques, moral_graph, triangulate
from .network import CategoricalBN, require_integer

DEFAULT_TABLE_CAP = 2**20
# at most this many plans are kept, each for a scope of at most this many
# nodes; a larger scope is planned for each call and not kept
PLAN_CACHE_SIZE = 2048
PLAN_NODE_LIMIT = 64


class _Plan(NamedTuple):
    """What solving a scope needs that depends only on its structure, by position.

    ``cliques`` are position tuples in canonical order; ``edges`` are the tree
    edges as (i, j) clique pairs; ``placements`` hold, per requested CPT in
    scope order, (node position, clique, the shape that lines the CPT's axes
    up with the clique's, and the axis permutation to apply after that
    reshape, or None); ``collect`` is :func:`_collect_schedule` towards
    clique 0; ``shapes`` are the cliques' table shapes.
    """

    cliques: tuple
    edges: tuple
    placements: tuple
    collect: tuple
    shapes: tuple


class CliqueTree(NamedTuple):
    """A clique tree ready for message passing.

    ``nodes`` is the scope in canonical order and ``cards`` maps each of its
    nodes to its cardinality; ``potentials`` are linear-space arrays, one per
    clique, whose axes follow the clique's node order.  ``plan`` is the
    structure the tree was built from, by position in ``nodes``.
    """

    nodes: tuple
    potentials: tuple
    cards: Mapping
    plan: _Plan

    @property
    def cliques(self) -> tuple:
        """The cliques as node tuples in canonical order."""
        return tuple(tuple(map(self.nodes.__getitem__, c)) for c in self.plan.cliques)

    @property
    def tree_edges(self) -> tuple:
        """(i, j, sepset) triples forming a spanning tree over clique indices;
        the sepset may be empty when the moral graph is disconnected."""
        cliques, nodes = self.plan.cliques, self.nodes
        return tuple((i, j, tuple(nodes[u] for u in cliques[i] if u in cliques[j])) for i, j in self.plan.edges)


def _spanning_tree(holders: list[list], n: int) -> list[tuple]:
    """Maximum-sepset-weight spanning tree over ``n`` cliques (Kruskal).

    ``holders`` lists, for each variable, the cliques holding it in
    ascending order.  Only pairs that share a variable are scored, counted
    from that index, and taken by decreasing weight, then by index pair.
    What that leaves disconnected is joined by empty sepsets: clique 0 to
    the smallest clique of each other component, in ascending order, which
    is the pair order Kruskal would take among zero-weight pairs.  So a
    disconnected moral graph yields a tree whose cross-component messages
    are scalars.
    """
    if n < 3:  # one possible tree, whatever the weights
        return [(0, 1)] if n == 2 else []
    shared = Counter(chain.from_iterable(combinations(h, 2) for h in holders if len(h) > 1))
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


def _collect_schedule(cliques: tuple, edges: tuple, cards, root: int) -> tuple:
    """The collect pass towards ``root``, as (clique, children, summed axes,
    message shape) steps in which every clique comes after its children.

    ``children`` lists the child cliques in tree-edge order.  A clique's
    message sums its belief over the axes outside the sepset towards its
    parent and is reshaped to line up with the parent's axes; the root,
    which comes last, has neither.
    """
    n = len(cliques)
    adj = [[] for _ in range(n)]  # (neighbour, sepset), in tree-edge order
    for i, j in edges:
        sep = set(cliques[i]).intersection(cliques[j])
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

    steps = []
    for i in reversed(order):
        children = tuple([u for u, _ in adj[i] if u != parent[i]])
        if parent[i] < 0:
            steps.append((i, children, None, None))
            continue
        sep = up[i]
        axes = tuple([k for k, v in enumerate(cliques[i]) if v not in sep])
        shape = tuple([cards[v] if v in sep else 1 for v in cliques[parent[i]]])
        steps.append((i, children, axes, shape))
    return tuple(steps)


def _build_plan(scope: tuple, families: list, is_factor: list, cards: list, table_cap: int) -> _Plan:
    """Find the cliques of the scope's moral graph, join them into a tree and
    place every requested CPT; see :class:`_Plan`.

    A chordal moral graph whose every maximal clique fits under the cap
    takes its cliques from :func:`chordal_cliques`; any other goes through
    :func:`triangulate`, which finds the same cliques for a chordal graph and
    refuses an oversized one in its own words.
    """
    adjacency = moral_graph(families)
    cliques = chordal_cliques(adjacency)
    if cliques is None or any(math.prod(map(cards.__getitem__, c)) > table_cap for c in cliques):
        cliques = triangulate(scope, adjacency, cards, table_cap)
    clique_sets = [set(c) for c in cliques]
    holders = [[] for _ in scope]  # the cliques holding each position, ascending
    for c, clique in enumerate(cliques):
        for u in clique:
            holders[u].append(c)
    edges = tuple(_spanning_tree(holders, len(cliques)))
    placements = []
    for i, family in enumerate(families):
        if not is_factor[i]:
            continue
        k = -1  # the smallest clique covering the family, which holds i;
        # ties fall to the first, which is the canonically smallest content
        for c in holders[i]:
            members = clique_sets[c]
            if (k < 0 or len(members) < len(clique_sets[k])) and members.issuperset(family):
                k = c
        if k < 0:
            raise InternalConsistencyError(f"no clique contains family of {scope[i]!r}")
        clique = cliques[k]
        # the CPT's axes are the node's parents in canonical order, then the
        # node: one reshape puts them in clique order with singleton axes for
        # the rest, unless a parent follows the node; then its axis, last,
        # moves to its slot
        if len(family) < 2 or family[-2] < i:
            shape = tuple([cards[u] if u in family else 1 for u in clique])
            perm = None
        else:
            shape = tuple([cards[u] if u in family else 1 for u in clique if u != i] + [cards[i]])
            perm = list(range(len(clique) - 1))
            perm.insert(clique.index(i), len(clique) - 1)
            perm = tuple(perm)
        placements.append((i, k, shape, perm))
    return _Plan(
        cliques=cliques,
        edges=edges,
        placements=tuple(placements),
        collect=_collect_schedule(cliques, edges, cards, 0),
        shapes=tuple([tuple([cards[u] for u in c]) for c in cliques]),
    )


def _split_families(flat) -> list:
    """The families that ``flat`` lists one after another, each ending with
    its own node's position (the number of families before it)."""
    families, family = [], []
    for u in flat:
        family.append(u)
        if u == len(families):
            families.append(family)
            family = []
    return families


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(key: bytes, table_cap: int) -> bytes:
    """The pickled plan of the scope structure that ``key`` encodes, built
    with positions as node names.

    ``key`` is one byte string: the scope's length ``n``, each node's factor
    flag and cardinality, then the families' positions, each family ending
    with its own node's position.  A plan is kept pickled: its bytes take
    about an eighth of the memory of the tuples they load back into.
    """
    n = key[0]
    is_factor = key[1 : n + 1]
    cards = list(key[n + 1 : 2 * n + 1])
    plan = _build_plan(tuple(range(n)), _split_families(key[2 * n + 1 :]), is_factor, cards, table_cap)
    return pickle.dumps(tuple(plan), pickle.HIGHEST_PROTOCOL)


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

    The cliques of a chordal moral graph come from maximum cardinality
    search (:func:`bnmarg.graphs.chordal_cliques`); any other, or one with a
    clique over the cap, goes through min-fill elimination
    (:func:`bnmarg.graphs.triangulate`), which raises CapacityError as soon
    as an elimination clique's joint state count exceeds ``table_cap``:
    before the rest of the graph is eliminated and before any table is
    allocated.  Each scope node's family is read off its parent list once,
    as positions in the scope; the families key the plan cache and give the
    moral graph and each CPT's placement.  A scope the cache cannot key or
    refuses is planned without it, in its own names.  ``nodes`` and
    ``factor_nodes`` may be any iterables; repeats count once.  A
    ``table_cap`` that is not an integer raises ArgumentError; one below 2
    refuses every clique.
    """
    require_integer("table_cap", table_cap, ArgumentError)
    dag = bn.dag
    if nodes is None:
        scope = dag.node_ids
    else:
        nodes = set(nodes)
        try:
            scope = tuple(sorted(nodes, key=dag._index.__getitem__))
        except KeyError as missing:
            raise UnknownNodeError(f"unknown node {missing.args[0]!r}") from None
    if not scope:
        raise ArgumentError("empty node set")
    pos = dict(zip(scope, range(len(scope))))
    factors = pos.keys() if factor_nodes is None else set(factor_nodes)
    if not factors <= pos.keys():
        raise ArgumentError("factor_nodes must be a subset of nodes")

    parents = dag._parents
    is_factor = [v in factors for v in scope]
    families = []  # each node's parents' positions in the scope, ascending, then its own
    for i, v in enumerate(scope):
        ps = parents[v]
        family = [pos[p] for p in ps if p in pos]
        if len(family) < len(ps) and is_factor[i]:
            raise ArgumentError(f"family of factor node {v!r} reaches outside the subgraph")
        families += family
        families.append(i)

    cards = list(map(bn.cardinalities.__getitem__, scope))
    plan = None
    if len(scope) <= PLAN_NODE_LIMIT and max(cards) < 256:
        key = bytes([len(scope), *is_factor, *cards, *families])
        try:
            plan = _Plan._make(pickle.loads(_plan(key, table_cap)))
        except CapacityError:
            pass  # refused again below, in the scope's own node names
    if plan is None:
        plan = _build_plan(scope, _split_families(families), is_factor, cards, table_cap)
    cpts = bn.cpts
    shapes = plan.shapes
    potentials = [None] * len(shapes)
    for i, k, shape, perm in plan.placements:
        table = cpts[scope[i]].reshape(shape)
        if perm is not None:
            table = table.transpose(perm)
        pot = potentials[k]
        if pot is None:  # one times a table is that table: copy it in
            potentials[k] = pot = np.empty(shapes[k])
            pot[...] = table
        else:
            pot *= table
    for k, pot in enumerate(potentials):
        if pot is None:
            potentials[k] = np.ones(shapes[k])
    return CliqueTree(scope, tuple(potentials), dict(zip(scope, cards)), plan)


def incorporate_evidence(jt: CliqueTree, values: Mapping) -> CliqueTree:
    """Zero every potential entry inconsistent with the observed values.

    Returns a new tree; the input is not modified.  A clique holding
    evidence gets a fresh zero table with the consistent entries copied in;
    the others share their tables with the input.  Each clique's index is
    read straight from ``values`` by node name.
    """
    cards = jt.cards
    if not cards.keys() >= values.keys():
        raise ArgumentError("evidence names nodes outside the clique tree scope")
    for v, s in values.items():
        if not 0 <= s < cards[v]:
            raise ArgumentError(f"state {s} out of range for {v!r}")
    nodes = jt.nodes
    every = slice(None)
    pots = list(jt.potentials)
    for k, clique in enumerate(jt.plan.cliques):
        at = tuple([values.get(nodes[u], every) for u in clique])
        if at.count(every) < len(at):
            pot = pots[k]
            pots[k] = np.zeros(pot.shape)
            pots[k][at] = pot[at]
    return CliqueTree(nodes, tuple(pots), cards, jt.plan)


def log_tree_sum(jt: CliqueTree, root: int = 0) -> float:
    """Collect sum-product messages to ``root`` and return log sum of belief.

    One upward pass suffices for a total sum: each edge message sums its
    clique's belief over the variables outside the sepset, and the root
    belief's total is the requested probability mass.  Invariant under the
    choice of root.  The schedule towards clique 0 comes with the plan;
    another root's is derived the same way.
    """
    plan = jt.plan
    n = len(plan.cliques)
    if not 0 <= root < n:
        raise ArgumentError(f"root index {root} out of range")
    if root == 0:
        steps = plan.collect
    else:
        steps = _collect_schedule(plan.cliques, plan.edges, [jt.cards[v] for v in jt.nodes], root)

    potentials = jt.potentials
    messages = [None] * n
    for i, children, axes, shape in steps:
        val = potentials[i]
        scale = 0.0
        for u in children:
            msg, s = messages[u]
            val = val * msg
            scale += s
        if axes is not None:
            # the ufunc reductions ndarray.sum and ndarray.max call, without their Python wrappers
            msg = np.add.reduce(val, axis=axes)
            m = float(np.maximum.reduce(msg, axis=None))
            if m > 0.0:
                msg = msg / m
                scale += math.log(m)
            else:
                scale = 0.0  # all-zero message: contradiction propagates as zero
            messages[i] = (msg.reshape(shape), scale)

    # the root comes last, so val and scale are its belief
    total = float(np.add.reduce(val, axis=None))
    if total <= 0.0:
        return -math.inf
    return math.log(total) + scale
