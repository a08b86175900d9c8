"""Directed acyclic graphs and the structural queries used by inference.

Node identifiers are arbitrary hashable values (strings in practice).  The
position of a node in ``node_ids`` defines the canonical node order; every
set-valued result is returned as a tuple sorted by that order so that
downstream computations are reproducible no matter how the inputs were
assembled.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

from .errors import ArgumentError, CapacityError, CycleError, UnknownNodeError

NodeId = Hashable


class Dag:
    """A directed acyclic graph with a fixed node order.

    Parameters
    ----------
    node_ids:
        Sequence of distinct node identifiers; its order is canonical.
        String ids are interned, so graphs over the same names share them.
    edges:
        Iterable of (parent, child) pairs.  Self loops, duplicate edges and
        unknown endpoints are rejected; a directed cycle raises CycleError
        naming one offending cycle.

    The topological order ``_topo`` takes the smallest ready position
    first.  When every edge runs from a lower to a higher position (as the
    generators and canonical network files list them), that order is the
    node order itself: once every earlier node is taken, a node's parents
    are done and it is the smallest ready one.  Only other edge lists run
    the min-heap pass, which also builds the child lists; otherwise they
    are built on first use.
    """

    def __init__(self, node_ids: Sequence[NodeId], edges: Iterable[tuple] = ()):
        # a result that outlives its network (a report's node tuple) then
        # holds pointers to shared names, not a copy of every name
        self.node_ids = tuple(sys.intern(v) if type(v) is str else v for v in node_ids)
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ArgumentError("duplicate node ids in node list")
        self._index = index = {v: i for i, v in enumerate(self.node_ids)}

        parents = {v: [] for v in self.node_ids}
        edge_list = []
        seen = set()
        forward = True
        for edge in edges:
            u, v = edge
            if u not in index or v not in index:
                missing = u if u not in index else v
                raise UnknownNodeError(f"edge endpoint {missing!r} is not a node")
            if u == v:
                raise CycleError(f"self loop on {u!r}", cycle=(u, u))
            if (u, v) in seen:
                raise ArgumentError(f"duplicate edge {u!r} -> {v!r}")
            seen.add((u, v))
            edge_list.append((u, v))
            parents[v].append(u)
            if forward and index[u] > index[v]:
                forward = False
        self.edges = frozenset(edge_list)

        key = index.__getitem__
        self._parents = {
            v: tuple(ps) if len(ps) < 2 else tuple(sorted(ps, key=key)) for v, ps in parents.items()
        }
        self._topo = self.node_ids if forward else self._compute_topological_order()

    # -- basic queries ----------------------------------------------------

    def __contains__(self, v) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self.node_ids)

    def index(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownNodeError(f"unknown node {v!r}") from None

    def check_nodes(self, nodes: Iterable) -> None:
        """Raise UnknownNodeError unless every given node is in the graph."""
        for v in set(nodes).difference(self._index):
            self.index(v)

    def parents(self, v) -> tuple:
        try:
            return self._parents[v]
        except KeyError:
            raise UnknownNodeError(f"unknown node {v!r}") from None

    def children(self, v) -> tuple:
        try:
            return self._children[v]
        except KeyError:
            raise UnknownNodeError(f"unknown node {v!r}") from None

    def sort(self, nodes: Iterable) -> tuple:
        """Return the given nodes as a tuple in canonical order."""
        nodes = list(nodes)
        self.check_nodes(nodes)
        return tuple(sorted(nodes, key=self._index.__getitem__))

    def _ancestors(self, nodes: Iterable) -> set:
        """Union of strict ancestors of the given nodes, all known, unordered."""
        out = set()
        frontier = list(nodes)
        while frontier:
            for p in self._parents[frontier.pop()]:
                if p not in out:
                    out.add(p)
                    frontier.append(p)
        return out

    def subgraph(self, nodes: Iterable) -> "Dag":
        """Induced subgraph, node order inherited from this graph.

        Built without the constructor's checks (an induced subgraph of a DAG
        is a DAG) by linear passes over this graph's validated lists: the
        kept ids, in canonical and in topological order, are these lists
        filtered, and the result shares the node ids and every parent tuple
        that loses no member.  When no kept node loses a parent (an
        ancestral set), every parent tuple is shared and the topological
        order is this graph's, filtered: nodes outside the set never make a
        kept node ready, so they never change which kept node the min-heap
        order takes next.  Otherwise the order is recomputed.  The child
        lists and the edge set are built on first use.
        """
        return self._induced(set(nodes))[0]

    def _induced(self, keep: set) -> tuple["Dag", bool]:
        """:meth:`subgraph` on the kept set, and whether that set is ancestral."""
        self.check_nodes(keep)
        kept = keep.__contains__
        sub = Dag.__new__(Dag)
        sub.node_ids = ids = tuple(filter(kept, self.node_ids))
        sub._index = dict(zip(ids, range(len(ids))))
        parents = list(map(self._parents.__getitem__, ids))
        ancestral = keep.issuperset(itertools.chain.from_iterable(parents))
        if ancestral:
            sub._parents = dict(zip(ids, parents))
            sub._topo = tuple(filter(kept, self._topo))
        else:
            parents = [ps if keep.issuperset(ps) else tuple(filter(kept, ps)) for ps in parents]
            sub._parents = dict(zip(ids, parents))
            sub._topo = sub._compute_topological_order()
        return sub, ancestral

    @functools.cached_property
    def _children(self) -> dict:
        """Each node's children, in canonical order, read off the parent
        tuples on first use."""
        children = {v: [] for v in self.node_ids}
        for v in self.node_ids:
            for p in self._parents[v]:
                children[p].append(v)
        return {v: tuple(cs) for v, cs in children.items()}

    @functools.cached_property
    def edges(self) -> frozenset:
        """Every (parent, child) pair; the constructor sets it, and an
        induced subgraph builds it on first use."""
        return frozenset([(p, v) for v in self.node_ids for p in self._parents[v]])

    # -- topological order -------------------------------------------------

    def _compute_topological_order(self) -> tuple:
        indeg = {v: len(self._parents[v]) for v in self.node_ids}
        ready = [self._index[v] for v in self.node_ids if indeg[v] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            i = heapq.heappop(ready)
            v = self.node_ids[i]
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, self._index[c])
        if len(order) != len(self.node_ids):
            raise CycleError(
                "graph contains a directed cycle: " + " -> ".join(map(repr, self._find_cycle())),
                cycle=self._find_cycle(),
            )
        return tuple(order)

    def _find_cycle(self) -> tuple:
        # iterative DFS; returns one directed cycle for the error message
        color = {v: 0 for v in self.node_ids}  # 0 new, 1 active, 2 done
        parent = {}
        for start in self.node_ids:
            if color[start]:
                continue
            stack = [(start, iter(self._children[start]))]
            color[start] = 1
            while stack:
                v, it = stack[-1]
                advanced = False
                for c in it:
                    if color[c] == 0:
                        color[c] = 1
                        parent[c] = v
                        stack.append((c, iter(self._children[c])))
                        advanced = True
                        break
                    if color[c] == 1:
                        cyc = [c, v]
                        u = v
                        while u != c:
                            u = parent[u]
                            cyc.append(u)
                        cyc.reverse()
                        return tuple(cyc)
                if not advanced:
                    color[v] = 2
                    stack.pop()
        return ()


@dataclass(frozen=True)
class Triangulation:
    """Result of :func:`triangulate`, as node positions.

    ``elimination_order`` lists the positions in elimination order;
    ``cliques`` are the maximal cliques of the chordal completion, each a
    sorted tuple of positions, in sorted order.
    """

    elimination_order: tuple
    cliques: tuple


def moral_graph(families: Sequence[list]) -> list[set]:
    """The undirected graph in which each family (a list of positions) is a
    clique: entry i holds the neighbour positions of position i."""
    adj = [set() for _ in families]
    for family in families:
        for a in family:
            adj[a].update(family)
    for i, ns in enumerate(adj):
        ns.discard(i)
    return adj


def _fill_count(adj: list, v: int) -> int:
    """Number of missing edges among the neighbours of v."""
    ns = adj[v]
    d = len(ns)
    return d * (d - 1) // 2 - sum(len(adj[u] & ns) for u in ns) // 2


def triangulate(
    node_ids: Sequence[NodeId], adjacency: Sequence[set], cards: Sequence[int], table_cap: float
) -> Triangulation:
    """Greedy min-fill elimination, reading the cliques off as they form.

    ``adjacency[i]`` holds the neighbour positions of ``node_ids[i]``, whose
    order is canonical.  Each step eliminates the node with the fewest fill
    edges, breaking ties by smaller remaining degree and then by canonical
    position.  Only the keys that can change are recomputed: the eliminated
    node's neighbours get a fresh fill count (a step without fill edges
    updates it in O(1)), and any other node loses one for each new fill edge
    between two of its neighbours.

    The elimination clique of each step (the node and its remaining
    neighbours) is recorded as it forms, and one whose joint state count
    (``cards`` by position) exceeds ``table_cap`` raises CapacityError at
    once.  Every maximal clique of the chordal completion is an elimination
    clique and every elimination clique lies in a maximal one, so this
    refuses exactly the graphs whose largest clique table exceeds the cap.

    Once the graph left is complete, min-fill would take it in node order
    (every key ties), and of its elimination cliques only the first, the
    whole rest, can be maximal; so the rest is taken at once.  A complete
    graph returns without a single min-fill step.
    """
    n = len(node_ids)
    edges = sum(map(len, adjacency)) // 2
    left = n
    done = [False] * n
    order = []
    holders = [[] for _ in range(n)]  # the earlier elimination cliques holding each node
    maximal = []
    if 2 * edges < n * (n - 1):  # not complete: the loop below runs and needs the keys
        adj = [set(ns) for ns in adjacency]
        fill = [_fill_count(adj, v) if len(adj[v]) > 1 else 0 for v in range(n)]
        heap = [(fill[v], len(adj[v]), v) for v in range(n)]
        heapq.heapify(heap)
    while 2 * edges < left * (left - 1):
        f, d, v = heapq.heappop(heap)
        if done[v] or f != fill[v] or d != len(adj[v]):
            continue  # superseded key
        ns = adj[v]
        clique = ns | {v}
        _check_cap(node_ids, clique, cards, table_cap)
        # a later clique lacks v, so only an earlier one holding v can contain this one
        if not any(clique <= c for c in holders[v]):
            maximal.append(tuple(sorted(clique)))
        for u in ns:
            holders[u].append(clique)
            adj[u].discard(v)
        done[v] = True
        order.append(v)
        left -= 1
        edges += f - len(ns)  # v's edges go, its f fill edges come

        if f:
            fills = [(a, b) for a in ns for b in ns - adj[a] if a < b]
            for a, b in fills:
                adj[a].add(b)
                adj[b].add(a)
            touched = set(ns)
            for a, b in fills:
                for w in adj[a] & adj[b]:
                    if w not in ns:
                        fill[w] -= 1
                        touched.add(w)
            for u in ns:
                fill[u] = _fill_count(adj, u)
        else:  # v was simplicial: of the pairs u loses with v, only the
            # len(ns) - 1 towards v's other neighbours were edges
            for u in ns:
                fill[u] += len(ns) - 1 - len(adj[u])
            touched = ns
        for u in touched:
            heapq.heappush(heap, (fill[u], len(adj[u]), u))

    rest = [u for u in range(n) if not done[u]]
    if rest:
        clique = set(rest)
        _check_cap(node_ids, clique, cards, table_cap)
        if not any(clique <= c for c in holders[rest[0]]):
            maximal.append(tuple(rest))
        order.extend(rest)
    maximal.sort()
    return Triangulation(elimination_order=tuple(order), cliques=tuple(maximal))


def chordal_cliques(adjacency: Sequence[set]) -> Optional[tuple]:
    """The maximal cliques of a chordal graph, or None if it is not chordal.

    ``adjacency[i]`` holds the neighbour positions of position i.  Maximum
    cardinality search numbers next an unnumbered node with the most
    numbered neighbours (Tarjan & Yannakakis, SIAM J. Comput. 13(3), 1984),
    from buckets by that count, in time linear in the graph.  The graph is
    chordal exactly when, for every node, its neighbours numbered before it,
    less the last of them, are neighbours of that last one; the first node
    that fails this returns None.  A node and its earlier neighbours then
    form a clique, and that clique is maximal unless the next node numbered
    has more earlier neighbours (it extends it).  A chordal graph has one
    set of maximal cliques, so they equal :func:`triangulate`'s (which adds
    no fill edge to it): sorted position tuples, in sorted order.
    """
    n = len(adjacency)
    earlier = [[] for _ in range(n)]  # each node's numbered neighbours, in numbering order
    numbered = [False] * n
    buckets = [list(range(n - 1, -1, -1))]  # unnumbered nodes by len(earlier); stale entries skipped
    top = 0
    maximal = []
    clique = None  # the last numbered node with its earlier neighbours
    for _ in range(n):
        while True:
            bucket = buckets[top]
            if not bucket:
                top -= 1
                continue
            v = bucket.pop()
            if not numbered[v] and len(earlier[v]) == top:
                break
        before = earlier[v]
        if len(before) > 1 and not adjacency[before[-1]].issuperset(before[:-1]):
            return None
        if clique is not None and top < len(clique):
            maximal.append(tuple(sorted(clique)))
        clique = before + [v]
        numbered[v] = True
        for u in adjacency[v]:
            if not numbered[u]:
                earlier[u].append(v)
                k = len(earlier[u])
                if k > top:
                    top = k
                    if k == len(buckets):
                        buckets.append([])
                buckets[k].append(u)
    if clique is not None:
        maximal.append(tuple(sorted(clique)))
    maximal.sort()
    return tuple(maximal)


def _check_cap(node_ids: Sequence[NodeId], clique: set, cards: Sequence[int], table_cap: float) -> None:
    """Raise CapacityError if the clique's joint state count exceeds the cap."""
    if math.prod(cards[u] for u in clique) > table_cap:
        members = tuple(node_ids[u] for u in sorted(clique))
        raise CapacityError(f"clique {members} exceeds table cap ({table_cap} joint states)")
