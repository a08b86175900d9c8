"""Shared builders and independent oracles.

The oracles re-derive answers along a second route (explicit path
enumeration, brute-force summation over complete joint assignments, cycle
enumeration) so the library's algorithms are never checked against
themselves.  They are exponential and meant for the small instances the
tests use.
"""

import heapq
import itertools
import math
import sys
from collections import namedtuple

import numpy as np

from bnmarg.decompose import SubsetBoundary
from bnmarg.errors import ArgumentError, CycleError, UnknownNodeError
from bnmarg.graphs import Dag, moral_graph, triangulate
from bnmarg.junction import _collect_schedule, _Plan, _spanning_tree
from bnmarg.network import CategoricalBN, sample_forward_array
from bnmarg.sampling import ImportanceDistribution


def rand_dag(rng, n, p):
    """Erdos-Renyi style DAG on named nodes, edges oriented low to high."""
    names = tuple(f"n{i}" for i in range(n))
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Dag(names, edges)


def rand_bn(rng, n, p=0.3, cards=(2, 3)):
    return rand_cpts(rng, rand_dag(rng, n, p), cards)


def sparse_er_dag(rng, n, mean_degree):
    """Random DAG with edge probability ``mean_degree / (n - 1)``, drawn one
    row at a time, over a shuffled node list (parents may follow children)."""
    p = mean_degree / (n - 1)
    names = [f"n{i}" for i in range(n)]
    edges = [
        (names[i], names[i + 1 + int(j)]) for i in range(n - 1) for j in np.flatnonzero(rng.random(n - 1 - i) < p)
    ]
    return Dag([names[i] for i in rng.permutation(n)], edges)


def rand_cpts(rng, dag, cards=(2, 3)):
    """A network on ``dag`` with cardinalities drawn from ``cards`` and
    strictly positive random CPT rows."""
    cardinalities = {v: int(rng.choice(cards)) for v in dag.node_ids}
    cpts = {}
    for v in dag.node_ids:
        rows = 1
        for u in dag.parents(v):
            rows *= cardinalities[u]
        t = rng.random((rows, cardinalities[v])) + 1e-3
        cpts[v] = t / t.sum(axis=1, keepdims=True)
    return CategoricalBN(dag, cardinalities, cpts)


def rand_evidence(rng, bn, count):
    idx = rng.choice(len(bn.node_ids), size=count, replace=False)
    return {
        bn.node_ids[i]: int(rng.integers(bn.cardinalities[bn.node_ids[i]]))
        for i in sorted(idx)
    }


def sparse_bn(rng, n, p=0.35):
    """Random network with cardinalities 2-5, about 40 % zero CPT entries and
    some deterministic rows."""
    bn = rand_bn(rng, n, p, cards=(2, 3, 4, 5))
    cpts = {}
    for v in bn.node_ids:
        t = np.array(bn.cpts[v])
        t[rng.random(t.shape) < 0.4] = 0.0
        for r in range(t.shape[0]):
            if t[r].sum() == 0.0 or rng.random() < 0.1:
                t[r] = 0.0
                t[r, rng.integers(t.shape[1])] = 1.0
        cpts[v] = t / t.sum(axis=1, keepdims=True)
    return CategoricalBN(bn.dag, bn.cardinalities, cpts)


def reordered(rng, bn):
    """``bn`` with its node list shuffled, so parents may follow their children
    in canonical order; CPT rows are then read with the new parent order."""
    ids = tuple(bn.node_ids[i] for i in rng.permutation(len(bn)))
    return CategoricalBN(Dag(ids, bn.dag.edges), bn.cardinalities, bn.cpts)


def reference_sample_forward_array(bn, n, rng):
    """Forward draws one node at a time in topological order, one
    ``rng.random(n)`` call and one inverse-CDF lookup in the node's cumulated
    CPT rows each: the sampler the level-batched one replaced."""
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


def reference_gen_cpts(dag, categories, seed):
    """The tables ``randnet.gen_cpts`` draws, one ``rng.random`` call and one
    normalization per node, and the generator that drew them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cpts = {}
    for v in dag.node_ids:
        table = rng.random((categories ** len(dag.parents(v)), categories))
        cpts[v] = table / table.sum(axis=1, keepdims=True)
    return cpts, rng


def brute_marginal(bn, evidence):
    """P(evidence) by plain iteration over every complete assignment."""
    free = [v for v in bn.node_ids if v not in evidence]
    total = 0.0
    for combo in itertools.product(*(range(bn.cardinalities[v]) for v in free)):
        x = dict(evidence)
        x.update(zip(free, combo))
        term = 1.0
        for v in bn.node_ids:
            term *= float(bn.cpts[v][bn.row_index(v, x), x[v]])
        total += term
    return total


def reference_log_weights(bn, factor_nodes, samples, evidence, m):
    """Sum of log CPT lookups for the given factor nodes, one factor at a time
    in node order, vectorized over the m samples: the route the importance
    weights took before they were computed from stacked clamped tables."""
    states = {**samples, **evidence}
    logw = np.zeros(m)
    with np.errstate(divide="ignore"):
        for v in bn.dag.sort(set(factor_nodes)):
            logw = logw + np.log(bn.cpts[v])[bn.row_index(v, states), states[v]]
    return logw


def reference_log_prob(q, draws):
    """Log density under ``q`` of each column of ``draws``, the node terms
    added one at a time in node order."""
    with np.errstate(divide="ignore"):
        log_p = np.log(q.probs)
    total = np.zeros(draws.shape[1])
    for t in np.take_along_axis(log_p, draws, axis=1):
        total = total + t
    return total


def parent_strides(bn, v):
    """Mixed-radix stride of each canonical parent in v's CPT row index."""
    ps = bn.dag.parents(v)
    strides = [1] * len(ps)
    for i in range(len(ps) - 2, -1, -1):
        strides[i] = strides[i + 1] * bn.cardinalities[ps[i + 1]]
    return strides


def reference_gibbs_proposal(bn, evidence, cfg, rng, burn_in=100):
    """The Gibbs-frequency proposal read straight off the CPTs: a node's
    conditional is its own CPT entry times each child's, children in node
    order, every row index formed from parent strides and the chain state
    with the evidence written in.  The chain that ``gibbs_proposal`` ran
    before it read the clamped factors."""
    free = [v for v in bn.node_ids if v not in evidence]
    cols = {v: i for i, v in enumerate(bn.node_ids)}
    state = list(sample_forward_array(bn, 1, rng)[0])
    for v, s in evidence.items():
        state[cols[v]] = int(s)
    plan = []
    for v in free:
        kids = []
        for c in bn.dag.children(v):
            ks, vstride = [], 0
            for p, stride in zip(bn.dag.parents(c), parent_strides(bn, c)):
                if p == v:
                    vstride = stride
                else:
                    ks.append((cols[p], stride))
            kids.append((bn.cpts[c].ravel().tolist(), bn.cardinalities[c], cols[c], ks, vstride))
        pcols = [(cols[p], st) for p, st in zip(bn.dag.parents(v), parent_strides(bn, v))]
        plan.append((cols[v], bn.cpts[v].ravel().tolist(), bn.cardinalities[v], pcols, kids))

    m = cfg.sample_count
    cards = np.array([bn.cardinalities[v] for v in free], dtype=int)
    live = np.arange(cards.max(initial=0)) < cards[:, None]
    counts = np.zeros(live.shape)
    for sweep in range(burn_in + m):
        u = rng.random(len(plan))
        for k, (col, own, card, pcols, kids) in enumerate(plan):
            base = sum(st * state[pc] for pc, st in pcols) * card
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
            counts[np.arange(len(free)), [state[cols[v]] for v in free]] += 1
    f = np.maximum(counts / m, cfg.belief_floor) * live
    return ImportanceDistribution(nodes=tuple(free), probs=f / f.sum(axis=1, keepdims=True))


def _all_paths(dag, start, goal):
    """Every simple undirected path between start and goal, as node lists."""
    neigh = {v: set(dag.parents(v)) | set(dag.children(v)) for v in dag.node_ids}
    paths = []
    stack = [(start, [start])]
    while stack:
        v, path = stack.pop()
        if v == goal:
            paths.append(path)
            continue
        for w in neigh[v]:
            if w not in path:
                stack.append((w, path + [w]))
    return paths


def _descendants(dag, v):
    """Strict descendants of v, by walking the child lists."""
    out, stack = set(), [v]
    while stack:
        for c in dag.children(stack.pop()):
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def _path_active(dag, path, z):
    """Classic triple classification: chains and forks block when observed,
    colliders block unless they or a descendant are observed."""
    zset = set(z)
    for i in range(1, len(path) - 1):
        prev, mid, nxt = path[i - 1], path[i], path[i + 1]
        into_left = mid in dag.children(prev)
        into_right = mid in dag.children(nxt)
        if into_left and into_right:
            observed_below = mid in zset or not zset.isdisjoint(_descendants(dag, mid))
            if not observed_below:
                return False
        elif mid in zset:
            return False
    return True


def path_d_separated(dag, a, b, z):
    """d-separation by exhaustive path enumeration (the independent oracle)."""
    for x in a:
        for y in b:
            for path in _all_paths(dag, x, y):
                if _path_active(dag, path, z):
                    return False
    return True


def ancestors_of_set(dag, nodes):
    """Union of strict ancestors of the given nodes, canonical order."""
    nodes = set(nodes)
    dag.check_nodes(nodes)
    return dag.sort(dag._ancestors(nodes))


def d_separated(dag, a, b, z=()):
    """True iff every undirected path between a and b is blocked given z.

    Linear-time reachability over (node, approach-direction) states: a trail
    may pass through a non-collider only when the node is unobserved, and
    through a collider only when the node has an observed descendant (itself
    included).  The three node sets must be pairwise disjoint.
    """
    a = frozenset(a)
    b = frozenset(b)
    z = frozenset(z)
    dag.check_nodes(a | b | z)
    if a & b or a & z or b & z:
        raise ArgumentError("d-separation query requires pairwise disjoint node sets")
    if not a or not b:
        raise ArgumentError("d-separation query requires non-empty endpoint sets")

    obs_anc = set(z)
    obs_anc.update(ancestors_of_set(dag, z))

    # state: (node, came_from_child). Sources behave as if entered from a child.
    visited = set()
    frontier = [(s, True) for s in a]
    while frontier:
        v, from_child = frontier.pop()
        if (v, from_child) in visited:
            continue
        visited.add((v, from_child))
        if v in b:
            return False
        if from_child:
            if v not in z:
                for p in dag.parents(v):
                    frontier.append((p, True))
                for c in dag.children(v):
                    frontier.append((c, False))
        else:
            if v not in z:
                for c in dag.children(v):
                    frontier.append((c, False))
            if v in obs_anc:
                for p in dag.parents(v):
                    frontier.append((p, True))
    return True


def reference_dag(node_ids, edges=()):
    """``Dag(node_ids, edges)`` as the constructor built it before forward
    edge lists skipped the min-heap pass: every parent tuple sorted, the
    child lists built, and the topological order taken from the heap."""
    dag = Dag.__new__(Dag)
    dag.node_ids = tuple(sys.intern(v) if type(v) is str else v for v in node_ids)
    if len(set(dag.node_ids)) != len(dag.node_ids):
        raise ArgumentError("duplicate node ids in node list")
    dag._index = {v: i for i, v in enumerate(dag.node_ids)}

    edge_list = []
    seen = set()
    for edge in edges:
        u, v = edge
        if u not in dag._index or v not in dag._index:
            missing = u if u not in dag._index else v
            raise UnknownNodeError(f"edge endpoint {missing!r} is not a node")
        if u == v:
            raise CycleError(f"self loop on {u!r}", cycle=(u, u))
        if (u, v) in seen:
            raise ArgumentError(f"duplicate edge {u!r} -> {v!r}")
        seen.add((u, v))
        edge_list.append((u, v))
    dag.edges = frozenset(edge_list)

    parents = {v: [] for v in dag.node_ids}
    for u, v in edge_list:
        parents[v].append(u)
    key = dag._index.__getitem__
    dag._parents = {v: tuple(sorted(ps, key=key)) for v, ps in parents.items()}

    indeg = {v: len(dag._parents[v]) for v in dag.node_ids}
    ready = [dag._index[v] for v in dag.node_ids if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = dag.node_ids[heapq.heappop(ready)]
        order.append(v)
        for c in dag._children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, dag._index[c])
    if len(order) != len(dag.node_ids):
        cycle = dag._find_cycle()
        raise CycleError("graph contains a directed cycle: " + " -> ".join(map(repr, cycle)), cycle=cycle)
    dag._topo = tuple(order)
    return dag


def moral_edges(dag):
    """Edges of the moral graph as unordered pairs: every parent-child edge
    plus a marriage between every two parents of one node."""
    edges = {frozenset(e) for e in dag.edges}
    for v in dag.node_ids:
        ps = dag.parents(v)
        edges.update(frozenset((a, b)) for i, a in enumerate(ps) for b in ps[i + 1 :])
    return edges


def moral_adjacency(dag, nodes):
    """Moral graph of the subgraph of ``dag`` induced by ``nodes``, read off
    the parent lists: entry i holds the positions (in ``nodes``) of the
    neighbours of ``nodes[i]``."""
    pos = {v: i for i, v in enumerate(nodes)}
    return moral_graph([[pos[p] for p in dag.parents(v) if p in pos] + [i] for i, v in enumerate(nodes)])


def reference_find_subsets(dag, e):
    """``find_subsets`` by a breadth-first search over an explicit moral
    graph: components of the non-evidence nodes, the evidence each touches,
    and the evidence among its members' children and parents."""
    ev = set(e)
    nodes = dag.node_ids
    adj = moral_adjacency(dag, nodes)
    observed = [v in ev for v in nodes]
    seen = list(observed)
    subsets = []
    boundaries = []
    for start in range(len(nodes)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        mb = set()
        for i in comp:
            for j in adj[i]:
                if observed[j]:
                    mb.add(j)
                elif not seen[j]:
                    seen[j] = True
                    comp.append(j)
        comp.sort()
        members = tuple(nodes[i] for i in comp)
        ch = {c for v in members for c in dag.children(v) if c in ev}
        pa = {p for v in members for p in dag.parents(v) if p in ev}
        subsets.append(members)
        boundaries.append(
            SubsetBoundary(e_mb=tuple(nodes[j] for j in sorted(mb)), e_ch=dag.sort(ch), e_pa=dag.sort(pa))
        )
    return tuple(subsets), tuple(boundaries)


def markov_blanket(dag, v):
    """Parents, children and the children's other parents of v."""
    out = set(dag.parents(v)) | set(dag.children(v))
    for c in dag.children(v):
        out.update(dag.parents(c))
    out.discard(v)
    return out


def adjacency(node_ids, edges):
    """The undirected graph on ``node_ids`` with the given edges, as the
    neighbour positions ``triangulate`` takes."""
    pos = {v: i for i, v in enumerate(node_ids)}
    adj = [set() for _ in node_ids]
    for u, v in edges:
        adj[pos[u]].add(pos[v])
        adj[pos[v]].add(pos[u])
    return adj


def reference_min_fill(node_ids, adj):
    """Greedy min-fill on an undirected graph (``adj[i]`` holds the neighbour
    positions of ``node_ids[i]``) by the plain route: every remaining node's
    key (fill count, remaining degree, position) is recomputed at each step,
    each step's fill edges are added to a copy of the graph, and the maximal
    cliques are read off that chordal graph afterwards.

    Returns (elimination order, maximal cliques as canonical tuples sorted
    by their position tuples).
    """
    chordal = [set(ns) for ns in adj]
    remaining = set(range(len(node_ids)))
    order = []

    def fill_count(v):
        ns = list(chordal[v] & remaining)
        return sum(
            1 for i in range(len(ns)) for j in range(i + 1, len(ns)) if ns[j] not in chordal[ns[i]]
        )

    while remaining:
        best = min(remaining, key=lambda v: (fill_count(v), len(chordal[v] & remaining), v))
        ns = sorted(chordal[best] & remaining)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                chordal[ns[i]].add(ns[j])
                chordal[ns[j]].add(ns[i])
        remaining.discard(best)
        order.append(best)

    eliminated = set()
    raw = []
    for v in order:
        raw.append(frozenset({v} | (chordal[v] - eliminated)))
        eliminated.add(v)
    cliques = sorted({tuple(sorted(c)) for c in raw if not any(c < d for d in raw)})
    return tuple(node_ids[v] for v in order), [tuple(node_ids[u] for u in c) for c in cliques]


def random_edges(rng, names, p):
    """Each pair of ``names``, in order, is an edge with probability p."""
    n = len(names)
    return [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def oracle_graphs(rng):
    """Undirected graphs for the elimination oracle, as (node ids, neighbour
    positions): fixed shapes whose keys all tie, random graphs of every
    density, disconnected unions, moral graphs of networks whose parents
    may follow their children, and complete graphs with and without a path
    hung off them."""
    for n in (0, 1, 2, 5, 9):
        names = tuple(f"v{i}" for i in range(n))
        yield names, adjacency(names, [])  # empty
        yield names, adjacency(names, random_edges(rng, names, 1.0))  # complete
        yield names, adjacency(names, [(names[i], names[(i + 1) % n]) for i in range(n) if n > 2])
    grid = [(f"g{r}{c}", f"g{r}{c + 1}") for r in range(3) for c in range(2)]
    grid += [(f"g{r}{c}", f"g{r + 1}{c}") for r in range(2) for c in range(3)]
    names = tuple(f"g{r}{c}" for r in range(3) for c in range(3))
    yield names, adjacency(names, grid)
    for _ in range(150):
        n = int(rng.integers(2, 14))
        names = tuple(f"n{i}" for i in rng.permutation(n))
        yield names, adjacency(names, random_edges(rng, names, rng.random()))
    for _ in range(50):
        a = tuple(f"a{i}" for i in range(int(rng.integers(1, 7))))
        edges = random_edges(rng, a, 0.6)
        b = tuple(f"b{i}" for i in range(int(rng.integers(1, 7))))
        edges += random_edges(rng, b, 0.6)
        ids = list(a + b)
        rng.shuffle(ids)
        yield tuple(ids), adjacency(ids, edges)
    for _ in range(100):
        dag = reordered(rng, rand_bn(rng, int(rng.integers(2, 14)), rng.random())).dag
        yield dag.node_ids, adjacency(dag.node_ids, moral_edges(dag))
    for _ in range(40):  # complete graphs, alone and with a path hung off them
        names = tuple(f"c{i}" for i in rng.permutation(int(rng.integers(1, 10))))
        yield names, adjacency(names, random_edges(rng, names, 1.0))
        tail = [f"t{i}" for i in range(int(rng.integers(1, 4)))]
        path = list(zip([names[-1]] + tail, tail))
        ids = list(names + tuple(tail))
        rng.shuffle(ids)
        yield tuple(ids), adjacency(ids, random_edges(rng, names, 1.0) + path)


def reference_spanning_tree(cliques):
    """Maximum-sepset-weight spanning tree by the plain route: every pair of
    cliques is scored by the size of its intersection, all pairs are sorted
    by (-weight, i, j), and Kruskal takes them in that order, so empty
    intersections only join what the weighted pairs leave apart.  Returns
    the tree edges (i, j) in the order they were taken."""
    n = len(cliques)
    sets = [set(c) for c in cliques]
    cand = sorted((-len(sets[i] & sets[j]), i, j) for i in range(n) for j in range(i + 1, n))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for _, i, j in cand:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
            if len(edges) == n - 1:
                break
    return edges


def family_table(bn, v):
    """v's family in canonical order, and v's CPT as an array whose axes
    follow that order."""
    ps = bn.dag.parents(v)
    family = bn.dag.sort(ps + (v,))
    t = np.asarray(bn.cpts[v]).reshape([bn.cardinalities[p] for p in ps] + [bn.cardinalities[v]])
    current = tuple(ps) + (v,)
    return family, np.transpose(t, [current.index(u) for u in family])


def _expand(table, vars_, clique, cards):
    """Reshape a table over a canonical subsequence of a clique's variables
    so that it broadcasts against the clique's table."""
    present = set(vars_)
    return table.reshape([cards[v] if v in present else 1 for v in clique])


def reference_build_plan(scope, families, is_factor, cards, table_cap):
    """The exact solver's plan with every moral graph triangulated by min-fill,
    as the package built it before chordal scopes took their cliques from
    maximum cardinality search: the cliques from ``triangulate``, which
    refuses an oversized one in its own words, then the package's spanning
    tree, each requested CPT in the smallest clique holding its family (the
    first among equals) and the collect schedule towards clique 0."""
    cliques = triangulate(scope, moral_graph(families), cards, table_cap).cliques
    clique_sets = [set(c) for c in cliques]
    holders = [[] for _ in scope]  # the cliques holding each position, ascending
    for c, clique in enumerate(cliques):
        for u in clique:
            holders[u].append(c)
    edges = tuple(_spanning_tree(cliques))
    placements = []
    for i, family in enumerate(families):
        if not is_factor[i]:
            continue
        k = -1
        for c in holders[i]:
            members = clique_sets[c]
            if (k < 0 or len(members) < len(clique_sets[k])) and members.issuperset(family):
                k = c
        clique = cliques[k]
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
        shapes=tuple(tuple(cards[u] for u in c) for c in cliques),
    )


# the clique tree the reference solver works on: node-name cliques, tree edges
# and potentials, as the package's CliqueTree reports them
ReferenceTree = namedtuple("ReferenceTree", "nodes cliques tree_edges potentials cards")


def reference_build_junction_tree(bn, nodes, factor_nodes):
    """The exact solver's clique tree, without a table cap, by the plain
    route: the moral graph from its edge set, cliques from
    ``reference_min_fill``, the tree from ``reference_spanning_tree``, and
    each requested CPT multiplied into a table of ones of the smallest clique
    covering its family (ties to the first), in node order."""
    dag = bn.dag
    scope = dag.sort(set(nodes))
    factors = set(factor_nodes)
    _, cliques = reference_min_fill(scope, adjacency(scope, moral_edges(dag.subgraph(scope))))
    sets = [set(c) for c in cliques]
    tree = tuple((i, j, tuple(v for v in cliques[i] if v in sets[j])) for i, j in reference_spanning_tree(cliques))
    potentials = [np.ones([bn.cardinalities[v] for v in c]) for c in cliques]
    for v in scope:
        if v in factors:
            family, table = family_table(bn, v)
            k = min((i for i, c in enumerate(sets) if c.issuperset(family)), key=lambda i: len(sets[i]))
            potentials[k] *= _expand(table, family, cliques[k], bn.cardinalities)
    cards = {v: bn.cardinalities[v] for v in scope}
    return ReferenceTree(scope, tuple(cliques), tree, tuple(potentials), cards)


def reference_incorporate_evidence(jt, values):
    """Copies of the potentials with each evidence axis masked in turn."""
    pots = []
    for c, pot in zip(jt.cliques, jt.potentials):
        pot = pot.copy()
        for axis, v in enumerate(c):
            if v in values:
                sel = [slice(None)] * pot.ndim
                sel[axis] = np.arange(jt.cards[v]) != values[v]
                pot[tuple(sel)] = 0.0
        pots.append(pot)
    return ReferenceTree(jt.nodes, jt.cliques, jt.tree_edges, tuple(pots), jt.cards)


def reference_log_tree_sum(jt, root=0):
    """Collect pass to ``root`` over dict-keyed adjacency and messages, with
    an explicit-stack traversal: each message is summed over the variables
    outside its sepset, divided by its maximum, and the logs of the maxima
    carried as a scale."""
    n = len(jt.cliques)
    adj = {i: [] for i in range(n)}
    seps = {}
    for i, j, sep in jt.tree_edges:
        adj[i].append(j)
        adj[j].append(i)
        seps[(i, j)] = seps[(j, i)] = sep
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
    beliefs = {}
    messages = {}
    for i in reversed(order):
        val = jt.potentials[i]
        scale = 0.0
        for u in adj[i]:
            if u != parent[i]:
                msg, s = messages[u]
                val = val * _expand(msg, seps[(u, i)], jt.cliques[i], jt.cards)
                scale += s
        beliefs[i] = (val, scale)
        if parent[i] >= 0:
            sep = set(seps[(i, parent[i])])
            axes = tuple(k for k, v in enumerate(jt.cliques[i]) if v not in sep)
            msg = val.sum(axis=axes) if axes else val.copy()
            m = float(msg.max())
            if m > 0.0:
                msg = msg / m
                scale += math.log(m)
            else:
                scale = 0.0
            messages[i] = (msg, scale)
    val, scale = beliefs[root]
    total = float(val.sum())
    return -math.inf if total <= 0.0 else math.log(total) + scale


def dag_structure(dag):
    """Everything a Dag holds, for comparing two graphs field by field."""
    return (
        dag.node_ids,
        dag._index,
        dag.edges,
        {v: dag.parents(v) for v in dag.node_ids},
        {v: dag.children(v) for v in dag.node_ids},
        dag._topo,
    )


def find_chordless_cycle(adj):
    """A cycle of length >= 4 without a chord, as positions, or None if the
    graph (``adj[i]`` holds the neighbour positions of node i) is chordal.

    Depth-first enumeration of simple cycles; chords checked against the
    adjacency directly.
    """

    def has_chord(cycle):
        k = len(cycle)
        for i in range(k):
            for j in range(i + 2, k):
                if i == 0 and j == k - 1:
                    continue
                if cycle[j] in adj[cycle[i]]:
                    return True
        return False

    for start in range(len(adj)):
        stack = [(start, [start])]
        while stack:
            v, path = stack.pop()
            for w in adj[v]:
                if w == start and len(path) >= 4:
                    if not has_chord(path):
                        return tuple(path)
                elif w not in path and w > start:
                    stack.append((w, path + [w]))
    return None


def two_group_network():
    """A 15-node network whose evidence {E, N, O} splits the hidden relevant
    nodes into exactly two groups, {A, B} and {G, J, K, L}, with nodes
    C, D, F, H, I, M irrelevant.

    Edges: A->B, B->E, E->G (so E is B's child and G's parent), G->J, J->N,
    K->L, L->O, K->G keeps the second group connected, C->D dangling pair,
    F->H, H->I dangling chain, M isolated.
    """
    rng = np.random.default_rng(314159)
    names = tuple("ABCDEFGHIJKLMNO")
    edges = [
        ("A", "B"),
        ("B", "E"),
        ("E", "G"),
        ("G", "J"),
        ("J", "N"),
        ("K", "G"),
        ("K", "L"),
        ("L", "O"),
        ("C", "D"),
        ("F", "H"),
        ("H", "I"),
    ]
    dag = Dag(names, edges)
    cards = {v: 2 for v in names}
    cpts = {}
    for v in names:
        rows = 2 ** len(dag.parents(v))
        t = rng.random((rows, 2)) + 1e-3
        cpts[v] = t / t.sum(axis=1, keepdims=True)
    return CategoricalBN(dag, cards, cpts)


# test_acceptance.py deposits its verdict lines here; printing them from the
# terminal-summary hook keeps them visible under pytest's output capture
GATE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if GATE_LINES:
        terminalreporter.section("release gates")
        for line in GATE_LINES:
            terminalreporter.write_line(line)
