import math

import numpy as np
import pytest

from bnmarg.errors import ArgumentError, CycleError, UnknownNodeError
from bnmarg.graphs import Dag, chordal_cliques, triangulate

from conftest import (
    adjacency,
    ancestors_of_set,
    d_separated,
    dag_structure,
    find_chordless_cycle,
    induced_dag,
    markov_blanket,
    moral_adjacency,
    moral_edges,
    oracle_graphs,
    path_d_separated,
    rand_bn,
    rand_dag,
    random_edges,
    reference_dag,
    reference_min_fill,
    reordered,
    sparse_er_dag,
)


def chain():
    return Dag(("A", "B", "C"), [("A", "B"), ("B", "C")])


def collider():
    return Dag(("A", "B", "C"), [("A", "C"), ("B", "C")])


def test_dag_construction_errors():
    with pytest.raises(ArgumentError):
        Dag(("A", "A"), [])
    with pytest.raises(UnknownNodeError):
        Dag(("A",), [("A", "B")])
    with pytest.raises(CycleError):
        Dag(("A",), [("A", "A")])
    with pytest.raises(ArgumentError):
        Dag(("A", "B"), [("A", "B"), ("A", "B")])


def test_string_node_ids_are_shared_across_graphs():
    # names built at run time are distinct objects; two graphs over equal
    # names must hold the same objects, other hashables are kept as given
    a = Dag(tuple(f"X{i}" for i in range(3)), [("X0", "X1")])
    b = Dag(tuple(f"X{i}" for i in range(3)), [])
    assert all(u is v for u, v in zip(a.node_ids, b.node_ids))
    key = (1, 2)
    assert Dag((key, 3)).node_ids[0] is key


def test_cycle_detection_names_a_cycle():
    with pytest.raises(CycleError) as err:
        Dag(("A", "B", "C"), [("A", "B"), ("B", "C"), ("C", "A")])
    cyc = err.value.cycle
    assert len(cyc) >= 3 and set(cyc) <= {"A", "B", "C"}


def test_relations_chain():
    dag = chain()
    assert dag.parents("B") == ("A",)
    assert dag.children("B") == ("C",)
    assert ancestors_of_set(dag, {"B"}) == ("A",)
    assert ancestors_of_set(dag, {"C"}) == ("A", "B")


def test_relations_isolated():
    dag = Dag(("A", "B"), [])
    assert dag.parents("A") == () and dag.children("A") == ()
    assert ancestors_of_set(dag, {"A", "B"}) == ()
    for query in (dag.parents, dag.children, lambda v: ancestors_of_set(dag, {"A", v})):
        with pytest.raises(UnknownNodeError):
            query("Z")


def test_lookups_refuse_unknown_names():
    dag = chain()
    assert dag.sort(iter(["C", "A"])) == ("A", "C")
    for query in (dag.parents, dag.children, lambda v: dag.sort(["A", v, "C"])):
        with pytest.raises(UnknownNodeError, match="unknown node 'Z'"):
            query("Z")


def test_parent_and_child_lists_follow_canonical_order():
    # read off the edge set, whatever order the edges came in, on whole
    # graphs and on ancestral induced subgraphs that build them lazily
    rng = np.random.default_rng(29)
    for trial in range(40):
        dag = reordered(rng, rand_bn(rng, int(rng.integers(1, 12)), rng.random())).dag
        keep = {v for v in dag.node_ids if rng.random() < 0.6}
        keep |= set(ancestors_of_set(dag, keep))
        for g in (dag, dag._ancestral_subgraph(keep)):
            edges = {(u, v) for u, v in dag.edges if u in g and v in g}
            for v in g.node_ids:
                assert g.parents(v) == tuple(u for u in g.node_ids if (u, v) in edges)
                assert g.children(v) == tuple(c for c in g.node_ids if (v, c) in edges)


def test_relations_against_edge_composition():
    # ancestors_of_set must match the transitive closure obtained by
    # repeatedly composing the edge relation, for single nodes and for sets
    rng = np.random.default_rng(42)
    for _ in range(20):
        dag = rand_dag(rng, 10, 0.25)
        reach = {v: set(dag.children(v)) for v in dag.node_ids}
        changed = True
        while changed:
            changed = False
            for v in dag.node_ids:
                extra = set()
                for w in reach[v]:
                    extra |= reach[w]
                if not extra <= reach[v]:
                    reach[v] |= extra
                    changed = True
        for v in dag.node_ids:
            assert set(ancestors_of_set(dag, {v})) == {u for u in dag.node_ids if v in reach[u]}
        nodes = {v for v in dag.node_ids if rng.random() < 0.3}
        want = {u for u in dag.node_ids if reach[u] & nodes}
        assert ancestors_of_set(dag, nodes) == dag.sort(want)


def _moral_neighbours(dag):
    """Each node's neighbours in ``moral_adjacency`` over the whole graph, by name."""
    adj = moral_adjacency(dag, dag.node_ids)
    return {v: {dag.node_ids[u] for u in adj[i]} for i, v in enumerate(dag.node_ids)}


def test_markov_blanket_examples():
    # a node's moral neighbours are its Markov blanket
    assert _moral_neighbours(chain())["B"] == {"A", "C"}
    assert _moral_neighbours(collider())["A"] == {"B", "C"}


def test_markov_blanket_equals_moral_neighborhood():
    rng = np.random.default_rng(7)
    for trial in range(50):
        dag = rand_dag(rng, 10, 0.3)
        if trial % 2:
            dag = reordered(rng, rand_bn(rng, 10, 0.3)).dag
        neighbours = _moral_neighbours(dag)
        for v in dag.node_ids:
            assert neighbours[v] == markov_blanket(dag, v)


def test_topological_order():
    # the order ancestral sampling walks: deterministic, ties by canonical position
    assert chain()._topo == ("A", "B", "C")
    assert Dag(("A", "B"), [])._topo == ("A", "B")
    rng = np.random.default_rng(3)
    for _ in range(20):
        dag = rand_dag(rng, 12, 0.3)
        order = dag._topo
        assert sorted(order) == sorted(dag.node_ids)
        pos = {v: i for i, v in enumerate(order)}
        for u, v in dag.edges:
            assert pos[u] < pos[v]


def _construction_outcome(build, ids, edges):
    """Everything the graph holds, or the refusal's class, words and cycle."""
    try:
        return dag_structure(build(ids, edges))
    except (ArgumentError, CycleError, UnknownNodeError) as exc:
        return type(exc), str(exc), getattr(exc, "cycle", None)


def test_dag_construction_matches_reference_constructor():
    # a node list that every edge runs forward in takes no heap pass; each
    # graph, whatever order its nodes and edges come in, must equal the one
    # the heap-only constructor built, and each refusal must read the same
    rng = np.random.default_rng(2101)
    graphs = []
    for _ in range(30):
        graphs.append(rand_dag(rng, int(rng.integers(1, 14)), rng.random()))
        graphs.append(sparse_er_dag(rng, int(rng.integers(2, 60)), 2.0))
        graphs.append(reordered(rng, rand_bn(rng, int(rng.integers(1, 12)), rng.random())).dag)
    for dag in graphs:
        topo = list(dag._topo)
        at = {v: i for i, v in enumerate(topo)}
        edges = sorted(dag.edges, key=lambda e: (at[e[0]], at[e[1]]))
        shuffled = [edges[i] for i in rng.permutation(len(edges))]
        permuted = [topo[i] for i in rng.permutation(len(topo))]
        for ids, es in ((topo, edges), (topo, shuffled), (topo[::-1], edges), (permuted, shuffled)):
            got = Dag(ids, es)
            if ids is topo:
                assert got._topo is got.node_ids and "_children" not in vars(got)
            assert dag_structure(got) == dag_structure(reference_dag(ids, es))
            v = ids[int(rng.integers(len(ids)))]
            bad = [("zz", v), (v, "zz"), (v, v)]
            bad += [(v, a) for a in ancestors_of_set(got, {v})[:1]]  # a cycle through v
            if es:
                u, w = es[int(rng.integers(len(es)))]
                bad += [(u, w), (w, u)]  # a duplicate, a two-node cycle
            for _ in range(4):
                broken = list(es)
                for k in rng.choice(len(bad), size=int(rng.integers(1, 3))):
                    broken.insert(int(rng.integers(len(broken) + 1)), bad[k])
                want = _construction_outcome(reference_dag, ids, broken)
                assert _construction_outcome(Dag, ids, broken) == want
                assert isinstance(want[0], type), broken


def test_moral_adjacency_examples():
    neighbours = _moral_neighbours(collider())
    assert neighbours["C"] == {"A", "B"}
    assert neighbours["A"] == {"B", "C"}  # the parents of C are married
    neighbours = _moral_neighbours(chain())
    assert neighbours["B"] == {"A", "C"}
    assert "C" not in neighbours["A"]


def test_moral_adjacency_families_are_cliques():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dag = rand_dag(rng, 10, 0.35)
        neighbours = _moral_neighbours(dag)
        for v in dag.node_ids:
            fam = (v,) + dag.parents(v)
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    assert fam[j] in neighbours[fam[i]]
        assert {frozenset((u, v)) for u in dag.node_ids for v in neighbours[u]} == moral_edges(dag)


def _triangulate(ids, adj):
    """triangulate without a table cap, its elimination order and cliques by
    name, and the chordal graph its cliques span, as neighbour positions."""
    tri = triangulate(ids, adj, [2] * len(ids), math.inf)
    order = tuple(ids[u] for u in tri.elimination_order)
    cliques = [tuple(ids[u] for u in c) for c in tri.cliques]
    edges = [(c[i], c[j]) for c in cliques for i in range(len(c)) for j in range(i + 1, len(c))]
    return order, cliques, adjacency(ids, edges)


def _edge_count(adj):
    return sum(len(ns) for ns in adj) // 2


def test_triangulate_four_cycle():
    adj = adjacency("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])
    order, _, chordal = _triangulate("ABCD", adj)
    assert find_chordless_cycle(chordal) is None
    assert _edge_count(chordal) == 5  # exactly one chord added
    assert sorted(order) == list("ABCD")


def test_triangulate_keeps_chordal_input():
    adj = adjacency("ABCD", [("A", "B"), ("B", "C"), ("B", "D")])
    _, _, chordal = _triangulate("ABCD", adj)
    assert chordal == adj


def test_triangulate_random_graphs_chordal():
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = int(rng.integers(4, 11))
        names = tuple(f"n{i}" for i in range(n))
        adj = adjacency(names, random_edges(rng, names, 0.35))
        _, _, chordal = _triangulate(names, adj)
        assert all(ns <= cs for ns, cs in zip(adj, chordal))
        assert find_chordless_cycle(chordal) is None


def test_triangulate_matches_reference_min_fill():
    rng = np.random.default_rng(31)
    count = 0
    for ids, adj in oracle_graphs(rng):
        order, cliques, _ = _triangulate(ids, adj)
        assert (order, cliques) == reference_min_fill(ids, adj)
        count += 1
    assert count > 300


def test_chordal_cliques_examples():
    # a chordless 4-cycle has no perfect elimination order; a tree's cliques
    # are its edges; a complete graph is one clique; each component of a
    # disconnected graph gives its own cliques, an isolated node included
    cycle = adjacency("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")])
    assert chordal_cliques(cycle) is None
    tree = adjacency("ABCDEF", [("A", "B"), ("A", "C"), ("C", "D"), ("C", "E"), ("E", "F")])
    assert chordal_cliques(tree) == ((0, 1), (0, 2), (2, 3), (2, 4), (4, 5))
    complete = adjacency("ABCDE", random_edges(np.random.default_rng(0), "ABCDE", 1.0))
    assert chordal_cliques(complete) == ((0, 1, 2, 3, 4),)
    two = adjacency("ABCDEFG", [("A", "C"), ("A", "E"), ("C", "E"), ("E", "G"), ("B", "D"), ("D", "F")])
    assert chordal_cliques(two) == ((0, 2, 4), (1, 3), (3, 5), (4, 6))
    assert chordal_cliques(adjacency("AB", [])) == ((0,), (1,))
    assert chordal_cliques([]) == ()
    # one chord makes the 4-cycle chordal; two triangles sharing it
    assert chordal_cliques(adjacency("ABCD", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"), ("A", "C")])) == (
        (0, 1, 2),
        (0, 2, 3),
    )


def test_chordal_cliques_match_min_fill_exactly_on_chordal_graphs():
    # None exactly when min-fill has to add a fill edge, which it does for
    # every graph that is not chordal and for none that is; otherwise the
    # cliques min-fill finds
    rng = np.random.default_rng(37)
    seen = {True: 0, False: 0}
    for ids, adj in oracle_graphs(rng):
        got = chordal_cliques(adj)
        _, cliques, chordal = _triangulate(ids, adj)
        assert (got is None) == (chordal != adj)
        if got is not None:
            assert [tuple(ids[u] for u in c) for c in got] == cliques
        seen[got is None] += 1
    for ids, adj in oracle_graphs(rng):  # the chordal completions of the same graphs
        _, _, chordal = _triangulate(ids, adj)
        assert chordal_cliques(chordal) == triangulate(ids, chordal, [2] * len(ids), math.inf).cliques
    assert min(seen.values()) > 80, seen


def test_moral_adjacency_of_induced_subgraphs():
    rng = np.random.default_rng(37)
    for _ in range(60):
        dag = reordered(rng, rand_bn(rng, int(rng.integers(2, 12)), 0.4)).dag
        keep = [v for v in dag.node_ids if rng.random() < 0.7]
        sub = induced_dag(dag, keep)
        assert moral_adjacency(dag, sub.node_ids) == adjacency(sub.node_ids, moral_edges(sub))


def test_subgraph_matches_validated_construction():
    # on a set closed under parents, the induced subgraph built from the
    # parent graph's lists (order inherited) equals the one the checking
    # constructor builds; a set that cuts a parent gives None
    rng = np.random.default_rng(47)
    cut = 0
    for trial in range(100):
        bn = rand_bn(rng, int(rng.integers(1, 14)), rng.random())
        dag = reordered(rng, bn).dag if trial % 2 else bn.dag
        keep = {v for v in dag.node_ids if rng.random() < 0.6}
        if trial % 3 == 0:
            keep |= set(ancestors_of_set(dag, keep))
        got = dag._ancestral_subgraph(keep)
        if any(not set(dag.parents(v)) <= keep for v in keep):
            assert got is None
            cut += 1
        else:
            assert dag_structure(got) == dag_structure(induced_dag(dag, keep))
    assert 30 < cut < 70
    with pytest.raises(UnknownNodeError):
        chain()._ancestral_subgraph({"A", "Z"})


def test_d_separated_examples():
    assert d_separated(collider(), {"A"}, {"B"}, set())
    assert not d_separated(collider(), {"A"}, {"B"}, {"C"})
    assert d_separated(chain(), {"A"}, {"C"}, {"B"})
    assert not d_separated(chain(), {"A"}, {"C"}, set())
    # descendant of a collider also opens it
    dag = Dag("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
    assert not d_separated(dag, {"A"}, {"B"}, {"D"})


def test_d_separated_argument_checks():
    dag = chain()
    with pytest.raises(ArgumentError):
        d_separated(dag, {"A"}, {"A"}, set())
    with pytest.raises(ArgumentError):
        d_separated(dag, {"A"}, {"B"}, {"A"})
    with pytest.raises(ArgumentError):
        d_separated(dag, set(), {"B"}, set())
    with pytest.raises(UnknownNodeError):
        d_separated(dag, {"Z"}, {"B"}, set())


def test_d_separated_symmetry_and_oracle():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(60):
        dag = rand_dag(rng, 8, 0.3)
        nodes = list(dag.node_ids)
        rng.shuffle(nodes)
        a = {nodes[0]}
        b = {nodes[1]}
        z = set(nodes[2 : 2 + int(rng.integers(0, 4))])
        got = d_separated(dag, a, b, z)
        assert got == d_separated(dag, b, a, z)
        assert got == path_d_separated(dag, a, b, z)
        checked += 1
    assert checked == 60


def test_d_separated_set_arguments():
    rng = np.random.default_rng(29)
    for _ in range(30):
        dag = rand_dag(rng, 8, 0.3)
        nodes = list(dag.node_ids)
        rng.shuffle(nodes)
        a = set(nodes[0:2])
        b = set(nodes[2:4])
        z = set(nodes[4 : 4 + int(rng.integers(0, 3))])
        assert d_separated(dag, a, b, z) == path_d_separated(dag, a, b, z)
