import math

import numpy as np
import pytest

from bnmarg.decompose import SubsetBoundary, decompose, find_subsets, relevant_subgraph
from bnmarg.errors import UnknownNodeError
from bnmarg.graphs import Dag
from bnmarg.network import CategoricalBN, log_enumerate_marginal, log_joint_probability, sample_forward_array

from conftest import (
    ancestors_of_set,
    d_separated,
    dag_structure,
    markov_blanket,
    moral_edges,
    rand_bn,
    rand_evidence,
    reference_find_subsets,
    reordered,
    sparse_bn,
    sparse_er_dag,
    two_group_network,
)


def chain_aec():
    return Dag(("A", "E", "C"), [("A", "E"), ("E", "C")])


def test_irrelevant_nodes():
    # nodes that are neither evidence nor an ancestor of it are pruned
    def irrelevant(bn, e):
        return tuple(v for v in bn.node_ids if v not in relevant_subgraph(bn, e).dag)

    dag = chain_aec()
    bn = CategoricalBN(dag, {v: 2 for v in dag.node_ids},
                       {v: np.full((2 ** len(dag.parents(v)), 2), 0.5) for v in dag.node_ids})
    assert irrelevant(bn, {"A", "E", "C"}) == ()
    assert irrelevant(bn, {"E"}) == ("C",)
    assert irrelevant(bn, {"A"}) == ("E", "C")
    bn = two_group_network()
    assert irrelevant(bn, {"E", "N", "O"}) == ("C", "D", "F", "H", "I", "M")


def test_relevant_subgraph_edges():
    bn = two_group_network()
    sub = relevant_subgraph(bn, {"E", "N", "O"})
    assert sub.node_ids == ("A", "B", "E", "G", "J", "K", "L", "N", "O")
    assert sub.dag.parents("G") == ("E", "K")
    empty = relevant_subgraph(bn, set())
    assert empty.node_ids == ()
    roots = relevant_subgraph(bn, {"A", "K"})
    assert roots.node_ids == ("A", "K")


def test_relevant_subgraph_preserves_marginal():
    rng = np.random.default_rng(8)
    for _ in range(12):
        bn = rand_bn(rng, 10, 0.3)
        e = rand_evidence(rng, bn, int(rng.integers(1, 5)))
        sub = relevant_subgraph(bn, e)
        assert math.exp(log_enumerate_marginal(sub, e)) == pytest.approx(
            math.exp(log_enumerate_marginal(bn, e)), rel=1e-10
        )


def _validated_restriction(bn, keep):
    """The restriction to ``keep`` built through the checking constructors."""
    ids = tuple(v for v in bn.node_ids if v in keep)
    dag = Dag(ids, [(p, v) for v in ids for p in bn.dag.parents(v) if p in keep])
    pick = lambda per_node: {v: per_node[v] for v in ids}
    return CategoricalBN(dag, pick(bn.cardinalities), pick(bn.cpts), pick(bn.state_names))


def test_relevant_subgraph_matches_validated_construction():
    # the restriction that shares the parent's structure and tables is the
    # network the public constructors build: same graph, same topological
    # order (so the same forward draws), same tables and log joints
    rng = np.random.default_rng(53)
    for trial in range(100):
        n = int(rng.integers(1, 13))
        bn = sparse_bn(rng, n) if trial % 4 < 2 else rand_bn(rng, n, rng.random())
        if trial % 2:
            bn = reordered(rng, bn)
        some = rand_evidence(rng, bn, int(rng.integers(1, n + 1)))
        for e in ({}, some, dict.fromkeys(bn.node_ids, 0)):
            got = relevant_subgraph(bn, e)
            want = _validated_restriction(bn, set(e) | set(ancestors_of_set(bn.dag, e)))
            # an ancestral restriction shares every parent tuple, and builds
            # its edge set only when asked, equal to the constructor's
            assert all(got.dag._parents[v] is bn.dag._parents[v] for v in got.node_ids)
            assert "edges" not in vars(got.dag)
            assert got.dag.edges == want.dag.edges
            assert dag_structure(got.dag) == dag_structure(want.dag)
            assert got.cardinalities == want.cardinalities
            assert got.state_names == want.state_names
            assert all(np.array_equal(got.cpts[v], want.cpts[v]) for v in want.node_ids)
            draws = sample_forward_array(want, 30, trial)
            assert sample_forward_array(got, 30, trial).tobytes() == draws.tobytes()
            uniform = {v: int(rng.integers(bn.cardinalities[v])) for v in want.node_ids}
            for x in (dict(zip(want.node_ids, map(int, draws[0]))), uniform):
                assert repr(log_joint_probability(got, x)) == repr(log_joint_probability(want, x))


def test_find_subsets_examples():
    bn = two_group_network()
    sub = relevant_subgraph(bn, {"E", "N", "O"})
    subsets, _ = find_subsets(sub.dag, {"E", "N", "O"})
    assert subsets == (("A", "B"), ("G", "J", "K", "L"))
    dag = chain_aec()
    no_evidence = SubsetBoundary(e_mb=(), e_ch=(), e_pa=())
    assert find_subsets(dag, set()) == ((("A", "E", "C"),), (no_evidence,))  # canonical node order
    assert find_subsets(dag, {"A", "E", "C"}) == ((), ())


def test_subset_boundaries_chain_roles():
    subsets, (ba, bc) = find_subsets(chain_aec(), {"E"})
    assert subsets == (("A",), ("C",))
    assert (ba.e_mb, ba.e_ch, ba.e_pa) == (("E",), ("E",), ())
    assert (bc.e_mb, bc.e_ch, bc.e_pa) == (("E",), (), ("E",))
    coll = Dag(("A", "E", "B"), [("A", "E"), ("B", "E")])
    subsets, (b,) = find_subsets(coll, {"E"})
    assert subsets == (("A", "B"),)  # married through their observed child
    assert (b.e_mb, b.e_ch, b.e_pa) == (("E",), ("E",), ())
    with pytest.raises(UnknownNodeError):
        find_subsets(chain_aec(), {"E", "Z"})


def _evidence_cases(rng):
    """(graph, evidence) pairs: relevant subgraphs of random and reordered
    networks, and whole networks with no evidence or every node observed."""
    for trial in range(30):
        bn = rand_bn(rng, 10, 0.3)
        if trial % 2:
            bn = reordered(rng, bn)
        e = rand_evidence(rng, bn, 3)
        yield relevant_subgraph(bn, e).dag, set(e)
        if trial % 5 == 0:
            yield bn.dag, set()
            yield bn.dag, set(bn.node_ids)


def test_subset_boundaries_definitional():
    rng = np.random.default_rng(40)
    for dag, e in _evidence_cases(rng):
        subsets, boundaries = find_subsets(dag, e)
        assert len(boundaries) == len(subsets)
        label = {v: i for i, s in enumerate(subsets) for v in s}
        assert sorted(label) == sorted(v for v in dag.node_ids if v not in e)
        for u, v in map(tuple, moral_edges(dag)):  # components: no free moral edge between two
            assert u in e or v in e or label[u] == label[v]
        for subset, b in zip(subsets, boundaries):
            assert subset == dag.sort(subset)
            mb = set()
            ch = set()
            pa = set()
            for u in subset:
                mb |= markov_blanket(dag, u)
                ch |= set(dag.children(u))
                pa |= set(dag.parents(u))
            assert b.e_mb == dag.sort(mb & e)
            assert b.e_ch == dag.sort(ch & e)
            assert b.e_pa == dag.sort(pa & e)
            assert set(b.e_ch) <= set(b.e_mb) and set(b.e_pa) <= set(b.e_mb)
        assert [dag.index(s[0]) for s in subsets] == sorted(dag.index(s[0]) for s in subsets)


def test_find_subsets_matches_moral_graph_search():
    # the search over parent and child lists returns, tuple for tuple, what a
    # breadth-first search over the explicit moral graph returns: on whole
    # networks and on relevant subgraphs, from no evidence to all of it
    rng = np.random.default_rng(61)
    cases = []
    for trial in range(60):
        n = int(rng.integers(1, 13))
        bn = sparse_bn(rng, n) if trial % 3 == 0 else rand_bn(rng, n, rng.random())
        if trial % 2:
            bn = reordered(rng, bn)
        for fraction in (0.0, 0.1, 0.3, 0.6, 1.0):
            e = set(rand_evidence(rng, bn, round(fraction * n)))
            cases += [(bn.dag, e), (relevant_subgraph(bn, e).dag, e)]
    big = sparse_er_dag(rng, 2500, 1.6)
    assert 1.4 < 2 * len(big.edges) / len(big) < 1.8
    for fraction in (0.0, 0.05, 0.3, 0.7, 1.0):
        e = set(rng.choice(big.node_ids, size=round(fraction * len(big)), replace=False).tolist())
        cases += [(big, e), (big.subgraph(e | set(ancestors_of_set(big, e))), e)]
    for dag, e in cases:
        assert find_subsets(dag, e) == reference_find_subsets(dag, e)
    # the large network has a giant component, which 30 % evidence splits
    assert max(map(len, find_subsets(*cases[-10])[0])) > 1000
    assert len(find_subsets(*cases[-4])[0]) > 100


def test_decompose_two_groups():
    bn = two_group_network()
    dec = decompose(bn, {"E": 1, "N": 0, "O": 1})
    assert dec.subsets == (("A", "B"), ("G", "J", "K", "L"))
    assert dec.relevant_nodes == ("A", "B", "E", "G", "J", "K", "L", "N", "O")
    b1, b2 = dec.boundaries
    assert (b1.e_mb, b1.e_ch, b1.e_pa) == (("E",), ("E",), ())
    assert (b2.e_mb, b2.e_ch, b2.e_pa) == (("E", "N", "O"), ("N", "O"), ("E",))
    assert dec.leftover_evidence == ()


def test_decompose_trivial_cases():
    dag = Dag(("R", "X"), [("R", "X")])
    cpts = {
        "R": np.array([[0.4, 0.6]]),
        "X": np.array([[0.5, 0.5], [0.1, 0.9]]),
    }
    bn = CategoricalBN(dag, {"R": 2, "X": 2}, cpts)
    dec = decompose(bn, {"R": 1})
    assert dec.relevant_nodes == ("R",)
    assert dec.subsets == ()
    assert dec.leftover_evidence == ("R",)
    # evidence on a chain's middle: the downstream node is irrelevant,
    # leaving a single upstream subset whose child boundary covers e
    chain = rand_bn(np.random.default_rng(2), 3, 1.0, cards=(2,))
    dec = decompose(chain, {chain.node_ids[1]: 0})
    assert dec.subsets == ((chain.node_ids[0],),)
    assert dec.leftover_evidence == ()


def test_decompose_invariants_and_certification():
    rng = np.random.default_rng(97)
    for _ in range(40):
        bn = rand_bn(rng, 10, 0.3, cards=(2,))
        count = int(rng.integers(1, 6))
        e = rand_evidence(rng, bn, count)
        dec = decompose(bn, e)
        ev = set(e)
        free = [v for v in dec.relevant_nodes if v not in ev]
        # partition of the relevant free nodes
        seen = []
        for s in dec.subsets:
            assert len(s) > 0 and not (set(s) & ev)
            seen.extend(s)
        assert sorted(seen) == sorted(free)
        assert set(dec.leftover_evidence) == ev - set().union(
            *(set(b.e_ch) for b in dec.boundaries), set()
        )
        # leftover nodes have all parents observed
        for v in dec.leftover_evidence:
            assert set(bn.dag.parents(v)) <= ev
        # certification per the independent d-separation oracle,
        # on the relevant subgraph
        sub = relevant_subgraph(bn, e)
        for i, s in enumerate(dec.subsets):
            for j, t in enumerate(dec.subsets):
                if i < j:
                    assert d_separated(sub.dag, set(s), set(t), ev)
            for a in range(len(s)):
                for b in range(a + 1, len(s)):
                    assert not d_separated(sub.dag, {s[a]}, {s[b]}, ev)


def test_find_subsets_permutation_invariance():
    rng = np.random.default_rng(123)
    for _ in range(10):
        bn = rand_bn(rng, 9, 0.35, cards=(2,))
        e = rand_evidence(rng, bn, 3)
        sub = relevant_subgraph(bn, e)
        base = {frozenset(s) for s in find_subsets(sub.dag, e)[0]}
        names = list(sub.node_ids)
        for _ in range(5):
            perm = list(names)
            rng.shuffle(perm)
            mapping = dict(zip(names, perm))
            pdag = Dag(
                sorted(perm), [(mapping[u], mapping[v]) for u, v in sub.dag.edges]
            )
            got = {frozenset(s) for s in find_subsets(pdag, {mapping[v] for v in e})[0]}
            want = {frozenset(mapping[v] for v in s) for s in base}
            assert got == want
