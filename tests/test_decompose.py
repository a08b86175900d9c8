import numpy as np
import pytest

from bnmarg.decompose import (
    decompose,
    find_subsets,
    relevant_subgraph,
    subset_boundaries,
)
from bnmarg.errors import ArgumentError
from bnmarg.graphs import Dag, d_separated, markov_blanket
from bnmarg.network import CategoricalBN, enumerate_marginal

from conftest import rand_bn, rand_evidence, two_group_network


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
        assert enumerate_marginal(sub, e) == pytest.approx(
            enumerate_marginal(bn, e), rel=1e-10
        )


def test_find_subsets_examples():
    bn = two_group_network()
    sub = relevant_subgraph(bn, {"E", "N", "O"})
    assert find_subsets(sub.dag, {"E", "N", "O"}) == [("A", "B"), ("G", "J", "K", "L")]
    dag = chain_aec()
    assert find_subsets(dag, set()) == [("A", "E", "C")]  # canonical node order
    assert find_subsets(dag, {"A", "E", "C"}) == []


def test_subset_boundaries_chain_roles():
    dag = chain_aec()
    b = subset_boundaries(dag, {"A"}, {"E"})
    assert (b.e_mb, b.e_ch, b.e_pa) == (("E",), ("E",), ())
    b = subset_boundaries(dag, {"C"}, {"E"})
    assert (b.e_mb, b.e_ch, b.e_pa) == (("E",), (), ("E",))
    coll = Dag(("A", "E", "B"), [("A", "E"), ("B", "E")])
    b = subset_boundaries(coll, {"A", "B"}, {"E"})
    assert b.e_mb == ("E",) and b.e_ch == ("E",)
    with pytest.raises(ArgumentError):
        subset_boundaries(dag, {"A", "E"}, {"E"})


def test_subset_boundaries_definitional():
    rng = np.random.default_rng(40)
    for _ in range(15):
        bn = rand_bn(rng, 10, 0.3)
        e = rand_evidence(rng, bn, 3)
        sub = relevant_subgraph(bn, e)
        for subset in find_subsets(sub.dag, e):
            b = subset_boundaries(sub.dag, subset, e)
            mb = set()
            ch = set()
            pa = set()
            for u in subset:
                mb |= set(markov_blanket(sub.dag, u))
                ch |= set(sub.dag.children(u))
                pa |= set(sub.dag.parents(u))
            assert set(b.e_mb) == mb & set(e)
            assert set(b.e_ch) == ch & set(e)
            assert set(b.e_pa) == pa & set(e)
            assert set(b.e_ch) <= set(b.e_mb) and set(b.e_pa) <= set(b.e_mb)


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
        base = {frozenset(s) for s in find_subsets(sub.dag, e)}
        names = list(sub.node_ids)
        for _ in range(5):
            perm = list(names)
            rng.shuffle(perm)
            mapping = dict(zip(names, perm))
            pdag = Dag(
                sorted(perm), [(mapping[u], mapping[v]) for u, v in sub.dag.edges]
            )
            got = {frozenset(s) for s in find_subsets(pdag, {mapping[v] for v in e})}
            want = {frozenset(mapping[v] for v in s) for s in base}
            assert got == want
