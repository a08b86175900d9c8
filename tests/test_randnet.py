import math

import numpy as np
import pytest

from bnmarg.errors import ArgumentError, DomainError, ParameterError
from bnmarg.graphs import Dag
from bnmarg.randnet import (
    FAMILIES,
    GenSpec,
    adjacency_mean_mb,
    gen_dag,
    gen_network,
    mean_markov_blanket,
    nrmse,
    pick_evidence,
)


def test_spec_validation():
    with pytest.raises(ParameterError):
        GenSpec(family="grid", n=10, mb_size=2.0)
    with pytest.raises(ParameterError):
        GenSpec(family="er", n=1, mb_size=1.0)
    with pytest.raises(ParameterError):
        GenSpec(family="er", n=10, mb_size=0.0)
    with pytest.raises(ParameterError):
        GenSpec(family="er", n=10, mb_size=10.0)  # at most n - 1
    with pytest.raises(ParameterError):
        GenSpec(family="er", n=10, mb_size=2.0, categories=1)
    with pytest.raises(ParameterError):
        GenSpec(family="er", n=10, mb_size=2.0, evidence_fraction=1.5)
    with pytest.raises(ParameterError):
        GenSpec(family="er", n=10, mb_size=2.0, seed=-3)
    with pytest.raises(ParameterError):
        GenSpec(family="islands", n=10, mb_size=2.0, islands=1)
    with pytest.raises(ParameterError):
        GenSpec(family="islands", n=5, mb_size=2.0, islands=3)
    with pytest.raises(ParameterError):
        GenSpec(family="ws", n=10, mb_size=2.0, rewire_prob=-0.1)


def test_spec_family_aliases():
    pairs = (
        ("erdos_renyi", "er"),
        ("barabasi_albert", "ba"),
        ("watts_strogatz", "ws"),
        ("er_islands", "islands"),
    )
    for long, short in pairs:
        assert GenSpec(family=long, n=12, mb_size=2.0).family == short


def test_mean_markov_blanket_on_known_graphs():
    # chain a-b-c: blankets are {b}, {a,c}, {b} -> mean 4/3
    dag = Dag(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert mean_markov_blanket(dag) == pytest.approx(4.0 / 3.0)
    # collider a->c<-b: blankets {c,b}, {c,a}, {a,b} -> mean 2
    dag = Dag(("a", "b", "c"), [("a", "c"), ("b", "c")])
    assert mean_markov_blanket(dag) == pytest.approx(2.0)
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 2] = adj[1, 2] = True
    assert adjacency_mean_mb(adj) == pytest.approx(2.0)


def test_mean_markov_blanket_matches_dense_adjacency():
    for family in FAMILIES:
        for seed in range(6):
            n = 10 + 17 * seed
            dag = gen_dag(GenSpec(family=family, n=n, mb_size=1.5 + 0.5 * seed, seed=seed))
            adj = np.zeros((n, n), dtype=bool)
            for u, v in dag.edges:
                adj[dag.index(u), dag.index(v)] = True
            assert mean_markov_blanket(dag) == adjacency_mean_mb(adj)


def test_all_families_generate_dags():
    for family in FAMILIES:
        for seed in range(25):
            n = 8 + 3 * (seed % 5)
            spec = GenSpec(family=family, n=n, mb_size=2.5, seed=seed)
            dag = gen_dag(spec)
            assert len(dag.node_ids) == n
            assert dag.node_ids == tuple(sorted(dag.node_ids))
            # Dag construction rejects cycles, so reaching here certifies
            # acyclicity; also certify edges exist when asked for
            assert len(dag.edges) > 0


def test_er_blanket_calibration():
    target = 3.3
    sizes = []
    for seed in range(30):
        spec = GenSpec(family="er", n=100, mb_size=target, seed=seed)
        sizes.append(mean_markov_blanket(gen_dag(spec)))
    assert abs(float(np.mean(sizes)) - target) < 0.5


def test_other_families_track_target_loosely():
    # discrete knobs (attachment count, ring degree) quantize the reachable
    # blanket sizes, so only demand the right neighborhood
    for family in ("ba", "ws", "islands"):
        sizes = []
        for seed in range(20):
            spec = GenSpec(family=family, n=60, mb_size=3.0, seed=seed)
            sizes.append(mean_markov_blanket(gen_dag(spec)))
        assert 1.0 < float(np.mean(sizes)) < 6.0, family


def test_tiny_target_gives_edgeless():
    spec = GenSpec(family="er", n=20, mb_size=1e-9, seed=1)
    assert gen_dag(spec).edges == frozenset()


def test_maximal_target_saturates_blankets():
    # mb_size is capped at n - 1 by validation and that cap is reachable;
    # spouses fill blankets before the graph is literally complete
    dag = gen_dag(GenSpec(family="er", n=10, mb_size=9.0, seed=0))
    assert len(dag.edges) >= 40
    assert mean_markov_blanket(dag) == pytest.approx(9.0)


def test_islands_are_bridged():
    spec = GenSpec(family="islands", n=30, mb_size=2.5, islands=3, seed=4)
    dag = gen_dag(spec)
    names = dag.node_ids
    blocks = [set(names[0:10]), set(names[10:20]), set(names[20:30])]
    bridges = {(names[9], names[10]), (names[19], names[20])}
    assert bridges <= dag.edges
    for a, b in dag.edges - bridges:
        assert any(a in blk and b in blk for blk in blocks), (a, b)


def test_generated_cpts_are_proper():
    spec = GenSpec(family="er", n=25, mb_size=2.5, categories=3, seed=9)
    bn = gen_network(spec)
    entries = []
    for v in bn.node_ids:
        t = bn.cpts[v]
        assert t.shape[1] == 3
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(t > 0.0)
        entries.extend(t.ravel().tolist())
    assert abs(float(np.mean(entries)) - 1.0 / 3.0) < 1e-9


def test_generation_is_deterministic():
    spec = GenSpec(family="ba", n=20, mb_size=2.0, categories=3, seed=13)
    a = gen_network(spec)
    b = gen_network(spec)
    assert a.dag.edges == b.dag.edges
    for v in a.node_ids:
        assert np.array_equal(a.cpts[v], b.cpts[v])
    c = gen_network(GenSpec(family="ba", n=20, mb_size=2.0, categories=3, seed=14))
    assert c.dag.edges != a.dag.edges or any(
        not np.array_equal(a.cpts[v], c.cpts[v]) for v in a.node_ids
    )


def test_pick_evidence_counts_and_validity():
    spec = GenSpec(family="er", n=20, mb_size=2.5, categories=3, seed=21)
    bn = gen_network(spec)
    assert pick_evidence(bn, 0.0, 5) == {}
    e = pick_evidence(bn, 0.5, 5)
    assert len(e) == 10
    assert set(e) <= set(bn.node_ids)
    full = pick_evidence(bn, 1.0, 5)
    assert len(full) == 20
    for v, s in full.items():
        assert 0 <= s < bn.cardinalities[v]
    assert pick_evidence(bn, 0.5, 5) == e
    assert pick_evidence(bn, 0.5, 6) != e
    with pytest.raises(ArgumentError):
        pick_evidence(bn, 1.5, 5)


def test_picked_evidence_has_positive_probability():
    # states come from a forward sample, so the joint never vanishes
    from conftest import brute_marginal

    for seed in range(5):
        spec = GenSpec(family="ws", n=10, mb_size=2.0, seed=seed)
        bn = gen_network(spec)
        e = pick_evidence(bn, 0.6, seed)
        assert brute_marginal(bn, e) > 0.0


def test_nrmse():
    assert nrmse(0.2, [0.2, 0.2, 0.2]) == 0.0
    assert nrmse(0.1, [0.2]) == pytest.approx(1.0)
    assert nrmse(0.4, [0.2, 0.6]) == pytest.approx(0.5)
    assert nrmse(0.4, [0.2, 0.6]) == pytest.approx(nrmse(0.04, [0.02, 0.06]))
    with pytest.raises(DomainError):
        nrmse(0.0, [0.1])
    with pytest.raises(DomainError):
        nrmse(-1.0, [0.1])
    with pytest.raises(DomainError):
        nrmse(0.5, [])
