import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from bnmarg.errors import ArgumentError, DomainError, ParameterError
from bnmarg.graphs import Dag
from bnmarg import randnet
from bnmarg.netformat import parse_network, serialize_network
from bnmarg.network import CategoricalBN, validate
from bnmarg.randnet import (
    FAMILIES,
    GenSpec,
    blanket_means,
    gen_cpts,
    gen_dag,
    gen_network,
    mean_markov_blanket,
    nrmse,
    pick_evidence,
)
from bnmarg.sampling import clamp_factors

from conftest import dag_structure, rand_dag, reference_gen_cpts


def adjacency_mean_mb(adj: np.ndarray) -> float:
    """Mean Markov blanket size of a boolean parent->child adjacency matrix,
    by a dense int64 product: the oracle for ``blanket_means``."""
    a = np.asarray(adj, dtype=bool)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError("adjacency must be a square matrix")
    co = (a.astype(np.int64) @ a.T.astype(np.int64)) > 0
    mb = a | a.T | co
    np.fill_diagonal(mb, False)
    return float(mb.sum(axis=1).mean())


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
    for field in ("n", "categories", "seed", "islands"):
        for bad in (12.5, 4.0, True):
            with pytest.raises(ParameterError, match=f"{field} must be an integer"):
                GenSpec(**{"family": "islands", "n": 12, "mb_size": 2.0, field: bad})
    spec = GenSpec("islands", np.int64(12), 2.0, categories=np.int32(3), seed=np.uint16(5), islands=np.int8(2))
    assert (spec.n, spec.categories, spec.seed, spec.islands) == (12, 3, 5, 2)
    for field in ("mb_size", "evidence_fraction", "rewire_prob"):
        for bad in ("0.2", True, None):
            with pytest.raises(ParameterError, match=f"{field} must be a number"):
                GenSpec(**{"family": "ws", "n": 12, "mb_size": 2.0, field: bad})
    with pytest.raises(ParameterError, match="family must be a string"):
        GenSpec(family=["er"], n=12, mb_size=2.0)
    spec = GenSpec("ws", 12, np.float32(2.5), evidence_fraction=np.float64(0.25), rewire_prob=0)
    assert (spec.mb_size, spec.evidence_fraction, spec.rewire_prob) == (2.5, 0.25, 0)


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


def _adjacency(n, parents, children):
    adj = np.zeros((n, n), dtype=bool)
    adj[parents, children] = True
    return adj


def test_blanket_means_match_dense_oracle():
    rng = np.random.default_rng(3)
    cases = [
        (5, [], []),  # empty
        (6, *np.triu_indices(6, 1)),  # complete
        (3, [0, 1], [2, 2]),  # collider
        (7, [0, 0, 4], [1, 2, 1]),  # isolated 3, 5 and 6
    ]
    for n in (2, 9, 40, 75):
        for p in (0.05, 0.3, 1.0):
            rows, cols = np.nonzero(np.triu(rng.random((n, n)) < p, k=1))
            perm = rng.permutation(n)  # orient along a random order
            cases.append((n, perm[rows], perm[cols]))
    for n, parents, children in cases:
        parents = np.asarray(parents, dtype=np.int64)
        children = np.asarray(children, dtype=np.int64)
        want = adjacency_mean_mb(_adjacency(n, parents, children))
        assert blanket_means(parents, children, n)[0] == want, (n, len(parents))
    # disjoint graphs laid out in one count give each graph its own mean
    laid = [(n, pa, ch) for n, pa, ch in cases if n == 40]
    means = blanket_means(
        np.concatenate([np.asarray(pa) + 40 * g for g, (_, pa, _) in enumerate(laid)]),
        np.concatenate([np.asarray(ch) + 40 * g for g, (_, _, ch) in enumerate(laid)]),
        40,
        len(laid),
    )
    assert means.tolist() == [adjacency_mean_mb(_adjacency(40, pa, ch)) for _, pa, ch in laid]


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


def test_calibration_memory_is_bounded():
    # the pilots are streamed in row chunks and keep only their entries
    # below the cap, so a cold fit at n = 2000 holds no n x n matrix (one
    # float64 matrix is 32 MB, and the pilots are eight of them)
    randnet._calibrate_er.cache_clear()
    tracemalloc.start()
    try:
        gen_dag(GenSpec(family="er", n=2000, mb_size=4.0, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak
    first = randnet._calibrate_er(2000, 4.0)
    randnet._calibrate_er.cache_clear()
    assert randnet._calibrate_er(2000, 4.0) == first


def test_er_bracket_end_above_the_cap_is_counted(monkeypatch):
    # a cap factor that puts the cap exactly on the bisection's final upper
    # end: the bracket decisions are the same, and that end is counted on
    # pilots redrawn to a larger cap
    fit = randnet._calibrate_er(12, 0.2)
    caps = []
    draw = randnet._er_pilots

    def spy(n, cap):
        caps.append(cap)
        return draw(n, cap)

    monkeypatch.setattr(randnet, "_CAP_FACTOR", 0.18322468849811838)
    monkeypatch.setattr(randnet, "_er_pilots", spy)
    randnet._calibrate_er.cache_clear()
    assert randnet._calibrate_er(12, 0.2) == fit
    randnet._calibrate_er.cache_clear()
    assert len(caps) == 2 and caps[1] == 2.0 * caps[0], caps


def _pinned_specs():
    for family in FAMILIES:
        for n in (8, 23, 57, 130):
            for mb in (1.5, 2.5, 4.0):
                for seed in (0, 3, 11, 40, 97):
                    yield GenSpec(family, n, mb, categories=2 + seed % 2, seed=seed)


def test_generated_networks_are_pinned():
    # 240 draws across the four families, serialized; and the fitted
    # parameters of the three calibrations on a small grid
    digest = hashlib.sha256()
    for spec in _pinned_specs():
        digest.update(serialize_network(gen_network(spec)).encode())
    assert digest.hexdigest() == "854b8c1b559a553801a89a8d1f0ae9da3a6120d6b50a60058793662ba738d294"
    er = [(n, t) for n in (10, 20, 43, 50, 120) for t in (1.5, 4.0)]
    er += [(200, 4.0), (120, 8.0), (30, 29.0), (12, 1e-9)]
    assert repr([randnet._calibrate_er(n, t) for n, t in er]) == (
        "[0.14535587433934494, 0.32030141557305514, 0.04939331742423392, "
        "0.11448706315991553, 0.022738310765733964, 0.053745263532088756, "
        "0.02356377782999342, 0.05223894893217029, 0.009706295054811688, "
        "0.01995964182899679, 0.011661551224337765, 0.03183125411592314, "
        "0.9986195214721636, 0.0]"
    )
    ba = [randnet._calibrate_ba(n, t) for n in (10, 20, 50, 120) for t in (1.5, 4.0, 8.0)]
    assert repr(ba) == "[1, 2, 6, 1, 2, 3, 1, 2, 3, 1, 2, 3]"
    ws = [
        randnet._calibrate_ws(n, t, r)
        for n in (10, 20, 50, 120)
        for t in (1.5, 4.0, 8.0)
        for r in (0.1, 0.3)
    ]
    assert repr(ws) == "[2, 2, 4, 2, 6, 6, 2, 2, 4, 2, 6, 4, 2, 2, 4, 2, 6, 4, 2, 2, 4, 2, 6, 4]"


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


def test_gen_cpts_matches_per_node_draws():
    """One uniform block and one normalization give the tables one draw and
    one normalization per node gave, also at 9 and more categories, where
    each row sum runs pairwise."""
    rng = np.random.default_rng(9300)
    dags = [Dag(("A",)), Dag(("A", "B", "C")), rand_dag(rng, 12, 0.3), rand_dag(rng, 30, 0.1)]
    for categories in (2, 3, 5, 9, 12):
        for k, dag in enumerate(dags):
            want, _ = reference_gen_cpts(dag, categories, k)
            got = gen_cpts(dag, categories, k)
            assert got.cardinalities == dict.fromkeys(dag.node_ids, categories)
            for v in dag.node_ids:
                t = got.cpts[v]
                assert t.dtype == want[v].dtype and t.shape == want[v].shape
                assert t.flags.c_contiguous
                assert t.tobytes() == want[v].tobytes(), (categories, k, v)


def test_gen_cpts_seed_must_be_a_non_negative_integer():
    # refused before anything is drawn, as GenSpec refuses its seed; a NumPy
    # integer draws the tables its int draws
    dag = Dag(("A", "B"), [("A", "B")])
    for seed in (True, False, -1, 1.5, 3.0, "3", None):
        with pytest.raises(ParameterError, match="seed"):
            gen_cpts(dag, 2, seed)
    want = gen_cpts(dag, 3, 3)
    got = gen_cpts(dag, 3, np.int64(3))
    assert all(got.cpts[v].tobytes() == want.cpts[v].tobytes() for v in dag.node_ids)


def _clamped(bn, evidence):
    """Every field of ``clamp_factors``' stacks, as bytes where they are arrays."""
    cf = clamp_factors(bn, evidence)
    groups = [tuple((a.shape, a.tobytes()) for a in g) for g in cf.groups]
    return cf.free, cf.cards.tobytes(), cf.edge_var.tobytes(), groups, cf.size


def test_generated_networks_are_trusted_and_read_only():
    # gen_cpts hands read-only views of one block to the unchecked
    # constructor; the network must be the one the checked constructor
    # builds from the same tables, down to what restrict, clamp_factors and
    # serialize_network give
    for k, family in enumerate(FAMILIES * 2):
        bn = gen_network(GenSpec(family, 40, 3.0, categories=2 + k % 3, seed=k))
        checked = CategoricalBN(bn.dag, bn.cardinalities, bn.cpts)
        assert validate(bn) == []
        assert bn.state_names == checked.state_names
        assert all(type(c) is int for c in bn.cardinalities.values())
        for v, t in bn.cpts.items():
            assert t.flags.c_contiguous and t.tobytes() == checked.cpts[v].tobytes()
            with pytest.raises(ValueError):
                t[0, 0] = 0.5
        assert serialize_network(bn) == serialize_network(checked)
        e = pick_evidence(bn, 0.3, k)
        assert _clamped(bn, e) == _clamped(checked, e)
        keep = set(e) | bn.dag._ancestors(e)
        got, want = bn.restrict(keep), checked.restrict(keep)
        assert dag_structure(got.dag) == dag_structure(want.dag)
        assert got.state_names == want.state_names and got.cardinalities == want.cardinalities
        assert all(got.cpts[v].tobytes() == want.cpts[v].tobytes() for v in got.node_ids)
        assert _clamped(got, e) == _clamped(want, e)


def test_generators_list_edges_forward():
    # every family, and a generated network written and read back, lists
    # its edges from lower to higher node positions, so its graph takes no
    # heap pass and builds no child lists until they are read
    for family in FAMILIES:
        for seed in range(4):
            bn = gen_network(GenSpec(family, 30, 3.0, seed=seed))
            for dag in (bn.dag, parse_network(serialize_network(bn)).dag):
                assert dag._topo is dag.node_ids and "_children" not in vars(dag)


def test_gen_cpts_refuses_non_integer_categories():
    dag = Dag(("A", "B"), [("A", "B")])
    for bad in (2.0, "2", True, None):
        with pytest.raises(ParameterError, match="categories must be an integer"):
            gen_cpts(dag, bad, 0)
    with pytest.raises(ParameterError, match="at least 2"):
        gen_cpts(dag, 1, 0)
    bn = gen_cpts(dag, np.int64(3), 0)
    assert bn.cardinalities == {"A": 3, "B": 3} and all(type(c) is int for c in bn.cardinalities.values())
    assert bn.state_names == {"A": ("s0", "s1", "s2"), "B": ("s0", "s1", "s2")}


def test_oversized_cpts_are_refused_before_drawing(monkeypatch):
    # these specs once asked NumPy for 167 GiB and about 10 TiB of tables
    for spec in (GenSpec("er", 60, 40.0, categories=3), GenSpec("ws", 80, 50.0, categories=3)):
        gen_dag(spec)  # the calibration, cached, is not what is measured
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="exceed the generator's cap"):
                gen_network(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak
    # the cap is on the total entry count, which a network may reach
    dag = rand_dag(np.random.default_rng(2103), 12, 0.4)
    entries = sum(3 ** len(dag.parents(v)) * 3 for v in dag.node_ids)
    monkeypatch.setattr(randnet, "MAX_CPT_ENTRIES", entries)
    assert sum(t.size for t in gen_cpts(dag, 3, 5).cpts.values()) == entries
    monkeypatch.setattr(randnet, "MAX_CPT_ENTRIES", entries - 1)
    with pytest.raises(ParameterError, match=f"CPTs of {entries} entries"):
        gen_cpts(dag, 3, 5)


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
    # the fraction is a real number: a bool would observe every node and a
    # string would fail inside the comparison, so both are refused up front;
    # an int or a NumPy float draws what the equal float draws
    for bad in (True, False, "0.2", None, [0.5]):
        with pytest.raises(ArgumentError, match="evidence fraction must be a number"):
            pick_evidence(bn, bad, 5)
    assert pick_evidence(bn, np.float64(0.5), 5) == e
    assert pick_evidence(bn, 1, 5) == full


def test_pick_evidence_refuses_a_seed_that_is_not_a_non_negative_integer():
    # a bool or a float is not a seed (network.is_integer), and a negative
    # one is out of NumPy's range; each is refused before anything is drawn
    bn = gen_network(GenSpec(family="er", n=12, mb_size=2.0, seed=4))
    for bad in (True, False, 1.5, 2.0, np.float64(3.0), "3", None):
        with pytest.raises(ArgumentError, match="seed must be an integer"):
            pick_evidence(bn, 0.5, bad)
    for bad in (-1, np.int64(-2)):
        with pytest.raises(ArgumentError, match="seed must be a non-negative integer"):
            pick_evidence(bn, 0.5, bad)
    assert pick_evidence(bn, 0.5, np.int64(7)) == pick_evidence(bn, 0.5, 7)
    assert pick_evidence(bn, 0.0, 0) == {}


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
