import math
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bnmarg import junction
from bnmarg.decompose import decompose, find_subsets, relevant_subgraph
from bnmarg.engine import SgsConfig, _log_exact, marginal
from bnmarg.errors import ArgumentError, CapacityError
from bnmarg.graphs import Dag, chordal_cliques, moral_graph, triangulate
from bnmarg.junction import (
    PLAN_CACHE_SIZE,
    PLAN_NODE_LIMIT,
    _build_plan,
    _plan,
    _spanning_tree,
    build_junction_tree,
    incorporate_evidence,
    log_tree_sum,
)
from bnmarg.network import CategoricalBN, log_enumerate_marginal, sample_forward

from conftest import (
    adjacency,
    brute_marginal,
    induced_dag,
    moral_adjacency,
    moral_edges,
    oracle_graphs,
    rand_bn,
    rand_cpts,
    rand_dag,
    rand_evidence,
    reference_build_junction_tree,
    reference_build_plan,
    reference_incorporate_evidence,
    reference_log_tree_sum,
    reference_min_fill,
    reference_spanning_tree,
    reordered,
    sparse_bn,
    sparse_er_dag,
)


def test_chain_cliques_and_sepset():
    dag = Dag(("A", "B", "C"), [("A", "B"), ("B", "C")])
    cpts = {
        "A": np.array([[0.5, 0.5]]),
        "B": np.array([[0.4, 0.6], [0.8, 0.2]]),
        "C": np.array([[0.3, 0.7], [0.6, 0.4]]),
    }
    bn = CategoricalBN(dag, {v: 2 for v in "ABC"}, cpts)
    jt = build_junction_tree(bn)
    assert sorted(jt.cliques) == [("A", "B"), ("B", "C")]
    assert len(jt.tree_edges) == 1
    assert jt.tree_edges[0][2] == ("B",)


def test_collider_single_clique():
    dag = Dag(("A", "B", "C"), [("A", "C"), ("B", "C")])
    cpts = {
        "A": np.array([[0.5, 0.5]]),
        "B": np.array([[0.4, 0.6]]),
        "C": np.array([[0.3, 0.7], [0.6, 0.4], [0.2, 0.8], [0.9, 0.1]]),
    }
    bn = CategoricalBN(dag, {v: 2 for v in "ABC"}, cpts)
    jt = build_junction_tree(bn)
    assert jt.cliques == (("A", "B", "C"),)


def test_running_intersection_property():
    rng = np.random.default_rng(14)
    for _ in range(20):
        bn = rand_bn(rng, 10, 0.3)
        jt = build_junction_tree(bn)
        # every family inside some clique
        for v in bn.node_ids:
            fam = set((v,) + bn.dag.parents(v))
            assert any(fam <= set(c) for c in jt.cliques)
        # cliques containing any node form a connected subtree
        adj = {i: set() for i in range(len(jt.cliques))}
        for i, j, _ in jt.tree_edges:
            adj[i].add(j)
            adj[j].add(i)
        for v in bn.node_ids:
            holding = {i for i, c in enumerate(jt.cliques) if v in c}
            if not holding:
                continue
            stack = [next(iter(holding))]
            seen = set(stack)
            while stack:
                cur = stack.pop()
                for nxt in adj[cur]:
                    if nxt in holding and nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            assert seen == holding


def test_potential_product_equals_joint():
    rng = np.random.default_rng(9)
    for _ in range(10):
        bn = rand_bn(rng, 7, 0.35, cards=(2,))
        jt = build_junction_tree(bn)
        x = {v: int(rng.integers(2)) for v in bn.node_ids}
        prod = 1.0
        for clique, pot in zip(jt.cliques, jt.potentials):
            idx = tuple(x[v] for v in clique)
            prod *= float(pot[idx])
        expected = math.exp(sum(
            math.log(bn.cpts[v][bn.row_index(v, x), x[v]]) for v in bn.node_ids
        ))
        assert prod == pytest.approx(expected, rel=1e-10)


def test_subset_marginal_law_of_total_probability():
    dag = Dag(("v", "c"), [("v", "c")])
    cpts = {
        "v": np.array([[0.7, 0.3]]),
        "c": np.array([[0.8, 0.2], [0.1, 0.9]]),
    }
    bn = CategoricalBN(dag, {"v": 2, "c": 2}, cpts)
    est = marginal(bn, {"c": 1}, "sgs", SgsConfig(n_max=999))
    (rep,) = est.per_subset
    assert rep.nodes == ("v",) and rep.method == "exact"
    got = math.exp(rep.log_factor)
    assert got == pytest.approx(0.7 * 0.2 + 0.3 * 0.9)
    assert got == pytest.approx(0.41)


def test_subset_marginal_empty_child_boundary():
    # evidence is a parent of the subset, not a child: the conditional target
    # is an empty event set, so the factor is exactly one.  Relevance pruning
    # never hands the engine such a subset, so the exact solver is called
    # directly with the boundary's CPT left out
    dag = Dag(("E", "C"), [("E", "C")])
    cpts = {
        "E": np.array([[0.4, 0.6]]),
        "C": np.array([[0.5, 0.5], [0.2, 0.8]]),
    }
    bn = CategoricalBN(dag, {"E": 2, "C": 2}, cpts)
    subsets, (b,) = find_subsets(dag, {"E"})
    assert subsets == (("C",),) and b.e_ch == ()
    got = _log_exact(bn, {"C", "E"}, {"C"}, {"E": 1}, 2**20)
    assert math.exp(got) == pytest.approx(1.0)


def test_subset_marginal_matches_enumeration():
    rng = np.random.default_rng(33)
    for _ in range(25):
        bn = rand_bn(rng, 9, 0.3)
        e = rand_evidence(rng, bn, int(rng.integers(1, 5)))
        dec = decompose(bn, e)
        sub = relevant_subgraph(bn, e)
        est = marginal(bn, e, "sgs", SgsConfig(n_max=999))
        assert tuple(r.nodes for r in est.per_subset) == dec.subsets
        assert all(r.method == "exact" for r in est.per_subset)
        total = sum(r.log_factor for r in est.per_subset)
        # add the closed-form leftover factor by direct CPT lookup
        for v in dec.leftover_evidence:
            total += math.log(float(sub.cpts[v][sub.row_index(v, e), e[v]]))
        assert math.exp(total) == pytest.approx(brute_marginal(bn, e), rel=1e-10)


def test_root_choice_invariance():
    rng = np.random.default_rng(71)
    bn = rand_bn(rng, 8, 0.4, cards=(2,))
    e = rand_evidence(rng, bn, 3)
    jt = build_junction_tree(bn)
    jt = incorporate_evidence(jt, e)
    values = [log_tree_sum(jt, root=r) for r in range(len(jt.cliques))]
    for v in values[1:]:
        assert v == pytest.approx(values[0], abs=1e-12)


def test_full_junction_equals_enumeration():
    rng = np.random.default_rng(50)
    for _ in range(15):
        bn = rand_bn(rng, 11, 0.3)
        e = rand_evidence(rng, bn, int(rng.integers(0, 6)))
        got = marginal(bn, e, "jt").log_value
        want = log_enumerate_marginal(bn, e)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_incorporate_evidence_masking():
    dag = Dag(("A", "B"), [("A", "B")])
    cpts = {
        "A": np.array([[0.7, 0.3]]),
        "B": np.array([[0.9, 0.1], [0.2, 0.8]]),
    }
    bn = CategoricalBN(dag, {"A": 2, "B": 2}, cpts)
    jt = build_junction_tree(bn)
    observed = incorporate_evidence(jt, {"B": 1})
    (pot,) = observed.potentials
    clique = observed.cliques[0]
    b_axis = clique.index("B")
    kept = np.take(pot, 1, axis=b_axis)
    zeroed = np.take(pot, 0, axis=b_axis)
    assert np.all(zeroed == 0.0)
    assert np.all(kept > 0.0)
    with pytest.raises(ArgumentError):
        incorporate_evidence(jt, {"Z": 0})


def test_capacity_error():
    rng = np.random.default_rng(2)
    bn = rand_bn(rng, 8, 0.9, cards=(3,))
    with pytest.raises(CapacityError):
        build_junction_tree(bn, table_cap=16)


def test_capacity_error_exactly_when_a_maximal_clique_exceeds_the_cap():
    # the cap is checked on each elimination clique as it forms; it must
    # refuse exactly the scopes whose whole triangulation has a maximal clique
    # table above the cap, and keep those cliques when it accepts
    rng = np.random.default_rng(41)
    checked = 0
    for trial in range(100):
        bn = sparse_bn(rng, int(rng.integers(2, 12)))
        if trial % 2:
            bn = reordered(rng, bn)
        e = rand_evidence(rng, bn, len(bn) // 3)
        dec = decompose(bn, e)
        rel = relevant_subgraph(bn, e)
        calls = [(bn, bn.node_ids, bn.node_ids)]  # the whole network, as jt builds it
        for sub, b in zip(dec.subsets, dec.boundaries):  # each subset, as sgs builds it
            calls.append((rel, set(sub) | set(b.e_mb), set(sub) | set(b.e_ch)))
        for net, scope, factors in calls:
            induced = induced_dag(net.dag, scope)
            _, cliques = reference_min_fill(induced.node_ids, adjacency(induced.node_ids, moral_edges(induced)))
            largest = max(math.prod(net.cardinalities[v] for v in c) for c in cliques)
            for cap in (largest - 1, largest, largest + 1):
                if cap < largest:
                    with pytest.raises(CapacityError):
                        build_junction_tree(net, scope, factors, cap)
                else:
                    assert list(build_junction_tree(net, scope, factors, cap).cliques) == cliques
                checked += 1
    assert checked > 300


def test_spanning_tree_matches_reference_kruskal():
    # pairs scored from the variable -> cliques index, then the zero-weight
    # joins, must give the tree that sorting every pair gives, edge for edge
    rng = np.random.default_rng(43)
    count = 0
    for ids, adj in oracle_graphs(rng):
        cliques = triangulate(ids, adj, [2] * len(ids), math.inf).cliques
        assert _spanning_tree(cliques) == reference_spanning_tree(cliques)
        count += 1
    assert count > 300
    for n in (500, 1000):  # whole sparse networks: hundreds of cliques, several components
        dag = rand_dag(rng, n, 1.6 / (n - 1))
        cliques = triangulate(dag.node_ids, moral_adjacency(dag, dag.node_ids), [2] * n, math.inf).cliques
        assert len(cliques) > n // 2
        assert _spanning_tree(cliques) == reference_spanning_tree(cliques)


def test_cpt_placement_matches_a_scan_of_every_clique():
    # each CPT goes to the smallest clique covering its family, the first
    # among equals; placement searches only the cliques that hold the
    # family's own node, and on whole networks of 1,500 nodes must choose
    # what a scan of every clique chooses
    rng = np.random.default_rng(44)
    for trial in range(2):
        n = 1500
        bn = rand_bn(rng, n, 1.2 / (n - 1), cards=(2, 3))
        if trial:  # parents may follow their children in node order
            bn = reordered(rng, bn)
        factors = [v for v in bn.node_ids if rng.random() < 0.8]
        plan = build_junction_tree(bn, factor_nodes=factors).plan
        at = {v: i for i, v in enumerate(bn.node_ids)}
        cliques = [set(c) for c in plan.cliques]
        assert len(cliques) > n // 2
        assert [i for i, *_ in plan.placements] == sorted(map(at.__getitem__, factors))
        ties = 0  # families with more than one smallest covering clique
        for i, k, _, _ in plan.placements:
            family = {at[p] for p in bn.dag.parents(bn.node_ids[i])} | {i}
            covering = [c for c, members in enumerate(cliques) if members >= family]
            assert k == min(covering, key=lambda c: (len(cliques[c]), c))
            ties += sum(len(cliques[c]) == len(cliques[k]) for c in covering) > 1
        assert ties > 50, ties


def test_exact_solver_matches_reference_bit_for_bit():
    # the tables, the clique tree and the log value from every root equal
    # the plain route's bit for bit, on the whole network, on every subset
    # scope as sgs builds it and on a random node set (often disconnected);
    # the cap refuses exactly one below the largest clique table.  Each call
    # is made with the plan cache emptied (a miss that builds and stores the
    # plan) and again (a hit on it); then the corpus runs once more on one
    # shared cache, where plans made for other calls of equal structure
    # answer.  A plan made under the largest table's cap never answers for
    # one less: the refusal stays, in the same words as from an empty cache
    rng = np.random.default_rng(53)
    corpus = []
    for trial in range(240):
        n = int(rng.integers(2, 13))
        bn = sparse_bn(rng, n) if trial % 2 else rand_bn(rng, n, 0.5 * rng.random(), cards=(2, 3, 4, 5))
        if trial % 3:
            bn = reordered(rng, bn)
        e = rand_evidence(rng, bn, int(rng.integers(0, n)))
        corpus.append((bn, bn.node_ids, bn.node_ids, e))
        if e:
            dec = decompose(bn, e)
            rel = relevant_subgraph(bn, e)
            for sub, b in zip(dec.subsets, dec.boundaries):
                corpus.append((rel, set(sub) | set(b.e_mb), set(sub) | set(b.e_ch), {v: e[v] for v in b.e_mb}))
        keep = {v for v in bn.node_ids if rng.random() < 0.6} or {bn.node_ids[0]}
        factors = {v for v in keep if keep.issuperset(bn.dag.parents(v))}
        corpus.append((bn, keep, factors, {v: s for v, s in e.items() if v in keep}))

    def solve_and_compare(net, scope, factors, values, want, cap):
        got = build_junction_tree(net, scope, factors, cap)
        assert (got.nodes, got.cliques, got.tree_edges, got.cards) == (
            want.nodes, want.cliques, want.tree_edges, want.cards
        )
        for _ in range(2):  # as built, then with the evidence
            assert [(p.shape, p.tobytes()) for p in got.potentials] == [
                (p.shape, p.tobytes()) for p in want.potentials
            ]
            got, want = incorporate_evidence(got, values), reference_incorporate_evidence(want, values)
        roots = range(len(want.cliques))
        logs = [repr(log_tree_sum(got, r)) for r in roots]
        assert logs == [repr(reference_log_tree_sum(want, r)) for r in roots]
        return logs

    def refusal(net, scope, factors, cap):
        with pytest.raises(CapacityError) as refused:
            build_junction_tree(net, scope, factors, cap)
        return str(refused.value)

    wants, refusals = [], []
    seen = Counter()
    for net, scope, factors, values in corpus:
        want = reference_build_junction_tree(net, scope, factors)
        largest = max(math.prod(want.cards[v] for v in c) for c in want.cliques)
        _plan.cache_clear()
        refusals.append(refusal(net, scope, factors, largest - 1))
        for _ in range(2):  # a miss that stores the plan, then a hit on it
            logs = solve_and_compare(net, scope, factors, values, want, largest)
        assert _plan.cache_info()[:2] == (1, 2)  # the refusal stored nothing
        assert refusal(net, scope, factors, largest - 1) == refusals[-1]
        wants.append((want, largest))
        index = net.dag.index
        seen["calls"] += 1
        seen["one clique"] += len(want.cliques) == 1
        seen["empty sepset"] += any(not sep for _, _, sep in want.tree_edges)
        seen["zero probability"] += logs[0] == "-inf"
        seen["parent after child"] += any(index(p) > index(v) for v in factors for p in net.dag.parents(v))
        seen["cardinality 5"] += 5 in want.cards.values()
    assert seen["calls"] > 500 and min(seen.values()) > 40, seen

    _plan.cache_clear()
    for (net, scope, factors, values), (want, largest), refused in zip(corpus, wants, refusals):
        solve_and_compare(net, scope, factors, values, want, largest)
        assert refusal(net, scope, factors, largest - 1) == refused
    assert _plan.cache_info().hits > 40, _plan.cache_info()


def _plan_inputs(bn, scope, factors):
    """The scope in canonical order, each node's family as positions in it
    (parents ascending, then the node), the factor flags and cardinalities,
    read as build_junction_tree reads them."""
    scope = bn.dag.sort(set(scope))
    pos = {v: i for i, v in enumerate(scope)}
    families = [[pos[p] for p in bn.dag.parents(v) if p in pos] + [i] for i, v in enumerate(scope)]
    return scope, families, [v in factors for v in scope], [bn.cardinalities[v] for v in scope]


def test_plan_builder_matches_reference_plan():
    # chordal moral graphs take their cliques from maximum cardinality
    # search and the rest go through min-fill: every plan equals, tuple for
    # tuple, the one built with min-fill alone, under a cap at its largest
    # clique table, and one below that cap both refuse in the same words.
    # Scopes run from one node to above the cache's node limit: whole
    # networks, every subset scope as sgs builds it and random node sets
    rng = np.random.default_rng(73)
    seen = Counter()
    for trial in range(150):
        n = int(rng.integers(1, 14)) if trial % 10 else int(rng.integers(PLAN_NODE_LIMIT + 1, 2 * PLAN_NODE_LIMIT))
        if trial % 3 == 0:
            bn = sparse_bn(rng, n, p=0.35 if n < 14 else 2.5 / n)
        else:
            bn = rand_bn(rng, n, rng.random() if n < 14 else 3 * rng.random() / n, cards=(2, 3, 4, 5))
        if trial % 2:
            bn = reordered(rng, bn)
        e = rand_evidence(rng, bn, int(rng.integers(0, n)))
        calls = [(bn, bn.node_ids, bn.node_ids)]
        if e:
            dec = decompose(bn, e)
            rel = relevant_subgraph(bn, e)
            calls += [(rel, sub + b.e_mb, sub + b.e_ch) for sub, b in zip(dec.subsets, dec.boundaries)]
        keep = {v for v in bn.node_ids if rng.random() < 0.6} or {bn.node_ids[0]}
        calls.append((bn, keep, {v for v in keep if keep.issuperset(bn.dag.parents(v))}))
        for net, scope, factors in calls:
            scope, families, is_factor, cards = _plan_inputs(net, scope, factors)
            want = reference_build_plan(scope, families, is_factor, cards, math.inf)
            largest = max(math.prod(cards[u] for u in c) for c in want.cliques)
            assert tuple(_build_plan(scope, families, is_factor, cards, largest)) == tuple(want)
            with pytest.raises(CapacityError) as refused:
                reference_build_plan(scope, families, is_factor, cards, largest - 1)
            with pytest.raises(CapacityError) as got:
                _build_plan(scope, families, is_factor, cards, largest - 1)
            assert str(got.value) == str(refused.value)
            seen["chordal" if chordal_cliques(moral_graph(families)) is not None else "not chordal"] += 1
            seen["one node"] += len(scope) == 1
            seen["over the node limit"] += len(scope) > PLAN_NODE_LIMIT
            seen["cardinality 5"] += 5 in cards
            seen["parent after child"] += any(f[-2] > f[-1] for f in families if len(f) > 1)
    assert min(seen.values()) > 10 and min(seen["chordal"], seen["not chordal"]) > 40, seen


def test_cold_and_warm_plan_caches_agree_on_large_scopes(monkeypatch):
    # one sgs query on a sparse 2,500-node network, from an emptied plan
    # cache and again on the plans it stored: every subset's log factor is
    # the same to the last bit, and the cold run built plans for scopes of
    # more than 20 nodes, each a miss
    rng = np.random.default_rng(83)
    bn = rand_cpts(rng, sparse_er_dag(rng, 2500, 1.6), cards=(2, 3))
    record = sample_forward(bn, 1, 5)[0]
    evidence = {v: record[v] for v in bn.node_ids if rng.random() < 0.3}
    built = []
    build = junction._build_plan

    def recording(scope, *args):
        built.append(len(scope))
        return build(scope, *args)

    _plan.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(junction, "_build_plan", recording)
        cold = marginal(bn, evidence, "sgs")
    cold_info = _plan.cache_info()
    warm = marginal(bn, evidence, "sgs")
    warm_info = _plan.cache_info()
    assert [(r.nodes, r.method, repr(r.log_factor)) for r in warm.per_subset] == [
        (r.nodes, r.method, repr(r.log_factor)) for r in cold.per_subset
    ]
    assert repr(warm.log_value) == repr(cold.log_value)
    exact = sum(r.method == "exact" for r in cold.per_subset)
    assert exact > 100 and math.isfinite(cold.log_value)
    assert cold_info.misses == len(built) > 0 and max(built) > 20, (cold_info, sorted(built)[-5:])
    assert (warm_info.hits - cold_info.hits, warm_info.misses) == (exact, cold_info.misses)


def test_plan_cache_is_bounded():
    # more distinct keys than the cache holds (the cap is part of the key)
    # leave it full, without the least recently used; a scope over the node
    # limit, or with a node of 256 states or more, is solved like any other
    # and bypasses the cache: no hit, no miss, nothing stored
    bn = CategoricalBN(Dag(("a",), []), {"a": 2}, {"a": np.array([[0.25, 0.75]])})
    caps = range(2, PLAN_CACHE_SIZE + 12)
    _plan.cache_clear()
    for cap in caps:
        build_junction_tree(bn, table_cap=cap)
    assert _plan.cache_info() == (0, len(caps), PLAN_CACHE_SIZE, PLAN_CACHE_SIZE)
    build_junction_tree(bn, table_cap=caps[-1])
    build_junction_tree(bn, table_cap=caps[0])
    assert _plan.cache_info()[:2] == (1, len(caps) + 1)

    rng = np.random.default_rng(61)
    big = reordered(rng, sparse_bn(rng, PLAN_NODE_LIMIT + 6, p=0.03))
    e = rand_evidence(rng, big, 20)
    ref = reference_build_junction_tree(big, big.node_ids, big.node_ids)
    want = repr(reference_log_tree_sum(reference_incorporate_evidence(ref, e)))
    _plan.cache_clear()
    for _ in range(2):
        assert repr(log_tree_sum(incorporate_evidence(build_junction_tree(big), e))) == want
    assert _plan.cache_info() == (0, 0, PLAN_CACHE_SIZE, 0)

    dag = Dag(("a", "b", "c"), [("a", "b"), ("a", "c"), ("b", "c")])
    wide = CategoricalBN(
        dag,
        {"a": 300, "b": 3, "c": 2},
        {"a": rng.dirichlet(np.ones(300))[None], "b": rng.dirichlet(np.ones(3), 300), "c": rng.dirichlet(np.ones(2), 900)},
    )
    e = {"c": 1}
    want = log_enumerate_marginal(wide, e)
    build_junction_tree(bn, table_cap=2)  # one stored plan, which the wide scope must leave alone
    before = _plan.cache_info()
    for _ in range(2):
        got = log_tree_sum(incorporate_evidence(build_junction_tree(wide), e))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
    assert _plan.cache_info() == before == (0, 1, PLAN_CACHE_SIZE, 1)


def test_plan_cache_is_shared_safely_across_threads():
    # four threads solve one corpus of subset scopes at once, each in its own
    # order, on a shared, emptied cache: every log is the one a single thread
    # gives, every call counts once as a hit or a miss, and the cache ends up
    # holding the plans a single thread stores
    rng = np.random.default_rng(67)
    corpus = []
    for trial in range(60):
        n = int(rng.integers(30, 61))
        bn = reordered(rng, rand_bn(rng, n, 1.6 / (n - 1)))
        e = rand_evidence(rng, bn, n // 3)
        dec = decompose(bn, e)
        rel = relevant_subgraph(bn, e)
        for sub, b in zip(dec.subsets, dec.boundaries):
            corpus.append((rel, set(sub) | set(b.e_mb), set(sub) | set(b.e_ch), {v: e[v] for v in b.e_mb}))
    assert len(corpus) > 200 and max(len(scope) for _, scope, _, _ in corpus) <= PLAN_NODE_LIMIT

    def solve(order):
        return {
            k: repr(log_tree_sum(incorporate_evidence(build_junction_tree(*corpus[k][:3]), corpus[k][3])))
            for k in order
        }

    _plan.cache_clear()
    want = solve(range(len(corpus)))
    stored = _plan.cache_info().currsize
    assert 0 < stored < len(corpus)  # structures recur: the threads share plans

    orders = [rng.permutation(len(corpus)) for _ in range(4)]
    start = threading.Barrier(len(orders))

    def run(order):
        start.wait()
        return solve(order)

    _plan.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside calls as well as between them
    try:
        with ThreadPoolExecutor(len(orders)) as pool:
            got = list(pool.map(run, orders))
    finally:
        sys.setswitchinterval(interval)
    assert all(logs == want for logs in got)
    info = _plan.cache_info()
    assert info.hits + info.misses == len(orders) * len(corpus), info
    assert info.currsize == stored <= PLAN_CACHE_SIZE, info
