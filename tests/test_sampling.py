import hashlib
import math

import numpy as np
import pytest

from bnmarg.decompose import decompose, relevant_subgraph
from bnmarg.engine import SgsConfig, marginal
from bnmarg.errors import ArgumentError
from bnmarg.graphs import Dag
from bnmarg.network import CategoricalBN, enumerate_marginal, log_joint_probability
from bnmarg.sampling import (
    ImportanceDistribution,
    SamplerConfig,
    gibbs_proposal,
    importance_estimate,
    loopy_bp,
)

from conftest import brute_marginal, rand_bn, rand_evidence, reordered, sparse_bn


def _estimate(bn, e, method, sampler):
    """The evidence marginal P(e) that ``method`` estimates with ``sampler``."""
    return marginal(bn, e, method, SgsConfig(sampler=sampler)).value


def _polytree_bn(rng, n):
    """Random tree skeleton with random edge orientations."""
    names = tuple(f"n{i}" for i in range(n))
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((names[j], names[i]) if rng.random() < 0.5 else (names[i], names[j]))
    dag = Dag(names, edges)
    cards = {v: int(rng.choice((2, 3))) for v in names}
    cpts = {}
    for v in names:
        rows = 1
        for p in dag.parents(v):
            rows *= cards[p]
        t = rng.random((rows, cards[v])) + 1e-3
        cpts[v] = t / t.sum(axis=1, keepdims=True)
    return CategoricalBN(dag, cards, cpts)


def _family_table(bn, v, family):
    """CPT of v as an array whose axes follow the canonical family order."""
    ps = bn.dag.parents(v)
    shape = [bn.cardinalities[p] for p in ps] + [bn.cardinalities[v]]
    t = bn.cpts[v].reshape(shape)
    current = tuple(ps) + (v,)
    perm = [current.index(u) for u in family]
    return np.transpose(t, perm)


def _reference_reduced_factor(bn, v, evidence):
    family = bn.dag.sort(set(bn.dag.parents(v)) | {v})
    table = _family_table(bn, v, family)
    sel = []
    free_vars = []
    for u in family:
        if u in evidence:
            sel.append(int(evidence[u]))
        else:
            sel.append(slice(None))
            free_vars.append(u)
    return tuple(free_vars), np.asarray(table[tuple(sel)], dtype=float)


def _reference_loopy_bp(bn, evidence, cfg, nodes=None, factor_nodes=None):
    """Flooding sum-product with one small array per message, kept as an
    independent route to the beliefs ``loopy_bp`` computes on stacked arrays.
    Returns (nodes, {node: floored belief})."""
    dag = bn.dag
    scope = set(dag.node_ids) if nodes is None else set(nodes)
    factors_of = set(scope) if factor_nodes is None else set(factor_nodes)
    free = [v for v in dag.node_ids if v in scope and v not in evidence]
    factors = []
    for v in dag.sort(factors_of):
        fvars, table = _reference_reduced_factor(bn, v, evidence)
        if fvars:
            factors.append((fvars, table))
    touching = {v: [] for v in free}
    for fi, (fvars, _) in enumerate(factors):
        for v in fvars:
            touching[v].append(fi)

    cards = bn.cardinalities
    uniform = {v: np.full(cards[v], 1.0 / cards[v]) for v in free}
    edges = [(fi, v) for fi, (fvars, _) in enumerate(factors) for v in fvars]
    vf = {(v, fi): np.ones(cards[v]) for fi, v in edges}
    fv = {(fi, v): np.ones(cards[v]) for fi, v in edges}

    def current_beliefs(fv_msgs):
        out = {}
        for v in free:
            b = np.ones(cards[v])
            for fi in touching[v]:
                b = b * fv_msgs[(fi, v)]
            s = float(b.sum())
            out[v] = b / s if s > 0 else uniform[v].copy()
        return out

    beliefs = current_beliefs(fv)
    for _ in range(cfg.lbp_iterations):
        new_fv = {}
        for fi, (fvars, table) in enumerate(factors):
            for k, v in enumerate(fvars):
                t = table
                for k2, u in enumerate(fvars):
                    if u == v:
                        continue
                    shape = [1] * table.ndim
                    shape[k2] = cards[u]
                    t = t * vf[(u, fi)].reshape(shape)
                axes = tuple(k2 for k2 in range(table.ndim) if k2 != k)
                msg = t.sum(axis=axes) if axes else t.copy()
                s = float(msg.sum())
                new_fv[(fi, v)] = msg / s if s > 0 else uniform[v].copy()
        new_vf = {}
        for v in free:
            for fi in touching[v]:
                m = np.ones(cards[v])
                for fj in touching[v]:
                    if fj != fi:
                        m = m * new_fv[(fj, v)]
                s = float(m.sum())
                new_vf[(v, fi)] = m / s if s > 0 else uniform[v].copy()
        fv, vf = new_fv, new_vf
        nxt = current_beliefs(fv)
        delta = max(float(np.max(np.abs(nxt[v] - beliefs[v]))) for v in free)
        beliefs = nxt
        if delta < cfg.lbp_tolerance:
            break

    probs = {}
    for v in free:
        b = np.maximum(beliefs[v], cfg.belief_floor)
        probs[v] = b / b.sum()
    return tuple(free), probs


def _bp_scopes(bn, e):
    """The whole network, then every subset scope as the engine passes it."""
    yield bn, e, None, None
    rel = relevant_subgraph(bn, e)
    dec = decompose(bn, e)
    for sub, b in zip(dec.subsets, dec.boundaries):
        sub_e = {v: e[v] for v in b.e_mb}
        yield rel, sub_e, set(sub) | set(b.e_mb), set(sub) | set(b.e_ch)


def test_loopy_bp_matches_reference_message_loop():
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(80):
        bn = sparse_bn(rng, int(rng.integers(3, 12)))
        n = len(bn.node_ids)
        count = (0, 1, max(n - 2, 1), n - 1)[trial % 4]
        e = rand_evidence(rng, bn, count)
        # the shuffled copy lists some parents after their children
        for net, ev, nodes, factors in (
            *_bp_scopes(bn, e), *_bp_scopes(reordered(np.random.default_rng(trial), bn), e)
        ):
            for iters in (1, 5, 50):
                cfg = SamplerConfig(sample_count=1, lbp_iterations=iters, lbp_tolerance=1e-12)
                want_nodes, want = _reference_loopy_bp(net, ev, cfg, nodes, factors)
                q = loopy_bp(net, ev, cfg, nodes, factors)
                assert q.nodes == want_nodes
                for v, p in zip(q.nodes, q.probs):
                    assert not p[net.cardinalities[v] :].any()
                    np.testing.assert_allclose(
                        p[: net.cardinalities[v]], want[v], rtol=0, atol=1e-12
                    )
                checked += 1
    assert checked > 600


# per network, a digest of the bytes of every belief over the whole network
# and over each subset scope; recorded (numpy 2.4) before the CPT row layout
# moved behind CategoricalBN
LOOPY_BP_PINNED = (
    "743385e25b1fe91d",
    "8dc845f879c6083e",
    "c61b9e07d494b2ba",
    "2a5d979ec7d0972c",
    "63ed8ac1933e5c2d",
    "41c398b216113f2f",
    "1ac95c0ab068d311",
    "2b5b9ce47322067f",
    "3efb49457d54ea62",
    "76e746ee4cb3e3c5",
    "4c6d9089783561f1",
    "269840b550c1f432",
)


def test_loopy_bp_beliefs_are_pinned():
    got = []
    for k in range(12):
        rng = np.random.default_rng(8100 + k)
        bn = sparse_bn(rng, int(rng.integers(3, 12)))
        if k % 2:  # parents may follow their children in canonical order
            bn = reordered(rng, bn)
        n = len(bn.node_ids)
        e = rand_evidence(rng, bn, (0, 1, n // 2, n - 1)[k % 4])
        cfg = SamplerConfig(sample_count=1, lbp_iterations=(1, 5, 50)[k % 3])
        h = hashlib.sha256()
        for net, ev, nodes, factors in _bp_scopes(bn, e):
            q = loopy_bp(net, ev, cfg, nodes, factors)
            h.update(repr(q.nodes).encode())
            for v, p in zip(q.nodes, q.probs):
                h.update(p[: net.cardinalities[v]].tobytes())
        got.append(h.hexdigest()[:16])
    assert tuple(got) == LOOPY_BP_PINNED


# log values of ("lbp-is", "sgs" with n_max=0) recorded before loopy_bp and
# ImportanceDistribution.sample were vectorized; sampled paths must keep
# making the same draws for the same seed
SAME_DRAW_LOG_VALUES = (
    (-1.3127576335822706, -1.3127576335822706),
    (-6.998512444688629, -6.941525162997733),
    (-0.0902479119648963, -0.0902479119648963),
    (-2.7945512688973966, -2.7939436424575828),
    (-1.3910369289731892, -1.3782645715885067),
    (-4.487062829763732, -4.474721322891299),
    (-2.8666693126466445, -2.893236247529897),
    (-7.43685111525814, -7.436851115258139),
    (-2.40926134628161, -2.363788916049261),
    (-1.0148604295718082, -1.0344278521815342),
    (-4.104537872228462, -4.1150034502746005),
    (-2.1020741922478643, -2.114124662304331),
    (-5.727337296394247, -5.727337296394247),
    (-4.387373743166137, -4.387373743166137),
    (-2.070373495640164, -2.0703734956401636),
    (-2.9461117261284464, -2.839385175583941),
    (-1.232810558860333, -1.232810558860333),
    (-5.54273943179704, -5.3550136889852755),
    (-2.3209122116045013, -2.36240380562433),
    (-1.298043021632171, -1.2950892823033326),
)


def _same_draw_case(i):
    rng = np.random.default_rng(1000 + i)
    bn = rand_bn(rng, int(rng.integers(6, 13)), 0.35, cards=(2, 3, 4, 5))
    e = rand_evidence(rng, bn, int(rng.integers(1, 5)))
    return bn, e


@pytest.mark.parametrize("i", range(len(SAME_DRAW_LOG_VALUES)))
def test_sampled_paths_make_the_same_draws(i):
    bn, e = _same_draw_case(i)
    cfg = SgsConfig(n_max=0, sampler=SamplerConfig(sample_count=300, seed=i))
    want_lbp_is, want_sgs = SAME_DRAW_LOG_VALUES[i]
    assert marginal(bn, e, "lbp-is", cfg).log_value == pytest.approx(want_lbp_is, rel=1e-12)
    assert marginal(bn, e, "sgs", cfg).log_value == pytest.approx(want_sgs, rel=1e-12)


def test_sampler_config_validation():
    with pytest.raises(ArgumentError):
        SamplerConfig(sample_count=0)
    with pytest.raises(ArgumentError):
        SamplerConfig(sample_count=10, lbp_iterations=0)
    with pytest.raises(ArgumentError):
        SamplerConfig(sample_count=10, lbp_tolerance=0.0)
    with pytest.raises(ArgumentError):
        SamplerConfig(sample_count=10, belief_floor=0.0)
    with pytest.raises(ArgumentError):
        SamplerConfig(sample_count=10, belief_floor=0.5)
    with pytest.raises(ArgumentError):
        SamplerConfig(sample_count=10, seed=-1)


def test_importance_distribution_validation():
    def refusal(probs, nodes=("a",)):
        with pytest.raises(ArgumentError) as err:
            ImportanceDistribution(nodes=nodes, probs=np.array(probs))
        return str(err.value)

    assert "sum to one" in refusal([[0.5, 0.6]])
    assert "fewer than two" in refusal([[1.0, 0.0]])
    # the array must be one row per node
    assert "shape" in refusal([0.25, 0.75])
    assert "shape" in refusal([[[0.25, 0.75]]])
    assert "shape" in refusal([[0.25, 0.75]] * 2)
    assert "shape" in refusal([[0.25, 0.75]] * 2, nodes=("a", "b", "c"))
    # rows of mixed width: the error names the first bad node
    ok = [0.25, 0.75, 0.0, 0.0]
    padded = [0.4, 0.5, 0.0, 0.1]  # nonzero entry past the node's states
    hole = [0.5, 0.0, 0.25, 0.25]  # a zero inside the node's states
    negative = [0.6, 0.5, -0.1, 0.0]
    nodes = ("a", "b", "c")
    assert "'b'" in refusal([ok, padded, hole], nodes)
    assert "'c'" in refusal([ok, ok, hole], nodes)
    assert "'c'" in refusal([ok, ok, negative], nodes)
    assert "'a'" in refusal([[0.0, 1.0, 0.0, 0.0], ok, ok], nodes)
    assert "'b'" in refusal([ok, [0.5, 0.49, 0.0, 0.0], ok], nodes)
    assert "'b'" in refusal([ok, [1.0, 0.0, 0.0, 0.0], ok], nodes)
    ImportanceDistribution(nodes=nodes, probs=np.array([ok, [0.2, 0.3, 0.5, 0.0], [0.25] * 4]))

    q = ImportanceDistribution(nodes=("a",), probs=np.array([[0.25, 0.75]]))
    draws = q.sample(np.random.default_rng(3), 4000)
    assert draws.shape == (1, 4000)
    assert set(np.unique(draws)) <= {0, 1}
    assert abs(draws.mean() - 0.75) < 0.03
    lp = q.log_prob(np.array([[0, 1]]))
    assert lp == pytest.approx([math.log(0.25), math.log(0.75)])


def test_sample_and_log_prob_match_per_node_draws():
    # one rng.random(m) per node in order, inverse CDF, log terms added in
    # node order: the batched draws and log densities must equal this exactly
    rng = np.random.default_rng(11)
    for _ in range(50):
        nodes = tuple(f"v{i}" for i in range(int(rng.integers(1, 12))))
        probs = {}
        for v in nodes:
            p = rng.random(int(rng.integers(2, 6))) + 1e-9
            probs[v] = p / p.sum()
        # rows of mixed width, zero-padded, sometimes past the widest node
        width = max(map(len, probs.values())) + int(rng.integers(0, 2))
        padded = np.zeros((len(nodes), width))
        for i, v in enumerate(nodes):
            padded[i, : len(probs[v])] = probs[v]
        q = ImportanceDistribution(nodes=nodes, probs=padded)
        m = int(rng.integers(1, 300))
        seed = int(rng.integers(1 << 30))
        got = q.sample(np.random.default_rng(seed), m)
        assert got.shape == (len(nodes), m)
        ref_rng = np.random.default_rng(seed)
        total = 0.0
        for v, row in zip(nodes, got):
            cum = np.cumsum(probs[v])
            want = np.minimum((cum < ref_rng.random(m)[:, None]).sum(axis=1), cum.size - 1)
            np.testing.assert_array_equal(row, want)
            total = total + np.log(probs[v])[want]
        np.testing.assert_array_equal(q.log_prob(got), total)


def test_sample_caps_each_row_at_its_last_state():
    # rows that sum to just under one: a uniform above a row's total picks
    # the node's last state, never a padding column
    class Near1:
        def random(self, shape):
            return np.full(shape, 1.0 - 1e-9)

    probs = np.array([[0.5, 0.4999995, 0.0, 0.0], [0.3, 0.3, 0.3999995, 0.0], [0.25] * 4])
    q = ImportanceDistribution(nodes=("a", "b", "c"), probs=probs)
    np.testing.assert_array_equal(q.sample(Near1(), 3), [[1] * 3, [2] * 3, [3] * 3])


def test_lbp_exact_on_polytrees():
    # sum-product on a tree factor graph converges to the true conditionals;
    # the floor only rescales when a conditional falls below it, so compare
    # against the floored oracle
    rng = np.random.default_rng(12)
    cfg = SamplerConfig(sample_count=1, lbp_iterations=100, lbp_tolerance=1e-12)
    for _ in range(12):
        bn = _polytree_bn(rng, int(rng.integers(4, 9)))
        e = rand_evidence(rng, bn, int(rng.integers(1, 3)))
        q = loopy_bp(bn, e, cfg)
        pe = brute_marginal(bn, e)
        for v, p in zip(q.nodes, q.probs):
            card = bn.cardinalities[v]
            cond = np.array(
                [brute_marginal(bn, {**e, v: k}) / pe for k in range(card)]
            )
            cond = np.maximum(cond, cfg.belief_floor)
            cond = cond / cond.sum()
            assert np.allclose(p[:card], cond, atol=1e-8)


def test_lbp_no_evidence_gives_priors():
    rng = np.random.default_rng(40)
    bn = _polytree_bn(rng, 7)
    cfg = SamplerConfig(sample_count=1, lbp_iterations=100, lbp_tolerance=1e-12)
    q = loopy_bp(bn, {}, cfg)
    assert q.nodes == bn.node_ids
    for v, p in zip(q.nodes, q.probs):
        prior = np.array(
            [brute_marginal(bn, {v: k}) for k in range(bn.cardinalities[v])]
        )
        assert np.allclose(p[: len(prior)], prior, atol=1e-8)


def test_lbp_argument_errors():
    rng = np.random.default_rng(5)
    bn = rand_bn(rng, 5, 0.4)
    cfg = SamplerConfig(sample_count=1)
    with pytest.raises(ArgumentError):
        loopy_bp(bn, {v: 0 for v in bn.node_ids}, cfg)
    with pytest.raises(ArgumentError):
        loopy_bp(bn, {}, cfg, nodes=("n0",), factor_nodes=("n0", "n1"))


def test_exact_proposal_has_zero_weight_variance():
    dag = Dag(("v", "c"), [("v", "c")])
    cpts = {
        "v": np.array([[0.7, 0.3]]),
        "c": np.array([[0.8, 0.2], [0.1, 0.9]]),
    }
    bn = CategoricalBN(dag, {"v": 2, "c": 2}, cpts)
    e = {"c": 1}
    post = np.array([0.7 * 0.2, 0.3 * 0.9])
    q = ImportanceDistribution(nodes=("v",), probs=(post / post.sum())[None])
    res = importance_estimate(bn, q, ("v", "c"), e, np.random.default_rng(9), 25)
    assert res.estimate == pytest.approx(0.41, rel=1e-12)
    assert res.weight_variance == pytest.approx(0.0, abs=1e-20)
    assert res.sample_count == 25


def test_importance_estimate_unbiased_within_error_bars():
    rng = np.random.default_rng(61)
    for _ in range(6):
        bn = rand_bn(rng, 8, 0.3)
        e = rand_evidence(rng, bn, 2)
        dec = decompose(bn, e)
        if not dec.subsets:
            continue
        i = max(range(len(dec.subsets)), key=lambda k: len(dec.subsets[k]))
        sub, b = dec.subsets[i], dec.boundaries[i]
        cfg = SamplerConfig(sample_count=20000, seed=int(rng.integers(1 << 30)))
        rel = relevant_subgraph(bn, e)
        factors = set(sub) | set(b.e_ch)
        q = loopy_bp(rel, e, cfg, nodes=set(sub) | set(b.e_mb), factor_nodes=factors)
        draws = np.random.default_rng(cfg.seed)
        res = importance_estimate(rel, q, factors, e, draws, cfg.sample_count)
        truth = math.exp(marginal(bn, e, "sgs", SgsConfig(n_max=999)).per_subset[i].log_factor)
        se = res.estimate * math.sqrt(res.weight_variance / res.sample_count)
        assert abs(res.estimate - truth) <= 4.0 * se + 1e-12


def test_importance_estimate_requires_covering_proposal():
    rng = np.random.default_rng(8)
    bn = rand_bn(rng, 4, 0.5)
    e = rand_evidence(rng, bn, 1)
    dec = decompose(bn, e)
    sub, b = dec.subsets[0], dec.boundaries[0]
    bad = ImportanceDistribution(nodes=("zzz",), probs=np.array([[0.5, 0.5]]))
    with pytest.raises(ArgumentError):
        importance_estimate(bn, bad, set(sub) | set(b.e_ch), e, np.random.default_rng(0), 5)


def test_lbp_is_no_evidence_is_one():
    rng = np.random.default_rng(3)
    bn = rand_bn(rng, 6, 0.4)
    assert _estimate(bn, {}, "lbp-is", SamplerConfig(sample_count=10)) == 1.0


def test_lbp_is_all_observed_is_joint():
    rng = np.random.default_rng(4)
    bn = rand_bn(rng, 6, 0.4)
    e = {v: 0 for v in bn.node_ids}
    got = _estimate(bn, e, "lbp-is", SamplerConfig(sample_count=10))
    assert math.log(got) == pytest.approx(log_joint_probability(bn, e), rel=1e-12)


def test_lbp_is_exact_when_proposal_is_exact():
    # star: observed root, a few observed leaves, rest hidden; the relevant
    # graph is a tree, so the proposal equals the conditional and every
    # weight is the same constant, making a 3-sample estimate exact
    rng = np.random.default_rng(17)
    names = ("r",) + tuple(f"l{i}" for i in range(5))
    dag = Dag(names, [("r", l) for l in names[1:]])
    cards = {v: 2 for v in names}
    cpts = {}
    for v in names:
        rows = 2 if v != "r" else 1
        t = rng.random((rows, 2)) + 0.05
        cpts[v] = t / t.sum(axis=1, keepdims=True)
    bn = CategoricalBN(dag, cards, cpts)
    e = {"l0": 1, "l1": 0}
    sampler = SamplerConfig(sample_count=3, lbp_iterations=100, lbp_tolerance=1e-12, seed=5)
    got = _estimate(bn, e, "lbp-is", sampler)
    assert got == pytest.approx(enumerate_marginal(bn, e), rel=1e-9)


def test_lbp_is_matches_enumeration_within_error():
    rng = np.random.default_rng(90)
    for _ in range(5):
        bn = rand_bn(rng, 9, 0.3)
        e = rand_evidence(rng, bn, 3)
        truth = enumerate_marginal(bn, e)
        sampler = SamplerConfig(sample_count=40000, seed=int(rng.integers(1 << 30)))
        got = _estimate(bn, e, "lbp-is", sampler)
        assert got == pytest.approx(truth, rel=0.15)


def test_gibbs_no_evidence_and_full_evidence():
    rng = np.random.default_rng(21)
    bn = rand_bn(rng, 6, 0.4)
    assert _estimate(bn, {}, "gs", SamplerConfig(sample_count=5)) == 1.0
    e = {v: 1 for v in bn.node_ids}
    got = _estimate(bn, e, "gs", SamplerConfig(sample_count=5))
    assert math.log(got) == pytest.approx(log_joint_probability(bn, e), rel=1e-12)


def test_gibbs_independent_nodes():
    # with no edges the Gibbs conditionals are the priors; the frequency
    # proposal is noisy, so the reweighted estimate is unbiased rather than
    # exact and should land near the product of observed priors
    dag = Dag(("a", "b", "c"), [])
    cpts = {
        "a": np.array([[0.6, 0.4]]),
        "b": np.array([[0.2, 0.8]]),
        "c": np.array([[0.5, 0.5]]),
    }
    bn = CategoricalBN(dag, {v: 2 for v in "abc"}, cpts)
    got = _estimate(bn, {"a": 1, "b": 0}, "gs", SamplerConfig(sample_count=4000, seed=2))
    assert got == pytest.approx(0.4 * 0.2, rel=0.02)


def test_gibbs_proposal_floors_only_own_states():
    rng = np.random.default_rng(14)
    bn = rand_bn(rng, 9, 0.4, cards=(2, 3, 5))
    e = rand_evidence(rng, bn, 2)
    cfg = SamplerConfig(sample_count=40, belief_floor=1e-3)
    q = gibbs_proposal(bn, e, cfg, np.random.default_rng(1), burn_in=5)
    assert q.nodes == tuple(v for v in bn.node_ids if v not in e)
    cards = [bn.cardinalities[v] for v in q.nodes]
    assert q.probs.shape == (len(q.nodes), max(cards)) and min(cards) < max(cards)
    for card, p in zip(cards, q.probs):
        assert p[:card].min() >= cfg.belief_floor / (1 + card * cfg.belief_floor)
        assert not p[card:].any()


def test_gibbs_matches_enumeration_within_error():
    rng = np.random.default_rng(77)
    for _ in range(4):
        bn = rand_bn(rng, 8, 0.3)
        e = rand_evidence(rng, bn, 2)
        truth = enumerate_marginal(bn, e)
        sampler = SamplerConfig(sample_count=3000, seed=int(rng.integers(1 << 30)))
        got = _estimate(bn, e, "gs", sampler)
        assert got == pytest.approx(truth, rel=0.2)


def test_gibbs_burn_in_validation():
    rng = np.random.default_rng(1)
    bn = rand_bn(rng, 4, 0.4)
    with pytest.raises(ArgumentError):
        gibbs_proposal(bn, {"n0": 0}, SamplerConfig(sample_count=5), np.random.default_rng(0), burn_in=-1)


def test_estimators_are_deterministic():
    rng = np.random.default_rng(55)
    bn = rand_bn(rng, 8, 0.3)
    e = rand_evidence(rng, bn, 3)
    cfg = SamplerConfig(sample_count=500, seed=42)
    for method in ("lbp-is", "gs"):
        assert _estimate(bn, e, method, cfg) == _estimate(bn, e, method, cfg)
    other = SamplerConfig(sample_count=500, seed=43)
    assert _estimate(bn, e, "lbp-is", cfg) != _estimate(bn, e, "lbp-is", other)
