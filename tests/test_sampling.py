import hashlib
import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bnmarg import sampling
from bnmarg.decompose import decompose, relevant_subgraph
from bnmarg.engine import SgsConfig, evidence_only_factor, marginal
from bnmarg.errors import ArgumentError, InvalidAssignmentError
from bnmarg.graphs import Dag
from bnmarg.network import CategoricalBN, log_enumerate_marginal, log_joint_probability, sample_forward_array
from bnmarg.sampling import (
    ClampedFactors,
    ImportanceDistribution,
    SamplerConfig,
    _is_summary,
    clamp_factors,
    gibbs_proposal,
    importance_estimate,
    loopy_bp,
)

from conftest import (
    brute_marginal,
    family_table,
    rand_bn,
    rand_evidence,
    reference_gibbs_proposal,
    reference_log_prob,
    reference_log_weights,
    reordered,
    sparse_bn,
)


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


def _reference_reduced_factor(bn, v, evidence):
    family, table = family_table(bn, v)
    sel = []
    free_vars = []
    for u in family:
        if u in evidence:
            sel.append(int(evidence[u]))
        else:
            sel.append(slice(None))
            free_vars.append(u)
    return tuple(free_vars), np.asarray(table[tuple(sel)], dtype=float)


def _loopy_bp_on(bn, evidence, cfg, nodes=None, factor_nodes=None):
    """The proposal :func:`loopy_bp` gives the one part ``clamp_factors``
    builds from the arguments."""
    return loopy_bp((clamp_factors(bn, evidence, nodes, factor_nodes),), cfg)[0]


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
                q = _loopy_bp_on(net, ev, cfg, nodes, factors)
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
# moved behind CategoricalBN.  Entries 5 and 9 (reordered networks) were
# re-recorded (numpy 2.4.6) when every clamped stack became C-contiguous,
# which moved their beliefs by at most 2.2e-16
LOOPY_BP_PINNED = (
    "743385e25b1fe91d",
    "8dc845f879c6083e",
    "c61b9e07d494b2ba",
    "2a5d979ec7d0972c",
    "63ed8ac1933e5c2d",
    "0ce75b2231291c18",
    "1ac95c0ab068d311",
    "2b5b9ce47322067f",
    "3efb49457d54ea62",
    "bb99c5a2cade7b36",
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
            q = _loopy_bp_on(net, ev, cfg, nodes, factors)
            h.update(repr(q.nodes).encode())
            for v, p in zip(q.nodes, q.probs):
                h.update(p[: net.cardinalities[v]].tobytes())
        got.append(h.hexdigest()[:16])
    assert tuple(got) == LOOPY_BP_PINNED


def test_loopy_bp_beliefs_do_not_depend_on_tables_of_the_same_shape():
    # c's axis moves before p and r, which follow it in node order; d's stays
    # last; the two tables share a shape but no variable, so c's family gets
    # the same beliefs with or without d's table in the run
    ids = ("q", "s", "d", "c", "p", "r")
    dag = Dag(ids, [("p", "c"), ("r", "c"), ("q", "d"), ("s", "d")])
    for seed in range(100):
        rng = np.random.default_rng(seed)
        cpts = {v: rng.random((25 if v in "cd" else 1, 5)) for v in ids}
        bn = CategoricalBN(
            dag, dict.fromkeys(ids, 5), {v: t / t.sum(axis=1, keepdims=True) for v, t in cpts.items()}
        )
        for iters in (1, 2, 5, 20):
            cfg = SamplerConfig(sample_count=1, lbp_iterations=iters)
            alone = _loopy_bp_on(bn, {}, cfg, nodes=("c", "p", "r"), factor_nodes=("p", "c"))
            beside = _loopy_bp_on(bn, {}, cfg, factor_nodes=("p", "c", "d", "q"))
            rows = [beside.nodes.index(v) for v in alone.nodes]
            assert alone.nodes == ("c", "p", "r")
            assert beside.probs[rows].tobytes() == alone.probs.tobytes(), (seed, iters)


def _stop_round(part, cfg):
    """The round in which ``part`` run alone stops, or None when it runs
    out of rounds."""
    def beliefs(rounds):
        return loopy_bp((part,), replace(cfg, lbp_iterations=rounds))[0].probs.tobytes()

    last = beliefs(cfg.lbp_iterations)
    if beliefs(cfg.lbp_iterations + 1) != last:
        return None
    return next(r for r in range(1, cfg.lbp_iterations + 1) if beliefs(r) == last)


def test_loopy_bp_batch_equals_separate_calls():
    rng = np.random.default_rng(2025)
    parts = []
    for trial in range(40):
        n = int(rng.integers(4, 14))
        bn = sparse_bn(rng, n, p=0.3) if trial % 3 else rand_bn(rng, n, 0.3, cards=(2,))
        if trial % 2:  # moved axes
            bn = reordered(rng, bn)
        e = rand_evidence(rng, bn, int(rng.integers(0, len(bn))))
        for net, ev, nodes, factors in _bp_scopes(bn, e):
            if any(v not in ev for v in (nodes or net.node_ids)):
                parts.append(clamp_factors(net, ev, nodes, factors))
    # parts whose factors are all constants: a free node beside an observed root
    for card in (2, 3, 4, 5):
        dag = Dag(("a", "b"), [])
        bn = CategoricalBN(dag, {"a": card, "b": 2}, {"a": np.full((1, card), 1 / card), "b": [[0.3, 0.7]]})
        parts.append(clamp_factors(bn, {"b": 1}, factor_nodes=("b",)))
        assert parts[-1].groups[0][0].shape == (1,)
    # one table shape from both node orders: c's axis moves first, or stays
    # last; either way the stack is C-contiguous, so the two share a stack
    for ids in (("c", "p", "r"), ("p", "r", "c")):
        cpts = {v: rng.random((25 if v == "c" else 1, 5)) for v in ids}
        bn = CategoricalBN(
            Dag(ids, [("p", "c"), ("r", "c")]),
            dict.fromkeys(ids, 5),
            {v: t / t.sum(axis=1, keepdims=True) for v, t in cpts.items()},
        )
        parts.append(clamp_factors(bn, {}, factor_nodes=("c",)))
    layouts = {(t.shape, t.strides, t.flags.c_contiguous) for p in parts[-2:] for t, _, _ in p.groups}
    assert layouts == {((1, 5, 5, 5), (1000, 200, 40, 8), True)}

    kinds = {}  # (lbp_iterations, tolerance, width) -> how the parts of that run stopped
    for iters, tol in ((1, 1e-6), (50, 1e-6), (8, 1e-4)):
        cfg = SamplerConfig(sample_count=1, lbp_iterations=iters, lbp_tolerance=tol)
        for width in (2, 3, 4, 5):
            batch = tuple(p for p in parts if p.width == width)
            assert len(batch) > 2
            got = loopy_bp(batch, cfg)
            assert len(got) == len(batch)
            stops = set()
            for part, q in zip(batch, got):
                (want,) = loopy_bp((part,), cfg)
                assert q.nodes == want.nodes == part.free
                assert q.probs.tobytes() == want.probs.tobytes()
                r = _stop_round(part, cfg)
                stops.add("never" if r is None else "first" if r == 1 else "middle")
            kinds[iters, tol, width] = stops
    assert all({"first", "never"} <= kinds[1, 1e-6, width] for width in (2, 3, 4, 5))
    assert any(s == {"first", "middle", "never"} for s in kinds.values())
    with pytest.raises(ArgumentError, match="one width"):
        loopy_bp((next(p for p in parts if p.width == 2), parts[-1]), cfg)


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
    # integer fields refuse floats, integral ones too, and bools, so that
    # seed=1.7 cannot silently draw what seed=1 draws
    for field in ("sample_count", "lbp_iterations", "seed"):
        for bad in (2.5, 3.0, True):
            with pytest.raises(ArgumentError, match=f"{field} must be an integer"):
                SamplerConfig(**{"sample_count": 10, field: bad})
    # float fields refuse what is not a real number: a string used to fail
    # inside the comparison with a bare TypeError, and True passed as 1.0
    for field in ("lbp_tolerance", "belief_floor"):
        for bad in ("1e-6", True, None, [1e-6]):
            with pytest.raises(ArgumentError, match=f"{field} must be a number"):
                SamplerConfig(**{"sample_count": 10, field: bad})
    cfg = SamplerConfig(sample_count=10, lbp_tolerance=np.float32(1e-3), belief_floor=np.float64(1e-4))
    assert (cfg.lbp_tolerance, cfg.belief_floor) == (np.float32(1e-3), 1e-4)
    assert SamplerConfig(sample_count=10, lbp_tolerance=1).lbp_tolerance == 1
    cfg = SamplerConfig(sample_count=np.int64(10), lbp_iterations=np.int32(3), seed=np.uint8(7))
    assert (cfg.sample_count, cfg.lbp_iterations, cfg.seed) == (10, 3, 7)


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
        q = _loopy_bp_on(bn, e, cfg)
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
    q = _loopy_bp_on(bn, {}, cfg)
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
        _loopy_bp_on(bn, {v: 0 for v in bn.node_ids}, cfg)
    with pytest.raises(ArgumentError):
        _loopy_bp_on(bn, {}, cfg, nodes=("n0",), factor_nodes=("n0", "n1"))


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
    res = importance_estimate(clamp_factors(bn, e), q, np.random.default_rng(9), 25)
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
        clamped = clamp_factors(rel, e, set(sub) | set(b.e_mb), factors)
        (q,) = loopy_bp((clamped,), cfg)
        draws = np.random.default_rng(cfg.seed)
        res = importance_estimate(clamped, q, draws, cfg.sample_count)
        truth = math.exp(marginal(bn, e, "sgs", SgsConfig(n_max=999)).per_subset[i].log_factor)
        se = res.estimate * math.sqrt(res.weight_variance / res.sample_count)
        assert abs(res.estimate - truth) <= 4.0 * se + 1e-12


def test_importance_estimate_requires_covering_proposal():
    rng = np.random.default_rng(8)
    bn = rand_bn(rng, 4, 0.5)
    e = rand_evidence(rng, bn, 1)
    dec = decompose(bn, e)
    sub, b = dec.subsets[0], dec.boundaries[0]
    clamped = clamp_factors(bn, e, set(sub) | set(b.e_mb), set(sub) | set(b.e_ch))
    bad = ImportanceDistribution(nodes=("zzz",), probs=np.array([[0.5, 0.5]]))
    with pytest.raises(ArgumentError, match="does not cover the free factor nodes"):
        importance_estimate(clamped, bad, np.random.default_rng(0), 5)


def test_clamp_factors_refusals():
    dag = Dag(("a", "b", "c"), [("a", "b"), ("b", "c")])
    cpts = {"a": [[0.3, 0.7]], "b": [[0.9, 0.1], [0.2, 0.8]], "c": [[0.5, 0.5], [0.6, 0.4]]}
    bn = CategoricalBN(dag, {v: 2 for v in "abc"}, cpts)
    with pytest.raises(ArgumentError, match="family of factor node 'b' reaches outside the scope"):
        clamp_factors(bn, {}, nodes=("b", "c"))
    with pytest.raises(ArgumentError, match="factor_nodes must lie inside the scope"):
        clamp_factors(bn, {}, nodes=("a", "b"), factor_nodes=("b", "c"))
    with pytest.raises(ArgumentError, match="no free nodes"):
        clamp_factors(bn, {"a": 0, "b": 1, "c": 0})
    # the proposal must cover every free node a factor reads, a parent too
    clamped = clamp_factors(bn, {"c": 1}, factor_nodes=("b", "c"))
    assert clamped.free == ("a", "b") and clamped.size == 2
    partial = ImportanceDistribution(nodes=("b",), probs=np.array([[0.5, 0.5]]))
    with pytest.raises(ArgumentError, match="does not cover"):
        importance_estimate(clamped, partial, np.random.default_rng(0), 5)


def reference_clamp_factors(bn, evidence, nodes=None, factor_nodes=None):
    """``clamp_factors`` as it was before its tables were gathered from
    index arrays: one view of each CPT, its axes moved into node order, and
    ``np.stack`` over the views of each table shape."""
    dag = bn.dag
    scope = set(dag.node_ids) if nodes is None else set(nodes)
    dag.check_nodes(scope)
    factors_of = scope if factor_nodes is None else set(factor_nodes)
    if not factors_of <= scope:
        raise ArgumentError("factor_nodes must lie inside the scope")
    free = [v for v in dag.node_ids if v in scope and v not in evidence]
    if not free:
        raise ArgumentError("no free nodes to form a proposal over")

    index, parents, cards, cpts = dag._index, dag._parents, bn.cardinalities, bn.cpts
    var_of = {v: i for i, v in enumerate(free)}
    everything = slice(None)
    state = {u: int(s) for u, s in evidence.items()}.get
    edge_var = []  # variable of each edge; a factor's edges are contiguous
    shapes = {}  # table shape -> ([table], [edge ids by position], [row])
    for row, v in enumerate(sorted(factors_of, key=index.__getitem__)):
        ps = parents[v]
        if not scope.issuperset(ps):
            raise ArgumentError(f"family of factor node {v!r} reaches outside the scope")
        family = ps + (v,)
        key = tuple([state(u, everything) for u in family])
        fvars = [u for u, k in zip(family, key) if k is everything]
        table = cpts[v].reshape([cards[u] for u in family])[key]
        if key[-1] is everything and len(fvars) > 1 and index[fvars[-2]] > index[v]:
            # v's axis is last in the CPT; in node order it follows the free
            # parents that precede it
            at = len(fvars) - 1
            while at and index[fvars[at - 1]] > index[v]:
                at -= 1
            table = np.moveaxis(table, -1, at)
            fvars.insert(at, fvars.pop())
        group = shapes.get(table.shape)
        if group is None:
            group = shapes[table.shape] = ([], [], [])
        group[0].append(table)
        group[1].append(range(len(edge_var), len(edge_var) + len(fvars)))
        group[2].append(row)
        edge_var += [var_of[u] for u in fvars]
    groups = tuple(
        (np.stack(t), np.array(e, dtype=np.intp), np.array(r, dtype=np.intp))
        for t, e, r in shapes.values()
    )
    return ClampedFactors(
        free=tuple(free),
        cards=np.array([cards[v] for v in free]),
        edge_var=np.array(edge_var, dtype=np.intp),
        groups=groups,
        size=len(factors_of),
    )


def _same_array(a, b):
    return (a.shape, a.strides, a.dtype, a.tobytes()) == (b.shape, b.strides, b.dtype, b.tobytes())


def test_clamp_factors_matches_reference_byte_for_byte():
    # every stack is the reference's in C order; the rest matches it byte
    # for byte, strides included
    rng = np.random.default_rng(4242)
    seen = dict.fromkeys(("moved", "constant", "outside", "subset"), 0)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(3, 14))
        bn = sparse_bn(rng, n) if trial % 3 else rand_bn(rng, n, 0.4, cards=(2, 3, 4, 5))
        if trial % 2:  # parents may follow their children in node order
            bn = reordered(rng, bn)
        e = rand_evidence(rng, bn, int(rng.integers(0, n)))
        cases = list(_bp_scopes(bn, e))
        # the whole network as scope with a random factor subset, and each
        # subset scope with evidence that names nodes outside it
        cases.append((bn, e, None, [v for v in bn.node_ids if rng.random() < 0.5]))
        cases += [(net, e, nodes, factors) for net, _, nodes, factors in cases[1:-1]]
        for net, ev, nodes, factors in cases:
            if all(v in ev for v in (nodes or net.node_ids)):
                continue
            got = clamp_factors(net, ev, nodes, factors)
            want = reference_clamp_factors(net, ev, nodes, factors)
            assert (got.free, got.size) == (want.free, want.size)
            assert _same_array(got.cards, want.cards) and _same_array(got.edge_var, want.edge_var)
            assert len(got.groups) == len(want.groups)
            for g, w in zip(got.groups, want.groups):
                assert g[0].flags.c_contiguous
                assert _same_array(g[0], np.ascontiguousarray(w[0]))
                assert all(_same_array(a, b) for a, b in zip(g[1:], w[1:]))
                seen["constant"] += g[0].ndim == 1
                seen["moved"] += not w[0].flags.c_contiguous
            seen["outside"] += nodes is not None and not set(ev) <= set(nodes)
            seen["subset"] += factors is not None and set(factors) != set(nodes or net.node_ids)
            checked += 1
    assert checked > 600 and min(seen.values()) > 60, (checked, seen)


def test_clamp_factors_refuses_states_out_of_range():
    # a table's offset is computed, not indexed, so a state past its node's
    # cardinality would read another row: it is refused, as is a negative one
    dag = Dag(("a", "b", "c"), [("a", "c"), ("b", "c")])
    c = np.array([[0.5, 0.5], [0.6, 0.4], [0.1, 0.9], [0.7, 0.3]])
    cpts = {"a": [[0.3, 0.7]], "b": [[0.9, 0.1]], "c": c}
    bn = CategoricalBN(dag, dict.fromkeys("abc", 2), cpts)
    with pytest.raises(InvalidAssignmentError, match=r"state 2 out of range for 'b' \(cardinality 2\)"):
        clamp_factors(bn, {"b": 2})
    with pytest.raises(InvalidAssignmentError, match="state -1 out of range for 'a'"):
        clamp_factors(bn, {"a": -1})
    # evidence outside the scope is not read; no factor gives no group
    assert clamp_factors(bn, {"c": 5}, nodes=("a", "b")).free == ("a", "b")
    empty = clamp_factors(bn, {}, factor_nodes=())
    assert (empty.size, empty.groups, empty.edge_var.shape) == (0, (), (0,))
    # a CPT given in Fortran order is stored in C order, so it clamps alike
    fortran = CategoricalBN(dag, dict.fromkeys("abc", 2), {**cpts, "c": np.asfortranarray(c)})
    assert fortran.cpts["c"].flags.c_contiguous
    for ev in ({}, {"a": 1}, {"c": 0}):
        got, want = clamp_factors(fortran, ev), reference_clamp_factors(bn, ev)
        assert all(_same_array(x, y) for g, w in zip(got.groups, want.groups) for x, y in zip(g, w))


def test_stacked_log_tables_equal_each_tables_log():
    # the weights take np.log of whole stacks; each stacked table, and its
    # log, must equal the clamped CPT, and the clamped log CPT, byte for byte
    rng = np.random.default_rng(34)
    checked = 0
    for trial in range(60):
        bn = sparse_bn(rng, int(rng.integers(3, 12)))
        if trial % 2:
            bn = reordered(rng, bn)
        e = rand_evidence(rng, bn, int(rng.integers(0, len(bn))))
        with np.errstate(divide="ignore"):
            logged = SimpleNamespace(
                dag=bn.dag,
                cardinalities=bn.cardinalities,
                cpts={v: np.log(t) for v, t in bn.cpts.items()},
            )
        for net, ev, nodes, factors in _bp_scopes(bn, e):
            if all(v in ev for v in (nodes or net.node_ids)):
                continue
            clamped = clamp_factors(net, ev, nodes, factors)
            order = net.dag.sort(net.node_ids if factors is None else factors)
            assert clamped.size == len(order)
            rows = []
            for tables, edges, at in clamped.groups:
                with np.errstate(divide="ignore"):
                    stacked = np.log(tables)
                for table, log_table, es, row in zip(tables, stacked, edges, at):
                    v = order[row]
                    fvars, want = _reference_reduced_factor(net, v, ev)
                    assert tuple(clamped.free[i] for i in clamped.edge_var[es]) == fvars
                    assert table.shape == want.shape and table.tobytes() == want.tobytes()
                    _, want_log = _reference_reduced_factor(logged, v, ev)
                    assert log_table.tobytes() == want_log.tobytes()
                    rows.append(row)
                    checked += 1
            assert sorted(rows) == list(range(len(order)))
    assert checked > 400


def test_weights_and_log_density_add_terms_in_node_order():
    # NumPy adds the rows of a two-column block one after another but sums a
    # single column pairwise; every block width, the one-column tail past
    # BLOCK too, must give the one-term-at-a-time sums bit for bit, -inf
    # terms from zero CPT entries included
    rng = np.random.default_rng(33)
    infinite = 0
    for trial in range(24):
        bn = sparse_bn(rng, int(rng.integers(18, 27)), p=0.1)
        if trial % 2:
            bn = reordered(rng, bn)
        e = rand_evidence(rng, bn, int(rng.integers(1, len(bn) // 2)))
        clamped = clamp_factors(bn, e)
        (q,) = loopy_bp((clamped,), SamplerConfig(sample_count=1))
        assert clamped.size > 16 and len(q.nodes) > 8
        for m in (1, 2, 3, sampling.BLOCK + 1):
            seed = int(rng.integers(1 << 30))
            draws = q.sample(np.random.default_rng(seed), m)
            want_w = reference_log_weights(bn, bn.node_ids, dict(zip(q.nodes, draws)), e, m)
            want_q = reference_log_prob(q, draws)
            assert clamped._log_weights(q)(draws).tobytes() == want_w.tobytes()
            assert q.log_prob(draws).tobytes() == want_q.tobytes()
            res = importance_estimate(clamped, q, np.random.default_rng(seed), m)
            log_est, rel = _is_summary(want_w - want_q)
            assert (res.log_estimate, res.weight_variance) == (log_est, rel)
            infinite += int(np.isneginf(want_w).sum())
    assert infinite > 0


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
    assert got == pytest.approx(math.exp(log_enumerate_marginal(bn, e)), rel=1e-9)


def test_lbp_is_matches_enumeration_within_error():
    rng = np.random.default_rng(90)
    for _ in range(5):
        bn = rand_bn(rng, 9, 0.3)
        e = rand_evidence(rng, bn, 3)
        truth = math.exp(log_enumerate_marginal(bn, e))
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
    q = gibbs_proposal(bn, clamp_factors(bn, e), cfg, np.random.default_rng(1), burn_in=5)
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
        truth = math.exp(log_enumerate_marginal(bn, e))
        sampler = SamplerConfig(sample_count=3000, seed=int(rng.integers(1 << 30)))
        got = _estimate(bn, e, "gs", sampler)
        assert got == pytest.approx(truth, rel=0.2)


def test_gibbs_stuck_at_a_zero_probability_start_returns_zero():
    # a known failure of the gs baseline, pinned so that a change to it
    # shows: the chain starts from a forward draw with the evidence written
    # in, which here has probability zero, and no free node ever leaves its
    # start state; the floored proposal then puts nearly all its mass on
    # that start, every weight is zero, and gs returns -inf though P(e) > 0
    rng = np.random.default_rng(168)
    bn = sparse_bn(rng, int(rng.integers(4, 10)))
    e = rand_evidence(rng, bn, int(rng.integers(1, len(bn))))
    assert brute_marginal(bn, e) == pytest.approx(0.10934352807137643, rel=1e-12)
    sampler = SamplerConfig(sample_count=1000, seed=168)
    draw = sample_forward_array(bn, 1, np.random.default_rng(168))[0].tolist()
    start = {**dict(zip(bn.node_ids, draw)), **e}
    assert log_joint_probability(bn, start) == -math.inf
    q = gibbs_proposal(bn, clamp_factors(bn, e), sampler, np.random.default_rng(168))
    assert all(p[start[v]] > 1 - 1e-5 for v, p in zip(q.nodes, q.probs))
    cfg = SgsConfig(n_max=0, sampler=sampler)
    assert marginal(bn, e, "gs", cfg).log_value == -math.inf
    for method in ("lbp-is", "sgs"):
        assert math.isfinite(marginal(bn, e, method, cfg).log_value)


def test_gibbs_burn_in_validation():
    rng = np.random.default_rng(1)
    bn = rand_bn(rng, 4, 0.4)
    clamped = clamp_factors(bn, {"n0": 0})
    with pytest.raises(ArgumentError):
        gibbs_proposal(bn, clamped, SamplerConfig(sample_count=5), np.random.default_rng(0), burn_in=-1)
    for bad in (True, 2.5, 2.0, "3"):
        with pytest.raises(ArgumentError, match="burn_in must be an integer"):
            gibbs_proposal(bn, clamped, SamplerConfig(sample_count=5), np.random.default_rng(0), burn_in=bad)
    a, b = (
        gibbs_proposal(bn, clamped, SamplerConfig(sample_count=5), np.random.default_rng(0), burn_in=k)
        for k in (np.int16(2), 2)
    )
    assert a.nodes == b.nodes and a.probs.tobytes() == b.probs.tobytes()


def _networks(rng, count):
    """Small networks of cardinalities 2-5: plain, with zero CPT entries,
    and reordered so that children may precede their parents."""
    for trial in range(count):
        n = int(rng.integers(2, 11))
        bn = rand_bn(rng, n, 0.4, cards=(2, 3, 4, 5)) if trial % 3 == 0 else sparse_bn(rng, n)
        yield reordered(rng, bn) if trial % 3 == 2 else bn


def test_gibbs_chain_on_clamped_factors_matches_the_cpt_chain():
    # the chain reads the evidence-clamped factor stacks; its conditionals
    # multiply the same CPT entries in the same order as a chain that
    # indexes the CPTs with parent strides, so every pick and frequency
    # is the same
    rng = np.random.default_rng(2203)
    seen = Counter()
    for bn in _networks(rng, 150):
        e = rand_evidence(rng, bn, int(rng.integers(0, len(bn))))
        cfg = SamplerConfig(sample_count=int(rng.integers(1, 40)), belief_floor=1e-3)
        burn_in = int(rng.integers(0, 8))
        seed = int(rng.integers(1 << 30))
        got = gibbs_proposal(bn, clamp_factors(bn, e), cfg, np.random.default_rng(seed), burn_in)
        want = reference_gibbs_proposal(bn, e, cfg, np.random.default_rng(seed), burn_in)
        assert got.nodes == want.nodes and got.probs.tobytes() == want.probs.tobytes()
        index = bn.dag._index
        seen["child before parent"] += any(index[p] > index[v] for v in bn.node_ids for p in bn.dag.parents(v))
        seen["zero entry"] += any(not t.all() for t in bn.cpts.values())
        seen["cardinality 5"] += 5 in bn.cardinalities.values()
    assert min(seen.values()) > 20, seen


def test_gibbs_refuses_factors_over_part_of_the_network():
    # the chain finds a node's own factor by its position in the network,
    # so factors over a smaller scope or a subset of the factor nodes are
    # refused before anything is drawn; with every node observed there are
    # no factors to pass, and gs answers with the joint instead
    bn = rand_bn(np.random.default_rng(7), 5, 0.5)
    cfg = SamplerConfig(sample_count=5)
    e = {bn.node_ids[0]: 0}
    for clamped in (clamp_factors(bn, e, bn.node_ids[:-1]), clamp_factors(bn, e, None, bn.node_ids[1:])):
        rng = np.random.default_rng(1)
        with pytest.raises(ArgumentError, match="factor for every node"):
            gibbs_proposal(bn, clamped, cfg, rng)
        assert rng.random() == np.random.default_rng(1).random()
    with pytest.raises(ArgumentError, match="no free nodes"):
        clamp_factors(bn, {v: 0 for v in bn.node_ids})


def test_lbp_is_matches_the_restricted_network_computation():
    # lbp-is clamps the network's own factors over the evidence and its
    # ancestors; on the restriction to those nodes the free order, factors,
    # proposal and draws are the same, so the estimate is too
    def on_restriction(bn, e, sampler):
        net = relevant_subgraph(bn, set(e))
        if all(v in e for v in net.node_ids):
            return evidence_only_factor(net, net.node_ids, e), 0.0
        clamped = clamp_factors(net, e)
        (q,) = loopy_bp((clamped,), sampler)
        res = importance_estimate(clamped, q, np.random.default_rng(sampler.seed), sampler.sample_count)
        return res.log_estimate, res.weight_variance

    rng = np.random.default_rng(2204)
    seen = Counter()
    for bn in _networks(rng, 120):
        sampler = SamplerConfig(sample_count=int(rng.integers(1, 300)), seed=int(rng.integers(1 << 30)))
        root = next(v for v in bn.node_ids if not bn.dag.parents(v))
        for e in (rand_evidence(rng, bn, int(rng.integers(1, len(bn) + 1))), {root: 0}):
            est = marginal(bn, e, "lbp-is", SgsConfig(sampler=sampler))
            (report,) = est.per_subset
            want = on_restriction(bn, e, sampler)
            assert (repr(est.log_value), repr(report.weight_variance)) == tuple(map(repr, want))
            relevant = relevant_subgraph(bn, set(e)).node_ids
            seen["nodes outside"] += len(relevant) < len(bn)
            seen["all relevant observed"] += all(v in e for v in relevant)
            seen["sampled"] += report.sample_count > 0
    assert min(seen.values()) > 40, seen


def test_estimators_are_deterministic():
    rng = np.random.default_rng(55)
    bn = rand_bn(rng, 8, 0.3)
    e = rand_evidence(rng, bn, 3)
    cfg = SamplerConfig(sample_count=500, seed=42)
    for method in ("lbp-is", "gs"):
        assert _estimate(bn, e, method, cfg) == _estimate(bn, e, method, cfg)
    other = SamplerConfig(sample_count=500, seed=43)
    assert _estimate(bn, e, "lbp-is", cfg) != _estimate(bn, e, "lbp-is", other)
