import hashlib
import math

import numpy as np
import pytest

from bnmarg import engine
from bnmarg.decompose import decompose, relevant_subgraph
from bnmarg.engine import (
    METHODS,
    MarginalEstimate,
    SgsConfig,
    canonical_method,
    evidence_only_factor,
    marginal,
    marginal_sgs,
)
from bnmarg.errors import ArgumentError, CapacityError, InternalConsistencyError
from bnmarg.graphs import Dag
from bnmarg.junction import _plan
from bnmarg.network import CategoricalBN, derive_seed, log_joint_probability, sample_forward
from bnmarg.sampling import SamplerConfig, clamp_factors, importance_estimate, loopy_bp

from conftest import brute_marginal, rand_bn, rand_evidence, reordered, sparse_bn


def test_canonical_method_names_and_aliases():
    for m in METHODS:
        assert canonical_method(m) == m
    assert canonical_method("jt_full") == "jt"
    assert canonical_method("lbp_is") == "lbp-is"
    assert canonical_method("gibbs") == "gs"
    with pytest.raises(ArgumentError):
        canonical_method("belief")


def test_config_validation():
    with pytest.raises(ArgumentError):
        SgsConfig(n_max=-1)
    with pytest.raises(ArgumentError):
        SgsConfig(table_cap=1)
    for field in ("n_max", "table_cap"):
        for bad in (2.5, 1e6, False):
            with pytest.raises(ArgumentError, match=f"{field} must be an integer"):
                SgsConfig(**{field: bad})
    assert SgsConfig(n_max=np.int64(4), table_cap=np.int64(64)).n_max == 4


def test_evidence_only_factor():
    dag = Dag(("A", "B"), [("A", "B")])
    cpts = {
        "A": np.array([[0.7, 0.3]]),
        "B": np.array([[0.9, 0.1], [0.2, 0.8]]),
    }
    bn = CategoricalBN(dag, {"A": 2, "B": 2}, cpts)
    e = {"A": 1, "B": 0}
    got = evidence_only_factor(bn, ("A", "B"), e)
    assert got == pytest.approx(math.log(0.3 * 0.2))
    assert evidence_only_factor(bn, (), e) == 0.0
    with pytest.raises(ArgumentError):
        evidence_only_factor(bn, ("A",), {"B": 0})
    with pytest.raises(InternalConsistencyError):
        evidence_only_factor(bn, ("B",), {"B": 0})


def test_zero_probability_leftover_gives_zero():
    dag = Dag(("A", "B"), [("A", "B")])
    cpts = {
        "A": np.array([[1.0, 0.0]]),
        "B": np.array([[0.9, 0.1], [0.2, 0.8]]),
    }
    bn = CategoricalBN(dag, {"A": 2, "B": 2}, cpts)
    est = marginal_sgs(bn, {"A": 1, "B": 0})
    assert est.log_value == -math.inf
    assert est.value == 0.0


def test_no_evidence_is_one():
    rng = np.random.default_rng(2)
    bn = rand_bn(rng, 7, 0.3)
    est = marginal_sgs(bn, {})
    assert est.value == 1.0
    assert est.per_subset == ()
    assert est.leftover_log == 0.0
    assert est.method == "sgs"


def test_full_evidence_is_joint():
    rng = np.random.default_rng(3)
    bn = rand_bn(rng, 7, 0.3)
    e = {v: 0 for v in bn.node_ids}
    est = marginal_sgs(bn, e)
    assert est.log_value == pytest.approx(log_joint_probability(bn, e), rel=1e-12)
    assert est.per_subset == ()


def test_all_exact_matches_enumeration():
    rng = np.random.default_rng(11)
    cfg = SgsConfig(n_max=999)
    for _ in range(12):
        bn = rand_bn(rng, 10, 0.3)
        e = rand_evidence(rng, bn, int(rng.integers(1, 5)))
        est = marginal_sgs(bn, e, cfg)
        assert est.value == pytest.approx(brute_marginal(bn, e), rel=1e-10)
        assert all(r.method == "exact" for r in est.per_subset)


def test_methods_agree_on_exact_paths():
    rng = np.random.default_rng(23)
    bn = rand_bn(rng, 9, 0.35)
    e = rand_evidence(rng, bn, 3)
    cfg = SgsConfig(n_max=999)
    v_sgs = marginal(bn, e, "sgs", cfg).log_value
    v_jt = marginal(bn, e, "jt", cfg).log_value
    v_enum = marginal(bn, e, "enum", cfg).log_value
    assert v_sgs == pytest.approx(v_enum, rel=1e-10)
    assert v_jt == pytest.approx(v_enum, rel=1e-10)
    assert marginal(bn, e, "jt_full", cfg).method == "jt"


def test_log_value_is_sum_of_parts():
    rng = np.random.default_rng(31)
    for trial in range(10):
        bn = rand_bn(rng, 9, 0.3)
        e = rand_evidence(rng, bn, int(rng.integers(1, 5)))
        cfg = SgsConfig(n_max=int(rng.integers(0, 6)), sampler=SamplerConfig(sample_count=50, seed=trial))
        est = marginal_sgs(bn, e, cfg)
        total = est.leftover_log + sum(r.log_factor for r in est.per_subset)
        assert est.log_value == pytest.approx(total, rel=1e-12)


def test_reports_partition_free_relevant_nodes():
    rng = np.random.default_rng(37)
    for _ in range(10):
        bn = rand_bn(rng, 10, 0.3)
        e = rand_evidence(rng, bn, 3)
        dec = decompose(bn, e)
        est = marginal_sgs(bn, e, SgsConfig(n_max=4, sampler=SamplerConfig(sample_count=60)))
        assert tuple(r.nodes for r in est.per_subset) == dec.subsets
        for r in est.per_subset:
            if r.method == "approx":
                assert r.sample_count >= 1
                assert r.weight_variance >= 0.0
            else:
                assert r.sample_count is None


def test_budget_split_is_proportional():
    rng = np.random.default_rng(43)
    for _ in range(20):
        bn = rand_bn(rng, 12, 0.25)
        e = rand_evidence(rng, bn, 3)
        m = 900
        est = marginal_sgs(bn, e, SgsConfig(n_max=0, sampler=SamplerConfig(sample_count=m)))
        sampled = [r for r in est.per_subset if r.method == "approx"]
        if not sampled:
            continue
        total_nodes = sum(len(r.nodes) for r in sampled)
        assert sum(r.sample_count for r in sampled) <= m + len(sampled)
        for r in sampled:
            want = m * len(r.nodes) / total_nodes
            assert abs(r.sample_count - want) <= 1.0


def test_sgs_runs_loopy_bp_once_per_width(monkeypatch):
    # every sampled subset of one width shares one loopy-BP call, and its
    # report equals the one from its own call, its own draws and its share
    runs = []

    def counted(parts, cfg):
        runs.append(parts)
        return loopy_bp(parts, cfg)

    monkeypatch.setattr(engine, "loopy_bp", counted)
    rng = np.random.default_rng(59)
    several = shared = 0  # queries with two or more widths; most subsets in one call
    for trial in range(30):
        bn = sparse_bn(rng, int(rng.integers(12, 24)), p=0.12)
        if trial % 2:
            bn = reordered(rng, bn)
        e = rand_evidence(rng, bn, int(rng.integers(1, len(bn) // 2)))
        cfg = SgsConfig(n_max=(0, 3)[trial % 2], sampler=SamplerConfig(sample_count=300, seed=trial))
        runs.clear()
        est = marginal_sgs(bn, e, cfg)
        sampled = [i for i, r in enumerate(est.per_subset) if r.method == "approx"]
        widths = [max(bn.cardinalities[v] for v in est.per_subset[i].nodes) for i in sampled]
        assert len(runs) == len(set(widths))
        assert sorted(len(parts) for parts in runs) == sorted(widths.count(w) for w in set(widths))
        for parts in runs:
            assert len({p.width for p in parts}) == 1
        several += len(runs) > 1
        shared = max([shared] + [len(parts) for parts in runs])

        dec, rel = decompose(bn, e), relevant_subgraph(bn, set(e))
        total = sum(len(dec.subsets[i]) for i in sampled)
        for i in sampled:
            sub, b = dec.subsets[i], dec.boundaries[i]
            clamped = clamp_factors(rel, {v: e[v] for v in b.e_mb}, set(sub) | set(b.e_mb), set(sub) | set(b.e_ch))
            (q,) = loopy_bp((clamped,), cfg.sampler)
            m = max(1, int(round(cfg.sampler.sample_count * len(sub) / total)))
            res = importance_estimate(clamped, q, np.random.default_rng(derive_seed(cfg.sampler.seed, i)), m)
            r = est.per_subset[i]
            assert (r.log_factor, r.sample_count, r.weight_variance) == (
                res.log_estimate, res.sample_count, res.weight_variance
            )
    assert several >= 5 and shared >= 3


def test_sampled_mode_unbiased_within_error_bars():
    rng = np.random.default_rng(53)
    for trial in range(8):
        bn = rand_bn(rng, 10, 0.3)
        e = rand_evidence(rng, bn, 3)
        truth = brute_marginal(bn, e)
        cfg = SgsConfig(n_max=0, sampler=SamplerConfig(sample_count=20000, seed=trial))
        est = marginal_sgs(bn, e, cfg)
        rel_var = sum(
            r.weight_variance / r.sample_count
            for r in est.per_subset
            if r.method == "approx"
        )
        se = est.value * math.sqrt(rel_var)
        assert abs(est.value - truth) <= 4.0 * se + 1e-12


def test_capacity_fallback_samples_the_refused_subset():
    rng = np.random.default_rng(71)
    bn = rand_bn(rng, 14, 0.5, cards=(3,))
    e = rand_evidence(rng, bn, 2)
    dec = decompose(bn, e)
    big = max(range(len(dec.subsets)), key=lambda i: len(dec.subsets[i]))
    if len(dec.subsets[big]) < 6:
        pytest.skip("random draw produced only small subsets")
    # a tiny table cap forces the planner to fall back to sampling, which
    # the default cap leaves exact
    cfg = SgsConfig(n_max=999, table_cap=8, sampler=SamplerConfig(sample_count=40))
    assert marginal_sgs(bn, e, cfg).per_subset[big].method == "approx"
    assert marginal_sgs(bn, e, SgsConfig(n_max=999)).per_subset[big].method == "exact"


def test_same_seed_is_deterministic():
    rng = np.random.default_rng(83)
    bn = rand_bn(rng, 10, 0.3)
    e = rand_evidence(rng, bn, 3)
    cfg = SgsConfig(n_max=2, sampler=SamplerConfig(sample_count=400, seed=5))
    a = marginal_sgs(bn, e, cfg)
    b = marginal_sgs(bn, e, cfg)
    assert a.log_value == b.log_value
    assert a.per_subset == b.per_subset
    other = SgsConfig(n_max=2, sampler=SamplerConfig(sample_count=400, seed=6))
    if any(r.method == "approx" for r in a.per_subset):
        assert marginal_sgs(bn, e, other).log_value != a.log_value


def test_marginal_dispatch_result_shapes():
    rng = np.random.default_rng(97)
    bn = rand_bn(rng, 8, 0.3)
    e = rand_evidence(rng, bn, 2)
    truth = brute_marginal(bn, e)
    cfg = SgsConfig(sampler=SamplerConfig(sample_count=20000, seed=1))
    for name, want_method in (("jt", "jt"), ("enum", "enum")):
        est = marginal(bn, e, name, cfg)
        assert isinstance(est, MarginalEstimate)
        assert est.method == want_method
        assert est.value == pytest.approx(truth, rel=1e-10)
    for name in ("lbp-is", "gs"):
        est = marginal(bn, e, name, cfg)
        assert est.method == name
        assert est.value == pytest.approx(truth, rel=0.2)
        (rep,) = est.per_subset
        assert rep.method == "approx"


def _pin_cases():
    """(label, network, evidence, method, config) for the pinned outputs.

    Sparse networks (cardinalities 2-5, ~40 % zero CPT entries, deterministic
    rows) with empty, one-node, half and full evidence, every method at three
    n_max values, then a capacity fallback.
    """
    for k in range(24):
        rng = np.random.default_rng(7000 + k)
        bn = sparse_bn(rng, int(rng.integers(4, 10)))
        label = str(k)
        if k >= 16:  # parents may follow their children in canonical order
            bn, label = reordered(rng, bn), f"r{k}"
        e = rand_evidence(rng, bn, (0, 1, len(bn) // 2, len(bn))[k % 4])
        if k % 8 < 6:  # states of a forward draw: evidence of positive probability
            x = sample_forward(bn, 1, seed=k)[0]
            e = {v: x[v] for v in e}
        cfg = SgsConfig(n_max=(0, 4, 100)[k % 3], sampler=SamplerConfig(sample_count=60, seed=k))
        for method in METHODS:
            yield f"{label}/{method}", bn, e, method, cfg
    # two subsets split by the root evidence x: a chain a0-a1 whose cliques fit
    # a cap of 27 joint states, and a dense block b0..b4 whose cliques do not
    rng = np.random.default_rng(7100)
    names = ("x", "a0", "a1", "b0", "b1", "b2", "b3", "b4", "ya", "yb")
    edges = [("x", "a0"), ("a0", "a1"), ("a1", "ya"), ("x", "b0"), ("b4", "yb")]
    edges += [(f"b{i}", f"b{j}") for i in range(5) for j in range(i + 1, 5)]
    dag = Dag(names, edges)
    cpts = {}
    for v in names:
        t = rng.random((3 ** len(dag.parents(v)), 3))
        cpts[v] = t / t.sum(axis=1, keepdims=True)
    bn = CategoricalBN(dag, {v: 3 for v in names}, cpts)
    e = {"x": 1, "ya": 2, "yb": 0}
    sampler = SamplerConfig(sample_count=80, seed=3)
    for label, cfg in (
        ("cap/fallback", SgsConfig(n_max=100, table_cap=27, sampler=sampler)),
        ("cap/exact", SgsConfig(n_max=100, sampler=sampler)),
        ("sampled/all", SgsConfig(n_max=0, sampler=sampler)),
    ):
        yield label, bn, e, "sgs", cfg
    yield "cap/jt", bn, e, "jt", SgsConfig(table_cap=27)


def _pin(bn, e, method, cfg):
    try:
        est = marginal(bn, e, method, cfg)
    except CapacityError as exc:
        return type(exc).__name__, ""
    reports = repr((est.method, est.per_subset, est.leftover_log)).encode()
    return repr(est.log_value), hashlib.sha256(reports).hexdigest()[:16]


# repr of each log value and a digest of the rest of the estimate, recorded
# (numpy 2.4) before jt, lbp-is and gs were routed through the engine's two
# subset solvers; a refactor must keep every draw and every sum bit for bit
PINNED = {
    "0/sgs": ("0.0", "9d3fd02a18c16106"),
    "0/jt": ("1.3877787807814457e-16", "09a001027625ee57"),
    "0/lbp-is": ("0.0", "074928ecba265d46"),
    "0/gs": ("0.0", "30c6011db48f3e7f"),
    "0/enum": ("0.0", "503606edb83296e6"),
    "1/sgs": ("-0.41632964174123543", "6d1b07625e14dab9"),
    "1/jt": ("-0.5983456188768386", "f0a28fd6a932361b"),
    "1/lbp-is": ("-0.21013189266562904", "b5401e12740845da"),
    "1/gs": ("-0.31229897870748413", "d264025534e63997"),
    "1/enum": ("-0.5983456188768383", "d62adf08013e7c6f"),
    "2/sgs": ("0.0", "e09e56728a65a747"),
    "2/jt": ("0.0", "20ae87b766923f40"),
    "2/lbp-is": ("2.99999549971225e-06", "516a4e9cc1dd6246"),
    "2/gs": ("1.0999979499232588e-05", "8a5a0651d90fe192"),
    "2/enum": ("0.0", "75e05e2b4d22a170"),
    "3/sgs": ("-2.784134350396218", "7d0ae1ee6574cf64"),
    "3/jt": ("-2.784134350396218", "965ebd7cd9af947e"),
    "3/lbp-is": ("-2.784134350396218", "cbaa8bff04fbfab4"),
    "3/gs": ("-2.784134350396218", "2e842f49be02c1e9"),
    "3/enum": ("-2.784134350396218", "766e6286deeee085"),
    "4/sgs": ("0.0", "9d3fd02a18c16106"),
    "4/jt": ("0.0", "ce4144a5c2aca38c"),
    "4/lbp-is": ("0.0", "fcebe701cec5d307"),
    "4/gs": ("0.0", "f4ed21a70385f4f4"),
    "4/enum": ("0.0", "1a9849759ad42d74"),
    "5/sgs": ("-0.6295679401910886", "16eda4f96b976b0a"),
    "5/jt": ("-0.6295679401910886", "7caf2d5f199b64c2"),
    "5/lbp-is": ("-0.6295669401915887", "9d014e29574875d8"),
    "5/gs": ("-0.6295629401965889", "8f1eca7eb99c2a24"),
    "5/enum": ("-0.6295679401910886", "df7022d5320221bb"),
    "6/sgs": ("-inf", "3548fa058fbd9f8d"),
    "6/jt": ("-inf", "8383cc385a5cc016"),
    "6/lbp-is": ("-inf", "21a015714adf451d"),
    "6/gs": ("-inf", "48026005754b3e83"),
    "6/enum": ("-inf", "9d7beca644e32ca9"),
    "7/sgs": ("-inf", "3548fa058fbd9f8d"),
    "7/jt": ("-inf", "4676ea57272ee4fe"),
    "7/lbp-is": ("-inf", "6069531589db2bfb"),
    "7/gs": ("-inf", "18603f194bc11fea"),
    "7/enum": ("-inf", "ee2151caf9f442e8"),
    "8/sgs": ("0.0", "9d3fd02a18c16106"),
    "8/jt": ("2.2204460492503128e-16", "2c65ac4bcb955adb"),
    "8/lbp-is": ("0.0", "f2408d606ef57d1c"),
    "8/gs": ("0.0", "cc9a411acfdcb35c"),
    "8/enum": ("0.0", "6812a8131b9705c6"),
    "9/sgs": ("-1.4508242961335505", "944c16c2f2c05147"),
    "9/jt": ("-1.450824296133551", "86dce3b86f8518e4"),
    "9/lbp-is": ("-1.4508242961335505", "adae239ea91e9a9b"),
    "9/gs": ("-1.4418536016468306", "687369a056040de1"),
    "9/enum": ("-1.4508242961335507", "a74b16f115d1f529"),
    "10/sgs": ("-1.429916298964589", "a0abc515e90eb421"),
    "10/jt": ("-1.6770434192047818", "d84b14d2551cd291"),
    "10/lbp-is": ("-2.0623567736642947", "ff330ba8a3c91a2d"),
    "10/gs": ("-2.571909327829393", "3b3cb2057f2a608d"),
    "10/enum": ("-1.677043419204782", "a263b6c195565109"),
    "11/sgs": ("-6.454166882214845", "c963fe909e5ccb61"),
    "11/jt": ("-6.454166882214846", "c02d882c0ed06aa0"),
    "11/lbp-is": ("-6.454166882214845", "c13d913209491f62"),
    "11/gs": ("-6.454166882214845", "2f42b34a1c0d7ac0"),
    "11/enum": ("-6.454166882214845", "f6676c4a7d1c7102"),
    "12/sgs": ("0.0", "9d3fd02a18c16106"),
    "12/jt": ("-1.5265566588595902e-16", "56b796e9beb84aca"),
    "12/lbp-is": ("0.0", "f2408d606ef57d1c"),
    "12/gs": ("0.0", "cc9a411acfdcb35c"),
    "12/enum": ("-4.440892098500626e-16", "e63b37965ea68588"),
    "13/sgs": ("-0.5635230082128814", "9685ffc991fe303f"),
    "13/jt": ("-0.5635230082128814", "a407ef8850da26bc"),
    "13/lbp-is": ("-0.5635230082128814", "7e37ba8d9758e718"),
    "13/gs": ("-1.9838765093748143", "7629b94418d7569a"),
    "13/enum": ("-0.5635230082128814", "4813a8448871a720"),
    "14/sgs": ("-inf", "316dcfb88233ce22"),
    "14/jt": ("-inf", "32ca0d5a6d77fff3"),
    "14/lbp-is": ("-inf", "6b34dfb2322bb4b3"),
    "14/gs": ("-inf", "034ab0dab463ac8c"),
    "14/enum": ("-inf", "9a74aa4f7cd34980"),
    "15/sgs": ("-inf", "3548fa058fbd9f8d"),
    "15/jt": ("-inf", "4676ea57272ee4fe"),
    "15/lbp-is": ("-inf", "6069531589db2bfb"),
    "15/gs": ("-inf", "18603f194bc11fea"),
    "15/enum": ("-inf", "ee2151caf9f442e8"),
    # recorded on the commit before the single-pass junction-tree build
    "r16/sgs": ("0.0", "9d3fd02a18c16106"),
    "r16/jt": ("0.0", "14221fd0b39cdf7f"),
    "r16/lbp-is": ("0.0", "31fc955b633edd6f"),
    "r16/gs": ("0.0", "a4cd84de5057d429"),
    "r16/enum": ("0.0", "c69f42b23ac9287a"),
    "r17/sgs": ("-0.6433057181217853", "9e3efbb5cd7f90c1"),
    "r17/jt": ("-0.6433057181217852", "2ac743de529e584c"),
    "r17/lbp-is": ("-0.6433057181217853", "a69337024af986a7"),
    "r17/gs": ("-1.812002977458268", "064916102b45b8fe"),
    "r17/enum": ("-0.6433057181217849", "a05e7958a828323d"),
    "r18/sgs": ("-2.2272742228464573", "6cdcc882a5825e07"),
    "r18/jt": ("-2.2272762228444574", "010c838c5eb84ea6"),
    "r18/lbp-is": ("-2.2272742228464573", "90138979514d463e"),
    "r18/gs": ("-2.23467507962932", "d513b0011932821b"),
    "r18/enum": ("-2.2272762228444574", "696677b858a21447"),
    "r19/sgs": ("-3.2712049081355645", "3e6b2ccfa46e3cfa"),
    "r19/jt": ("-3.271204908135564", "d4f30321d0ef8363"),
    "r19/lbp-is": ("-3.2712049081355645", "daff2866c9e1a961"),
    "r19/gs": ("-3.2712049081355645", "0308ad0198fa73d2"),
    "r19/enum": ("-3.2712049081355645", "fe378f684054fb0c"),
    "r20/sgs": ("0.0", "9d3fd02a18c16106"),
    "r20/jt": ("0.0", "d3495c1b835824dd"),
    "r20/lbp-is": ("0.0", "44eb6526d08bc780"),
    "r20/gs": ("0.0", "17557b6c17e2fd1c"),
    "r20/enum": ("0.0", "035dabe49645c2ff"),
    "r21/sgs": ("-1.0863217858284047", "7813cab050f9e65e"),
    "r21/jt": ("-1.086324785823905", "192c4f5297c91750"),
    "r21/lbp-is": ("-1.0863217858284047", "637ff8f082cebdf9"),
    "r21/gs": ("-0.9225331912502008", "fcc6a02f8894951c"),
    "r21/enum": ("-1.086324785823905", "06d66c3167184306"),
    "r22/sgs": ("-4.6244544560641385", "d31644f6d67d5c46"),
    "r22/jt": ("-4.624454456064138", "8cf6c9547de29e7b"),
    "r22/lbp-is": ("-4.624452456066138", "ea030c45bc7f0d58"),
    "r22/gs": ("-4.624450456068139", "6c908246bce65f9b"),
    "r22/enum": ("-4.624454456064138", "ecd494a9c78fe9db"),
    "r23/sgs": ("-inf", "3548fa058fbd9f8d"),
    "r23/jt": ("-inf", "4676ea57272ee4fe"),
    "r23/lbp-is": ("-inf", "6069531589db2bfb"),
    "r23/gs": ("-inf", "18603f194bc11fea"),
    "r23/enum": ("-inf", "ee2151caf9f442e8"),
    "cap/fallback": ("-3.916004732444881", "202741650df82e31"),
    "cap/exact": ("-4.041655074875752", "c7319c056461178a"),
    "sampled/all": ("-4.064556150722128", "9c6f17fad4f71616"),
    "cap/jt": ("CapacityError", ""),
}


def test_outputs_are_pinned():
    _plan.cache_clear()
    for _ in range(2):  # from an empty plan cache, then on the plans the first pass stored
        got = {label: _pin(bn, e, method, cfg) for label, bn, e, method, cfg in _pin_cases()}
        assert got == PINNED
