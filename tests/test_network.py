import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from bnmarg.errors import ArgumentError, CapacityError, InvalidAssignmentError, UnknownNodeError
from bnmarg import network
from bnmarg.graphs import Dag
from bnmarg.network import (
    DRAW_BLOCK,
    CategoricalBN,
    _log_sum_exp,
    log_enumerate_marginal,
    log_joint_probability,
    sample_forward,
    sample_forward_array,
    validate,
)

from conftest import (
    brute_marginal,
    parent_strides,
    rand_bn,
    rand_evidence,
    reference_sample_forward_array,
    reordered,
    sparse_bn,
)


def joint_probability(bn, x):
    return math.exp(log_joint_probability(bn, x))


def two_node():
    dag = Dag(("A", "B"), [("A", "B")])
    cpts = {
        "A": np.array([[0.7, 0.3]]),
        "B": np.array([[0.9, 0.1], [0.2, 0.8]]),
    }
    return CategoricalBN(dag, {"A": 2, "B": 2}, cpts)


def test_construction_checks():
    dag = Dag(("A", "B"), [("A", "B")])
    with pytest.raises(ArgumentError):
        CategoricalBN(dag, {"A": 1, "B": 2}, {})
    with pytest.raises(ArgumentError):
        CategoricalBN(
            dag,
            {"A": 2, "B": 2},
            {"A": np.array([[0.5, 0.5]]), "B": np.array([[0.5, 0.5]])},
        )  # B needs 2 rows
    with pytest.raises(UnknownNodeError):
        CategoricalBN(
            dag,
            {"A": 2, "B": 2, "Z": 2},
            {
                "A": np.array([[0.5, 0.5]]),
                "B": np.array([[0.5, 0.5], [0.5, 0.5]]),
            },
        )


def test_cardinalities_must_be_integers():
    dag = Dag(("A", "B"), [("A", "B")])
    cpts = {"A": [[0.5, 0.5]], "B": [[0.5, 0.5], [0.5, 0.5]]}
    for bad in (2.7, 2.0, "2", True, None):
        with pytest.raises(ArgumentError, match="node 'A' has cardinality .*; need an integer >= 2"):
            CategoricalBN(dag, {"A": bad, "B": 2}, cpts)
    bn = CategoricalBN(dag, {"A": np.int64(2), "B": np.uint8(2)}, cpts)
    assert bn.cardinalities == {"A": 2, "B": 2}
    assert all(type(c) is int for c in bn.cardinalities.values())


def test_restrict_refusals_and_shared_tables():
    dag = Dag(("A", "B", "C"), [("A", "C"), ("B", "C")])
    cpts = {"A": [[0.5, 0.5]], "B": [[0.1, 0.9]], "C": [[0.2, 0.8]] * 4}
    bn = CategoricalBN(dag, dict.fromkeys("ABC", 2), cpts, {"A": ("lo", "hi")})
    with pytest.raises(ArgumentError, match=r"cannot restrict: node 'C' loses parents \['B'\]"):
        bn.restrict({"A", "C"})
    with pytest.raises(UnknownNodeError):
        bn.restrict({"C", "Z"})  # unknown names are refused before lost parents
    for keep in ({"B"}, {"A", "B"}, {"A", "B", "C"}):
        sub = bn.restrict(keep)
        assert sub.node_ids == tuple(v for v in "ABC" if v in keep)
        for v in sub.node_ids:
            assert sub.cpts[v] is bn.cpts[v]
            assert not sub.cpts[v].flags.writeable
            assert sub.state_names[v] is bn.state_names[v]


def test_validate_reports_defects():
    bn = two_node()
    assert validate(bn) == []
    bad = {
        "A": np.array([[0.6, 0.3]]),  # sums to 0.9
        "B": np.array([[0.9, 0.1], [0.2, 0.8]]),
    }
    violations = validate(CategoricalBN(bn.dag, {"A": 2, "B": 2}, bad))
    assert len(violations) == 1
    assert violations[0].node == "A" and violations[0].kind == "row-normalization"
    worse = {
        "A": np.array([[1.2, -0.2]]),
        "B": np.array([[0.9, 0.1], [0.2, 0.8]]),
    }
    kinds = {v.kind for v in validate(CategoricalBN(bn.dag, {"A": 2, "B": 2}, worse))}
    assert "value-range" in kinds


def test_validate_reports_nan_entries():
    bn = two_node()
    tables = {"A": np.array([[np.nan, 0.5]]), "B": np.array([[0.9, 0.1], [0.2, np.nan]])}
    got = [(v.node, v.kind, v.row) for v in validate(CategoricalBN(bn.dag, {"A": 2, "B": 2}, tables))]
    assert got == [
        ("A", "value-range", 0),
        ("A", "row-normalization", 0),
        ("B", "value-range", 1),
        ("B", "row-normalization", 1),
    ]


def test_validate_counts_perturbed_rows():
    rng = np.random.default_rng(31)
    bn = rand_bn(rng, 8, 0.3)
    tables = {v: bn.cpts[v].copy() for v in bn.node_ids}
    broken = 0
    for v in bn.node_ids:
        if rng.random() < 0.5:
            tables[v][0, 0] += 0.25
            broken += 1
    bn2 = CategoricalBN(bn.dag, dict(bn.cardinalities), tables)
    assert len(validate(bn2)) == broken


def test_joint_probability_two_factor_product():
    dag = Dag(("A", "B"), [("A", "B")])
    cpts = {
        "A": np.array([[0.7, 0.3]]),
        "B": np.array([[0.9, 0.1], [0.2, 0.8]]),
    }
    bn = CategoricalBN(dag, {"A": 2, "B": 2}, cpts)
    assert joint_probability(bn, {"A": 1, "B": 1}) == pytest.approx(0.3 * 0.8)
    assert joint_probability(bn, {"A": 1, "B": 1}) == pytest.approx(0.24)
    with pytest.raises(InvalidAssignmentError):
        joint_probability(bn, {"A": 1})
    with pytest.raises(InvalidAssignmentError):
        joint_probability(bn, {"A": 1, "B": 2})


def test_joint_probability_uniform_network():
    rng = np.random.default_rng(5)
    dag = Dag(("a", "b", "c"), [("a", "b"), ("a", "c")])
    c = 3
    cpts = {
        "a": np.full((1, c), 1.0 / c),
        "b": np.full((c, c), 1.0 / c),
        "c": np.full((c, c), 1.0 / c),
    }
    bn = CategoricalBN(dag, {v: c for v in "abc"}, cpts)
    for _ in range(5):
        x = {v: int(rng.integers(c)) for v in "abc"}
        assert joint_probability(bn, x) == pytest.approx(c ** -3.0)


def test_joint_probability_against_lookup_loop():
    rng = np.random.default_rng(77)
    for _ in range(10):
        bn = rand_bn(rng, 7, 0.35)
        x = {v: int(rng.integers(bn.cardinalities[v])) for v in bn.node_ids}
        expected = 1.0
        for v in bn.node_ids:
            row = 0
            for p, stride in zip(bn.dag.parents(v), parent_strides(bn, v)):
                row += stride * x[p]
            expected *= float(bn.cpts[v][row, x[v]])
        assert joint_probability(bn, x) == pytest.approx(expected, rel=1e-12)
        assert log_joint_probability(bn, x) == pytest.approx(math.log(expected), rel=1e-12)


def test_joint_sums_to_one():
    rng = np.random.default_rng(13)
    bn = rand_bn(rng, 6, 0.4, cards=(2,))
    total = sum(
        joint_probability(bn, dict(zip(bn.node_ids, combo)))
        for combo in itertools.product(*(range(2) for _ in bn.node_ids))
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_enumerate_marginal_edges():
    bn = two_node()
    assert math.exp(log_enumerate_marginal(bn, {})) == pytest.approx(1.0, abs=1e-12)
    full = {"A": 1, "B": 0}
    assert math.exp(log_enumerate_marginal(bn, full)) == pytest.approx(joint_probability(bn, full))
    s = sum(math.exp(log_enumerate_marginal(bn, {"A": k})) for k in range(2))
    assert s == pytest.approx(1.0, abs=1e-12)


def test_enumerate_marginal_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(15):
        bn = rand_bn(rng, 7, 0.3)
        e = rand_evidence(rng, bn, int(rng.integers(1, 5)))
        assert math.exp(log_enumerate_marginal(bn, e)) == pytest.approx(brute_marginal(bn, e), rel=1e-10)


def test_enumerate_marginal_consistency_properties():
    rng = np.random.default_rng(55)
    bn = rand_bn(rng, 6, 0.3)
    e = rand_evidence(rng, bn, 2)
    base = math.exp(log_enumerate_marginal(bn, e))
    v = next(u for u in bn.node_ids if u not in e)
    total = 0.0
    for s in range(bn.cardinalities[v]):
        extended = dict(e)
        extended[v] = s
        p = math.exp(log_enumerate_marginal(bn, extended))
        assert p <= base + 1e-12  # extension never increases probability
        total += p
    assert total == pytest.approx(base, rel=1e-10)


def test_enumerate_marginal_blocks_keep_the_bits_and_bound_the_memory(monkeypatch):
    # each configuration gets the same additions in any block size, a ragged
    # last block included; over the 2^20 configurations of 20 free binary
    # nodes, one int64 state vector per node would alone take 160 MiB
    rng = np.random.default_rng(73)
    cases = [(rand_bn(rng, 17, 0.2, cards=(2,)), {}), (sparse_bn(rng, 8), {})]
    cases += [(bn, rand_evidence(rng, bn, 3)) for bn, _ in cases]
    want = [repr(log_enumerate_marginal(bn, e)) for bn, e in cases]
    for block in (1 << 40, 4096, 1000):
        monkeypatch.setattr(network, "ENUM_BLOCK", block)
        assert [repr(log_enumerate_marginal(bn, e)) for bn, e in cases] == want
    monkeypatch.undo()
    bn = rand_bn(rng, 22, 0.15, cards=(2,))
    e = {bn.node_ids[0]: 0, bn.node_ids[-1]: 1}
    tracemalloc.start()
    try:
        log_enumerate_marginal(bn, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_enumerate_marginal_capacity():
    rng = np.random.default_rng(3)
    bn = rand_bn(rng, 30, 0.1, cards=(2,))
    with pytest.raises(CapacityError):
        log_enumerate_marginal(bn, {})
    # tightening the cap fails small networks too
    small = rand_bn(rng, 6, 0.3, cards=(2,))
    with pytest.raises(CapacityError):
        log_enumerate_marginal(small, {}, bits_cap=3.0)


def _log_sum_exp_corpus():
    """Seeded inputs: lengths 1-300 at scales 1, 10, 100 and 700, with -inf
    entries, ties at the maximum, all entries equal and all -inf; lists of
    three floats, as the classifier's posteriors pass; and the empty input."""
    rng = np.random.default_rng(23)
    for i in range(2000):
        k = int(rng.integers(1, 301))
        a = rng.normal(size=k) * (1, 10, 100, 700)[i % 4]
        kind = i // 4 % 5
        if kind == 1:
            a[rng.random(k) < 0.3] = -np.inf
        elif kind == 2:
            a[rng.integers(k, size=3)] = a.max()
        elif kind == 3:
            a[:] = a[0]
        elif kind == 4:
            a[:] = -np.inf
        yield a
    for i in range(200):
        logs = (rng.normal(size=3) * 5 - (1, 50, 700, 900)[i % 4]).tolist()
        if i % 10 == 9:
            logs[i % 3] = -math.inf
        yield logs
    yield [-math.inf] * 3
    yield []


# sha256 of the repr of every output on _log_sum_exp_corpus, one a line, as
# scipy.special.logsumexp 1.17.1 (numpy 2.4.6) computed them: the bits that
# the recorded enum values and classifier posteriors carry
LOG_SUM_EXP_DIGEST = "971a0ec1b0e0e75499127f11fcaef44c98bad41977083160d722d710cbe6272f"


def test_log_sum_exp_keeps_scipys_bits():
    outputs = "\n".join(repr(_log_sum_exp(a)) for a in _log_sum_exp_corpus())
    assert hashlib.sha256(outputs.encode()).hexdigest() == LOG_SUM_EXP_DIGEST


def test_evidence_validation():
    bn = two_node()
    with pytest.raises(InvalidAssignmentError):
        log_enumerate_marginal(bn, {"A": 2})
    with pytest.raises(InvalidAssignmentError):
        log_enumerate_marginal(bn, {"Z": 0})
    with pytest.raises(InvalidAssignmentError):
        log_enumerate_marginal(bn, {"A": True})


def test_sample_forward_deterministic_cpts():
    dag = Dag(("A", "B"), [("A", "B")])
    cpts = {
        "A": np.array([[0.0, 1.0]]),
        "B": np.array([[1.0, 0.0], [0.0, 1.0]]),  # copies A
    }
    bn = CategoricalBN(dag, {"A": 2, "B": 2}, cpts)
    for x in sample_forward(bn, 20, seed=4):
        assert x == {"A": 1, "B": 1}


def test_sample_forward_determinism():
    rng = np.random.default_rng(17)
    bn = rand_bn(rng, 8, 0.3)
    assert sample_forward(bn, 25, seed=9) == sample_forward(bn, 25, seed=9)
    assert sample_forward(bn, 25, seed=9) != sample_forward(bn, 25, seed=10)


def test_sample_forward_frequency_matches_joint():
    rng = np.random.default_rng(21)
    bn = rand_bn(rng, 3, 0.5, cards=(2,))
    target = {v: 0 for v in bn.node_ids}
    p = joint_probability(bn, target)
    n = 100_000
    arr = sample_forward_array(bn, n, np.random.default_rng(1234))
    hits = int(np.sum(np.all(arr == 0, axis=1)))
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) < 3 * sigma


def test_sample_counts_must_be_integers():
    bn = two_node()
    for bad in (2.5, 2.0, True, "3", None):
        rng = np.random.default_rng(5)
        with pytest.raises(ArgumentError, match="sample count must be an integer"):
            sample_forward_array(bn, bad, rng)
        assert rng.random() == np.random.default_rng(5).random()  # refused before any draw
        with pytest.raises(ArgumentError, match="sample count must be an integer"):
            sample_forward(bn, bad)
    with pytest.raises(ArgumentError, match="non-negative"):
        sample_forward_array(bn, -1, 0)
    assert sample_forward_array(bn, np.int64(3), 0).tobytes() == sample_forward_array(bn, 3, 0).tobytes()
    assert sample_forward(bn, np.uint8(2), 1) == sample_forward(bn, 2, 1)


def test_forward_draw_seeds_must_be_non_negative_integers():
    bn = two_node()
    for bad in (True, False, -1, 1.5, 2.0, "3", None, np.int64(-2)):
        with pytest.raises(ArgumentError, match="seed must be a Generator or a non-negative integer"):
            sample_forward_array(bn, 3, bad)
        with pytest.raises(ArgumentError, match="seed must be"):
            sample_forward(bn, 3, bad)
    rng = np.random.default_rng(8)
    want = sample_forward_array(bn, 5, np.random.default_rng(8))
    assert sample_forward_array(bn, 5, rng).tobytes() == want.tobytes()  # a Generator is used as it is
    assert sample_forward_array(bn, 5, np.uint16(8)).tobytes() == sample_forward_array(bn, 5, 8).tobytes()
    assert sample_forward(bn, 2, 0) == sample_forward(bn, 2)


def test_sample_forward_dicts_hold_python_ints():
    bn = sparse_bn(np.random.default_rng(31), 7)
    xs = sample_forward(bn, 6, 3)
    arr = sample_forward_array(bn, 6, 3)
    assert xs == [dict(zip(bn.node_ids, map(int, row))) for row in arr]
    assert all(type(s) is int for x in xs for s in x.values())
    assert sample_forward(bn, 0, 3) == []


def _random_tables(rng, dag, cards):
    """Uniform CPT rows for ``dag``, one in five made deterministic."""
    cpts = {}
    for v in dag.node_ids:
        rows = math.prod(cards[p] for p in dag.parents(v))
        t = rng.random((rows, cards[v]))
        t[rng.random(rows) < 0.2] = np.eye(cards[v])[rng.integers(cards[v])]
        cpts[v] = t / t.sum(axis=1, keepdims=True)
    return CategoricalBN(dag, cards, cpts)


def _forward_cases():
    """Networks on which the level-batched sampler must match the per-node
    one: random, sparse and reordered ones with cardinalities 2-5 and
    deterministic rows, one node, no edges, and a 300-node chain (one node
    per level)."""
    for k in range(20):
        rng = np.random.default_rng(9100 + k)
        n = int(rng.integers(2, 14))
        yield rand_bn(rng, n, 0.4, cards=(2, 3, 4, 5))
        yield sparse_bn(rng, n)
        yield reordered(rng, sparse_bn(rng, n))
    rng = np.random.default_rng(9200)
    yield CategoricalBN(Dag(("A",)), {"A": 3}, {"A": [[0.2, 0.3, 0.5]]})
    names = tuple(f"v{i}" for i in range(6))
    yield _random_tables(rng, Dag(names), dict(zip(names, (2, 3, 4, 5, 2, 5))))
    names = tuple(f"c{i:03d}" for i in range(300))
    chain = Dag(names, list(zip(names, names[1:])))
    yield _random_tables(rng, chain, {v: int(rng.integers(2, 6)) for v in names})


def test_forward_draws_match_per_node_sampler():
    for i, bn in enumerate(_forward_cases()):
        for n in (0, 1, 40, 2 * DRAW_BLOCK + 3):
            want_rng, got_rng = np.random.default_rng(i), np.random.default_rng(i)
            want = reference_sample_forward_array(bn, n, want_rng)
            got = sample_forward_array(bn, n, got_rng)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape == (n, len(bn))
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), (i, n)
            assert got_rng.random() == want_rng.random()  # the generator ends where it did


def _pin_networks():
    """Sparse networks (cardinalities 2-5, ~40 % zero CPT entries, some
    deterministic rows); every other one has its node list shuffled."""
    for k in range(12):
        rng = np.random.default_rng(8000 + k)
        bn = sparse_bn(rng, int(rng.integers(3, 10)))
        yield k, rng, (reordered(rng, bn) if k % 2 else bn)


# per network: repr of log_joint_probability on three forward draws and one
# uniformly random assignment, and a digest of 40 forward draws; recorded
# (numpy 2.4) before the CPT row layout moved behind CategoricalBN
LOG_JOINT_AND_DRAWS_PINNED = {
    0: (
        ("-0.43690333802655645", "-1.6671670911710017", "-0.43690333802655645", "-inf"),
        "d4a727a438f10542",
    ),
    1: (
        ("-2.999652106379343", "-0.5184519511770639", "-1.5365459328366622", "-inf"),
        "904e398fee8c9f57",
    ),
    2: (
        ("-1.3607003671026772", "-1.3607003671026772", "-0.3568912280517639", "-inf"),
        "bf1a93740691bc77",
    ),
    3: (
        ("-1.6687497529394246", "-2.021638954617302", "-0.8816107441629074", "-inf"),
        "ba19e97594a55857",
    ),
    4: (
        ("-1.3549402159599615", "-1.3160752127375432", "-1.3549402159599615", "-inf"),
        "e2fba5e5950af8fe",
    ),
    5: (
        ("-3.4195834683248005", "-3.7630193683843487", "-4.1055826206590424", "-inf"),
        "93670bc6892a7ded",
    ),
    6: (
        ("-1.693011992122511", "-1.92944569497012", "-1.92944569497012", "-inf"),
        "4e49ed39bfef0d72",
    ),
    7: (
        ("-1.7079659253413748", "-2.0007676625590785", "-2.0007676625590785", "-inf"),
        "3c8d32391308411b",
    ),
    8: (
        ("-1.9320540692788892", "-4.53697616925357", "-2.416720594141983", "-inf"),
        "b372286bf568b788",
    ),
    9: (
        ("-4.098308249967248", "-4.592869815032208", "-4.517930559336452", "-inf"),
        "b4673d3e487b4a87",
    ),
    10: (
        ("-2.9216959259998534", "-5.347967229688048", "-4.651238080765896", "-inf"),
        "8e376e03847280ba",
    ),
    11: (
        ("-4.9138283772788265", "-3.9907934487734984", "-3.4408637120302457", "-inf"),
        "9e726775e5400c34",
    ),
}


def test_log_joint_and_forward_draws_are_pinned():
    got = {}
    for k, rng, bn in _pin_networks():
        xs = sample_forward(bn, 3, seed=k)
        xs.append({v: int(rng.integers(bn.cardinalities[v])) for v in bn.node_ids})
        draws = sample_forward_array(bn, 40, np.random.default_rng(k))
        digest = hashlib.sha256(draws.tobytes()).hexdigest()[:16]
        got[k] = (tuple(repr(log_joint_probability(bn, x)) for x in xs), digest)
    assert got == LOG_JOINT_AND_DRAWS_PINNED
