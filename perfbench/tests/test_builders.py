import math

import numpy as np
import pytest

import workloads
from bnmarg import marginal, pick_evidence
from workloads import TIMED, TRACED, er_dag, er_network, exact_reference


def test_er_dag_is_a_function_of_its_seed():
    a, b, c = er_dag(200, 1.6, 5), er_dag(200, 1.6, 5), er_dag(200, 1.6, 6)
    assert a.node_ids == b.node_ids and a.edges == b.edges
    assert a.edges != c.edges


def test_er_dag_names_and_orientation_follow_gen_dag():
    dag = er_dag(1000, 2.0, 1)
    assert dag.node_ids[0] == "X000" and dag.node_ids[-1] == "X999"
    assert all(dag.index(u) < dag.index(v) for u, v in dag.edges)
    # mean degree 2E/n close to the requested 2.0
    assert 1.7 < 2 * len(dag.edges) / 1000 < 2.3


def test_er_network_cpts_repeat_for_a_seed():
    a, b = er_network(50, 1.6, 3), er_network(50, 1.6, 3)
    assert a.dag.edges == b.dag.edges
    assert all(np.array_equal(a.cpts[v], b.cpts[v]) for v in a.node_ids)


@pytest.mark.parametrize("cls", [workloads.SgsSparse3000, workloads.LbpisFresh2000])
def test_workload_evidence_repeats_for_a_seed(cls):
    first, second = cls(7), cls(7)
    first.setup()
    second.setup()
    for key in [(TIMED, 0), (TIMED, 33), (TRACED, 0)]:
        bn1, ev1 = first.inputs(*key)
        bn2, ev2 = second.inputs(*key)
        assert bn1.dag.edges == bn2.dag.edges and ev1 == ev2
        assert len(ev1) == math.floor(cls.evidence_fraction * cls.n)
    assert first.inputs(TIMED, 0)[1] != first.inputs(TIMED, 1)[1]
    assert first.inputs(TIMED, 0)[1] != first.inputs(TRACED, 0)[1]


def test_classify_records_repeat_for_a_seed():
    first, second = workloads.ClassifyEr120(2), workloads.ClassifyEr120(2)
    first.setup()
    second.setup()
    for q in (0, 40):
        r1, models = first.inputs(TIMED, q)
        r2, _ = second.inputs(TIMED, q)
        assert r1 == r2
        assert len(r1.missing) == 36 and len(r1.observed) == 84
    assert [m.dag.edges for _, m in models] == [m.dag.edges for _, m in second.model_sets[40 % first.groups]]


@pytest.mark.parametrize("seed", range(6))
def test_reference_matches_enumeration_on_small_instances(seed):
    bn = er_network(16, 3.0, seed)
    evidence = pick_evidence(bn, 0.3, seed)
    ref = exact_reference(bn, evidence)
    assert all(r.method == "exact" for r in ref.per_subset)
    want = marginal(bn, evidence, "enum").log_value
    assert abs(math.expm1(ref.log_value - want)) < 1e-12
