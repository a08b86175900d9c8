import math

import numpy as np
import pytest

from bnmarg.classify import (
    PartialRecord,
    classify,
    classify_drop_missing,
    roc_auc,
)
from bnmarg.errors import ClassificationError, DomainError
from bnmarg.graphs import Dag
from bnmarg.network import CategoricalBN, sample_forward

from conftest import rand_bn


def _tilted_bn(seed, tilt):
    """Two binary nodes a -> b; tilt skews the CPTs so models are separable."""
    rng = np.random.default_rng(seed)
    pa = 0.5 + tilt
    dag = Dag(("a", "b"), [("a", "b")])
    cpts = {
        "a": np.array([[pa, 1.0 - pa]]),
        "b": np.array([[0.5 + tilt, 0.5 - tilt], [0.5 - tilt, 0.5 + tilt]]),
    }
    return CategoricalBN(dag, {"a": 2, "b": 2}, cpts)


def test_record_rejects_overlap():
    with pytest.raises(ClassificationError):
        PartialRecord(observed={"a": "s0"}, missing=frozenset({"a"}))


def test_identical_models_tie():
    bn = _tilted_bn(1, 0.3)
    rec = PartialRecord(observed={"a": "s0"})
    res = classify(rec, [("m1", bn), ("m2", bn)])
    assert res.posteriors == pytest.approx((0.5, 0.5))
    assert res.tie is True
    assert res.predicted == "m1"  # deterministic: first of the tied models


def test_separable_models_are_recovered():
    biased = _tilted_bn(2, 0.4)   # strongly favors matching states
    uniform = _tilted_bn(3, 0.0)  # ignores everything
    models = [("biased", biased), ("uniform", uniform)]
    rec = PartialRecord(observed={"a": "s0", "b": "s0"})
    res = classify(rec, models)
    assert res.predicted == "biased"
    assert res.posteriors[0] > 0.6
    # a record the biased model finds unlikely flips the decision
    rec = PartialRecord(observed={"a": "s0", "b": "s1"})
    assert classify(rec, models).predicted == "uniform"


def test_marginalization_uses_only_observed():
    # with b unobserved the two models disagree only through P(a)
    m1 = _tilted_bn(4, 0.2)
    m2 = _tilted_bn(5, 0.0)
    rec = PartialRecord(observed={"a": "s0"}, missing=frozenset({"b"}))
    res = classify(rec, [("m1", m1), ("m2", m2)])
    s1, s2 = res.scores
    assert s1.log_likelihood == pytest.approx(math.log(0.7))
    assert s2.log_likelihood == pytest.approx(math.log(0.5))
    assert s1.used == ("a",)


def test_unknown_variable_is_reported_not_fatal():
    m1 = _tilted_bn(6, 0.2)
    rec = PartialRecord(observed={"a": "s0", "zzz": "s1"})
    res = classify(rec, [("m1", m1)])
    (score,) = res.scores
    assert score.unresolved == ("zzz",)
    assert score.used == ("a",)


def test_unknown_state_is_fatal():
    m1 = _tilted_bn(7, 0.2)
    rec = PartialRecord(observed={"a": "purple"})
    with pytest.raises(ClassificationError):
        classify(rec, [("m1", m1)])


def test_nothing_resolvable_is_fatal():
    m1 = _tilted_bn(8, 0.2)
    rec = PartialRecord(observed={"zzz": "s0"})
    with pytest.raises(ClassificationError):
        classify(rec, [("m1", m1)])
    with pytest.raises(ClassificationError):
        classify(rec, [])


def test_drop_missing_requires_full_coverage():
    m1 = _tilted_bn(9, 0.2)
    rec = PartialRecord(observed={"a": "s0"})
    with pytest.raises(ClassificationError):
        classify_drop_missing(rec, [("m1", m1)])
    full = PartialRecord(observed={"a": "s0", "b": "s1"})
    res = classify_drop_missing(full, [("m1", m1)])
    (score,) = res.scores
    assert score.log_likelihood == pytest.approx(math.log(0.7 * 0.3))


def test_non_string_node_ids_resolve():
    # the record's keys are looked up as given, not as their str()
    dag = Dag((1, 2), [(1, 2)])
    cpts = {1: np.array([[0.6, 0.4]]), 2: np.array([[0.9, 0.1], [0.2, 0.8]])}
    bn = CategoricalBN(dag, {1: 2, 2: 2}, cpts)
    (score,) = classify(PartialRecord({2: "s0"}, frozenset({1})), [("m", bn)]).scores
    assert score.used == (2,) and score.unresolved == ()
    assert score.log_likelihood == pytest.approx(math.log(0.6 * 0.9 + 0.4 * 0.2))
    (score,) = classify_drop_missing(PartialRecord({2: "s1", 1: "s0"}), [("m", bn)]).scores
    assert score.used == (1, 2)
    assert score.log_likelihood == pytest.approx(math.log(0.6 * 0.1))
    with pytest.raises(ClassificationError):  # ids of mixed types in the overlap message
        PartialRecord({1: "s0", "a": "s1"}, frozenset({1, "a"}))


def test_classify_agrees_with_full_data_scores():
    # on a complete record the marginal reduces to the joint, so both
    # classifiers must produce identical posteriors
    rng = np.random.default_rng(10)
    models = [(f"m{i}", rand_bn(rng, 5, 0.4, cards=(2,))) for i in range(3)]
    draw = sample_forward(models[0][1], 1, np.random.default_rng(0))[0]
    obs = {v: models[0][1].state_names[v][draw[v]] for v in models[0][1].node_ids}
    rec = PartialRecord(observed=obs)
    a = classify(rec, models)
    b = classify_drop_missing(rec, models)
    assert a.posteriors == pytest.approx(b.posteriors, rel=1e-9)
    assert a.predicted == b.predicted


def test_roc_perfect_and_reversed():
    perfect = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert perfect.auc == pytest.approx(1.0)
    assert perfect.points[0] == (0.0, 0.0)
    assert perfect.points[-1] == (1.0, 1.0)
    reversed_ = roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
    assert reversed_.auc == pytest.approx(0.0)


def test_roc_ties_give_half():
    res = roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert res.auc == pytest.approx(0.5)
    # one diagonal segment from (0,0) to (1,1)
    assert res.points == ((0.0, 0.0), (1.0, 1.0))


def test_roc_partial_overlap():
    # one inverted pair out of the four (positive, negative) pairs
    res = roc_auc([0.9, 0.6, 0.7, 0.1], [1, 1, 0, 0])
    assert res.auc == pytest.approx(0.75)


def test_roc_errors():
    with pytest.raises(DomainError):
        roc_auc([0.5, 0.6], [1, 1])
    with pytest.raises(DomainError):
        roc_auc([0.5, 0.6], [0, 0])
    with pytest.raises(DomainError):
        roc_auc([0.5], [1, 0])
    # NaN compares equal to no score, not even itself, so it has no rank
    with pytest.raises(DomainError, match="NaN"):
        roc_auc([float("nan"), 0.5], [True, False])
