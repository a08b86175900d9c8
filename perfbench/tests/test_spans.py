import importlib

from bnmarg import marginal, pick_evidence
from spans import SpanRecorder, Tracer, layer_totals
from workloads import er_network


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # root [0,100] > a [10,40] > aa [15,25]; root > b [50,60]; c [200,230] on its own
    rec = SpanRecorder(clock=fake_clock([0, 10, 15, 25, 40, 50, 60, 100, 200, 230]))
    root = rec.open("root")
    a = rec.open("a")
    aa = rec.open("aa")
    rec.close(aa)
    rec.close(a)
    b = rec.open("b")
    rec.close(b)
    rec.close(root)
    c = rec.open("c")
    rec.close(c)
    assert [s.parent for s in rec.spans] == [-1, root, a, root, -1]
    assert rec.self_ns() == [60, 20, 10, 10, 30]
    assert sum(rec.self_ns()) == 100 + 30


def test_layer_totals_filter_by_label_and_sum_counts():
    rec = SpanRecorder(clock=fake_clock(range(0, 100, 5)))
    for q in range(3):
        rec.label = ("query", q)
        i = rec.open("x")
        rec.close(i)
        rec.spans[i].counts = {"n": q, "size_max": 10 - q}
    calls, self_ms, counts = layer_totals(rec, lambda label: label[1] < 2)
    assert calls["x"] == 2
    assert counts["n"] == 1 and counts["size_max"] == 10


def test_tracer_counts_layers_and_restores_the_package():
    engine = importlib.import_module("bnmarg.engine")
    original = engine.build_junction_tree
    bn = er_network(300, 1.6, 1)
    evidence = pick_evidence(bn, 0.3, 2)
    plain = marginal(bn, evidence)

    rec = SpanRecorder()
    rec.label = ("query", 0)
    tracer = Tracer(rec)
    tracer.install()
    try:
        traced = engine.marginal(bn, evidence, "sgs")
    finally:
        tracer.uninstall()
    assert engine.build_junction_tree is original
    assert traced.log_value == plain.log_value
    calls, _, counts = layer_totals(rec, lambda label: True)
    assert calls["engine.marginal"] == 1
    assert calls["decompose.relevant_subgraph"] == 2
    assert calls["junction.build_junction_tree"] == counts["exact_subsets"]
    assert counts["subsets"] == len(plain.per_subset)


def test_missing_targets_are_reported_not_fatal():
    tracer = Tracer(SpanRecorder(), targets=[("engine", "no_such_name", "x", None),
                                             ("no_such_module", "f", "y", None)])
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["engine.no_such_name", "no_such_module.f"]
