import dataclasses
import json
import math
from pathlib import Path

import pytest

import harness
import workloads
from bnmarg import pick_evidence
from workloads import SgsSparse3000, er_network, exact_reference


def test_p90_needs_ten_samples_beyond_it():
    xs = list(range(1, 101))
    assert harness.tail_percentile(xs, 90) == 90
    assert harness.tail_percentile(list(reversed(xs)), 90) == 90
    with pytest.raises(ValueError):
        harness.tail_percentile(xs[:99], 90)
    assert harness.MIN_QUERIES - math.ceil(0.9 * harness.MIN_QUERIES) >= 10


@pytest.fixture(scope="module")
def answered():
    bn = er_network(400, 1.8, 4)
    evidence = pick_evidence(bn, 0.3, 5)
    est = SgsSparse3000.query((bn, evidence))
    return est, exact_reference(bn, evidence)


def test_a_correct_answer_passes(answered):
    est, ref = answered
    verdict = harness.judge(SgsSparse3000, est, ref)
    assert verdict.failure is None and len(verdict.log_errors) == 1


def test_a_perturbed_exact_factor_counts_as_a_failure(answered):
    est, ref = answered
    i = next(k for k, r in enumerate(est.per_subset) if r.method == "exact")
    bad = list(est.per_subset)
    bad[i] = dataclasses.replace(bad[i], log_factor=bad[i].log_factor + 1e-6)
    perturbed = dataclasses.replace(est, per_subset=tuple(bad))
    assert harness.judge(SgsSparse3000, perturbed, ref).failure.startswith(f"subset {i}")

    leftover = dataclasses.replace(est, leftover_log=est.leftover_log + 1e-6)
    assert harness.judge(SgsSparse3000, leftover, ref).failure.startswith("leftover_log")


def test_raised_or_non_finite_answers_count_as_failures(answered):
    est, ref = answered
    assert harness.judge(SgsSparse3000, ValueError("x"), ref).failure
    assert harness.judge(SgsSparse3000, est, harness.ReferenceFailure("boom")).failure
    inf = dataclasses.replace(est, log_value=-math.inf)
    assert harness.judge(SgsSparse3000, inf, ref).failure == "non-finite estimate"
    assert harness.judge(SgsSparse3000, "not an estimate", ref).failure


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_speed_cancels_a_slow_machine():
    ref = harness.PROBE_REF_S
    # the same 10 ms call, timed while the machine runs at full and at half speed
    seconds = [0.010] * 5 + [0.020] * 5
    probes = [ref] * 5 + [2 * ref] * 5
    scaled = harness.at_reference_speed(seconds, probes)
    assert scaled[0] == pytest.approx(0.010) and scaled[-1] == pytest.approx(0.010)
    # a lone slow probe does not move the median of its neighbours
    probes[2] = 5 * ref
    assert harness.at_reference_speed(seconds, probes)[2] == pytest.approx(0.010)


def test_a_different_decomposition_counts_as_a_failure(answered):
    est, ref = answered
    fewer = dataclasses.replace(est, per_subset=est.per_subset[1:])
    assert harness.judge(SgsSparse3000, fewer, ref).failure == "subsets differ from the reference's"
