import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from bnmarg.bench import (
    CSV_HEADER,
    BenchRow,
    load_bench_file,
    rows_to_csv,
    rows_to_gnuplot,
    run_benchmark,
)
from bnmarg.errors import DataFormatError, ParameterError
from bnmarg.randnet import GenSpec


def rows_from_csv(text):
    """Rows back from rows_to_csv text: the round-trip oracle."""
    header, *records = csv.reader(io.StringIO(text))
    assert tuple(header) == CSV_HEADER
    types = (str, int, int, float, float, str, int, float, float, int)
    return tuple(BenchRow(*(t(x) for t, x in zip(types, rec))) for rec in records)


def _spec(**kw):
    base = dict(family="er", n=12, mb_size=2.0, evidence_fraction=0.4, seed=3)
    base.update(kw)
    return GenSpec(**base)


def test_exact_method_rows_have_zero_error():
    res = run_benchmark([_spec()], methods=("enum",), budgets=(10,), repetitions=3)
    assert res.rejected == ()
    (row,) = res.rows
    assert row.method == "enum"
    assert row.nrmse == pytest.approx(0.0, abs=1e-12)
    assert row.repetitions == 3
    assert row.wall_time_ms > 0.0


def test_row_fields_mirror_spec():
    res = run_benchmark(
        [_spec(family="ws", n=14, mb_size=2.5, evidence_fraction=0.5)],
        methods=("sgs",),
        budgets=(50,),
        repetitions=2,
    )
    (row,) = res.rows
    assert (row.family, row.n, row.categories) == ("ws", 14, 2)
    assert (row.evidence_fraction, row.mb_size) == (0.5, 2.5)
    assert (row.method, row.budget, row.repetitions) == ("sgs", 50, 2)


def test_budget_reduces_error():
    # dense enough that the belief-propagation proposal is not exact, so the
    # error actually depends on the sample budget
    spec = _spec(n=20, mb_size=3.5, evidence_fraction=0.4, seed=9)
    res = run_benchmark(
        [spec], methods=("lbp-is",), budgets=(30, 30000), repetitions=4, n_max=0
    )
    by_budget = {r.budget: r.nrmse for r in res.rows}
    assert by_budget[30000] < by_budget[30]


def test_method_and_budget_grid_shape():
    res = run_benchmark(
        [_spec(), _spec(seed=4)],
        methods=("sgs", "lbp-is"),
        budgets=(20, 40),
        repetitions=2,
    )
    assert len(res.rows) == 2 * 2 * 2
    combos = {(r.method, r.budget) for r in res.rows}
    assert combos == {("sgs", 20), ("sgs", 40), ("lbp-is", 20), ("lbp-is", 40)}


def test_benchmark_is_deterministic_apart_from_timing():
    spec = _spec(seed=12)
    a = run_benchmark([spec], methods=("sgs",), budgets=(40,), repetitions=3, n_max=3)
    b = run_benchmark([spec], methods=("sgs",), budgets=(40,), repetitions=3, n_max=3)
    assert [r.nrmse for r in a.rows] == [r.nrmse for r in b.rows]


def test_reference_infeasible_is_rejected():
    # a tiny clique-table cap knocks out the tree reference, and thirty-odd
    # free binary nodes exceed the enumeration cap too
    spec = _spec(n=30, mb_size=3.0, evidence_fraction=0.1, seed=5)
    res = run_benchmark([spec], methods=("sgs",), budgets=(10,), repetitions=1, table_cap=4)
    assert res.rows == ()
    (rej,) = res.rejected
    assert rej.method is None
    assert "reference" in rej.reason


def test_per_method_capacity_rejection():
    # the reference falls back to enumeration at this size, but the full
    # junction-tree method itself cannot run under the cap
    spec = _spec(n=12, mb_size=3.5, evidence_fraction=0.3, seed=6)
    res = run_benchmark(
        [spec], methods=("jt", "sgs"), budgets=(10,), repetitions=1, table_cap=4
    )
    assert [r.method for r in res.rows] == ["sgs"]
    (rej,) = res.rejected
    assert rej.method == "jt"


def test_argument_validation():
    with pytest.raises(DataFormatError):
        run_benchmark([_spec()], repetitions=0)
    with pytest.raises(DataFormatError):
        run_benchmark([_spec()], budgets=())
    with pytest.raises(DataFormatError):
        run_benchmark([_spec()], budgets=(0,))
    with pytest.raises(DataFormatError):
        run_benchmark([_spec()], methods=())
    for budgets in ((50.5,), (50.0,), (True,), ("50",), "50"):
        with pytest.raises(DataFormatError, match="budgets must be positive integer"):
            run_benchmark([_spec()], budgets=budgets)
    for reps in (1.9, 2.0, True):
        with pytest.raises(DataFormatError, match="repetitions must be an integer"):
            run_benchmark([_spec()], repetitions=reps)


def test_csv_round_trip():
    rows = (
        BenchRow("er", 50, 2, 0.5, 3.3, "sgs", 1000, 12.52, 0.0123456789012345, 10),
        BenchRow("islands", 80, 3, 0.25, 2.0, "gs", 500, 1e-3, 1.5e-7, 4),
    )
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    assert rows_from_csv(text) == rows


def test_gnuplot_output():
    rows = (BenchRow("er", 5, 2, 0.1, 1.5, "sgs", 10, 1.0, 0.5, 2),)
    text = rows_to_gnuplot(rows)
    lines = text.splitlines()
    assert lines[0] == "# " + "\t".join(CSV_HEADER)
    assert lines[1].split("\t") == ["er", "5", "2", "0.1", "1.5", "sgs", "10", "1.0", "0.5", "2"]


def test_load_bench_file():
    text = """
    {
      "specs": [
        {"family": "er", "n": 12, "mb_size": 2.0, "evidence_fraction": 0.4, "seed": 3},
        {"family": "ws", "n": 10, "mb_size": 2.0, "seed": 1}
      ],
      "methods": ["sgs", "gs"],
      "budgets": [100],
      "repetitions": 2
    }
    """
    specs, methods, budgets, reps = load_bench_file(text)
    assert [s.family for s in specs] == ["er", "ws"]
    assert methods == ("sgs", "gs")
    assert budgets == (100,)
    assert reps == 2


def test_load_bench_file_accepts_every_genspec_field():
    spec = GenSpec("ws", 10, 2.0, categories=3, evidence_fraction=0.2, seed=4, islands=2, rewire_prob=0.3)
    # every field off its default, so a field the loader dropped would show
    assert all(getattr(spec, f.name) != f.default for f in dataclasses.fields(GenSpec))
    fields = dataclasses.asdict(spec)
    (got,), _, _, _ = load_bench_file(json.dumps({"specs": [fields]}))
    assert got == spec
    with pytest.raises(DataFormatError, match=r"^specs\[0\] is missing fields \['family', 'mb_size', 'n'\]$"):
        load_bench_file('{"specs": [{"seed": 1}]}')
    with pytest.raises(DataFormatError, match=r"^specs\[0\] has unknown fields \['bogus', 'm'\]$"):
        load_bench_file(json.dumps({"specs": [{**fields, "m": 1, "bogus": 2}]}))


def test_load_bench_file_errors():
    with pytest.raises(DataFormatError):
        load_bench_file("not json at all {")
    with pytest.raises(DataFormatError):
        load_bench_file("[1, 2]")
    with pytest.raises(DataFormatError):
        load_bench_file('{"methods": ["sgs"]}')
    with pytest.raises(DataFormatError):
        load_bench_file('{"specs": [{"family": "er", "n": 10, "mb_size": 2.0, "bogus": 1}]}')
    with pytest.raises(DataFormatError):
        load_bench_file('{"specs": [{"family": "er", "n": 10, "mb_size": 2.0}], "extra": true}')
    spec = '{"family": "er", "n": 10, "mb_size": 2.0}'
    refused = (
        ('"budgets": [50.5]', '"budgets" must be a list of integers'),
        ('"budgets": ["x"]', '"budgets" must be a list of integers'),
        ('"budgets": 7', '"budgets" must be a list of integers'),
        ('"repetitions": 1.9', '"repetitions" must be an integer'),
        ('"repetitions": true', '"repetitions" must be an integer'),
        ('"methods": "sgs"', '"methods" must be a list of method names'),
        ('"methods": [1]', '"methods" must be a list of method names'),
    )
    for field, message in refused:
        with pytest.raises(DataFormatError, match=message):
            load_bench_file(f'{{"specs": [{spec}], {field}}}')
    for entry, message in (
        ('"mb_size": "2.0"', "mb_size must be a number"),
        ('"mb_size": true', "mb_size must be a number"),
        ('"evidence_fraction": "0.2"', "evidence_fraction must be a number"),
        ('"family": ["er"]', "family must be a string"),
    ):
        with pytest.raises(ParameterError, match=message):
            load_bench_file(f'{{"specs": [{{"family": "er", "n": 10, "mb_size": 2.0, {entry}}}]}}')
