import inspect
import json
import subprocess
import sys

import pytest

from bnmarg.bench import run_benchmark
from bnmarg.cli import build_parser, main
from bnmarg.engine import SgsConfig
from bnmarg.netformat import parse_network, serialize_network

from conftest import two_group_network


GOOD = """
variable Rain
  states no yes
  cpt 0.8 0.2
variable Wet
  states no yes
  parents Rain
  cpt 0.9 0.1
  cpt 0.2 0.8
"""


@pytest.fixture
def net_file(tmp_path):
    p = tmp_path / "net.bn"
    p.write_text(GOOD, encoding="utf-8")
    return str(p)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_engine_flag_defaults_are_the_config_defaults():
    cfg = SgsConfig()
    want = {"n_max": cfg.n_max, "samples": cfg.sampler.sample_count, "seed": cfg.sampler.seed}
    parser = build_parser()
    for argv in (
        ["marginal", "--network", "x"],
        ["classify", "--models", "x", "--data", "y", "--out", "z"],
    ):
        args = vars(parser.parse_args(argv))
        assert {k: args[k] for k in want} == want, argv[0]
    assert parser.parse_args(["benchmark", "--spec", "x", "--out", "y"]).n_max == cfg.n_max
    assert inspect.signature(run_benchmark).parameters["n_max"].default == cfg.n_max


def test_validate_ok(capsys, net_file):
    code, out, err = _run(capsys, "validate", "--network", net_file)
    assert code == 0
    assert out == "ok variables=2 edges=1\n"
    assert err == ""


def test_bad_file_gives_json_diagnostic(capsys, tmp_path):
    p = tmp_path / "bad.bn"
    p.write_text("variable A\n states x y\n cpt 0.7 0.7\n", encoding="utf-8")
    code, out, err = _run(capsys, "validate", "--network", str(p))
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "cpt-row-sum"
    assert doc["line"] == 3
    assert "message" in doc


def test_missing_file_is_io_error(capsys, tmp_path):
    code, out, err = _run(capsys, "validate", "--network", str(tmp_path / "nope.bn"))
    assert code == 1
    assert json.loads(err)["error"] == "io"


def test_usage_errors_exit_two(capsys):
    code, _, _ = _run(capsys, "validate")  # missing --network
    assert code == 2
    code, _, _ = _run(capsys, "mystery-command")
    assert code == 2
    code, _, _ = _run(capsys, "marginal", "--network", "x", "--method", "bogus")
    assert code == 2


def test_marginal_exact_value(capsys, net_file):
    code, out, err = _run(
        capsys, "marginal", "--network", net_file, "--evidence", "Wet=yes"
    )
    assert code == 0
    lines = out.splitlines()
    # P(Wet=yes) = 0.8*0.1 + 0.2*0.8 = 0.24
    assert lines[0] == "value 0.24"
    assert lines[1].startswith("log-value ")
    assert lines[2] == "method sgs"
    assert lines[-1].startswith("leftover factor=")


def test_marginal_bad_evidence(capsys, net_file):
    code, _, err = _run(
        capsys, "marginal", "--network", net_file, "--evidence", "Wet=soaked"
    )
    assert code == 1
    assert json.loads(err)["error"] == "argument"
    code, _, err = _run(
        capsys, "marginal", "--network", net_file, "--evidence", "Ghost=yes"
    )
    assert code == 1
    code, _, err = _run(
        capsys, "marginal", "--network", net_file, "--evidence", "Wet=yes,Wet=no"
    )
    assert code == 1


def test_marginal_methods_agree(capsys, tmp_path):
    out_path = tmp_path / "g.bn"
    code, _, _ = _run(
        capsys, "simulate", "--family", "er", "--n", "12", "--mb-size", "2.5",
        "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    ev = "X00=s0,X05=s1"
    values = {}
    for method, extra in (("enum", ()), ("sgs", ("--n-max", "999")), ("jt", ())):
        code, out, _ = _run(
            capsys, "marginal", "--network", str(out_path), "--evidence", ev,
            "--method", method, *extra,
        )
        assert code == 0
        values[method] = float(out.splitlines()[0].split()[1])
    assert values["sgs"] == pytest.approx(values["enum"], rel=1e-9)
    assert values["jt"] == pytest.approx(values["enum"], rel=1e-9)


def test_decompose_output(capsys, tmp_path):
    p = tmp_path / "two.bn"
    p.write_text(serialize_network(two_group_network()), encoding="utf-8")
    code, out, _ = _run(
        capsys, "decompose", "--network", str(p),
        "--evidence", "E=s0,N=s1,O=s0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "relevant A,B,E,G,J,K,L,N,O"
    assert lines[1] == "subset 1 nodes=A,B e-mb=E e-ch=E e-pa="
    assert lines[2] == "subset 2 nodes=G,J,K,L e-mb=E,N,O e-ch=N,O e-pa=E"
    assert lines[3] == "leftover "


def test_simulate_writes_parseable_file(capsys, tmp_path):
    out_path = tmp_path / "sim.bn"
    code, out, _ = _run(
        capsys, "simulate", "--family", "islands", "--n", "20", "--mb-size", "2.0",
        "--categories", "3", "--seed", "5", "--islands", "4", "--out", str(out_path),
    )
    assert code == 0
    assert out.startswith(f"wrote {out_path}: family=islands variables=20 ")
    bn = parse_network(out_path.read_text(encoding="utf-8"))
    assert len(bn.node_ids) == 20
    assert all(c == 3 for c in bn.cardinalities.values())


def test_simulate_refuses_oversized_tables_with_one_error_line(capsys, tmp_path):
    out_path = tmp_path / "big.bn"
    code, out, err = _run(
        capsys, "simulate", "--family", "er", "--n", "60", "--mb-size", "40",
        "--categories", "3", "--out", str(out_path),
    )
    assert code == 1 and out == "" and not out_path.exists()
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "parameter" and "exceed the generator's cap" in doc["message"]


def test_benchmark_command(capsys, tmp_path):
    spec = tmp_path / "bench.json"
    spec.write_text(
        json.dumps(
            {
                "specs": [
                    {"family": "er", "n": 10, "mb_size": 2.0,
                     "evidence_fraction": 0.3, "seed": 2}
                ],
                "methods": ["sgs"],
                "budgets": [50],
                "repetitions": 2,
            }
        ),
        encoding="utf-8",
    )
    out_csv = tmp_path / "rows.csv"
    out_tsv = tmp_path / "rows.tsv"
    code, out, _ = _run(
        capsys, "benchmark", "--spec", str(spec), "--out", str(out_csv),
        "--gnuplot", str(out_tsv),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("row family=er n=10 C=2 ")
    assert "wall" not in out  # timings never reach stdout
    assert lines[-1] == f"wrote {out_csv}: rows=1 rejected=0"
    csv_lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "family,n,C,f,S,method,budget,wall_time_ms,nrmse,rep"
    assert len(csv_lines) == 2
    assert out_tsv.read_text(encoding="utf-8").startswith("# family\tn\t")


def test_benchmark_overrides(capsys, tmp_path):
    spec = tmp_path / "bench.json"
    spec.write_text(
        json.dumps({"specs": [{"family": "er", "n": 8, "mb_size": 2.0, "seed": 1}]}),
        encoding="utf-8",
    )
    out_csv = tmp_path / "rows.csv"
    code, out, _ = _run(
        capsys, "benchmark", "--spec", str(spec), "--out", str(out_csv),
        "--methods", "enum,jt", "--budgets", "10,20", "--reps", "1",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("row ")]
    assert len(rows) == 4  # 2 methods x 2 budgets
    code, _, err = _run(
        capsys, "benchmark", "--spec", str(spec), "--out", str(out_csv),
        "--budgets", "ten",
    )
    assert code == 1
    assert json.loads(err)["error"] == "argument"
    # a fractional node count is a one-line JSON error, not a traceback
    spec.write_text(
        json.dumps({"specs": [{"family": "er", "n": 12.5, "mb_size": 2.0}]}),
        encoding="utf-8",
    )
    code, _, err = _run(capsys, "benchmark", "--spec", str(spec), "--out", str(out_csv))
    assert code == 1
    assert json.loads(err) == {"error": "parameter", "message": "n must be an integer, got 12.5"}
    # a fractional budget is refused, not truncated; a string in a float field too
    for doc, error in (
        (
            {"specs": [{"family": "er", "n": 8, "mb_size": 2.0}], "budgets": [50.5]},
            {"error": "data-format", "message": '"budgets" must be a list of integers, got [50.5]'},
        ),
        (
            {"specs": [{"family": "er", "n": 8, "mb_size": "2.0"}]},
            {"error": "parameter", "message": "mb_size must be a number, got '2.0'"},
        ),
    ):
        spec.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = _run(capsys, "benchmark", "--spec", str(spec), "--out", str(out_csv))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and json.loads(err) == error


def _write_models(tmp_path):
    ma = tmp_path / "ma.bn"
    mb = tmp_path / "mb.bn"
    ma.write_text(
        "variable a\n states x y\n cpt 0.9 0.1\n"
        "variable b\n states x y\n parents a\n cpt 0.9 0.1\n cpt 0.1 0.9\n",
        encoding="utf-8",
    )
    mb.write_text(
        "variable a\n states x y\n cpt 0.1 0.9\n"
        "variable b\n states x y\n parents a\n cpt 0.5 0.5\n cpt 0.5 0.5\n",
        encoding="utf-8",
    )
    return str(ma), str(mb)


def test_classify_command(capsys, tmp_path):
    ma, mb = _write_models(tmp_path)
    data = tmp_path / "data.csv"
    data.write_text(
        "a,b,truth\nx,x,ma\nx,?,ma\ny,y,mb\ny,?,mb\nx,x,ma\ny,x,mb\n",
        encoding="utf-8",
    )
    out_csv = tmp_path / "scored.csv"
    roc = tmp_path / "roc.tsv"
    code, out, _ = _run(
        capsys, "classify", "--models", f"{ma},{mb}", "--data", str(data),
        "--label-column", "truth", "--roc-out", str(roc), "--out", str(out_csv),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"wrote {out_csv}: records=6 scored=6"
    assert lines[1].startswith("accuracy ")
    assert float(lines[1].split()[1]) >= 0.5
    assert lines[2].startswith("auc ")
    rows = out_csv.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "record,predicted,tie,error,post:ma,loglik:ma,post:mb,loglik:mb"
    assert len(rows) == 7
    assert rows[1].split(",")[1] in ("ma", "mb")
    assert roc.read_text(encoding="utf-8").startswith("# fpr\ttpr\n0.0\t0.0\n")


def test_classify_drop_missing_soft_errors(capsys, tmp_path):
    ma, mb = _write_models(tmp_path)
    data = tmp_path / "data.csv"
    # second record misses b, so the complete-data baseline cannot score it
    data.write_text("a,b\nx,x\nx,?\n", encoding="utf-8")
    out_csv = tmp_path / "scored.csv"
    code, out, _ = _run(
        capsys, "classify", "--models", f"{ma},{mb}", "--data", str(data),
        "--drop-missing", "--out", str(out_csv),
    )
    assert code == 0
    assert out.splitlines()[0].endswith("records=2 scored=1")
    rows = out_csv.read_text(encoding="utf-8").splitlines()
    assert rows[2].split(",")[1] == ""  # no prediction
    assert "does not cover" in rows[2]


def test_classify_argument_errors(capsys, tmp_path):
    ma, mb = _write_models(tmp_path)
    data = tmp_path / "data.csv"
    data.write_text("a,b\nx,x\n", encoding="utf-8")
    out_csv = tmp_path / "scored.csv"
    code, _, err = _run(
        capsys, "classify", "--models", f"{ma},{ma}", "--data", str(data),
        "--out", str(out_csv),
    )
    assert code == 1 and json.loads(err)["error"] == "argument"
    code, _, err = _run(
        capsys, "classify", "--models", f"{ma},{mb}", "--data", str(data),
        "--roc-out", str(tmp_path / "r.tsv"), "--out", str(out_csv),
    )
    assert code == 1 and "label-column" in json.loads(err)["message"]


def test_sampled_output_is_reproducible(capsys, tmp_path):
    out_path = tmp_path / "g.bn"
    _run(
        capsys, "simulate", "--family", "ws", "--n", "18", "--mb-size", "3.0",
        "--seed", "8", "--out", str(out_path),
    )
    runs = []
    for _ in range(3):
        code, out, _ = _run(
            capsys, "marginal", "--network", str(out_path),
            "--evidence", "X00=s1,X07=s0,X12=s1", "--method", "sgs",
            "--n-max", "0", "--samples", "300", "--seed", "9",
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]
    assert "samples=" in runs[0] and "weight-variance=" in runs[0]


def test_console_script_entry_point(net_file):
    proc = subprocess.run(
        [sys.executable, "-m", "bnmarg.cli", "validate", "--network", net_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ok variables=2 edges=1\n"
