"""Command-line front end.

Subcommands: validate, marginal, decompose, simulate, benchmark, classify.
Exit codes: 0 success, 1 data or computation error (one JSON diagnostic line
on stderr), 2 command-line usage error.  All primary output is deterministic
for a fixed seed; wall-clock timings only ever appear in benchmark CSV files,
never on stdout.  Floats print with full round-trip precision in both linear
and log scale where underflow is a risk.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import load_bench_file, rows_to_csv, rows_to_gnuplot, run_benchmark
from .classify import classify, classify_drop_missing, roc_auc
from .decompose import decompose
from .engine import METHODS, SgsConfig, marginal
from .errors import ArgumentError, BnmargError, ClassificationError
from .netformat import parse_dataset, parse_network, serialize_network
from .network import validate
from .randnet import FAMILIES, GenSpec, gen_network, mean_markov_blanket
from .sampling import SamplerConfig


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _fmt(x: float) -> str:
    return repr(float(x))


def _names(nodes) -> str:
    return ",".join(str(v) for v in nodes)


def _parse_evidence(bn, spec: str):
    """name=stateName pairs, comma separated, resolved to state indices."""
    evidence = {}
    if not spec or not spec.strip():
        return evidence
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if item.count("=") != 1:
            raise ArgumentError(f"evidence item {item!r} is not name=state")
        name, state = (part.strip() for part in item.split("="))
        if name not in bn.dag:
            raise ArgumentError(f"evidence names unknown variable {name!r}")
        if name in evidence:
            raise ArgumentError(f"evidence repeats variable {name!r}")
        states = bn.state_names[name]
        if state not in states:
            raise ArgumentError(
                f"{state!r} is not a state of {name!r} (states: {', '.join(states)})"
            )
        evidence[name] = states.index(state)
    return evidence


def _sgs_config(args) -> SgsConfig:
    return SgsConfig(
        n_max=args.n_max,
        sampler=SamplerConfig(sample_count=args.samples, seed=args.seed),
    )


def _cmd_validate(args) -> int:
    bn = parse_network(_read_text(args.network))
    violations = validate(bn)
    for v in violations:
        print(f"violation node={v.node} kind={v.kind} row={v.row} detail={v.detail}")
    if violations:
        return 1
    print(f"ok variables={len(bn.node_ids)} edges={len(bn.dag.edges)}")
    return 0


def _cmd_marginal(args) -> int:
    bn = parse_network(_read_text(args.network))
    evidence = _parse_evidence(bn, args.evidence)
    est = marginal(bn, evidence, method=args.method, cfg=_sgs_config(args))
    print(f"value {_fmt(est.value)}")
    print(f"log-value {_fmt(est.log_value)}")
    print(f"method {est.method}")
    for i, rep in enumerate(est.per_subset, start=1):
        parts = [
            f"subset {i}",
            f"nodes={_names(rep.nodes)}",
            f"method={rep.method}",
            f"factor={_fmt(math.exp(rep.log_factor))}",
            f"log-factor={_fmt(rep.log_factor)}",
        ]
        if rep.sample_count is not None:
            parts.append(f"samples={rep.sample_count}")
        if rep.weight_variance is not None:
            parts.append(f"weight-variance={_fmt(rep.weight_variance)}")
        print(" ".join(parts))
    print(
        f"leftover factor={_fmt(math.exp(est.leftover_log))} "
        f"log-factor={_fmt(est.leftover_log)}"
    )
    return 0


def _cmd_decompose(args) -> int:
    bn = parse_network(_read_text(args.network))
    evidence = _parse_evidence(bn, args.evidence)
    dec = decompose(bn, evidence)
    print(f"relevant {_names(dec.relevant_nodes)}")
    for i, (subset, bounds) in enumerate(zip(dec.subsets, dec.boundaries), start=1):
        print(
            f"subset {i} nodes={_names(subset)} "
            f"e-mb={_names(bounds.e_mb)} e-ch={_names(bounds.e_ch)} "
            f"e-pa={_names(bounds.e_pa)}"
        )
    print(f"leftover {_names(dec.leftover_evidence)}")
    return 0


def _cmd_simulate(args) -> int:
    spec = GenSpec(
        family=args.family,
        n=args.n,
        mb_size=args.mb_size,
        categories=args.categories,
        seed=args.seed,
        islands=args.islands,
        rewire_prob=args.rewire_prob,
    )
    bn = gen_network(spec)
    _write_text(args.out, serialize_network(bn))
    print(
        f"wrote {args.out}: family={spec.family} variables={len(bn.node_ids)} "
        f"edges={len(bn.dag.edges)} mean-mb={_fmt(mean_markov_blanket(bn.dag))}"
    )
    return 0


def _cmd_benchmark(args) -> int:
    specs, methods, budgets, repetitions = load_bench_file(_read_text(args.spec))
    if args.methods:
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if args.budgets:
        try:
            budgets = tuple(int(b) for b in args.budgets.split(",") if b.strip())
        except ValueError:
            raise ArgumentError(f"budgets must be integers: {args.budgets!r}") from None
    if args.reps is not None:
        repetitions = args.reps
    result = run_benchmark(
        specs, methods=methods, budgets=budgets, repetitions=repetitions, n_max=args.n_max
    )
    _write_text(args.out, rows_to_csv(result.rows))
    if args.gnuplot:
        _write_text(args.gnuplot, rows_to_gnuplot(result.rows))
    for r in result.rows:
        print(
            f"row family={r.family} n={r.n} C={r.categories} "
            f"f={_fmt(r.evidence_fraction)} S={_fmt(r.mb_size)} method={r.method} "
            f"budget={r.budget} nrmse={_fmt(r.nrmse)} reps={r.repetitions}"
        )
    for rej in result.rejected:
        method = rej.method if rej.method is not None else "-"
        print(
            f"rejected family={rej.spec.family} n={rej.spec.n} "
            f"seed={rej.spec.seed} method={method} reason={rej.reason}"
        )
    print(f"wrote {args.out}: rows={len(result.rows)} rejected={len(result.rejected)}")
    return 0


def _cmd_classify(args) -> int:
    paths = [p.strip() for p in args.models.split(",") if p.strip()]
    if not paths:
        raise ArgumentError("no model files given")
    models = []
    seen = set()
    for path in paths:
        name = path.rsplit("/", 1)[-1]
        name = name.rsplit(".", 1)[0] if "." in name else name
        if name in seen:
            raise ArgumentError(f"duplicate model name {name!r}; rename the files")
        seen.add(name)
        models.append((name, parse_network(_read_text(path))))
    if args.roc_out and not args.label_column:
        raise ArgumentError("--roc-out needs --label-column")

    dataset = parse_dataset(_read_text(args.data))
    exclude = (args.label_column,) if args.label_column else ()
    if args.label_column and args.label_column not in dataset.columns:
        raise ArgumentError(f"label column {args.label_column!r} not in data header")
    records = dataset.records(exclude=exclude)
    labels = dataset.column(args.label_column) if args.label_column else None
    cfg = _sgs_config(args)

    model_names = [name for name, _ in models]
    header = ["record", "predicted", "tie", "error"]
    for name in model_names:
        header.append(f"post:{name}")
        header.append(f"loglik:{name}")
    out_lines = [",".join(header)]
    results = []
    for i, record in enumerate(records):
        try:
            if args.drop_missing:
                res = classify_drop_missing(record, models)
            else:
                res = classify(record, models, cfg)
        except ClassificationError as exc:
            results.append(None)
            out_lines.append(
                ",".join([str(i), "", "", json.dumps(str(exc))] + [""] * (2 * len(models)))
            )
            continue
        results.append(res)
        row = [str(i), res.predicted, "1" if res.tie else "0", ""]
        for post, score in zip(res.posteriors, res.scores):
            row.append(_fmt(post))
            row.append(_fmt(score.log_likelihood))
        out_lines.append(",".join(row))
    _write_text(args.out, "\n".join(out_lines) + "\n")

    scored = sum(1 for r in results if r is not None)
    print(f"wrote {args.out}: records={len(records)} scored={scored}")
    if labels is not None:
        pairs = [
            (res, lab)
            for res, lab in zip(results, labels)
            if res is not None and lab != "?"
        ]
        if pairs:
            hits = sum(1 for res, lab in pairs if res.predicted == lab)
            print(f"accuracy {_fmt(hits / len(pairs))}")
        if args.roc_out:
            positive = sorted({lab for _, lab in pairs})[-1] if pairs else None
            if positive is None or positive not in model_names:
                raise ArgumentError(
                    "ROC needs labels that match model names; "
                    f"got positive label {positive!r}"
                )
            pi = model_names.index(positive)
            roc = roc_auc(
                [res.posteriors[pi] for res, _ in pairs],
                [lab == positive for _, lab in pairs],
            )
            lines = ["# fpr\ttpr"] + [f"{_fmt(x)}\t{_fmt(y)}" for x, y in roc.points]
            _write_text(args.roc_out, "\n".join(lines) + "\n")
            print(f"auc {_fmt(roc.auc)}")
    return 0


def _add_engine_flags(p):
    defaults = SgsConfig()
    p.add_argument("--n-max", type=int, default=defaults.n_max, help="exact-inference size threshold")
    p.add_argument("--samples", type=int, default=defaults.sampler.sample_count, help="sample budget")
    p.add_argument("--seed", type=int, default=defaults.sampler.seed, help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnmarg",
        description="Marginal evidence probabilities in categorical Bayesian networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file's tables")
    p.add_argument("--network", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("marginal", help="estimate the evidence probability")
    p.add_argument("--network", required=True)
    p.add_argument("--evidence", default="", help="name=state pairs, comma separated")
    p.add_argument("--method", default="sgs", choices=METHODS)
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_marginal)

    p = sub.add_parser("decompose", help="show subsets and boundary evidence")
    p.add_argument("--network", required=True)
    p.add_argument("--evidence", default="", help="name=state pairs, comma separated")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("simulate", help="generate a random network file")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mb-size", type=float, required=True, help="target mean Markov blanket size")
    p.add_argument("--categories", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--islands", type=int, default=3)
    p.add_argument("--rewire-prob", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("benchmark", help="accuracy/time sweep over random networks")
    p.add_argument("--spec", required=True, help="JSON benchmark description")
    p.add_argument("--methods", default="", help="override: comma separated")
    p.add_argument("--budgets", default="", help="override: comma separated sample counts")
    p.add_argument("--reps", type=int, default=None, help="override: repetitions")
    p.add_argument("--n-max", type=int, default=SgsConfig().n_max)
    p.add_argument("--out", required=True, help="CSV result path")
    p.add_argument("--gnuplot", default="", help="optional TSV result path")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("classify", help="score incomplete records against model files")
    p.add_argument("--models", required=True, help="comma separated network files")
    p.add_argument("--data", required=True, help="CSV with a header row; ? marks missing")
    p.add_argument(
        "--drop-missing",
        action="store_true",
        help="treat models as reduced models and score complete-data joints",
    )
    p.add_argument("--label-column", default="", help="truth column for accuracy/ROC")
    p.add_argument("--roc-out", default="", help="write ROC points here (needs labels)")
    p.add_argument("--out", required=True, help="CSV result path")
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_classify)
    return parser


def _error_line(exc: BnmargError) -> str:
    doc = {"error": exc.code, "message": str(exc)}
    line = getattr(exc, "line", None)
    col = getattr(exc, "col", None)
    if line is not None:
        doc["line"] = line
    if col is not None:
        doc["col"] = col
    cycle = getattr(exc, "cycle", None)
    if cycle:
        doc["cycle"] = [str(v) for v in cycle]
    return json.dumps(doc, sort_keys=True)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except BnmargError as exc:
        sys.stderr.write(_error_line(exc) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io", "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
