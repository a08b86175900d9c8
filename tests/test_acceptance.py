"""Release gates for the whole package, run as one pytest module.

Unlike the unit suites, these drive large randomized corpora end to end and
print one verdict line per gate on the real stdout, so a full run leaves a
visible scorecard even under pytest's output capture.  Every gate states its
measured numbers in the verdict line; a FAIL line is printed before the
assertion fires.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from bnmarg.classify import PartialRecord, classify, classify_drop_missing, roc_auc
from bnmarg.cli import main
from bnmarg.decompose import find_subsets, relevant_subgraph
from bnmarg.engine import SgsConfig, marginal, marginal_sgs
from bnmarg.errors import (
    CapacityError,
    CptLengthError,
    CptRowSumError,
    CptValueError,
    DuplicateParentError,
    DuplicateStateError,
    DuplicateVariableError,
    EmptyDocumentError,
    NetworkCycleError,
    NetworkSyntaxError,
    NumberFormatError,
    StateCountError,
    UnresolvedParentError,
)
from bnmarg.graphs import Dag
from bnmarg.netformat import parse_network, serialize_network
from bnmarg.network import (
    CategoricalBN,
    derive_seed,
    log_enumerate_marginal,
    sample_forward,
)
from bnmarg.randnet import GenSpec, gen_network, pick_evidence
from bnmarg.sampling import SamplerConfig

import conftest
from conftest import path_d_separated, rand_dag


def _verdict(gate: str, ok: bool, detail: str) -> None:
    line = f"GATE {gate}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.GATE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


def _evidence_for(bn, spec: GenSpec):
    """Evidence drawn the same way the benchmark harness draws it."""
    return pick_evidence(bn, spec.evidence_fraction, derive_seed(spec.seed, 2))


def _nrmse(estimates, truth: float) -> float:
    a = np.asarray(estimates, dtype=float)
    return math.sqrt(float(np.mean((a - truth) ** 2))) / truth


# ---------------------------------------------------------------------------
# gates 1 and 2: exactness against brute-force enumeration
# ---------------------------------------------------------------------------

FRACTIONS = (0.25, 0.5, 0.75)
SMALL_FAMILIES = ("er", "ba", "ws", "islands")


@pytest.fixture(scope="module")
def small_corpus():
    """200 networks small enough to enumerate, with evidence; plus a cache
    that lets the two exactness gates share the enumeration results."""
    out = []
    for i in range(200):
        spec = GenSpec(
            family=SMALL_FAMILIES[i % 4],
            n=8 + i % 7,
            mb_size=2.5,
            categories=2 + i % 2,
            evidence_fraction=FRACTIONS[i % 3],
            seed=i,
        )
        bn = gen_network(spec)
        e = _evidence_for(bn, spec)
        assert e, "corpus instance without evidence"
        out.append((bn, e))
    return {"instances": out, "enum": {}}


def _enum_value(small_corpus, idx: int) -> float:
    cache = small_corpus["enum"]
    if idx not in cache:
        bn, e = small_corpus["instances"][idx]
        cache[idx] = math.exp(log_enumerate_marginal(bn, e))
    return cache[idx]


def test_gate_01_sgs_with_unbounded_threshold_is_exact(small_corpus):
    t0 = time.perf_counter()
    cfg = SgsConfig(n_max=10**6)
    worst = 0.0
    for idx, (bn, e) in enumerate(small_corpus["instances"]):
        truth = _enum_value(small_corpus, idx)
        got = marginal(bn, e, "sgs", cfg).value
        worst = max(worst, abs(got - truth) / truth)
    elapsed = time.perf_counter() - t0
    _verdict(
        "01 sgs-exactness",
        worst <= 1e-9 and elapsed < 120.0,
        f"200 networks, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_gate_02_junction_tree_matches_enumeration(small_corpus):
    worst = 0.0
    for idx, (bn, e) in enumerate(small_corpus["instances"]):
        truth = _enum_value(small_corpus, idx)
        got = marginal(bn, e, "jt").value
        worst = max(worst, abs(got - truth) / truth)
    _verdict("02 jt-exactness", worst <= 1e-9, f"200 networks, max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# gate 3: the emitted decomposition is certified by an independent oracle
# ---------------------------------------------------------------------------


def _uniform_bn(dag: Dag) -> CategoricalBN:
    cpts = {
        v: np.full((2 ** len(dag.parents(v)), 2), 0.5) for v in dag.node_ids
    }
    return CategoricalBN(dag, {v: 2 for v in dag.node_ids}, cpts)


def _oracle_ancestral(dag: Dag, e) -> Dag:
    """Evidence plus ancestors, rebuilt without the library's pruning code."""
    keep, stack = set(e), list(e)
    while stack:
        for p in dag.parents(stack.pop()):
            if p not in keep:
                keep.add(p)
                stack.append(p)
    nodes = tuple(v for v in dag.node_ids if v in keep)
    edges = [(u, v) for (u, v) in dag.edges if u in keep and v in keep]
    return Dag(nodes, edges)


def _emitted_partition(bn: CategoricalBN, e) -> list:
    return find_subsets(relevant_subgraph(bn, e).dag, e)[0]


def test_gate_03_decomposition_is_certified():
    pair_checks = 0
    failures = 0
    for i in range(500):
        rng = np.random.default_rng(i)
        n = 4 + i % 12
        dag = rand_dag(rng, n, 2.5 / n)
        k = 1 + int(rng.integers(max(1, n // 3)))
        e = {dag.node_ids[j] for j in rng.choice(n, size=k, replace=False)}
        bn = _uniform_bn(dag)
        subsets = _emitted_partition(bn, e)

        label = {}
        for si, s in enumerate(subsets):
            for v in s:
                label[v] = si
        dag_r = _oracle_ancestral(dag, e)
        hidden = [v for v in dag_r.node_ids if v not in e]
        if sorted(label) != sorted(hidden):
            failures += 1
            continue
        for a in range(len(hidden)):
            for b in range(a + 1, len(hidden)):
                x, y = hidden[a], hidden[b]
                separated = path_d_separated(dag_r, [x], [y], e)
                pair_checks += 1
                if (label[x] == label[y]) == separated:
                    failures += 1

        # the partition must not depend on node identities or their order
        base = {frozenset(s) for s in subsets}
        for t in range(10):
            prng = np.random.default_rng((i, t))
            perm = prng.permutation(n)
            rename = {dag.node_ids[perm[pos]]: f"m{pos:03d}" for pos in range(n)}
            inverse = {w: v for v, w in rename.items()}
            dag2 = Dag(
                tuple(f"m{pos:03d}" for pos in range(n)),
                [(rename[u], rename[v]) for (u, v) in dag.edges],
            )
            got = _emitted_partition(_uniform_bn(dag2), {rename[v] for v in e})
            mapped = {frozenset(inverse[w] for w in s) for s in got}
            if mapped != base:
                failures += 1
    _verdict(
        "03 decomposition",
        failures == 0,
        f"500 instances, {pair_checks} oracle pair checks, "
        f"10 relabelings each, {failures} failures",
    )


# ---------------------------------------------------------------------------
# gate 4: sampled estimates are unbiased on mixed exact/sampled instances
# ---------------------------------------------------------------------------


def test_gate_04_mixed_instances_are_unbiased():
    chosen = []
    seed = 0
    while len(chosen) < 20 and seed < 200:
        spec = GenSpec(
            family="er", n=30, mb_size=3.0, evidence_fraction=0.5, seed=seed
        )
        bn = gen_network(spec)
        e = _evidence_for(bn, spec)
        probe = marginal_sgs(
            bn, e, SgsConfig(n_max=3, sampler=SamplerConfig(sample_count=50, seed=0))
        )
        if {s.method for s in probe.per_subset} == {"exact", "approx"}:
            chosen.append((bn, e))
        seed += 1
    assert len(chosen) == 20, f"only {len(chosen)} mixed instances in 200 seeds"

    within = 0
    worst = 0.0
    for bn, e in chosen:
        truth = math.exp(marginal(bn, e, "jt").log_value)
        runs = [
            marginal_sgs(
                bn,
                e,
                SgsConfig(n_max=3, sampler=SamplerConfig(sample_count=2000, seed=r)),
            ).value
            for r in range(200)
        ]
        mean = float(np.mean(runs))
        se = float(np.std(runs, ddof=1)) / math.sqrt(len(runs))
        z = abs(mean - truth) / se
        worst = max(worst, z)
        if z <= 4.0:
            within += 1
    _verdict(
        "04 unbiasedness",
        within >= 19,
        f"{within}/20 instances within 4 SE over 200 runs each, worst z {worst:.2f}",
    )


# ---------------------------------------------------------------------------
# gates 5 and 6: variance reduction and method ordering on one ER corpus
# ---------------------------------------------------------------------------

RUN_METHODS = ("sgs", "lbp-is", "gs")


@pytest.fixture(scope="module")
def er50_runs():
    """100 ER instances with 12 repeated estimates per method at budget 500."""
    out = []
    for seed in range(100):
        spec = GenSpec(
            family="er", n=50, mb_size=3.3, evidence_fraction=0.5, seed=seed
        )
        bn = gen_network(spec)
        e = _evidence_for(bn, spec)
        truth = math.exp(marginal(bn, e, "jt").log_value)
        runs = {
            m: [
                marginal(
                    bn,
                    e,
                    m,
                    SgsConfig(sampler=SamplerConfig(sample_count=500, seed=1000 + r)),
                ).value
                for r in range(12)
            ]
            for m in RUN_METHODS
        }
        out.append((truth, runs))
    return out


def test_gate_05_subset_scheme_reduces_variance(er50_runs):
    wins = sum(
        float(np.var(runs["sgs"])) <= float(np.var(runs["lbp-is"]))
        for _, runs in er50_runs
    )
    _verdict(
        "05 variance-reduction",
        wins >= 95,
        f"var(sgs) <= var(lbp-is) in {wins}/100 instances at equal budget",
    )


def test_gate_06_error_ordering_across_methods(er50_runs):
    per_method = {m: [] for m in RUN_METHODS}
    chain = 0
    for truth, runs in er50_runs:
        errs = {m: _nrmse(runs[m], truth) for m in RUN_METHODS}
        for m in RUN_METHODS:
            per_method[m].append(errs[m])
        if errs["sgs"] <= errs["lbp-is"] <= errs["gs"]:
            chain += 1
    med = {m: float(np.median(per_method[m])) for m in RUN_METHODS}
    ok = med["sgs"] <= med["lbp-is"] <= med["gs"] and chain >= 70
    _verdict(
        "06 method-ordering",
        ok,
        f"median NRMSE sgs {med['sgs']:.2e} <= lbp-is {med['lbp-is']:.2e} "
        f"<= gs {med['gs']:.2e}; full chain in {chain}/100 instances",
    )


# ---------------------------------------------------------------------------
# gate 7: the variance relation survives other graph families, and the
# island family profits the most
# ---------------------------------------------------------------------------

OTHER_FAMILIES = ("ba", "ws", "islands")


def _family_spec(family: str, mb_size: float, seed: int) -> GenSpec:
    kwargs = {"islands": 5} if family == "islands" else {}
    return GenSpec(
        family=family,
        n=50,
        mb_size=mb_size,
        evidence_fraction=0.5,
        seed=seed,
        **kwargs,
    )


def test_gate_07_family_robustness():
    # part one: the variance relation, per family, at the gate-5 settings
    hold_counts = {}
    for family in OTHER_FAMILIES:
        wins = 0
        for seed in range(60):
            spec = _family_spec(family, 3.3, seed)
            bn = gen_network(spec)
            e = _evidence_for(bn, spec)
            per = {}
            for m in ("sgs", "lbp-is"):
                per[m] = [
                    marginal(
                        bn,
                        e,
                        m,
                        SgsConfig(
                            sampler=SamplerConfig(sample_count=500, seed=1000 + r)
                        ),
                    ).value
                    for r in range(8)
                ]
            if float(np.var(per["sgs"])) <= float(np.var(per["lbp-is"])):
                wins += 1
        hold_counts[family] = wins

    # part two: the size of the advantage, measured on denser draws where the
    # whole-graph sampler has to work and the decomposition still solves the
    # islands exactly; the advantage ratio must peak on the island family
    ratios = {}
    for family in OTHER_FAMILIES:
        per_instance = []
        seed = 0
        used = 0
        while used < 40 and seed < 80:
            spec = _family_spec(family, 8.0, seed)
            seed += 1
            bn = gen_network(spec)
            e = _evidence_for(bn, spec)
            try:
                truth = math.exp(marginal(bn, e, "jt").log_value)
            except CapacityError:
                continue
            used += 1
            errs = {}
            for m in ("sgs", "lbp-is"):
                runs = [
                    marginal(
                        bn,
                        e,
                        m,
                        SgsConfig(
                            sampler=SamplerConfig(sample_count=500, seed=1000 + r)
                        ),
                    ).value
                    for r in range(8)
                ]
                errs[m] = _nrmse(runs, truth)
            # an exact decomposition can reproduce the reference to the last
            # bit; its advantage over the sampler is then unbounded
            if errs["sgs"] == 0.0:
                per_instance.append(math.inf if errs["lbp-is"] > 0.0 else 1.0)
            else:
                per_instance.append(errs["lbp-is"] / errs["sgs"])
        assert used == 40, f"{family}: only {used} feasible dense instances"
        ratios[family] = float(np.median(per_instance))

    relation_ok = all(v >= 57 for v in hold_counts.values())
    peak_ok = ratios["islands"] > ratios["ba"] and ratios["islands"] > ratios["ws"]
    held = ", ".join(f"{f} {hold_counts[f]}/60" for f in OTHER_FAMILIES)
    adv = ", ".join(f"{f} {ratios[f]:.3g}" for f in OTHER_FAMILIES)
    _verdict(
        "07 family-robustness",
        relation_ok and peak_ok,
        f"variance relation held: {held}; advantage ratios: {adv}",
    )


# ---------------------------------------------------------------------------
# gate 8: marginalizing masked variables beats dropping them
# ---------------------------------------------------------------------------


def _fit_reduced(bn: CategoricalBN, keep, samples) -> CategoricalBN:
    """Maximum-likelihood fit (with add-one smoothing) of the induced
    sub-network on the kept variables, from complete sample records."""
    keep = [v for v in bn.node_ids if v in keep]
    kset = set(keep)
    dag = Dag(keep, [(u, v) for (u, v) in bn.dag.edges if u in kset and v in kset])
    cards = {v: bn.cardinalities[v] for v in keep}
    cpts = {}
    for v in keep:
        ps = list(dag.parents(v))
        rows = 1
        for p in ps:
            rows *= cards[p]
        strides = [1] * len(ps)
        for i in range(len(ps) - 2, -1, -1):
            strides[i] = strides[i + 1] * cards[ps[i + 1]]
        counts = np.ones((rows, cards[v]), dtype=float)
        for rec in samples:
            row = sum(s * rec[p] for p, s in zip(ps, strides))
            counts[row, rec[v]] += 1.0
        cpts[v] = counts / counts.sum(axis=1, keepdims=True)
    return CategoricalBN(dag, cards, cpts, {v: bn.state_names[v] for v in keep})


def test_gate_08_classification_with_missing_variables():
    acc = {"marg": [], "drop": []}
    auc = {"marg": [], "drop": []}
    for s in range(10):
        ss = np.random.SeedSequence(880 + s)
        ka, kb, km, kf = [int(x) % 2**31 for x in ss.generate_state(4, np.uint64)]
        model_a = gen_network(GenSpec(family="er", n=30, mb_size=4.5, seed=ka))
        model_b = gen_network(GenSpec(family="er", n=30, mb_size=4.5, seed=kb))
        nodes = list(model_a.node_ids)
        rng = np.random.default_rng(km)
        masked = {nodes[i] for i in rng.choice(len(nodes), size=12, replace=False)}
        observed = [v for v in nodes if v not in masked]

        records = [(r, 0) for r in sample_forward(model_a, 200, kf)]
        records += [(r, 1) for r in sample_forward(model_b, 200, kf + 1)]
        models = [("a", model_a), ("b", model_b)]
        reduced = [
            ("a", _fit_reduced(model_a, observed, sample_forward(model_a, 300, kf + 2))),
            ("b", _fit_reduced(model_b, observed, sample_forward(model_b, 300, kf + 3))),
        ]

        hits = {"marg": 0, "drop": 0}
        scores = {"marg": [], "drop": []}
        labels = [label for _, label in records]
        for rec, label in records:
            pr = PartialRecord(
                {v: model_a.state_names[v][rec[v]] for v in observed},
                frozenset(masked),
            )
            for tag, res in (
                ("marg", classify(pr, models)),
                ("drop", classify_drop_missing(pr, reduced)),
            ):
                hits[tag] += int((0 if res.predicted == "a" else 1) == label)
                scores[tag].append(res.posteriors[1])
        for tag in ("marg", "drop"):
            acc[tag].append(hits[tag] / len(records))
            auc[tag].append(roc_auc(scores[tag], labels).auc)

    mean_m, mean_d = float(np.mean(acc["marg"])), float(np.mean(acc["drop"]))
    auc_wins = sum(a >= d for a, d in zip(auc["marg"], auc["drop"]))
    _verdict(
        "08 classification",
        mean_m > mean_d and auc_wins >= 7,
        f"mean accuracy {mean_m:.4f} vs {mean_d:.4f} dropped; "
        f"AUC at least as good in {auc_wins}/10 seeds",
    )


# ---------------------------------------------------------------------------
# gate 9: command line output is reproducible byte for byte
# ---------------------------------------------------------------------------


def test_gate_09_cli_is_deterministic(tmp_path, capsys):
    net30 = tmp_path / "net30.bn"
    net10 = tmp_path / "net10.bn"
    model_a = tmp_path / "ma.bn"
    model_b = tmp_path / "mb.bn"
    spec_path = tmp_path / "bench.json"
    bench_csv = tmp_path / "bench.csv"
    scores_csv = tmp_path / "scores.csv"
    roc_tsv = tmp_path / "roc.tsv"
    data_csv = tmp_path / "records.csv"

    spec_path.write_text(
        json.dumps(
            {
                "specs": [
                    {
                        "family": "er",
                        "n": 12,
                        "mb_size": 2.5,
                        "evidence_fraction": 0.5,
                        "seed": 1,
                    },
                    {
                        "family": "ws",
                        "n": 12,
                        "mb_size": 2.5,
                        "evidence_fraction": 0.5,
                        "seed": 2,
                    },
                ],
                "methods": ["sgs", "lbp-is"],
                "budgets": [200],
                "repetitions": 3,
            }
        )
    )

    # model and data files for the classification command
    for path, seed in ((model_a, 21), (model_b, 22)):
        code = main(
            [
                "simulate", "--family", "er", "--n", "8", "--mb-size", "2.0",
                "--seed", str(seed), "--out", str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
    bn_a = parse_network(model_a.read_text())
    bn_b = parse_network(model_b.read_text())
    rows = [",".join(map(str, bn_a.node_ids)) + ",truth"]
    for j, rec in enumerate(sample_forward(bn_a, 6, 5)):
        cells = [
            "?" if (j + k) % 3 == 0 else bn_a.state_names[v][rec[v]]
            for k, v in enumerate(bn_a.node_ids)
        ]
        rows.append(",".join(cells) + ",ma")
    for j, rec in enumerate(sample_forward(bn_b, 6, 6)):
        cells = [
            "?" if (j + k) % 3 == 1 else bn_b.state_names[v][rec[v]]
            for k, v in enumerate(bn_b.node_ids)
        ]
        rows.append(",".join(cells) + ",mb")
    data_csv.write_text("\n".join(rows) + "\n")

    # build the evidence strings from the simulated networks themselves
    code = main(
        [
            "simulate", "--family", "islands", "--n", "30", "--mb-size", "3.0",
            "--seed", "7", "--out", str(net30),
        ]
    )
    capsys.readouterr()
    assert code == 0
    code = main(
        [
            "simulate", "--family", "er", "--n", "10", "--mb-size", "2.5",
            "--seed", "8", "--out", str(net10),
        ]
    )
    capsys.readouterr()
    assert code == 0

    def evidence_arg(path, fraction, seed):
        bn = parse_network(path.read_text())
        ev = pick_evidence(bn, fraction, seed)
        return ",".join(f"{v}={bn.state_names[v][s]}" for v, s in ev.items())

    ev30 = evidence_arg(net30, 0.2, 5)
    ev10 = evidence_arg(net10, 0.3, 5)

    invocations = [
        (
            [
                "simulate", "--family", "islands", "--n", "30", "--mb-size", "3.0",
                "--seed", "7", "--out", str(net30),
            ],
            [net30],
        ),
        (["validate", "--network", str(net30)], []),
        (
            [
                "marginal", "--network", str(net30), "--evidence", ev30,
                "--method", "sgs", "--n-max", "2", "--samples", "400", "--seed", "3",
            ],
            [],
        ),
        (["marginal", "--network", str(net30), "--evidence", ev30, "--method", "jt"], []),
        (
            [
                "marginal", "--network", str(net30), "--evidence", ev30,
                "--method", "lbp-is", "--samples", "400", "--seed", "3",
            ],
            [],
        ),
        (
            [
                "marginal", "--network", str(net30), "--evidence", ev30,
                "--method", "gs", "--samples", "300", "--seed", "4",
            ],
            [],
        ),
        (["marginal", "--network", str(net10), "--evidence", ev10, "--method", "enum"], []),
        (["decompose", "--network", str(net30), "--evidence", ev30], []),
        (
            [
                "benchmark", "--spec", str(spec_path), "--out", str(bench_csv),
            ],
            [],  # the CSV holds wall-clock times; the printed table is the output
        ),
        (
            [
                "classify", "--models", f"{model_a},{model_b}", "--data", str(data_csv),
                "--label-column", "truth", "--roc-out", str(roc_tsv),
                "--out", str(scores_csv),
            ],
            [scores_csv, roc_tsv],
        ),
    ]

    checked = 0
    for argv, out_files in invocations:
        seen = []
        for _ in range(3):
            code = main(argv)
            captured = capsys.readouterr()
            seen.append(
                (
                    code,
                    captured.out,
                    captured.err,
                    tuple(p.read_bytes() for p in out_files),
                )
            )
        assert seen[0][0] == 0, f"exit {seen[0][0]} for {argv}"
        if not (seen[0] == seen[1] == seen[2]):
            _verdict("09 cli-determinism", False, f"diverged: {argv}")
        checked += 1
    _verdict(
        "09 cli-determinism",
        checked == len(invocations),
        f"{checked} invocations, 3 runs each, identical output and exit codes",
    )


# ---------------------------------------------------------------------------
# gate 10: file format round trips and rejects malformed input precisely
# ---------------------------------------------------------------------------

MALFORMED = [
    ("empty file", "", EmptyDocumentError),
    ("directive before any variable", "states x y\n", NetworkSyntaxError),
    (
        "unknown keyword",
        "variable A\n states x y\n cpt 0.5 0.5\nfrobnicate 3\n",
        NetworkSyntaxError,
    ),
    ("states after cpt", "variable A\n cpt 0.5 0.5\n states x y\n", NetworkSyntaxError),
    (
        "parent defined after use",
        "variable A\n parents B\n states x y\n cpt 0.5 0.5\n cpt 0.5 0.5\n"
        "variable B\n states x y\n cpt 0.5 0.5\n",
        NetworkSyntaxError,
    ),
    (
        "two parents lines",
        "variable B\n states x y\n cpt 0.5 0.5\n"
        "variable A\n parents B\n parents B\n states x y\n cpt 0.5 0.5\n cpt 0.5 0.5\n",
        NetworkSyntaxError,
    ),
    (
        "variable is its own parent",
        "variable A\n parents A\n states x y\n cpt 0.5 0.5\n cpt 0.5 0.5\n",
        NetworkSyntaxError,
    ),
    (
        "variable declared twice",
        "variable A\n states x y\n cpt 0.5 0.5\n"
        "variable A\n states x y\n cpt 0.5 0.5\n",
        DuplicateVariableError,
    ),
    (
        "state named twice",
        "variable A\n states x x\n cpt 0.5 0.5\n",
        DuplicateStateError,
    ),
    ("single state", "variable A\n states onlyone\n cpt 1.0\n", StateCountError),
    (
        "unknown parent",
        "variable A\n states x y\n parents Ghost\n cpt 0.5 0.5\n cpt 0.5 0.5\n",
        UnresolvedParentError,
    ),
    (
        "parent repeated in one line",
        "variable A\n states x y\n parents B B\n cpt 0.5 0.5\n cpt 0.5 0.5\n"
        "variable B\n states x y\n cpt 0.5 0.5\n",
        DuplicateParentError,
    ),
    ("row too long", "variable A\n states x y\n cpt 0.5 0.5 0.5\n", CptLengthError),
    ("row too short", "variable A\n states x y\n cpt 0.5\n", CptLengthError),
    (
        "missing second row",
        "variable B\n states x y\n cpt 0.5 0.5\n"
        "variable A\n states x y\n parents B\n cpt 0.5 0.5\n",
        CptLengthError,
    ),
    ("probability above one", "variable A\n states x y\n cpt 2.0 -1.0\n", CptValueError),
    ("row sum far off", "variable A\n states x y\n cpt 0.7 0.7\n", CptRowSumError),
    (
        "leading entries exceed one",
        "variable A\n states x y z\n cpt 0.6 0.4000004 0.0\n",
        CptRowSumError,
    ),
    (
        "word instead of number",
        "variable A\n states x y\n cpt 0.5 half\n",
        NumberFormatError,
    ),
    (
        "two-variable cycle",
        "variable A\n states x y\n parents B\n cpt 0.5 0.5\n cpt 0.5 0.5\n"
        "variable B\n states x y\n parents A\n cpt 0.5 0.5\n cpt 0.5 0.5\n",
        NetworkCycleError,
    ),
]


def test_gate_10_format_round_trip_and_rejection(tmp_path):
    fixed = 0
    for i in range(200):
        family = SMALL_FAMILIES[i % 4]
        n = 5 + i % 26
        kwargs = {"islands": 2} if family == "islands" and n < 6 else {}
        spec = GenSpec(
            family=family,
            n=n,
            mb_size=2.2,
            categories=2 + i % 2,
            seed=3000 + i,
            **kwargs,
        )
        bn = gen_network(spec)
        once = serialize_network(bn)
        again = serialize_network(parse_network(once))
        if once == again:
            fixed += 1

    rejected = 0
    for j, (name, text, expected) in enumerate(MALFORMED):
        path = tmp_path / f"bad{j:02d}.bn"
        path.write_text(text)
        try:
            parse_network(path.read_text())
        except expected:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 - report the wrong class
            _verdict(
                "10 file-format", False, f"{name!r} raised {type(exc).__name__}"
            )
        else:
            _verdict("10 file-format", False, f"{name!r} parsed without error")
    _verdict(
        "10 file-format",
        fixed == 200 and rejected == len(MALFORMED),
        f"{fixed}/200 serialize-parse-serialize fixed points, "
        f"{rejected}/{len(MALFORMED)} malformed files rejected with the right class",
    )
