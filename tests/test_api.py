"""The package's public surface: ``__all__`` and README's library section."""

import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import bnmarg
from bnmarg.randnet import FAMILIES, FAMILY_ALIASES, GenSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in bnmarg.__all__ if not hasattr(bnmarg, name)]
    assert missing == []
    assert len(set(bnmarg.__all__)) == len(bnmarg.__all__)


def test_readme_library_imports_still_import():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") : text.index("## Command line")]
    imported = re.findall(r"^from bnmarg import (.+)$", section, re.MULTILINE)
    assert imported, "README's library section shows no import"
    for names in imported:
        exec(f"from bnmarg import {names}", {})
        for name in names.split(","):
            assert name.strip() in bnmarg.__all__


def _readme_section(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(heading) + len(heading)
    return text[start : start + re.search(r"^##", text[start:], re.MULTILINE).start()]


def test_readme_network_format_example_parses():
    section = _readme_section("### Network file format")
    example = section.split("```")[1]
    bn = bnmarg.parse_network(example)
    assert bn.node_ids == ("Rain", "Wet")
    assert bn.dag.parents("Wet") == ("Rain",)
    assert bn.cpts["Wet"][:, 0].tolist() == [0.9, 0.2]  # one row per Rain state
    # README: a parent may be declared after the variables that use it
    blocks = example.split("\n\n")
    later = bnmarg.parse_network("\n\n".join(reversed(blocks)))
    assert bnmarg.serialize_network(later) == bnmarg.serialize_network(bn)


def test_readme_family_aliases_are_accepted():
    section = _readme_section("### Benchmark description files")
    families = section[section.index("Families:") :].split(".")[0]
    names = re.findall(r"`(\w+)`", families)
    assert len(names) == len(FAMILIES) + len(FAMILY_ALIASES)
    for name in names:
        assert GenSpec(family=name, n=12, mb_size=2.0).family in FAMILIES


def test_readme_names_every_config_field():
    # each knob of the two config objects is named in README, in backticks
    # or as a keyword in an example, so none goes undocumented
    text = README.read_text(encoding="utf-8")
    for cls in (bnmarg.SgsConfig, bnmarg.SamplerConfig):
        missing = [f.name for f in fields(cls) if f"`{f.name}`" not in text and f"{f.name}=" not in text]
        assert missing == [], cls.__name__


def test_import_leaves_scipy_special_unloaded():
    # the package computes its log-sum-exp itself and imports no scipy, not
    # even optionally where scipy is installed (the test below hides it)
    code = "import sys, bnmarg; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


RUN_TIME_PATH = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from pathlib import Path
import bnmarg
from bnmarg.cli import main

tmp = Path(sys.argv[1])
models = [
    (f"m{seed}", bnmarg.gen_network(bnmarg.GenSpec(family="er", n=12, mb_size=2.0, seed=seed)))
    for seed in (1, 2)
]
bn = models[0][1]
evidence = bnmarg.pick_evidence(bn, 0.4, 3)
for method in bnmarg.METHODS:
    bnmarg.marginal(bn, evidence, method)
states = {v: bn.state_names[v][s] for v, s in evidence.items()}
bnmarg.classify(bnmarg.PartialRecord(observed=states), models)
full = {v: names[0] for v, names in bn.state_names.items()}
bnmarg.classify_drop_missing(bnmarg.PartialRecord(observed=full), models)
bnmarg.roc_auc([0.1, 0.7, 0.4], [0, 1, 1])
for name, model in models:
    (tmp / f"{name}.bn").write_text(bnmarg.serialize_network(model), encoding="utf-8")
rows = [",".join(bn.node_ids), ",".join(states.get(v, "?") for v in bn.node_ids), ",".join(full[v] for v in bn.node_ids)]
(tmp / "data.csv").write_text("\\n".join(rows) + "\\n", encoding="utf-8")
sys.exit(main([
    "classify", "--models", f"{tmp / 'm1.bn'},{tmp / 'm2.bn'}",
    "--data", str(tmp / "data.csv"), "--out", str(tmp / "scored.csv"),
]))
"""


def test_run_time_path_imports_no_scipy(tmp_path):
    # scipy is not a dependency of the package: every estimator, the
    # classifier and the CLI run where it cannot be imported
    proc = subprocess.run(
        [sys.executable, "-c", RUN_TIME_PATH, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "scored.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 3 and all(row.split(",")[1] in ("m1", "m2") for row in rows[1:]), rows
