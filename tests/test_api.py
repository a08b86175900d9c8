"""The package's public surface: ``__all__`` and README's library section."""

import re
import subprocess
import sys
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


def test_import_leaves_scipy_special_unloaded():
    # scipy.special is most of the package's import time; the two functions
    # that call logsumexp import it when they first run
    code = "import sys, bnmarg; print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
