"""The package's public surface: ``__all__`` and README's library section."""

import re
from pathlib import Path

import bnmarg

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
