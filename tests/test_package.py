"""Package surface: every exported name resolves."""

from __future__ import annotations

import re
from pathlib import Path

import submerge


def test_all_names_resolve_once():
    assert len(submerge.__all__) == len(set(submerge.__all__))
    missing = [name for name in submerge.__all__ if not hasattr(submerge, name)]
    assert missing == []
    namespace: dict = {}
    exec("from submerge import *", namespace)
    assert set(submerge.__all__) <= set(namespace)


def test_readme_quickstart_runs(capsys):
    """The README's Quickstart `python` block runs as written against the package."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Quickstart\n.*?^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("embed [") and lines[-1].startswith("[")
