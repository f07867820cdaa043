"""Package surface: every exported name resolves, and one function writes files."""

from __future__ import annotations

import ast
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


def test_write_file_is_the_only_file_writer():
    """No call in `src/submerge/*.py` opens a file with a write mode literal (one
    holding `w`, `a`, `x` or `+`), or calls `write_bytes` or `write_text`, except
    the one in `errors.write_file`."""
    writes = []
    for source in sorted(Path(submerge.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            literals = [
                arg.value
                for arg in [*call.args, *(kw.value for kw in call.keywords)]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ]
            opened = name == "open" and any(re.fullmatch(r"[rbt]*[wax+][rwaxbt+]*", m) for m in literals)
            if opened or name in ("write_bytes", "write_text"):
                owner = max(
                    (f for f in functions if f.lineno <= call.lineno <= f.end_lineno),
                    key=lambda f: f.lineno,
                )
                writes.append((source.name, owner.name))
    assert writes == [("errors.py", "write_file")]
