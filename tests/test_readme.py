"""The README's Library example runs, and ``alternator.__all__`` is its
import list plus the error base class."""

import ast
import contextlib
import io
import re
from pathlib import Path

import alternator

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block in the README's Library section"
    return match.group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_block(), str(README), "exec"), {})
    assert out.getvalue().rstrip().endswith("A{11,12,13,14}")


def test_all_matches_readme_imports():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "alternator"
        for alias in node.names
    }
    assert sorted(alternator.__all__) == sorted(imported | {"AlternatorError"})
