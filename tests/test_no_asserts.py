"""The package states its invariants as raised errors, not `assert`
statements, so that they still hold under `python -O`, which strips
every `assert`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flybat"


def test_package_has_no_assert_statement():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 13
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "raise an error instead of asserting"
