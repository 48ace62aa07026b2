"""Every top-level function and class in `flybat`, and every non-dunder
method, has a caller in the package or the benchmark harness.

A reference is any use of the name outside its own definition: a load,
an attribute, an import, a keyword argument, or an identifier string
such as the ones `perfbench/tracer.py` patches by name. Tests do not
count, and neither does an export from `flybat/__init__.py`: an export
is not a caller. A documented entry point that only users and tests
call goes in `ALLOWED` with its reason, and an entry that gains a
caller must leave it.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "flybat"
PERFBENCH = REPO / "perfbench"

# documented entry points that only users and tests call, each with its reason
ALLOWED: dict[str, str] = {
    "read_telemetry": "README's Telemetry section: reads a telemetry CSV back, float for float",
    "export_map_csv": "README: writes the feedforward map file that `ff_mode = csv` reads",
    "build_ff_map": "README: builds a feedforward map from telemetry samples for `export_map_csv`",
}


def _references(path: Path):
    """(name, line) of every use of a name in one file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _definitions(path: Path):
    """(qualified name, node) of top-level defs and non-dunder methods."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def test_every_helper_has_a_caller():
    refs: dict[str, list[tuple[Path, int]]] = {}
    exports = PACKAGE / "__init__.py"
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.rglob("*.py")]:
        if path == exports:
            continue
        for name, line in _references(path):
            refs.setdefault(name, []).append((path, line))

    defined = set()
    uncalled = []
    allowed_but_called = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _definitions(path):
            defined.add(qualname)
            own = (path, node.lineno, node.end_lineno)
            name = qualname.rpartition(".")[2]
            called = any(
                not (p == own[0] and own[1] <= line <= own[2]) for p, line in refs.get(name, ())
            )
            if called and qualname in ALLOWED:
                allowed_but_called.append(qualname)
            elif not called and qualname not in ALLOWED:
                uncalled.append(f"{path.name}: {qualname}")
    assert not uncalled, "no caller in src/flybat or perfbench: " + ", ".join(uncalled)
    # the list holds only entry points that nothing in the package calls
    assert not allowed_but_called, "allowed but called: " + ", ".join(allowed_but_called)
    # an allow-list entry whose definition is gone must go too
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
