"""Every top-level function and class in `flybat`, and every non-dunder
method, has a caller in the package or the benchmark harness; every name
a module-level assignment stores is read there; and every attribute the
package stores is read there.

A reference is any use of the name outside its own definition: a name
or attribute that is loaded, an import, or an identifier string such as
the ones `perfbench/tracer.py` patches by name. Tests do not count, and
neither does an export from `flybat/__init__.py`: an export is not a
caller. Nor is an assignment: a store, an annotated field or a keyword
argument of the same name sets a value and reads none. A documented entry point that only users and tests
call goes in `ALLOWED` with its reason, and an entry that gains a
caller must leave it. A module-level name follows the same rules, with
`MODULE_NAMES_ALLOWED` as its list.

A stored attribute is a `self.<attr>` store in a class of the package,
or a field of one of its dataclasses. It is read if its name appears,
anywhere in the package or the harness, as an attribute load or an
identifier string. A string in `__slots__` declares the attribute and
a keyword argument of the same name sets it; neither reads it. A
documented attribute that only users and tests read goes in
`WRITE_ONLY_ALLOWED` with its reason.

A `World` subclass in the tests overrides only what `World` has: a hook
that `World` renames or drops would leave the override pinning nothing.
A method a test adds of its own goes in `TEST_WORLD_OWN_METHODS` with its
reason.
"""

import ast
from pathlib import Path

from flybat.engine import World

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "flybat"
PERFBENCH = REPO / "perfbench"
TESTS = REPO / "tests"

# documented entry points that only users and tests call, each with its reason
ALLOWED: dict[str, str] = {
    "read_telemetry": "README's Telemetry section: reads a telemetry CSV back, float for float",
    "export_map_csv": "README: writes the feedforward map file that `ff_mode = csv` reads",
    "build_ff_map": "README: builds a feedforward map from telemetry samples for `export_map_csv`",
}

# module-level names that only users and tests read, each with its reason
MODULE_NAMES_ALLOWED: dict[str, str] = {
    "TRANSITIONS": "docking's FSM graph, written out once; the graph tests check every "
    "logged phase change against it",
    "__version__": "the package version, read by users and packaging tools",
}

# documented attributes that only users and tests read, each with its reason
WRITE_ONLY_ALLOWED: dict[str, str] = {
    "World.contact_friction": "README's Telemetry section: the docked contact's friction force "
    "after each step, beside contact_normal",
    "MissionEvent.seq": "README's Telemetry section: each logged event carries its sequence number",
    "MissionEvent.t": "README's Telemetry section: each logged event carries its time",
    "ScenarioError.line": "its docstring: the scenario file line an error names, for a caller "
    "that catches it",
}

# methods a test's World subclass adds of its own, each with its reason
TEST_WORLD_OWN_METHODS: dict[str, str] = {
    "_PinnedWorld.pin": "test_acceptance's setter: the offset and thrust unit 0 is held at",
}


def _references(path: Path):
    """(name, line) of every use of a name in one file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _package_references() -> dict[str, list[tuple[Path, int]]]:
    """(file, line) of every use of each name in the package, but for
    its exports, and in the harness."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    exports = PACKAGE / "__init__.py"
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.rglob("*.py")]:
        if path == exports:
            continue
        for name, line in _references(path):
            refs.setdefault(name, []).append((path, line))
    return refs


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
    refs = _package_references()

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


def _module_names(path: Path):
    """(name, node) of every name a module-level assignment stores."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_module_level_name_is_read():
    refs = _package_references()

    assigned = set()
    unread = []
    allowed_but_read = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _module_names(path):
            assigned.add(name)
            read = any(
                not (p == path and node.lineno <= line <= node.end_lineno)
                for p, line in refs.get(name, ())
            )
            if read and name in MODULE_NAMES_ALLOWED:
                allowed_but_read.append(name)
            elif not read and name not in MODULE_NAMES_ALLOWED:
                unread.append(f"{path.name}:{node.lineno}: {name}")
    assert not unread, "no reader in src/flybat or perfbench: " + ", ".join(unread)
    assert not allowed_but_read, "allowed but read: " + ", ".join(allowed_but_read)
    assert set(MODULE_NAMES_ALLOWED) <= assigned, sorted(set(MODULE_NAMES_ALLOWED) - assigned)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(fn, ast.Name) and fn.id == "dataclass":
            return True
    return False


def _stored(path: Path):
    """(Class.attr, line) of every self.<attr> store and dataclass field."""
    for cls in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls):
            for member in cls.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    yield f"{cls.name}.{member.target.id}", member.lineno
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                yield f"{cls.name}.{node.attr}", node.lineno


def _reads(path: Path):
    """Every name one file reads as an attribute or identifier string."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    slots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            slots.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier() and id(node) not in slots:
                yield node.value


def test_every_stored_attribute_is_read():
    read = set()
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.rglob("*.py")]:
        read.update(_reads(path))

    stored = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, line in _stored(path):
            stored.setdefault(qualname, f"{path.name}:{line}")
    unread = [
        f"{where}: {q}"
        for q, where in stored.items()
        if q.rpartition(".")[2] not in read and q not in WRITE_ONLY_ALLOWED
    ]
    assert not unread, "stored but never read in src/flybat or perfbench: " + ", ".join(unread)
    # the list holds only attributes that nothing in the package reads
    read_but_allowed = [q for q in WRITE_ONLY_ALLOWED if q.rpartition(".")[2] in read]
    assert not read_but_allowed, "allowed but read: " + ", ".join(read_but_allowed)
    assert set(WRITE_ONLY_ALLOWED) <= set(stored), sorted(set(WRITE_ONLY_ALLOWED) - set(stored))


def _world_subclasses():
    """(path, class) of every class in tests/ derived from World."""
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(b).rpartition(".")[2] == "World" for b in node.bases
            ):
                yield path, node


def test_test_world_subclasses_override_only_what_world_has():
    stray = []
    own = set()
    for path, cls in _world_subclasses():
        for member in cls.body:
            if not isinstance(member, ast.FunctionDef) or (
                member.name.startswith("__") and member.name.endswith("__")
            ):
                continue
            qualname = f"{cls.name}.{member.name}"
            if qualname in TEST_WORLD_OWN_METHODS:
                own.add(qualname)
            elif not hasattr(World, member.name):
                stray.append(f"{path.name}: {qualname}")
    assert not stray, "overrides no World attribute: " + ", ".join(stray)
    # an entry whose method is gone, or that World now has, must go too
    assert own == set(TEST_WORLD_OWN_METHODS), sorted(set(TEST_WORLD_OWN_METHODS) - own)
    overrides = [q for q in own if hasattr(World, q.rpartition(".")[2])]
    assert not overrides, "listed as the test's own but World has it: " + ", ".join(overrides)
