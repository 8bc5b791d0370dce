"""Every top-level function and class of the package is used by the package.

Code that only the tests call lives under tests/, as the explicit-state
references of tests/explicit.py do; this guard names any library definition
that nothing else in src/tritkd refers to, any import a module never uses, and any
private module constant the package never reads, and any file removal outside
simulate._discard.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tritkd"


def _names(tree) -> Counter:
    """Identifiers under tree used as a Name, an Attribute or an import alias."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.asname or node.name] += 1
    return names


def test_every_library_definition_is_used_by_the_library():
    trees = {path.name: ast.parse(path.read_text(), path.name) for path in sorted(SRC.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    # a use inside the definition itself, such as recursion, does not count
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and used[node.name] == _names(node)[node.name]
    ]
    assert unused == []


def test_every_library_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source, path.name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}:{name}")
    assert unused == []


def test_every_private_constant_is_read():
    # a top-level `_name = ...` that no module reads is dead; public constants are API and exempt
    trees = {path.name: ast.parse(path.read_text(), path.name) for path in sorted(SRC.glob("*.py"))}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}:{name.lineno}:{name.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
        and name.id.startswith("_") and not name.id.startswith("__") and name.id not in read
    ]
    assert unread == []


def test_only_discard_removes_files():
    # what a failed write may delete is decided in one place: each unlink or remove call, named
    # by the top-level definition that holds it, must be the one in simulate._discard
    calls = [
        f"{path.name}:{getattr(statement, 'name', '<module>')}"
        for path in sorted(SRC.glob("*.py"))
        for statement in ast.parse(path.read_text(), path.name).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in {"unlink", "remove"}
    ]
    assert calls == ["simulate.py:_discard"]
