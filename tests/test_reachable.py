"""Every top-level function and class of the package is used by the package.

Code that only the tests call lives under tests/, as the explicit-state
references of tests/explicit.py do; this guard names any library definition
that nothing else in src/tritkd refers to, any import a module never uses, and any
private module constant the package never reads, any file removal outside
simulate._discard, any file staged or replaced outside simulate._staged, any
file opened for writing other than through simulate._staged, any CLI command
that returns a value in place of leaving the exit code to main, and any Bell
estimate or abort decision made outside simulate.ProtocolTranscript.
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


def _holders(callees: set) -> list[str]:
    """module:definition of the top-level definition that holds each call of a name in callees,
    a plain name or an attribute, in source order."""
    return [
        f"{path.name}:{getattr(statement, 'name', '<module>')}"
        for path in sorted(SRC.glob("*.py"))
        for statement in ast.parse(path.read_text(), path.name).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in callees
    ]


def test_only_discard_removes_files():
    # what a failed write may delete is decided in one place: each unlink or remove call, named
    # by the top-level definition that holds it, must be the one in simulate._discard
    assert _holders({"unlink", "remove"}) == ["simulate.py:_discard"]


def test_only_staged_stages_files():
    # how an output file is replaced is decided in one place: each mkstemp, umask, replace and
    # chmod call, named by the top-level definition that holds it, is in simulate._staged
    assert set(_holders({"mkstemp", "umask", "replace", "chmod"})) == {"simulate.py:_staged"}


def test_only_the_transcript_computes_statistics():
    # a run's statistics are one function of its count table: each bell_from_counts and
    # abort_decision call, named by the top-level definition that holds it, is in ProtocolTranscript
    assert set(_holders({"bell_from_counts", "abort_decision"})) == {"simulate.py:ProtocolTranscript"}


def _callee(node) -> str | None:
    """The name that a call of a plain name calls, such as open or _staged."""
    return getattr(node.func, "id", None) if isinstance(node, ast.Call) else None


def _writes(call: ast.Call) -> bool:
    """Whether a call of open may write: its mode is not a constant without w, a, x or +."""
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value))


def test_every_written_file_is_staged():
    # each open for writing is an item of a with statement and opens the name that an earlier
    # item, a _staged(...) call, binds: no writer replaces an output other than through _staged
    opens, staged = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if _callee(node) == "open" and _writes(node):
                opens.append(node)
            if isinstance(node, (ast.With, ast.AsyncWith)):
                bound = set()
                for item in node.items:
                    call = item.context_expr
                    if _callee(call) == "_staged" and isinstance(item.optional_vars, ast.Name):
                        bound.add(item.optional_vars.id)
                    elif _callee(call) == "open" and call.args and getattr(call.args[0], "id", None) in bound:
                        staged.append(call)
    assert len(opens) == 3  # write_transcript, write_summary and cmd_sweep
    assert [f"line {call.lineno}" for call in opens if call not in staged] == []


def test_commands_return_nothing():
    # main alone decides the exit code: every return in a top-level cmd_* function of cli.py is bare
    tree = ast.parse((SRC / "cli.py").read_text(), "cli.py")
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert [node.name for node in commands] == ["cmd_bell", "cmd_sweep", "cmd_crossover", "cmd_simulate"]
    valued = [
        f"{node.name}:{ret.lineno}"
        for node in commands
        for ret in ast.walk(node)
        if isinstance(ret, ast.Return) and ret.value is not None
    ]
    assert valued == []
