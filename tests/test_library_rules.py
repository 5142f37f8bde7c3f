"""Rules of the library's source text: each module of ``qschur`` is parsed once, here."""

import ast
from pathlib import Path

import qschur

PATHS = sorted(Path(qschur.__file__).resolve().parent.glob("*.py"))
TEXTS = {path: path.read_text(encoding="utf-8") for path in PATHS}
TREES = {path: ast.parse(text, str(path)) for path, text in TEXTS.items()}

# LaurentPoly.bar is the one public name the library may leave unread: the
# check of the paper's canonical basis will call it.
UNREAD_PUBLIC = {"bar"}


def test_python_O_changes_nothing_in_the_library():
    # `python -O` strips assert statements and sets __debug__ false, and
    # nothing else.  Invariants are raised exceptions and no module reads
    # __debug__, so every output pin holds under -O; tests/test_golden.py
    # runs one -O child against its pin.  The walk sees code only, so
    # doctests are never flagged.
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []


def test_no_unused_imports():
    # A name a module imports must be read somewhere in that module, so a
    # helper's import cannot outlive the code that used it.  The walk counts
    # bare names only (an attribute read starts with one, and annotations are
    # parsed though never evaluated); __init__.py is skipped, since it
    # imports to re-export.
    found = []
    for path, tree in TREES.items():
        if path.name == "__init__.py":
            continue
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used
        ]
    assert found == []


def test_no_line_longer_than_100_characters():
    # One width for every module, docstrings and comments included, so the
    # library reads the same in any editor and diff.
    found = [
        f"{path.name}:{number}: {len(line)} characters"
        for path, text in TEXTS.items()
        for number, line in enumerate(text.splitlines(), 1)
        if len(line) > 100
    ]
    assert found == []


def test_every_helper_and_public_function_is_read():
    # A `_name` function or class that no module of the library reads, as a
    # bare name or as an attribute, is dead code: a helper must not outlive
    # its last caller.  Dunders are exempt, since Python calls them itself.
    # Every public function or method must be read too (`__init__.py`
    # re-exports names but reads none), since the library should not carry
    # code that only its tests call.
    read = set()
    helpers = []
    public = []
    for path, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    helpers.append((f"{path.name}:{node.lineno}", name))
                elif not name.startswith("_") and not isinstance(node, ast.ClassDef):
                    public.append(name)
    assert [f"{where}: {name}" for where, name in helpers if name not in read] == []
    assert set(public) - read == UNREAD_PUBLIC
