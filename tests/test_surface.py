"""The package's public surface, and a guard against dead code.

``wfock.__all__`` must be an explicit list of names, and every public
top-level function or class in ``src/wfock``, and every public method of
such a class, must be referenced outside its own definition from code that
runs without the tests: a module of ``src/wfock`` other than
``__init__.py``, ``tools/`` or ``perfbench/``.  A function or class counts
as referenced by its name as a word, a method only by an attribute access
``.name``, so a method name that also names a variable, a keyword or a
function does not count.  Re-exporting a name from ``__init__.py`` or
calling it from ``tests/`` does not count; a reference computation only the
tests need belongs in ``tests/oracles.py``.  No module in ``src/wfock`` or
``tests/`` imports a name it never reads.
"""

import ast
import re
import types
from pathlib import Path

import wfock

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wfock"
SEARCH_DIRS = (PACKAGE, ROOT / "tools", ROOT / "perfbench")


def test_all_is_an_explicit_list_of_objects():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assigns = [node for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    assert len(assigns) == 1
    names = ast.literal_eval(assigns[0].value)  # fails unless written out as a literal
    assert names == wfock.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(wfock, name), name
        assert not isinstance(getattr(wfock, name), types.ModuleType), name


def _public_definitions():
    """Public top-level functions and classes of ``src/wfock``, and the public methods of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.name, node
                if isinstance(node, ast.ClassDef):
                    for method in node.body:
                        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                            yield path, f"{node.name}.{method.name}", method


def test_every_public_definition_is_referenced():
    sources = {path: path.read_text().splitlines()
               for folder in SEARCH_DIRS for path in folder.rglob("*.py")
               if path != PACKAGE / "__init__.py"}
    unreferenced = []
    for path, label, node in _public_definitions():
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        prefix = r"\." if "." in label else r"\b"  # a method is reached as an attribute
        pattern = re.compile(rf"{prefix}{re.escape(node.name)}\b")
        for other, lines in sources.items():
            if other == path:
                lines = lines[:first - 1] + lines[node.end_lineno:]
            if any(pattern.search(line) for line in lines):
                break
        else:
            unreferenced.append(f"{path.name}:{label}")
    assert not unreferenced, unreferenced


def _unused_imports(path):
    """Names a module imports but never reads; a name listed in ``__all__`` counts as read."""
    tree = ast.parse(path.read_text())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_unused_imports():
    unused = [f"{path.relative_to(ROOT)}:{name}"
              for folder in (PACKAGE, ROOT / "tests") for path in sorted(folder.glob("*.py"))
              for name in _unused_imports(path)]
    assert not unused, unused
