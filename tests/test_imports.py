"""Every name a source module imports is used in it or listed in its
``__all__``, and every name it defines at module level is read somewhere in
``src``, ``tests`` or ``bench``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "edgesim"
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def _exported(node) -> set[str]:
    """The names an ``__all__ = [...]`` assignment lists; none for any other node."""
    if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
        return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        used |= _exported(node)
    return sorted(imported - used)


def defined_names(source: str) -> set[str]:
    """Names bound by the module's top-level functions, classes and assignments."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names - {"__all__"}


def read_names(source: str) -> set[str]:
    """Names the source loads, reads as an attribute or lists in ``__all__``."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        read |= _exported(node)
    return read


def test_unused_import_finder():
    source = ("from dataclasses import dataclass, fields\nimport numpy as np\nimport os.path\n"
              "__all__ = ['np']\n@dataclass\nclass A:\n    x: int = os.sep\n")
    assert unused_imports(source) == ["fields"]


def test_dead_name_finder():
    module = ("A = 1\nB: int = 2\ndef f():\n    return B\nclass C:\n    pass\n"
              "D = E = 3\n__all__ = ['D']\n")
    reader = "import m\nm.f()\nprint(E)\n"
    dead = defined_names(module) - read_names(module) - read_names(reader)
    assert sorted(dead) == ["A", "C"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_modules_have_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.fixture(scope="module")
def project_reads():
    return set().union(*(read_names(p.read_text()) for p in READERS))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_modules_define_no_dead_names(path, project_reads):
    assert sorted(defined_names(path.read_text()) - project_reads) == []
