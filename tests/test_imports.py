"""Every name a source module imports is used in it or listed in its ``__all__``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "edgesim"


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
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_finder():
    source = ("from dataclasses import dataclass, fields\nimport numpy as np\nimport os.path\n"
              "__all__ = ['np']\n@dataclass\nclass A:\n    x: int = os.sep\n")
    assert unused_imports(source) == ["fields"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_modules_have_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
