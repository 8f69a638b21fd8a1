"""Every name a module of the package imports is used in that module.

No linter runs on the package, so an import that a deletion leaves
behind would stay unnoticed.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "minislot"


def unused_imports(source: str) -> set[str]:
    """The names bound by ``import`` statements of ``source`` that no other code reads.

    ``from __future__`` imports bind no name.  With them, annotations are
    still parsed as code, so a name read only in an annotation is used.
    """
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_reference_finds_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os.path\n"
        "from typing import Iterator, Sequence\n\n"
        "def f(x: Sequence) -> None:\n    os.sep\n"
    )
    assert unused_imports(source) == {"Iterator"}


def test_every_imported_name_is_used():
    unused = {
        path.name: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
