"""The package holds what its users read.

Every top-level ``def``, ``class`` and assigned name (dunders aside) in
``src/mobilemem`` must have a reader outside the tests: a statement of
the package other than its own definition, an ``__init__`` export, a
name in ``bench/*.py`` (the strings of ``tracing.LAYERS`` included,
since the harness looks its layers up by name), or ``demos/*.py``. Code
that only the tests read belongs beside them, in ``tests/systems.py``.
The scan reads names, not bindings, so a definition whose name some
other reader uses for something else passes; it has no allow-list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mobilemem"


def _reads(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads: bare names, attribute names and the names
    it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _external_reads(package: Path) -> set[str]:
    """What ``package``'s ``__init__`` exports and what ``bench/`` and
    ``demos/`` read, with the strings of ``bench/tracing.py``'s ``LAYERS``."""
    names = _reads(_parsed(package / "__init__.py"))
    for path in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        tree = _parsed(path)
        names |= _reads(tree)
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in stmt.targets):
                names |= {c.value for c in ast.walk(stmt.value)
                          if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a ``def``'s or a
    ``class``'s, or each name an assignment binds, dunders aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        return [n for n in names if not (n.startswith("__") and n.endswith("__"))]
    return []


def unread_definitions(package: Path = PACKAGE) -> list[str]:
    """``module.name`` of each top-level definition in ``package`` that
    nothing in it besides its own definition reads, and that no
    ``__init__`` export, ``bench/`` or ``demos/`` reads either."""
    statements = []  # (module, top-level statement, the names it reads)
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            statements += [(path.stem, stmt, _reads(stmt)) for stmt in _parsed(path).body]
    external = _external_reads(package)
    unread = []
    for module, stmt, _names in statements:
        for name in _defined(stmt):
            if name in external:
                continue
            if not any(name in names for _m, other, names in statements if other is not stmt):
                unread.append(f"{module}.{name}")
    return unread


def test_every_package_definition_has_a_reader_outside_the_tests():
    assert unread_definitions() == []


def test_the_scan_sees_a_definition_only_its_own_body_reads(tmp_path):
    """A recursive definition reads its own name; that is no reader."""
    (tmp_path / "__init__.py").write_text("from .used import kept\n")
    (tmp_path / "used.py").write_text(
        "def kept():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def alone(n):\n    return alone(n - 1) if n else 0\n"
    )
    assert unread_definitions(tmp_path) == ["used.alone"]


def test_the_scan_sees_an_assignment_nothing_reads(tmp_path):
    """An assigned name is a definition too; a dunder is exempt."""
    (tmp_path / "__init__.py").write_text("from .used import kept\n")
    (tmp_path / "used.py").write_text(
        "__all__ = ['kept']\nLIMIT = 3\nAlias = tuple\n_spare_total: int = 0\n\n"
        "def kept():\n    return LIMIT\n"
    )
    assert unread_definitions(tmp_path) == ["used.Alias", "used._spare_total"]
