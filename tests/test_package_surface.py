"""The package holds what its users read.

Every top-level ``def``, ``class`` and assigned name (dunders aside) in
``src/mobilemem``, and every method of a package class other than a
dunder, must have a reader outside the tests, and that reader must be
read in turn. The readers the closure starts from are an ``__init__``
export, a name in ``bench/*.py`` (the strings of ``tracing.LAYERS``
included, since the harness looks its layers up by name), ``demos/*.py``,
and each module's top-level statements that neither define nor import a
name. A read definition reads what its body reads; a class reads its
bases, decorators, class-level statements and dunder methods. So a
definition that only its own body reads, or a ring of definitions that
only read each other, is reported. Code that only the tests read belongs
beside them, in ``tests/systems.py``.

The scan reads names, not bindings, so a definition whose name some
other read code uses for something else passes; it has no allow-list.
Nor can it see a protocol method such as ``__eq__`` or ``__hash__``,
which Python calls without naming it: whether such a method is ever
called takes a run of the program, not a scan of its names.
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


def _is_method(stmt: ast.stmt) -> bool:
    """Whether a statement of a class body is a method other than a dunder."""
    return isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        stmt.name.startswith("__") and stmt.name.endswith("__"))


def _definitions(module: str, stmt: ast.stmt) -> list[tuple[str, str, set[str]]]:
    """``(reported name, name, what it reads)`` for each definition of a
    top-level statement: a class apart from its methods, then each of
    them."""
    if not isinstance(stmt, ast.ClassDef):
        return [(f"{module}.{name}", name, _reads(stmt)) for name in _defined(stmt)]
    own = set()
    for part in stmt.bases + stmt.keywords + stmt.decorator_list + [s for s in stmt.body if not _is_method(s)]:
        own |= _reads(part)
    methods = [(f"{module}.{stmt.name}.{s.name}", s.name, _reads(s)) for s in stmt.body if _is_method(s)]
    return [(f"{module}.{stmt.name}", stmt.name, own)] + methods


def unread_definitions(package: Path = PACKAGE) -> list[str]:
    """``module.name`` (``module.Class.method`` for a method) of each
    definition in ``package`` that no read code reads, in file order."""
    read = _external_reads(package)
    pending = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in _parsed(path).body:
            found = _definitions(path.stem, stmt)
            if found:
                pending += found
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                read |= _reads(stmt)
    while reached := [entry for entry in pending if entry[1] in read]:
        for entry in reached:  # a definition, once read, reads what its body reads
            pending.remove(entry)
            read |= entry[2]
    return [reported for reported, _name, _body in pending]


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


def test_the_scan_sees_a_method_nothing_reads(tmp_path):
    """A method is a definition too; a dunder is exempt, and what it reads
    is read."""
    (tmp_path / "__init__.py").write_text("from .used import Kept\n")
    (tmp_path / "used.py").write_text(
        "class Kept:\n"
        "    def __repr__(self):\n        return self.shown()\n\n"
        "    def shown(self):\n        return 'kept'\n\n"
        "    def spare(self):\n        return self.spare()\n"
    )
    assert unread_definitions(tmp_path) == ["used.Kept.spare"]


def test_the_scan_sees_definitions_that_only_read_each_other(tmp_path):
    """A reader counts only once it is read itself; a top-level statement
    that defines nothing is read from the start."""
    (tmp_path / "__init__.py").write_text("from .used import kept\n")
    (tmp_path / "used.py").write_text(
        "def kept():\n    return 0\n\n"
        "def ping(n):\n    return pong(n - 1) if n else 0\n\n"
        "def pong(n):\n    return ping(n - 1) if n else 1\n\n"
        "def checked():\n    return 2\n\n"
        "assert checked() == 2\n"
    )
    assert unread_definitions(tmp_path) == ["used.ping", "used.pong"]
