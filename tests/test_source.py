"""Source hygiene: no module of the package imports a name it never uses,
and the package reads every private name that one of its modules defines.

No linter is a dependency, so this walks each module's syntax tree.  The
package __init__ is exempt from the import check: its imports are its
exports.
"""

import ast
import pathlib

import pytest

import hypernse

SOURCES = sorted(pathlib.Path(hypernse.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain np.x.y starts at the Name np
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_orphan():
    source = "import warnings\nimport numpy as np\nfrom .a import b, c\n\nnp.zeros(b)\n"
    assert unused_imports(source) == ["c", "warnings"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read_names(stmt: ast.stmt) -> set[str]:
    """The names a statement reads: loaded names, attributes, imported names."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for every module-level private name (one leading
    underscore, not a dunder) that no statement of any module reads, the
    statement that defines it aside.  Names match by spelling alone."""
    stmts = [(mod, stmt) for mod, src in sources.items() for stmt in ast.parse(src).body]
    reads = [(stmt, _read_names(stmt)) for _, stmt in stmts]
    return sorted(
        f"{mod}.{name}"
        for mod, stmt in stmts
        for name in _bound_names(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in names for other, names in reads if other is not stmt)
    )


def test_unreferenced_private_names_finds_an_orphan():
    sources = {
        "a": "_A = 1\n_B = 2\n\ndef _f(n):\n    return _f(n - 1) + _A\n\nclass _C:\n    pass\n",
        "b": "from .a import _B\n",
    }
    assert unreferenced_private_names(sources) == ["a._C", "a._f"]


def test_package_reads_every_private_name_it_defines():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_private_names(sources) == []
