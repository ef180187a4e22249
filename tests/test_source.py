"""Source hygiene: no module of the package imports a name it never uses.

No linter is a dependency, so this walks each module's syntax tree.  The
package __init__ is exempt: its imports are its exports.
"""

import ast
import pathlib

import pytest

import hypernse

MODULES = sorted(
    p for p in pathlib.Path(hypernse.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
