"""Source hygiene: no module of the package and no test module imports a
name it never uses, the package reads every private name that one of its
modules defines, only the oracles build the full coefficient plane, only
the one transform kernel calls numpy.fft, only the kernel's cache sizes its
grid, only the one lattice walk takes integer square roots of rows or
expands them, and importing the command line does no numerical work.

No linter is a dependency, so this walks each module's syntax tree.  The
package __init__ is exempt from the import check: its imports are its
exports.
"""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

import hypernse

SOURCES = sorted(pathlib.Path(hypernse.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
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


# A field holds the half j2 >= 0 (spectral); the full plane is built only at
# the edge of the direct oracles: the direct convolution route of bilinear_B
# and the triad sum of trilinear_b.  Every transform product, the weak
# assembly's included, acts on the half.
FULL_PLANE_READERS = {
    "spectral.bilinear_B",
    "spectral.trilinear_b",
}


def readers(sources: dict[str, str], name: str) -> set[str]:
    """module.name of every module-level definition that reads name, its own
    definition aside; a read by any other module-level statement but an
    import counts as module.<module>."""
    out = set()
    for mod, src in sources.items():
        for stmt in ast.parse(src).body:
            bound = _bound_names(stmt)
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or name in bound:
                continue
            if name in _read_names(stmt):
                out.add(f"{mod}.{bound[0] if bound else '<module>'}")
    return out


def test_full_plane_readers_finds_an_orphan():
    sources = {
        "a": "def _full_plane(h):\n    return _full_plane(h[1:]) if h else h\n\n"
             "def oracle(u):\n    return _full_plane(u)\n\n"
             "class F:\n    def m(self):\n        return _full_plane(self)\n",
        "b": "from .a import _full_plane\n\nX = _full_plane([])\n_full_plane(X)\n\ndef g():\n    return 1\n",
    }
    assert readers(sources, "_full_plane") == {"a.oracle", "a.F", "b.X", "b.<module>"}


def test_only_the_oracles_read_the_full_plane():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert readers(sources, "_full_plane") == FULL_PLANE_READERS


# The one grid rule (spectral): the kernel takes the grid of a block from
# its cache, _workspace, and no caller computes or passes a grid size.
def test_grid_rule_readers_finds_an_orphan():
    sources = {
        "a": "def _smooth_size(n):\n    return n if n < 2 else _smooth_size(n - 1)\n\n"
             "@lru_cache\ndef _workspace(K):\n    return _smooth_size(3 * K + 1)\n\n"
             "def route(M):\n    return M, _smooth_size(3 * M + 1)\n\n"
             "class R:\n    size = staticmethod(_smooth_size)\n",
        "b": "from .a import _smooth_size\n\nN = _smooth_size(25)\n",
    }
    assert readers(sources, "_smooth_size") == {"a._workspace", "a.route", "a.R", "b.N"}


def test_only_the_kernel_cache_sizes_the_grid():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert readers(sources, "_smooth_size") == {"spectral._workspace"}


def fft_users(sources: dict[str, str]) -> set[str]:
    """module.name of every module-level definition that reaches numpy.fft:
    reads an attribute fft of a name (np.fft, numpy.fft), or imports
    numpy.fft or a name from it; any other module-level statement that does
    counts as module.<module>."""
    out = set()
    for mod, src in sources.items():
        for stmt in ast.parse(src).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute):
                    hit = node.attr == "fft" and isinstance(node.value, ast.Name)
                elif isinstance(node, ast.ImportFrom):
                    hit = (node.module or "").startswith("numpy") and (
                        "fft" in node.module or any(a.name == "fft" for a in node.names))
                else:
                    hit = isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names)
                if hit:
                    bound = _bound_names(stmt)
                    out.add(f"{mod}.{bound[0] if bound else '<module>'}")
    return out


def test_fft_users_finds_an_orphan():
    sources = {
        "a": "import numpy as np\n\ndef kernel(x):\n    return np.fft.rfft(x)\n\n"
             "def other(x):\n    return np.fft.fft(x)\n\ndef free(x):\n    return np.abs(x)\n",
        "b": "from numpy.fft import irfft\n",
        "c": "import numpy.fft\n",
        "d": "from numpy import fft as f\n",
    }
    assert fft_users(sources) == {"a.kernel", "a.other", "b.<module>", "c.<module>", "d.<module>"}


def test_only_the_kernel_transforms():
    # one transform kernel (spectral): a transform anywhere else is a second one
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert fft_users(sources) == {"spectral._curl_product"}


def row_enumerators(sources: dict[str, str]) -> set[str]:
    """module.name of every module-level definition that reads _isqrt or
    reaches a repeat (np.repeat, or an array's repeat method), the definition
    of _isqrt aside; any other module-level statement that does, an import of
    _isqrt or of numpy's repeat included, counts as module.<module>."""
    out = set()
    for mod, src in sources.items():
        for stmt in ast.parse(src).body:
            bound = _bound_names(stmt)
            if "_isqrt" in bound:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom):
                    hit = any(a.name in ("_isqrt", "repeat") for a in node.names)
                else:
                    hit = (isinstance(node, ast.Name) and node.id == "_isqrt") or (
                        isinstance(node, ast.Attribute) and node.attr == "repeat")
                if hit:
                    out.add(f"{mod}.{bound[0] if bound else '<module>'}")
    return out


def test_row_enumerators_finds_an_orphan():
    sources = {
        "a": "import numpy as np\n\ndef _isqrt(n):\n    return np.sqrt(n)\n\n"
             "def walk(n):\n    return np.repeat(n, _isqrt(n))\n\n"
             "def rows(n):\n    return _isqrt(n)\n\ndef expand(x, c):\n    return x.repeat(c)\n\n"
             "def free(x):\n    return np.sqrt(x)\n\nclass C:\n    f = staticmethod(_isqrt)\n",
        "b": "from numpy import repeat\n",
        "c": "from .a import _isqrt\n\nX = _isqrt(4)\n",
    }
    assert row_enumerators(sources) == {
        "a.walk", "a.rows", "a.expand", "a.C", "b.<module>", "c.<module>", "c.X"}


def test_only_the_walk_enumerates():
    # one lattice enumerator (lattice): a second per-window row computation
    # would take its own square roots or expand its own segments
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert row_enumerators(sources) == {"lattice._octant_walk"}


# Run in a fresh interpreter: imports the package from the directory the
# tests import it from, then prints, as a JSON list, module.qualname of every
# package function that the import of hypernse.cli calls.  Module bodies,
# with the comprehensions at module level, and class bodies are not
# functions; a class body is a code object whose qualname resolves to a class
# once the import is done.
_IMPORT_CALLS = """
import importlib.util, json, os, sys
sys.path.insert(0, sys.argv[1])
import numpy
root = os.path.dirname(importlib.util.find_spec("hypernse").origin) + os.sep
called = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(root):
        called.add((os.path.basename(code.co_filename)[:-3], code.co_qualname))

sys.setprofile(profile)
import hypernse.cli
sys.setprofile(None)

def is_class(stem, qualname):
    obj = sys.modules["hypernse" if stem == "__init__" else "hypernse." + stem]
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return isinstance(obj, type)

body = {"<module>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
print(json.dumps(sorted(f"{stem}.{name}" for stem, name in called
                        if name not in body and not is_class(stem, name))))
"""


def test_importing_the_cli_calls_only_the_stage_table():
    """The import runs module and class bodies and builds the pipeline's
    stage table; it evaluates no cutoff and scans nothing."""
    src = str(pathlib.Path(hypernse.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", _IMPORT_CALLS, src],
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == ["cli._stage_table"]
