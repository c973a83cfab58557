"""The library stays independent of the reference implementations in oracles.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wmfock"


def _imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (a.name for a in node.names)
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            yield str(node.args[0].value)


def test_library_never_imports_oracles():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    offenders = [f"{path.name}: {name}"
                 for path in sources
                 for name in _imported_names(ast.parse(path.read_text(), str(path)))
                 if "oracles" in name.split(".")]
    assert not offenders


def test_only_spectral_imports_numpy():
    # the exact layers carry no float-library code; decompose is the one numpy route
    sources = sorted(SRC.glob("*.py"))
    assert sources
    importers = {path.name for path in sources
                 if any(name.split(".")[0] == "numpy"
                        for name in _imported_names(ast.parse(path.read_text(), str(path))))}
    assert importers == {"spectral.py"}
