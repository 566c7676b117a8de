"""The package imports nothing outside the standard library: every import
in `src/hypalg/*.py` is relative, of `hypalg` itself, or of a module in
`sys.stdlib_module_names`."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hypalg"


def _foreign_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "hypalg" and top not in sys.stdlib_module_names:
                yield f"{path.name}:{node.lineno}: {name}"


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = [hit for path in files for hit in _foreign_imports(path)]
    assert not foreign, foreign
