import ast
from pathlib import Path

import artifact

SRC = Path(artifact.__file__).parent


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_does_not_import_scipy():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for mod in _imported_modules(path):
            assert mod.split(".")[0] != "scipy", f"{path.name} imports {mod}"
