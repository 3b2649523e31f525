"""Every public name of the library is used somewhere.

Each name in a module's ``__all__`` must be referenced, as a ``Name``, an
``Attribute`` or a ``from ... import``, by some file of ``src/artifact/`` or
``tests/``, outside the name's own definition.  A name that nothing uses is
dead API: delete it rather than export it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "artifact"
FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def definitions(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """Line range of each top-level function or class, by name."""
    return {
        node.name: (node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def references(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` of every loaded name, attribute and imported name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node.lineno) for alias in node.names]
    return out


def unused_exports() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in FILES}
    used = set()
    for path, tree in trees.items():
        own = definitions(tree) if path.parent == PACKAGE else {}
        for name, line in references(tree):
            lo, hi = own.get(name, (0, -1))
            if not lo <= line <= hi:
                used.add(name)
    return [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in exported(tree)
        if name not in used
    ]


def test_every_exported_name_is_used():
    assert unused_exports() == []
