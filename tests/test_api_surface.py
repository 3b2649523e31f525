"""Every public name and every defaulted parameter of the library is used.

Each name in a module's ``__all__`` must be referenced, as a ``Name``, an
``Attribute`` or a ``from ... import``, by some file of ``src/artifact/`` or
``tests/``, outside the name's own definition.  A name that nothing uses is
dead API: delete it rather than export it.

Each parameter with a default, of any function, method or ``__init__`` in
``src/artifact/`` (nested functions included), must be passed, by keyword or
by position, in some call of ``src/artifact/``, ``tests/`` or
``perfbench/``.  Calls are matched to definitions by name.  A default that
no caller overrides is a constant, not a knob: inline it, or let a closure
capture the variable instead of binding it as a default.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "artifact"
FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
CALLERS = FILES + sorted((ROOT / "perfbench").glob("*.py"))


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


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """``(call name, parameter, position)`` of every parameter with a default.

    The position counts the arguments a call passes, so it skips ``self``
    or ``cls`` of a method; it is None for a keyword-only parameter.  An
    ``__init__`` is called by its class name.
    """
    out = []
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name, args = node.name, node.args
            positional = args.posonlyargs + args.args
            if isinstance(owner, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            ):
                positional = positional[1:]
                if name == "__init__":
                    name = owner.name
            first = len(positional) - len(args.defaults)
            out += [(name, a.arg, k) for k, a in enumerate(positional) if k >= first]
            out += [
                (name, a.arg, None)
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
    return out


def calls(tree: ast.Module) -> list[tuple[str, float, set | None]]:
    """``(name, positional count, keywords)`` of every call by name or
    attribute; a ``*`` argument counts as every position and a ``**``
    argument (keywords None) as every keyword."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        count = (
            math.inf
            if any(isinstance(a, ast.Starred) for a in node.args)
            else len(node.args)
        )
        keywords = {k.arg for k in node.keywords}
        out.append((name, count, None if None in keywords else keywords))
    return out


def unused_parameters() -> list[str]:
    made = [
        (name, count, keywords)
        for path in CALLERS
        for name, count, keywords in calls(ast.parse(path.read_text(), str(path)))
    ]
    return [
        f"{path.stem}.{name}({param})"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, param, position in defaulted_parameters(
            ast.parse(path.read_text(), str(path))
        )
        if not any(
            called == name
            and (
                keywords is None
                or param in keywords
                or (position is not None and count > position)
            )
            for called, count, keywords in made
        )
    ]


def test_every_defaulted_parameter_is_passed():
    assert unused_parameters() == []
