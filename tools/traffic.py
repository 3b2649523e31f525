"""Statements of ``src/artifact/`` that no test executes.

    PYTHONPATH=src python3 tools/traffic.py [PYTEST_ARGS ...]

Runs pytest in this process (by default on ``tests/`` with ``-q``) under a
line tracer (``sys.settrace`` and ``threading.settrace``) that records only
frames whose code lies in ``src/artifact/``, then prints, per module, every
statement that never ran, as ``path:line: source``, and a count per module.

A statement is read from the module's syntax tree.  A simple statement ran
when a line event fell on one of its lines.  A compound one (``if``,
``for``, ``try``, ``def``, ...) ran when a line event fell on its header,
from its first decorator to the line before its body, or when anything in
its body ran.  Docstrings are not statements.  The artifact package must not
be imported before the tracer starts, so that its module-level statements
count.  The tracer slows the suite several times over.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "artifact"


def _tracer(hits: dict):
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    return global_


def _is_docstring(node: ast.stmt, parent_body: list) -> bool:
    return (
        node is parent_body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _bodies(node: ast.AST) -> list[list[ast.stmt]]:
    """The statement lists nested directly in a compound statement."""
    out = [getattr(node, f, None) for f in ("body", "orelse", "finalbody")]
    out += [h.body for h in getattr(node, "handlers", [])]
    out += [c.body for c in getattr(node, "cases", [])]
    return [b for b in out if b]


def missed(tree: ast.Module, lines: set) -> tuple[int, list[int]]:
    """The number of statements of ``tree``, and the first lines of those
    none of whose lines (for a compound statement: header lines or body
    statements) are in ``lines``."""
    out = []
    count = 0

    def visit(body: list) -> bool:
        nonlocal count
        ran_any = False
        for node in body:
            if _is_docstring(node, body):
                continue
            count += 1
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            bodies = _bodies(node)
            if bodies:
                inner = [visit(b) for b in bodies]  # visit every body
                header = range(first, bodies[0][0].lineno)
                ran = any(inner) or any(k in lines for k in header)
            else:
                ran = any(k in lines for k in range(first, node.end_lineno + 1))
            if not ran:
                out.append(first)
            ran_any |= ran
        return ran_any

    visit(tree.body)
    return count, sorted(out)


def main(argv: list[str]) -> int:
    if "artifact" in sys.modules:
        raise SystemExit("artifact was imported before the tracer started")
    import pytest

    hits: dict = defaultdict(set)
    trace = _tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = never = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        count, lost = missed(ast.parse(source, str(path)), hits[str(path)])
        text = source.splitlines()
        for k in lost:
            print(f"{path.relative_to(ROOT)}:{k}: {text[k - 1].strip()}")
        print(f"{path.name}: {len(lost)} of {count} statements never ran")
        total += count
        never += len(lost)
    print(f"total: {never} of {total} statements never ran (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
