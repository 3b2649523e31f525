import ast
import os
import subprocess
import sys
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


LOADS_SYMPY = """
import contextlib, io, sys
from artifact import cli
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    print("sympy" in sys.modules)
"""


def test_only_the_exact_commands_load_sympy(tmp_path):
    # the word and constant itineraries and the group queries are float or
    # Q(sqrt2) work: only section, poset and section specs need sympy
    word = tmp_path / "word.spec"
    word.write_text("kind = word\nn = 3\nword = a[cb]a\n")
    constant = tmp_path / "constant.spec"
    constant.write_text("kind = constant\nn = 2\n")
    argvs = [
        ["iti", str(word)],
        ["iti", str(constant)],
        ["group", "qword", "abab", "--n", "2"],
        ["section", "aba"],
    ]
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", LOADS_SYMPY.format(argvs=argvs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "False", "True"]
