"""Every name a package module imports is used in that module, and
importing the package loads no module it does not need."""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rankshift"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no other name refers to.

    A name counts as used where it is read as a name, as the base of an
    attribute, in an annotation, or listed in ``__all__``.  ``from
    __future__`` imports switch on compiler features and are skipped.
    """
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_finds_them():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport json\n"
              "from x import y, z as w, v\n"
              "__all__ = ['v']\n"
              "def f(a: w) -> None:\n    return json.dumps(a)\n")
    assert unused_imports(source) == ["os", "y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_a_command_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter with no site module, so that nothing is imported
    beforehand, imports rankshift and runs one command without loading
    dataclasses or inspect (which pulls in ast, dis and tokenize): a shell
    call of rankshift pays for every module its import loads."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rankshift; "
            "code = rankshift.cli.main(['count', 'samples/gm.json', '--shape', '3']); "
            "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-I", "-c", code, str(SRC.parent)],
                         cwd=SRC.parent.parent, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "total:8\n0 []\n", "")
