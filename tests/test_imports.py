"""Every name a package or test module imports is used in that module, importing
the package loads no module it does not need, and no module but core
checks a rule that core owns."""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rankshift"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def rule_copies(source: str) -> list[tuple[int, str]]:
    """(line, rule) of each check of a rule that ``core`` owns: a direction
    compared against its range (``1 <= j ...`` or the message ``out of range
    1..``, both ``core.check_direction``'s) or a search floor (the message
    ``must be at least``, ``core.check_floor``'s)."""
    copies = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
                and node.left.value == 1 and isinstance(node.ops[0], ast.LtE)):
            copies.append((node.lineno, "direction"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "out of range 1.." in node.value:
                copies.append((node.lineno, "direction"))
            if "must be at least" in node.value:
                copies.append((node.lineno, "floor"))
    return copies


def test_rule_copies_finds_them():
    source = ("def f(ts, j, cap):\n"
              "    if not 1 <= j <= ts.rank:\n"
              "        raise ValueError(f'direction {j} out of range 1..{ts.rank}')\n"
              "    if cap < 1:\n"
              "        raise ValueError(f'cap must be at least 1, not {cap}')\n"
              "    return [k for k in range(1, ts.rank + 1) if 0 <= k - j <= 1]\n")
    assert rule_copies(source) == [(2, "direction"), (3, "direction"), (5, "floor")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_direction_and_floor_rules_live_in_core(path):
    """core.check_direction and core.check_floor are the only checks of their
    rules; any other module calls them."""
    assert rule_copies(path.read_text()) == []


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
