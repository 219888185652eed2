"""Every function the benchmark's traced run wraps exists in its module.

The table is read from ``bench/spans.py`` with :mod:`ast`, so no benchmark
code is imported; a renamed or removed function fails here, not only in a
traced benchmark run.
"""

import ast
import importlib
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_names(source: str) -> dict[str, list[str]]:
    """The ``TRACED`` table (layer module -> function names) of a source file."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError("no TRACED table")


def test_traced_names_reads_the_table():
    source = "import x\nTRACED = {'core': ['f', 'g']}\nOTHER = {}\n"
    assert traced_names(source) == {"core": ["f", "g"]}
    with pytest.raises(LookupError):
        traced_names("OTHER = {}\n")


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in traced_names(SPANS.read_text()).items()
    for name in names])
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"rankshift.{layer}")
    fn = getattr(module, name, None)
    assert callable(fn), f"rankshift.{layer}.{name} is gone"
    assert fn.__module__ == module.__name__, f"rankshift.{layer}.{name} is not defined there"
