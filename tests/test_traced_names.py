"""Every function the benchmark's traced run wraps exists in its module, and
each one it wraps as a generator returns an object it can close.

The tables are read from ``bench/spans.py`` with :mod:`ast`, so no benchmark
code is imported; a renamed or removed function, or one that returns a
``map`` where a generator was wrapped, fails here, not only in a traced
benchmark run.
"""

import ast
import importlib
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_names(source: str, name: str = "TRACED"):
    """The literal table ``name`` of a source file: ``TRACED`` (layer module
    -> function names) by default, or ``GENERATORS`` (function names)."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError(f"no {name} table")


def test_traced_names_reads_the_table():
    source = "import x\nTRACED = {'core': ['f', 'g']}\nOTHER = {'h'}\n"
    assert traced_names(source) == {"core": ["f", "g"]}
    assert traced_names(source, "OTHER") == {"h"}
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


GENERATORS = traced_names(SPANS.read_text(), "GENERATORS")


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in traced_names(SPANS.read_text()).items()
    for name in names if name in GENERATORS])
@pytest.mark.parametrize("m_1", [0, 1, 2, 3, 4, 9])
def test_traced_generator_can_be_closed(layer, name, m_1):
    """The traced run wraps each ``GENERATORS`` function in a generator that
    closes what the function returns, so every path must return an object
    with ``close()``: boxes of 1, 2, 3, 4, 5 and 10 slabs along direction 1
    take the cell search, the slab walk and the walk with tails."""
    from rankshift import golden_mean, tensor
    fn = getattr(importlib.import_module(f"rankshift.{layer}"), name)
    grids = fn(tensor([golden_mean()] * 2), (m_1, 1))
    assert callable(getattr(grids, "close", None)), (name, m_1)
    assert next(grids) is not None
    grids.close()
