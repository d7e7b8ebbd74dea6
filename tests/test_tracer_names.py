"""The benchmark's tracer wraps package functions by name.

``perfbench/tracer.py`` looks up every name in ``LAYER_FUNCTIONS`` on its
``qtabu.<layer>`` module, so a renamed or moved function breaks every traced
benchmark run. The dict is read from the source, without importing the
benchmark.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def layer_functions() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYER_FUNCTIONS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS assignment in {TRACER}")


def test_every_traced_name_is_a_package_function():
    layers = layer_functions()
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"qtabu.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qtabu.{layer}.{name}"
