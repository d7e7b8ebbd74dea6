"""The benchmark's tracer wraps package functions by name.

``perfbench/tracer.py`` looks up every name in ``LAYER_FUNCTIONS`` on its
``qtabu.<layer>`` module, so a renamed or moved function breaks every traced
benchmark run, and a call the package makes other than through that
module attribute is not counted. The dict is read from the source, without
importing the benchmark.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from unittest import mock

from qtabu import tabu

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


def test_each_run_prepares_its_population_through_the_module_attribute():
    """``tabu.init_population`` as the tracer patches it is reached once per
    run, with and without room in the cache."""
    calls = []
    init_population = tabu.init_population

    def counted(*args):
        calls.append(args)
        return init_population(*args)

    instance = tabu.KnapsackInstance((3.0, 4.0, 2.5), (2.0, 3.0, 1.5), 4.0)
    with mock.patch.object(tabu, "init_population", counted):
        for seed in range(3):
            tabu.qts_run(instance, tabu.SearchConfig(max_iterations=40, seed=seed))
        with mock.patch.object(tabu, "CACHE_SCORES", 0):
            tabu.qts_run(instance, tabu.SearchConfig(max_iterations=40, seed=3))
    assert calls == [(3, "with_replacement")] * 4
