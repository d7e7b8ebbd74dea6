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


def test_each_move_and_escape_goes_through_the_module_attribute():
    """``tabu.select_move`` and ``tabu.escape`` as the tracer patches them:
    a run with no room in the cache picks every move through the first,
    once per iteration, and every run reaches the second once per escape,
    as ``tabu.escapes_per_run`` counts them."""
    calls = {"select_move": 0, "escape": 0}

    def counted(name):
        original = getattr(tabu, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    instance = tabu.KnapsackInstance(
        (3.0, 4.0, 2.5, 1.5, 5.0), (2.0, 3.0, 1.5, 1.0, 4.0), 6.0
    )
    gates = {"cx": 0, "h": 0}

    def run(seed):
        config = tabu.SearchConfig(max_iterations=60, stagnation_limit=3, seed=seed)
        result = tabu.qts_run(instance, config)
        gates["cx"] += result.escapes_cx
        gates["h"] += result.escapes_h
        assert calls["escape"] == gates["cx"] + gates["h"]
        return config

    with (
        mock.patch.object(tabu, "select_move", counted("select_move")),
        mock.patch.object(tabu, "escape", counted("escape")),
    ):
        for seed in range(4):
            run(seed)
        calls["select_move"] = 0
        with mock.patch.object(tabu, "CACHE_SCORES", 0):
            config = run(4)
    assert calls["select_move"] == config.max_iterations
    assert all(gates.values())
