"""Seeded engine output pinned by digest.

Each test hashes ``(best_solution, best_evaluation, best_iteration, trace)``
of a fixed set of seeded runs, rendered with ``repr``, so every digit of
every float and the type of every bit is part of the digest. Any change
in sampling order, move selection or fitness arithmetic changes them. The
three were last re-recorded when ``best_iteration`` became the iteration
at which the best was first reached, instead of the last escape.
``TRACES_DIGEST`` hashes every one of those runs without
``best_iteration``; it was recorded before that change and did not move.
A deliberate change to seeded output re-records them and says so in
CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np

from qtabu.mapsearch import MapSearchProblem, all_directed_pairs, load_teleport, search_best_map
from qtabu.tabu import KnapsackInstance, SearchConfig, qts_run

MAP_SEARCH_DIGEST = "b26f1327d302ff43cbcd05cbb062a0525012b9d8056543ea7e66886d0b1b7b6f"
KNAPSACK_DIGEST = "fd0788c4b0e5445ff3685b09faa9b652a029a810ec7efb9bdcbe64eca6bb7616"
WIDE_KNAPSACK_DIGEST = "eb9c1be6aadecd4ebb4c46e45b476b019f3fd0705d7bc13f3c3579a8de84e1c8"
# All three sets of runs without ``best_iteration``.
TRACES_DIGEST = "870cbc32258e67de7e2b06ab0a7f52a039faf9a8ad007f79933a9b9145a98220"


def _digest(results, with_iteration: bool = True) -> str:
    digest = hashlib.sha256()
    for result in results:
        iteration = (result.best_iteration,) if with_iteration else ()
        key = (result.best_solution, result.best_evaluation, *iteration, tuple(result.trace))
        digest.update(repr(key).encode())
    return digest.hexdigest()


def _knapsack_instances() -> list[KnapsackInstance]:
    """Criterion 5's integer generator, then fractional values, which pin
    the order of the fitness sums as well."""
    rng = np.random.default_rng(2)
    instances = []
    for _ in range(50):
        profits = tuple(float(v) for v in rng.integers(1, 30, size=10))
        weights = tuple(float(v) for v in rng.integers(1, 15, size=10))
        instances.append(KnapsackInstance(profits, weights, float(round(sum(weights) * 0.5))))
    instances.extend(_fractional_instance(rng, 10) for _ in range(50))
    return instances


def _fractional_instance(rng: np.random.Generator, n_items: int) -> KnapsackInstance:
    profits = tuple(float(v) for v in rng.uniform(0.5, 30.0, size=n_items))
    weights = tuple(float(v) for v in rng.uniform(0.1, 15.0, size=n_items))
    return KnapsackInstance(profits, weights, float(sum(weights)) * 0.4)


def _wide_knapsack_instances() -> list[KnapsackInstance]:
    """Fractional instances past ten items, where the order of a sum of
    floats starts to change its last bit."""
    rng = np.random.default_rng(3)
    return [_fractional_instance(rng, n_items) for n_items in (16, 20) for _ in range(25)]


def _map_search_runs():
    problem = MapSearchProblem(load_teleport(), all_directed_pairs(5), edge_budget=6)
    return [search_best_map(problem, SearchConfig(seed=seed)).search for seed in range(100)]


def _knapsack_runs(instances: list[KnapsackInstance]):
    return [
        qts_run(instance, SearchConfig(seed=index, population_mode=mode))
        for index, instance in enumerate(instances)
        for mode in ("with_replacement", "without_replacement")
    ]


def test_map_search_traces_match_golden():
    assert _digest(_map_search_runs()) == MAP_SEARCH_DIGEST


def test_knapsack_traces_match_golden():
    assert _digest(_knapsack_runs(_knapsack_instances())) == KNAPSACK_DIGEST


def test_wide_knapsack_traces_match_golden():
    assert _digest(_knapsack_runs(_wide_knapsack_instances())) == WIDE_KNAPSACK_DIGEST


def test_best_selections_and_traces_match_golden():
    """Every run above, hashed without ``best_iteration``: a change to how
    that one field is counted leaves this digest alone."""
    runs = _map_search_runs()
    runs += _knapsack_runs(_knapsack_instances()) + _knapsack_runs(_wide_knapsack_instances())
    assert _digest(runs, with_iteration=False) == TRACES_DIGEST
