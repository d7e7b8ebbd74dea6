"""Seeded engine output pinned by digest.

Each test hashes ``(best_solution, best_evaluation, best_iteration, trace)``
of a fixed set of seeded runs, rendered with ``repr``, so every digit of
every float and the type of every bit is part of the digest. The digests
were recorded from the dense 2^n-amplitude population, the 16- and
20-item digest from the factored one with numpy flip scores, and the map
search digest from runs over the profit-bearing candidate edges alone;
any change in sampling order, move selection or fitness arithmetic changes
them. A deliberate change to seeded output re-records them and says so in
CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np

from qtabu.mapsearch import MapSearchProblem, all_directed_pairs, load_teleport, search_best_map
from qtabu.tabu import KnapsackInstance, SearchConfig, qts_run

MAP_SEARCH_DIGEST = "d94924fcaf139c3ead8cfd9c0cfb26e7c849e3cf53303e2314157b78ecf1c0cb"
KNAPSACK_DIGEST = "aa3be33f0fe405b72350a1237f249e0e0720e9d560f7ab3b7a35463c8237ce8e"
WIDE_KNAPSACK_DIGEST = "5580514a58b0266533b62c175e76baf0057b75fc764c647d508b496ed01917cd"


def _digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        key = (result.best_solution, result.best_evaluation, result.best_iteration, tuple(result.trace))
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


def test_map_search_traces_match_golden():
    problem = MapSearchProblem(load_teleport(), all_directed_pairs(5), edge_budget=6)
    results = [search_best_map(problem, SearchConfig(seed=seed)).search for seed in range(100)]
    assert _digest(results) == MAP_SEARCH_DIGEST


def _knapsack_digest(instances: list[KnapsackInstance]) -> str:
    return _digest(
        qts_run(instance, SearchConfig(seed=index, population_mode=mode))
        for index, instance in enumerate(instances)
        for mode in ("with_replacement", "without_replacement")
    )


def test_knapsack_traces_match_golden():
    assert _knapsack_digest(_knapsack_instances()) == KNAPSACK_DIGEST


def test_wide_knapsack_traces_match_golden():
    assert _knapsack_digest(_wide_knapsack_instances()) == WIDE_KNAPSACK_DIGEST
