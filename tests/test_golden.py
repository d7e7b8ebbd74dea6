"""Seeded engine output pinned by digest.

Each test hashes ``(best_solution, best_evaluation, best_iteration, trace)``
of a fixed set of seeded runs, rendered with ``repr``, so every digit of
every float and the type of every bit is part of the digest. Any change
in sampling order, move selection or fitness arithmetic changes them.
``TRACES_DIGEST`` hashes every one of those runs without
``best_iteration``, and ``COUNTERS_DIGEST`` hashes their five
``EngineCounters``, which no trace shows: a move replayed from the run's
memo with the wrong increments would change only them.

``MAP_SEARCH_DIGEST`` and ``KNAPSACK_DIGEST`` were last re-recorded when
``best_iteration`` became the iteration at which the best was first
reached, instead of the last escape. ``WIDE_KNAPSACK_DIGEST`` and
``TRACES_DIGEST`` were last re-recorded when a selection's profit and load
became left-to-right Python sums instead of BLAS dot products. A dot
product's summation order depends on the kernel the host's CPU selects,
so from 16 items up the wide digest pinned one CPU's order; the Python
sums give every host the same bytes. Below 16 items they equal the dot
products of most kernels (not Prescott's) bit for bit, and the map-search
data are exact dyadic numbers, so the other two digests did not move. A
deliberate change to seeded output re-records them and says so in
CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtabu
from qtabu.mapsearch import MapSearchProblem, all_directed_pairs, load_teleport, search_best_map
from qtabu.tabu import EngineCounters, KnapsackInstance, SearchConfig, qts_run

MAP_SEARCH_DIGEST = "b26f1327d302ff43cbcd05cbb062a0525012b9d8056543ea7e66886d0b1b7b6f"
KNAPSACK_DIGEST = "fd0788c4b0e5445ff3685b09faa9b652a029a810ec7efb9bdcbe64eca6bb7616"
WIDE_KNAPSACK_DIGEST = "3a2c38176520f7f4165c57199c871f71af1ababa23a76f78873fc029e40a99e8"
# All three sets of runs without ``best_iteration``.
TRACES_DIGEST = "f474a0ee61a4688b48ffdd4e0cdee08f0d551ef3d9a5848d93ecc253b220c613"
# The same runs' counters, in ``EngineCounters`` field order.
COUNTERS_DIGEST = "e9ddfd71ffb0d894ce72560fc3cf5b6fdafa2022fe08464b0c23192c47654359"


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


def _knapsack_runs(instances: list[KnapsackInstance], max_iterations: int = 500):
    return [
        qts_run(instance, SearchConfig(max_iterations, seed=index, population_mode=mode))
        for index, instance in enumerate(instances)
        for mode in ("with_replacement", "without_replacement")
    ]


def _short_wide_digest() -> str:
    """Ten fractional instances of 16 to 24 items, both modes, 100
    iterations each: wide enough that a dot product's order would show."""
    rng = np.random.default_rng(4)
    instances = [_fractional_instance(rng, n) for n in (16, 18, 20, 22, 24) for _ in range(2)]
    return _digest(_knapsack_runs(instances, max_iterations=100))


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


def test_engine_counters_match_golden():
    runs = _map_search_runs()
    runs += _knapsack_runs(_knapsack_instances()) + _knapsack_runs(_wide_knapsack_instances())
    names = [counter.name for counter in dataclasses.fields(EngineCounters)]
    digest = hashlib.sha256()
    for result in runs:
        digest.update(repr(tuple(getattr(result, name) for name in names)).encode())
    assert digest.hexdigest() == COUNTERS_DIGEST


@pytest.mark.skipif(platform.machine() != "x86_64", reason="OpenBLAS kernel names are x86_64's")
def test_seeded_output_does_not_depend_on_the_blas_kernel():
    """The same seeded runs print the same digest in child processes under
    the default OpenBLAS kernel and under the Prescott and Nehalem kernels,
    forced with ``OPENBLAS_CORETYPE`` (read when the child loads numpy). A
    BLAS without that variable runs its one kernel three times."""
    path = os.pathsep.join([str(Path(qtabu.__file__).parents[1]), str(Path(__file__).parent)])
    digests = {}
    for coretype in (None, "Prescott", "Nehalem"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env.update(PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        child = subprocess.run(
            [sys.executable, "-c", "import test_golden; print(test_golden._short_wide_digest())"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests[coretype] = child.stdout.strip()
    assert len(digests[None]) == 64
    assert digests["Prescott"] == digests[None]
    assert digests["Nehalem"] == digests[None]
