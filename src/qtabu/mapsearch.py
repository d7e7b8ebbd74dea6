"""Searching for a coupling map that supports a circuit's cx gates natively.

Picking directed edges for a device is cast as a knapsack: each candidate
edge is an item of weight 1, the budget is the number of edges the device
may have, and an edge's profit counts

    1.0 for every circuit cx it supports directly, plus
    0.5 for every circuit cx it supports in reverse (four added h gates).

That is ``support_score`` of the map holding the edge alone. The circuit's
cx pairs are tallied once, and each edge reads its two counts from the
tally, so deriving the profits is linear in the edges plus the gates and
builds no map; ``_support`` holds the 1.0/0.5 rule for both. The tabu
engine then maximizes total profit within the edge budget.

Only edges with positive profit go to the engine. The fitness is profit
times ``1 - max(0, load - capacity)``, a factor that falls as the load
rises. Profits here are sums of 1.0 and 0.5, so none is negative, and
weights are 1.0. Adding a zero-profit edge to a selection therefore keeps
its profit and raises its load, so its fitness stays or falls, and
dropping every zero-profit edge keeps the optimum. This needs every profit
to be >= 0: under a negative total profit a heavier selection would score
higher. The selection is mapped back with 0 on every dropped edge.
Profits and weights are exact dyadic numbers, so that selection's
``fitness`` over all candidates equals the run's best evaluation bit for
bit.

With every weight 1.0 and an integer budget B, the optimum is the sum of
the B largest profits: a selection of at most B edges scores its profit,
one of B + 1 edges scores 0, and a larger one at most 0. That sum ignores
connectivity, so a budget below the circuit's interacting pairs can give a
winner the circuit cannot be routed on (``cx`` along a chain of 11 pairs at
a budget of 6). A selection over the budget scores at most 0.0, the empty
selection's score, yet a run keeps the first selection to reach its best,
so a run too short to reach a positive selection can end over the budget;
the empty selection is returned instead. At B = 0 no search runs: every
selection but the empty one is over the budget.

The engine holds any number of items, so the search is as wide as the
circuit's profit-bearing edges (teleport gives 4 of them at any number of
physical qubits); ``MAX_CANDIDATE_EDGES`` bounds the candidate list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Sequence

from .qasm import Program, parse
from .routing import (
    CouplingMap,
    RoutingError,
    RoutingReport,
    cx_pairs,
    direct_support_count,
    route,
)
from .tabu import KnapsackInstance, SearchConfig, SearchResult, _integer, fitness, qts_run

DIRECT_EDGE_PROFIT = 1.0
REVERSED_EDGE_PROFIT = 0.5
DEFAULT_EDGE_BUDGET = 6
# All directed pairs of 64 qubits (4,032) fit; deriving their profits for
# teleport took 2.5 ms (best of 5) on a 2-core Xeon, Python 3.11, numpy 2.4.
MAX_CANDIDATE_EDGES = 4096

# Two bundled five-qubit layouts used by the teleport bench and as handy
# non-trivial fixtures. Both support the teleport circuit's cx gates
# directly.
REFERENCE_MAP_EDGES: dict[str, tuple[tuple[int, int], ...]] = {
    "ref1": ((0, 1), (0, 2), (1, 2), (3, 2), (3, 4), (4, 2)),
    "ref2": ((0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (3, 4)),
}


def reference_map(name: str) -> CouplingMap:
    """One of the bundled five-qubit reference layouts ('ref1' or 'ref2')."""
    if name not in REFERENCE_MAP_EDGES:
        raise ValueError(f"unknown reference map {name!r}")
    return CouplingMap(5, REFERENCE_MAP_EDGES[name])


@dataclass(frozen=True)
class MapSearchProblem:
    """A circuit, the directed edges a device could have, and an edge budget.

    The engine's instance is derived from these on the problem's first
    search and kept on the problem (``_derived``), so every search of one
    problem runs the same instance object and reuses what ``qts_run`` keeps
    for it.
    """

    circuit: Program
    candidate_edges: tuple[tuple[int, int], ...]
    edge_budget: int = DEFAULT_EDGE_BUDGET

    def __post_init__(self) -> None:
        if not self.candidate_edges:
            raise ValueError("need at least one candidate edge")
        if len(self.candidate_edges) > MAX_CANDIDATE_EDGES:
            raise ValueError(
                f"{len(self.candidate_edges)} candidate edges exceed the limit of "
                f"{MAX_CANDIDATE_EDGES}"
            )
        # CouplingMap rejects non-integer and negative endpoints, self-loops
        # and duplicates.
        CouplingMap.spanning(self.candidate_edges)
        # Stored as an ``int``, under the rule ``SearchConfig`` uses.
        object.__setattr__(self, "edge_budget", _integer("edge_budget", self.edge_budget))
        if self.edge_budget < 0:
            raise ValueError("edge_budget must be >= 0")

    @cached_property
    def _derived(self) -> tuple[KnapsackInstance, tuple[int, ...], KnapsackInstance | None]:
        """``derive_knapsack(self)``, the indices of its profit-bearing edges,
        and the instance over those edges alone that the engine runs (None
        when there is none or the budget is 0), built on first use."""
        instance = derive_knapsack(self)
        kept = tuple(k for k, profit in enumerate(instance.profits) if profit > 0.0)
        engine = None
        if kept and self.edge_budget:
            engine = KnapsackInstance(
                tuple(instance.profits[k] for k in kept),
                tuple(instance.weights[k] for k in kept),
                instance.max_capacity,
            )
        return instance, kept, engine


def all_directed_pairs(n_physical: int) -> tuple[tuple[int, int], ...]:
    """Every directed edge over ``n_physical`` qubits, lexicographic order."""
    return tuple(
        (a, b) for a in range(n_physical) for b in range(n_physical) if a != b
    )


def derive_knapsack(problem: MapSearchProblem) -> KnapsackInstance:
    """Translate edge selection into a knapsack instance (one item per edge).

    The circuit's cx pairs are tallied once, and edge ``(a, b)`` earns
    ``_support`` of the cx from ``a`` to ``b`` and of those from ``b`` to
    ``a``: ``support_score`` of the map holding that edge alone, in time
    linear in the edges plus the gates. A budget of at least the candidate
    count fits every edge, so the capacity is the budget capped at that
    count: the same scores, and a float for any budget.
    """
    tally = Counter(cx_pairs(problem.circuit))
    profits = tuple(_support(tally[a, b], tally[b, a]) for a, b in problem.candidate_edges)
    weights = (1.0,) * len(problem.candidate_edges)
    capacity = min(problem.edge_budget, len(weights))
    return KnapsackInstance(profits, weights, float(capacity))


def decode(bits: Sequence[int], problem: MapSearchProblem) -> CouplingMap:
    """Turn a selection vector back into a coupling map.

    The map spans at least the circuit's qubits, growing only as far as the
    selected edges reach.
    """
    if len(bits) != len(problem.candidate_edges):
        raise ValueError(
            f"expected {len(problem.candidate_edges)} bits, got {len(bits)}"
        )
    edges = [edge for edge, bit in zip(problem.candidate_edges, bits) if bit]
    return CouplingMap.spanning(edges, problem.circuit.n_qubits)


def _support(direct: int, reverse: int) -> float:
    """The score of ``direct`` cx on their edge and ``reverse`` cx on its reverse."""
    return DIRECT_EDGE_PROFIT * direct + REVERSED_EDGE_PROFIT * reverse


def support_score(circuit: Program, cmap: CouplingMap) -> float:
    """How well a map supports a circuit's cx gates, counted per gate:
    1.0 when the edge is present, 0.5 when only its reverse is."""
    direct, reverse, _ = direct_support_count(circuit, cmap)
    return _support(direct, reverse)


@dataclass
class ScoredMap:
    """A searched map with its knapsack score and, when routable, a report."""

    map: CouplingMap
    score: float
    routing: RoutingReport | None
    search: SearchResult


def search_best_map(problem: MapSearchProblem, config: SearchConfig | None = None) -> ScoredMap:
    """Run the tabu engine over edge selections and score the winner.

    The engine sees only the profit-bearing edges (module docstring). Its
    run returns a fresh ``SearchResult``, which is updated in place: the
    ``best_solution`` is mapped back to one bit per candidate, 0 on every
    other edge, and the trace and counters stay the run's. A run that ends
    over the budget scores at most 0.0, so the empty selection is put in
    its place, with best evaluation 0.0 and best iteration 0. With no
    profit-bearing edge, or a budget of 0, the empty selection is optimal
    and no search runs. The reported score is bit for bit ``fitness`` of
    the returned selection over ``derive_knapsack(problem)``. Routing the
    circuit on the winning map can fail (for example with a budget of
    zero); the report is then None.

    Both instances are derived once per problem, on its first search, so
    the searches of one problem (one per seed, or per ``search-map`` run)
    give ``qts_run`` one instance object, whose neighbourhood cache and
    move memo carry over from search to search.
    """
    instance, kept, engine = problem._derived
    bits = [0] * instance.n_items
    if engine is not None:
        result = qts_run(engine, config)
        if sum(result.best_solution) <= problem.edge_budget:
            for k, bit in zip(kept, result.best_solution):
                bits[k] = bit
        else:
            result.best_evaluation, result.best_iteration = 0.0, 0
        result.best_solution = tuple(bits)
    else:
        result = SearchResult(
            best_solution=tuple(bits),
            best_evaluation=fitness(instance, bits),
            best_iteration=0,
            iterations_run=0,
            trace=[],
        )
    cmap = decode(result.best_solution, problem)
    try:
        _, report = route(problem.circuit, cmap)
    except RoutingError:
        report = None
    return ScoredMap(map=cmap, score=result.best_evaluation, routing=report, search=result)


def load_teleport() -> Program:
    """The bundled three-qubit teleportation circuit (qubit 0 into qubit 2)."""
    text = resources.files("qtabu").joinpath("assets/teleport.qasm").read_text()
    return parse(text)
