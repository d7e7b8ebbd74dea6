from __future__ import annotations

import re
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_knapsack_max, edge_profits, programs, top_budget_max
from qtabu import mapsearch, tabu
from qtabu.mapsearch import (
    DEFAULT_EDGE_BUDGET,
    DIRECT_EDGE_PROFIT,
    MAX_CANDIDATE_EDGES,
    REVERSED_EDGE_PROFIT,
    MapSearchProblem,
    ScoredMap,
    all_directed_pairs,
    decode,
    derive_knapsack,
    load_teleport,
    reference_map,
    search_best_map,
    support_score,
)
from qtabu.qasm import Program, parse, serialize
from qtabu.routing import CouplingMap
from qtabu.statevector import Gate, GateOp
from qtabu.tabu import SearchConfig, fitness, qts_run

# cx on 11 distinct pairs: 22 directed edges carry profit.
ELEVEN_CX = "qreg q[12];\ncreg c[0];\n" + "".join(
    f"cx q[{k}],q[{k + 1}];\n" for k in range(11)
)


def test_load_teleport_shape():
    program = load_teleport()
    assert program.n_qubits == 3
    assert program.n_cbits == 3
    assert len(program.instructions) == 9
    # canonical text survives a parse round trip
    assert serialize(parse(serialize(program))) == serialize(program)


def test_reference_maps_are_valid():
    for name in ("ref1", "ref2"):
        cmap = reference_map(name)
        assert cmap.n_physical == 5
        assert len(cmap.edges) == 6
    with pytest.raises(ValueError, match="unknown reference map"):
        reference_map("ref3")


def test_all_directed_pairs_count_and_order():
    pairs = all_directed_pairs(3)
    assert pairs == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def test_problem_validation():
    circuit = load_teleport()
    with pytest.raises(ValueError, match="at least one"):
        MapSearchProblem(circuit, ())
    with pytest.raises(ValueError, match="self-loop"):
        MapSearchProblem(circuit, ((1, 1),))
    with pytest.raises(ValueError, match="negative"):
        MapSearchProblem(circuit, ((-1, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        MapSearchProblem(circuit, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="edge_budget"):
        MapSearchProblem(circuit, ((0, 1),), edge_budget=-1)
    for budget in (float("nan"), 2.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match=re.escape(f"edge_budget must be an integer, got {budget!r}")):
            MapSearchProblem(circuit, ((0, 1),), edge_budget=budget)
    budget = MapSearchProblem(circuit, ((0, 1),), edge_budget=np.int64(3)).edge_budget
    assert type(budget) is int and budget == 3
    pairs = all_directed_pairs(65)
    MapSearchProblem(circuit, pairs[:MAX_CANDIDATE_EDGES])
    with pytest.raises(ValueError, match="4097 candidate edges exceed the limit of 4096"):
        MapSearchProblem(circuit, pairs[: MAX_CANDIDATE_EDGES + 1])


def test_derive_knapsack_teleport_profits():
    # teleport has two cx gates: 1->2 and 0->1
    circuit = load_teleport()
    candidates = all_directed_pairs(3)
    problem = MapSearchProblem(circuit, candidates, edge_budget=4)
    inst = derive_knapsack(problem)
    expected = {
        (0, 1): DIRECT_EDGE_PROFIT,
        (1, 0): REVERSED_EDGE_PROFIT,
        (1, 2): DIRECT_EDGE_PROFIT,
        (2, 1): REVERSED_EDGE_PROFIT,
    }
    for edge, profit in zip(candidates, inst.profits):
        assert profit == expected.get(edge, 0.0)
    assert inst.weights == (1.0,) * len(candidates)
    assert inst.max_capacity == 4.0


def test_derive_knapsack_one_edge_profits():
    """A repeated pair counts once per gate, in both orientations, and an
    edge past the circuit's qubits supports nothing."""
    circuit = parse("qreg q[2];\ncreg c[0];\ncx q[0],q[1];\ncx q[0],q[1];\ncx q[1],q[0];\n")
    inst = derive_knapsack(MapSearchProblem(circuit, ((0, 1), (1, 0), (3, 4))))
    assert inst.profits == (2.5, 2.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_derived_profits_are_one_edge_support_scores(data):
    """Each edge's profit is, to the byte, ``support_score`` of the map that
    holds that edge alone; the candidates always reach past the circuit."""
    circuit = data.draw(programs(max_qubits=6))
    n_physical = circuit.n_qubits + data.draw(st.integers(1, 3))
    pairs = all_directed_pairs(n_physical)
    candidates = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=30, unique=True))
    past = (circuit.n_qubits, data.draw(st.integers(0, circuit.n_qubits - 1)))
    if past not in candidates:
        candidates.insert(data.draw(st.integers(0, len(candidates))), past)
    problem = MapSearchProblem(circuit, tuple(candidates))
    as_bytes = struct.Struct("<d").pack
    assert [as_bytes(profit) for profit in derive_knapsack(problem).profits] == [
        as_bytes(support_score(circuit, CouplingMap.spanning((edge,)))) for edge in candidates
    ]


def test_derived_profits_over_every_pair_of_64_qubits():
    """All 4,032 directed pairs of 64 qubits against the cx census, on a
    seeded circuit of 300 cx over 40 qubits with repeated and reversed pairs."""
    rng = np.random.default_rng(64)
    pairs = [rng.choice(40, size=2, replace=False) for _ in range(150)]
    pairs += [pairs[k][::-1] for k in range(0, 150, 3)] + pairs[:100]
    circuit = Program(40, 0, [GateOp(Gate.CX, int(t), control=int(c)) for c, t in pairs])
    candidates = all_directed_pairs(64)
    assert len(candidates) == 4032
    profits = derive_knapsack(MapSearchProblem(circuit, candidates)).profits
    assert list(profits) == edge_profits(circuit, candidates)
    assert sum(profit > 0.0 for profit in profits) > 200


def test_search_best_map_limits_profit_bearing_edges_only():
    """Of 132 candidates the engine sees only the 22 that carry profit, and
    the selection lands on those alone."""
    circuit = parse(ELEVEN_CX)
    problem = MapSearchProblem(circuit, all_directed_pairs(12))
    instance = derive_knapsack(problem)
    assert instance.n_items == 132
    kept = [k for k, profit in enumerate(instance.profits) if profit > 0]
    assert len(kept) == 22
    # The engine runs on those 22; six direct edges fill the budget of 6.
    scored = search_best_map(problem, SearchConfig(seed=0))
    assert scored.score == 6.0 == DEFAULT_EDGE_BUDGET * DIRECT_EDGE_PROFIT
    assert scored.search.iterations_run == 500
    assert len(scored.search.best_solution) == 132
    assert {k for k, bit in enumerate(scored.search.best_solution) if bit} <= set(kept)


def test_search_best_map_chain_of_eleven_cx_gate():
    """All 132 pairs of 12 qubits, budget 11, seeds 0-99: the map holding
    the eleven cx edges scores 11.0 and routes them all directly."""
    problem = MapSearchProblem(parse(ELEVEN_CX), all_directed_pairs(12), 11)
    hits = 0
    for seed in range(100):
        scored = search_best_map(problem, SearchConfig(seed=seed))
        report = scored.routing
        hits += (
            scored.score == 11.0
            and report is not None
            and (report.direct_count, report.swap_count) == (11, 0)
        )
    assert hits >= 90


def test_decode_selects_in_candidate_order():
    circuit = load_teleport()
    candidates = ((0, 1), (1, 2), (2, 0), (3, 4))
    problem = MapSearchProblem(circuit, candidates)
    cmap = decode((1, 0, 0, 1), problem)
    assert cmap.edges == ((0, 1), (3, 4))
    assert cmap.n_physical == 5  # spans the largest selected endpoint


def test_decode_empty_selection_spans_circuit():
    circuit = load_teleport()
    problem = MapSearchProblem(circuit, ((0, 1), (1, 2)))
    cmap = decode((0, 0), problem)
    assert cmap.edges == ()
    assert cmap.n_physical == 3


def test_support_score_reference_maps():
    circuit = load_teleport()
    for name in ("ref1", "ref2"):
        assert support_score(circuit, reference_map(name)) == 2.0
    # both cx gates land direct, so this is the 1.0-per-cx ceiling
    assert support_score(circuit, reference_map("ref2")) == DIRECT_EDGE_PROFIT * 2


def test_support_score_counts_reversals_at_half():
    circuit = parse("qreg q[2];\ncreg c[0];\ncx q[0],q[1];\n")
    forward = CouplingMap(2, ((0, 1),))
    backward = CouplingMap(2, ((1, 0),))
    assert support_score(circuit, forward) == 1.0
    assert support_score(circuit, backward) == 0.5
    assert support_score(circuit, CouplingMap(2, ())) == 0.0


def test_search_best_map_matches_brute_force():
    circuit = load_teleport()
    problem = MapSearchProblem(circuit, all_directed_pairs(5), edge_budget=6)
    inst = derive_knapsack(problem)
    optimum = brute_force_knapsack_max(inst.profits, inst.weights, inst.max_capacity)
    result = search_best_map(problem, SearchConfig(seed=7))
    assert isinstance(result, ScoredMap)
    assert result.score == optimum == 3.0
    assert result.score == fitness(inst, result.search.best_solution)
    assert result.routing is not None
    assert result.routing.swap_count == 0
    assert (result.routing.direct_count, result.routing.reversed_count) == (2, 0)
    assert support_score(circuit, result.map) >= 2.0 - 1e-12


def test_search_best_map_budget_zero_scores_zero():
    """At budget 0 the empty map is optimal; a one-edge map ties it at 0.0,
    so no search runs and the map is empty at every seed."""
    circuit = load_teleport()
    for n_physical in (3, 5):
        problem = MapSearchProblem(circuit, all_directed_pairs(n_physical), edge_budget=0)
        for seed in range(8):
            result = search_best_map(problem, SearchConfig(max_iterations=50, seed=seed))
            assert repr(result.score) == "0.0"
            assert result.map.edges == ()
            assert not any(result.search.best_solution)
            assert (result.search.iterations_run, result.search.trace) == (0, [])


def test_search_best_map_unroutable_selection_reports_none():
    # candidates that cannot connect the three teleport qubits
    circuit = load_teleport()
    problem = MapSearchProblem(circuit, ((3, 4),), edge_budget=6)
    result = search_best_map(problem, SearchConfig(max_iterations=20, seed=1))
    assert result.score == 0.0
    assert result.routing is None


def test_search_best_map_without_profit_runs_no_search():
    # teleport's cx gates are 0->1 and 1->2; none of these edges serves one
    problem = MapSearchProblem(load_teleport(), ((0, 2), (2, 0), (3, 4)))
    result = search_best_map(problem, SearchConfig(seed=0))
    assert repr(result.score) == "0.0"
    assert result.map.edges == ()
    assert result.search.best_solution == (0, 0, 0)
    assert (result.search.iterations_run, result.search.best_iteration) == (0, 0)
    assert result.search.trace == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
            st.floats(0.0, 50.0),
        ),
        min_size=1,
        max_size=10,
    ),
    st.floats(-50.0, 200.0),
)
def test_dropping_zero_profit_items_keeps_the_optimum(items, capacity):
    profits, weights = zip(*items)
    kept = [(p, w) for p, w in items if p > 0.0]
    full = brute_force_knapsack_max(profits, weights, capacity)
    pruned = brute_force_knapsack_max(
        tuple(p for p, _ in kept), tuple(w for _, w in kept), capacity
    )
    assert full == pruned


@st.composite
def map_problems(draw) -> MapSearchProblem:
    """A random circuit on at most 5 qubits and a random subset of the
    directed pairs over its qubits and up to two more."""
    circuit = draw(programs(max_qubits=5))
    pairs = all_directed_pairs(max(2, circuit.n_qubits + draw(st.integers(0, 2))))
    candidates = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=20, unique=True)
    )
    return MapSearchProblem(circuit, tuple(candidates), draw(st.integers(0, 6)))


@settings(max_examples=100, deadline=None)
@given(map_problems(), st.integers(0, 2**32 - 1))
def test_search_best_map_maps_the_pruned_run_back(problem, seed):
    instance = derive_knapsack(problem)
    assert list(instance.profits) == edge_profits(problem.circuit, problem.candidate_edges)
    result = search_best_map(problem, SearchConfig(max_iterations=60, seed=seed))
    bits = result.search.best_solution
    assert len(bits) == len(problem.candidate_edges)
    assert all(bit == 0 for bit, profit in zip(bits, instance.profits) if profit == 0.0)
    as_bytes = struct.Struct("<d").pack
    assert as_bytes(result.score) == as_bytes(fitness(instance, bits))
    assert 0.0 <= result.score <= brute_force_knapsack_max(
        instance.profits, instance.weights, instance.max_capacity
    )
    assert len(result.map.edges) <= problem.edge_budget


def test_a_run_that_ends_over_the_budget_returns_the_empty_map():
    """Teleport over the 20 directed pairs of 5 qubits at budget 1, with one
    iteration: 72 of 200 seeds end on a selection of more than one edge,
    17 of them below 0.0. Such a selection scores at most the empty map's
    0.0, so the empty map is returned, with best iteration 0 and the run's
    trace and counters."""
    problem = MapSearchProblem(load_teleport(), all_directed_pairs(5), edge_budget=1)
    engine = problem._derived[2]
    replaced = negative = 0
    for seed in range(200):
        config = SearchConfig(max_iterations=1, seed=seed)
        result = search_best_map(problem, config)
        run = qts_run(engine, config)
        assert len(result.map.edges) <= 1
        if sum(run.best_solution) > 1:
            replaced += 1
            negative += run.best_evaluation < 0.0
            assert result.map.edges == ()
            assert repr(result.score) == repr(result.search.best_evaluation) == "0.0"
            assert not any(result.search.best_solution)
            assert result.search.best_iteration == 0
            expected = replace(
                run,
                best_solution=result.search.best_solution,
                best_evaluation=0.0,
                best_iteration=0,
            )
            assert repr(result.search) == repr(expected)
        else:
            assert result.score == run.best_evaluation >= 0.0
    assert (replaced, negative) == (72, 17)


def test_search_best_map_is_deterministic():
    circuit = load_teleport()
    problem = MapSearchProblem(circuit, all_directed_pairs(4), edge_budget=5)
    config = SearchConfig(max_iterations=150, seed=42)
    first = search_best_map(problem, config)
    second = search_best_map(problem, config)
    assert first.map == second.map
    assert first.score == second.score
    assert first.search == second.search


def test_searches_of_one_problem_derive_its_instance_once():
    """Every search of one problem hands ``qts_run`` the same instance
    object, derived once, so the engine's tables serve them all; each run
    equals a search of a new equal problem."""
    problem = MapSearchProblem(load_teleport(), all_directed_pairs(5), edge_budget=6)
    derived, engines = [], []

    def counted_derive(problem):
        derived.append(problem)
        return derive_knapsack(problem)

    def recorded_run(instance, config):
        engines.append(instance)
        return qts_run(instance, config)

    with (
        mock.patch.object(mapsearch, "derive_knapsack", counted_derive),
        mock.patch.object(mapsearch, "qts_run", recorded_run),
    ):
        shared = [search_best_map(problem, SearchConfig(seed=seed)) for seed in range(5)]
    assert derived == [problem]
    assert all(engine is engines[0] for engine in engines) and len(engines) == 5
    for seed, scored in enumerate(shared):
        again = MapSearchProblem(problem.circuit, problem.candidate_edges, problem.edge_budget)
        assert repr(scored) == repr(search_best_map(again, SearchConfig(seed=seed)))


def test_searches_of_one_problem_share_their_moves():
    """A move depends on neither the seed nor the stagnation limit, so the
    searches of one problem replay each other's moves: the first of twenty
    searches with seeds 0-19 and three stagnation limits calls
    ``select_move`` 92 times, and the other nineteen add few calls. Each
    result equals a search of a new equal problem."""
    problem = MapSearchProblem(load_teleport(), all_directed_pairs(5), edge_budget=6)
    configs = [
        SearchConfig(seed=seed, stagnation_limit=(5, 20, 40)[seed % 3]) for seed in range(20)
    ]
    calls = 0
    select_move = tabu.select_move

    def counted_move(*args):
        nonlocal calls
        calls += 1
        return select_move(*args)

    with mock.patch.object(tabu, "select_move", counted_move):
        shared = [search_best_map(problem, config) for config in configs]
    assert calls < 300
    for config, scored in zip(configs, shared):
        again = MapSearchProblem(problem.circuit, problem.candidate_edges, problem.edge_budget)
        assert repr(scored) == repr(search_best_map(again, config))


def _counted(name, calls):
    """A stand-in for ``mapsearch.<name>`` that logs each call's arguments."""
    function = getattr(mapsearch, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    return mock.patch.object(mapsearch, name, counted)


def test_a_repeated_winner_is_decoded_and_routed_once():
    """Twenty searches of one problem, seeds 0-19, land on one winner: it is
    decoded and routed once, and every result holds that one map and report."""
    problem = MapSearchProblem(load_teleport(), all_directed_pairs(5), edge_budget=6)
    decoded, routed = [], []
    with _counted("decode", decoded), _counted("route", routed):
        shared = [search_best_map(problem, SearchConfig(seed=seed)) for seed in range(20)]
    assert len(decoded) == len(routed) == 1
    assert routed[0][1] is shared[0].map
    assert shared[0].routing is not None
    for scored in shared[1:]:
        assert scored.map is shared[0].map and scored.routing is shared[0].routing
        assert scored.search is not shared[0].search


def test_winners_that_change_are_routed_afresh():
    """The 200 one-iteration searches at budget 1 of
    ``test_a_run_that_ends_over_the_budget_returns_the_empty_map`` on one
    shared problem: the winner changes 151 times, each change is routed
    once more, and each result equals a search of a new equal problem."""
    problem = MapSearchProblem(load_teleport(), all_directed_pairs(5), edge_budget=1)
    configs = [SearchConfig(max_iterations=1, seed=seed) for seed in range(200)]
    routed = []
    with _counted("route", routed):
        shared = [search_best_map(problem, config) for config in configs]
    winners = [scored.search.best_solution for scored in shared]
    changes = sum(last != winner for last, winner in zip(winners, winners[1:]))
    assert (len(set(winners)), changes, len(routed)) == (5, 151, 152)
    for config, scored in zip(configs, shared):
        again = MapSearchProblem(problem.circuit, problem.candidate_edges, problem.edge_budget)
        assert repr(scored) == repr(search_best_map(again, config))


def test_an_unroutable_winner_reports_none_on_every_repeat():
    """Budget 1 on ``ELEVEN_CX``: every seed picks the edge (0, 1), which
    cannot route the chain; the failure is routed once and every search
    reports None."""
    problem = MapSearchProblem(parse(ELEVEN_CX), all_directed_pairs(12), 1)
    routed = []
    with _counted("route", routed):
        shared = [search_best_map(problem, SearchConfig(seed=seed)) for seed in range(10)]
    assert len(routed) == 1
    for scored in shared:
        assert (scored.map.edges, scored.score, scored.routing) == (((0, 1),), 1.0, None)


def test_a_searched_problem_equals_an_unsearched_one():
    """The derived instances and the last winner are kept on the problem,
    but out of its ``==`` and ``repr``."""
    searched = MapSearchProblem(load_teleport(), all_directed_pairs(5), edge_budget=6)
    fresh = MapSearchProblem(load_teleport(), all_directed_pairs(5), edge_budget=6)
    search_best_map(searched, SearchConfig(seed=0))
    assert "_winner" in vars(searched) and "_winner" not in vars(fresh)
    assert searched == fresh and fresh == searched
    assert repr(searched) == repr(fresh)


def test_search_best_map_repeated_seeds_hit_optimum():
    circuit = load_teleport()
    problem = MapSearchProblem(circuit, all_directed_pairs(5), edge_budget=DEFAULT_EDGE_BUDGET)
    inst = derive_knapsack(problem)
    optimum = brute_force_knapsack_max(inst.profits, inst.weights, inst.max_capacity)
    hits = sum(
        1
        for seed in range(30)
        if search_best_map(problem, SearchConfig(seed=seed)).score == optimum
    )
    assert hits >= 27


def test_top_budget_max_is_the_unit_weight_optimum():
    """On unit weights the knapsack optimum is the sum of the B largest
    profits, for every budget from none to more than the items."""
    rng = np.random.default_rng(5)
    for n_items in range(17):
        # Profits in halves, as map search's are: every sum is exact.
        profits = tuple(float(p) for p in rng.integers(0, 9, size=n_items) / 2)
        for budget in sorted({0, 1, n_items // 2, n_items, n_items + 1}):
            assert top_budget_max(profits, budget) == brute_force_knapsack_max(
                profits, (1.0,) * n_items, float(budget)
            )


@pytest.mark.parametrize(
    "n_logical, n_physical, budget",
    [(3, 4, 0), (3, 6, 2), (4, 8, 3), (5, 12, 5), (6, 24, 7), (8, 64, 9)],
)
def test_search_best_map_score_is_the_top_budget_sum(n_logical, n_physical, budget):
    """The map score is the sum of the budget's largest edge profits, on
    seeded random cx circuits of up to 64 physical qubits (4,032
    candidates); every budget but 0 is below the profit-bearing edges."""
    rng = np.random.default_rng(n_physical)
    pairs = [rng.choice(n_logical, size=2, replace=False) for _ in range(3 * n_logical)]
    circuit = Program(n_logical, 0, [GateOp(Gate.CX, int(t), control=int(c)) for c, t in pairs])
    candidates = all_directed_pairs(n_physical)
    optimum = top_budget_max(edge_profits(circuit, candidates), budget)
    problem = MapSearchProblem(circuit, candidates, budget)
    for seed in range(5):
        assert search_best_map(problem, SearchConfig(seed=seed)).score == optimum


def test_a_binding_budget_can_pick_an_unroutable_winner():
    """Budget 6 is below ELEVEN_CX's eleven interacting pairs: the winner
    holds the six best edges, which leave the chain unconnected."""
    problem = MapSearchProblem(parse(ELEVEN_CX), all_directed_pairs(12), 6)
    scored = search_best_map(problem, SearchConfig(seed=0))
    assert scored.score == top_budget_max(derive_knapsack(problem).profits, 6) == 6.0
    assert scored.routing is None


def test_search_best_map_prefers_direct_orientations():
    # with budget for only two edges, both cx gates should land direct
    circuit = load_teleport()
    problem = MapSearchProblem(circuit, all_directed_pairs(3), edge_budget=2)
    result = search_best_map(problem, SearchConfig(seed=11))
    assert result.score == 2.0
    assert set(result.map.edges) == {(0, 1), (1, 2)}


def test_derived_profit_totals_match_cx_census():
    # total direct profit over all candidates equals 1.5x the cx count,
    # because each cx contributes 1.0 to its edge and 0.5 to the reverse
    circuit = load_teleport()
    problem = MapSearchProblem(circuit, all_directed_pairs(3))
    inst = derive_knapsack(problem)
    n_cx = sum(
        1 for op in circuit.instructions if getattr(op, "control", None) is not None
    )
    assert float(np.sum(inst.profits)) == n_cx * (DIRECT_EDGE_PROFIT + REVERSED_EDGE_PROFIT)
