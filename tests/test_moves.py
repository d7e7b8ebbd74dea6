"""Move selection, traces and engine counters against independent oracles.

``oracles.select_move`` scores flips with the vectorised numpy formula; the
engine's Python-float scores must pick the same move bit for bit. Short
seeded runs are replayed from their recorded moves to check the trace and
the counters in ``SearchResult``.
"""

from __future__ import annotations

from collections import deque
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qtabu import tabu
from qtabu.statevector import Gate
from qtabu.tabu import KnapsackInstance, SearchConfig, SearchState, fitness, init_population

MODES = ("with_replacement", "without_replacement")
ITERATION = 10


@st.composite
def fractional_instances(draw, max_items: int = 20) -> KnapsackInstance:
    n = draw(st.integers(1, max_items))
    profits = draw(st.lists(st.floats(0.5, 30.0), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.1, 15.0), min_size=n, max_size=n))
    capacity = sum(weights) * draw(st.floats(0.0, 1.0))
    return KnapsackInstance(tuple(profits), tuple(weights), capacity)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_select_move_matches_vectorised_oracle(data):
    instance = data.draw(fractional_instances())
    n = instance.n_items
    args = (instance.profits, instance.weights, instance.max_capacity)
    current = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    scores = oracles.flip_scores(*args, current)
    items = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    # Entries are appended as iterations pass, so their last tabu
    # iterations never decrease; some have already expired.
    last = st.integers(ITERATION - 3, ITERATION + 8)
    lasts = st.lists(last, min_size=len(items), max_size=len(items))
    tabu_list = list(zip(items, sorted(data.draw(lasts))))
    # Pin the best to one neighbour's score half the time, so aspiration's
    # strict comparison is exercised at equality.
    pinned = data.draw(st.none() | st.integers(0, n - 1))
    if pinned is None:
        best_evaluation = data.draw(st.floats(-1000.0, 600.0))
    else:
        best_evaluation = float(scores[pinned])
    state = SearchState(
        population=init_population(n),
        current=current,
        best_solution=current,
        best_evaluation=best_evaluation,
        best_iteration=0,
        iteration=ITERATION,
        tabu_list=deque(tabu_list),
    )

    move = tabu.select_move(state, instance)

    assert move == oracles.select_move(*args, current, tabu_list, ITERATION, best_evaluation)
    live = {item for item, last in tabu_list if last >= ITERATION}
    blocked = sum(1 for k in live if scores[k] <= best_evaluation)
    assert state.tabu_blocked == blocked
    assert state.all_tabu_fallbacks == int(blocked == n)
    assert state.aspiration_accepts == int(blocked < n and move[1] in live)


def _recorded_run(instance: KnapsackInstance, config: SearchConfig):
    """``qts_run`` with each move's selection before and after, and each
    gate applied to the population, recorded."""
    moves: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    gates: list[Gate] = []
    select_move = tabu.select_move
    apply = tabu.Population.apply

    def record_move(state, *args):
        before = state.current
        move = select_move(state, *args)
        moves.append((before, move[0]))
        return move

    def record_gate(population, op):
        gates.append(op.kind)
        apply(population, op)

    with (
        mock.patch.object(tabu, "select_move", record_move),
        mock.patch.object(tabu.Population, "apply", record_gate),
    ):
        result = tabu.qts_run(instance, config)
    return result, moves, gates


def _stagnation_triggers(result, initial_evaluation: float, stagnation_limit: int) -> int:
    """Replay the stagnation clock from the trace: it restarts on every
    strict improvement and every escape."""
    best, best_iteration, triggers = initial_evaluation, 0, 0
    for iteration, current_eval, _ in result.trace:
        if iteration - best_iteration > stagnation_limit:
            triggers += 1
            best_iteration = iteration
        if current_eval > best:
            best, best_iteration = current_eval, iteration
    return triggers


@settings(max_examples=100, deadline=None)
@given(
    fractional_instances(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(MODES),
    st.integers(2, 60),
    st.integers(1, 10),
    st.integers(1, 6),
)
def test_short_runs_trace_fitness_and_escapes(instance, seed, mode, iterations, stagnation, tenure):
    config = SearchConfig(
        max_iterations=iterations,
        stagnation_limit=stagnation,
        tabu_tenure=min(tenure, iterations - 1),
        population_mode=mode,
        seed=seed,
    )
    result, moves, gates = _recorded_run(instance, config)

    assert len(moves) == len(result.trace) == iterations
    for (before, after), (_, current_eval, _) in zip(moves, result.trace):
        assert sum(a != b for a, b in zip(before, after)) == 1
        assert current_eval == fitness(instance, after)
    best_column = [best for _, _, best in result.trace]
    assert all(b >= a for a, b in zip(best_column, best_column[1:]))
    # The first move starts from the initial draw: no escape can come first.
    initial = fitness(instance, moves[0][0])
    assert _stagnation_triggers(result, initial, stagnation) == result.escapes_cx + result.escapes_h
    assert result.escapes_cx == gates.count(Gate.CX)
    assert result.escapes_h == gates.count(Gate.H)


def test_tenure_at_least_n_forces_all_tabu_fallbacks():
    rng = np.random.default_rng(12)
    for tenure in (4, 6):
        instance = KnapsackInstance(
            tuple(rng.uniform(0.5, 30.0, size=4)), tuple(rng.uniform(0.1, 15.0, size=4)), 20.0
        )
        config = SearchConfig(max_iterations=100, tabu_tenure=tenure, seed=3)
        result = tabu.qts_run(instance, config)
        assert result.all_tabu_fallbacks > 0
        # A fallback means every item was tabu and none aspirated.
        assert result.tabu_blocked >= instance.n_items * result.all_tabu_fallbacks
        assert result.aspiration_accepts + result.all_tabu_fallbacks <= result.iterations_run


def test_escape_counts_split_by_gate():
    instance = KnapsackInstance((3.0, 4.0, 2.5, 1.5, 5.0), (2.0, 3.0, 1.5, 1.0, 4.0), 6.0)
    totals = {"cx": 0, "h": 0}
    for seed in range(20):
        config = SearchConfig(max_iterations=120, stagnation_limit=4, seed=seed)
        result, _, gates = _recorded_run(instance, config)
        assert (result.escapes_cx, result.escapes_h) == (gates.count(Gate.CX), gates.count(Gate.H))
        totals["cx"] += result.escapes_cx
        totals["h"] += result.escapes_h
    assert totals["cx"] > 0 and totals["h"] > 0
