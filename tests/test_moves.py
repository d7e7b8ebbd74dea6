"""Move selection, traces and engine counters against independent oracles.

``oracles.select_move`` scores flips with the vectorised numpy formula; the
engine's Python-float scores must pick the same move bit for bit. Short
seeded runs are replayed from their recorded moves to check the trace and
the counters in ``SearchResult``. A run scores each selection once and
reuses it from a bounded cache, and replays a repeated move without
calling ``select_move`` from a memo that later runs on the same instance
share, following links from each entry to the next. Runs watched through a patched ``select_move`` are run with no room
in the cache (``CACHE_SCORES = 0``), so every move passes through it, and
must equal the default run. Whole
runs are checked move by move against the oracle, against runs that
rescore every visit, and for how often they score and pick a move.
"""

from __future__ import annotations

import gc
import weakref
from collections import deque
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qtabu import mapsearch, tabu
from qtabu.mapsearch import MapSearchProblem, all_directed_pairs, load_teleport, search_best_map
from qtabu.statevector import Gate, GateOp, StateVector, apply_gate, normalized_cdf, zero_state
from qtabu.tabu import KnapsackInstance, SearchConfig, fitness

MODES = ("with_replacement", "without_replacement")


@st.composite
def fractional_instances(draw, max_items: int = 20, min_items: int = 1) -> KnapsackInstance:
    n = draw(st.integers(min_items, max_items))
    profits = draw(st.lists(st.floats(0.5, 30.0), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.1, 15.0), min_size=n, max_size=n))
    capacity = sum(weights) * draw(st.floats(0.0, 1.0))
    return KnapsackInstance(tuple(profits), tuple(weights), capacity)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_select_move_matches_vectorised_oracle(data):
    _check_move_against_oracle(data, data.draw(fractional_instances()))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_select_move_matches_vectorised_oracle_past_20_items(data):
    _check_move_against_oracle(data, data.draw(fractional_instances(128, min_items=21)))


def _move(instance: KnapsackInstance, current, tabu_list, best_evaluation):
    """``select_move`` from ``current`` under ``tabu_list`` and the best."""
    hood = tabu._neighbourhood(instance, current)
    return tabu.select_move(hood, current, deque(tabu_list), best_evaluation)


def _check_move_against_oracle(data, instance: KnapsackInstance) -> None:
    """One move from a drawn selection, tabu list and best, against the
    oracle's move and the counter increments it implies."""
    n = instance.n_items
    args = (instance.profits, instance.weights, instance.max_capacity)
    current = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    scores = oracles.flip_scores(*args, current)
    # The items of the last moves, oldest first; an item may recur.
    tabu_list = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    # Pin the best to one neighbour's score half the time, so aspiration's
    # strict comparison is exercised at equality.
    pinned = data.draw(st.none() | st.integers(0, n - 1))
    if pinned is None:
        best_evaluation = data.draw(st.floats(-1000.0, 600.0))
    else:
        best_evaluation = float(scores[pinned])
    chosen, flipped, *counts = _move(instance, current, tabu_list, best_evaluation)

    assert (chosen, flipped) == oracles.select_move(*args, current, tabu_list, best_evaluation)
    live = set(tabu_list)
    blocked = sum(1 for k in live if scores[k] <= best_evaluation)
    assert counts == [blocked, int(blocked < n and flipped in live), int(blocked == n)]


def test_an_item_twice_in_the_tabu_list_counts_once():
    """Flip scores from the empty selection are 3.0, 4.0 and 2.0. Item 1,
    listed twice, is blocked once under a best of 5.0 and aspirates once
    under 3.5; with every item listed and none aspirating, three distinct
    items are blocked out of five entries and the oldest entry is flipped."""
    instance = KnapsackInstance((3.0, 4.0, 2.0), (1.0, 1.0, 1.0), 10.0)
    current = (0, 0, 0)
    cases = [
        ([1, 1], 5.0, ((1, 0, 0), 0), (1, 0, 0)),
        ([1, 1], 3.5, ((0, 1, 0), 1), (0, 1, 0)),
        ([1, 0, 1, 2, 0], 10.0, ((0, 1, 0), 1), (3, 0, 1)),
    ]
    for tabu_list, best, move, counters in cases:
        assert _move(instance, current, tabu_list, best) == move + counters
        assert move == oracles.select_move(
            instance.profits, instance.weights, instance.max_capacity, current, tabu_list, best
        )


def _escape_gate(before: StateVector, after: StateVector) -> Gate:
    """The one escape gate whose ``apply_gate`` steps head ``before`` to
    head ``after``, bit for bit."""
    ops = (GateOp(Gate.CX, 1, control=0), GateOp(Gate.H, 1))
    if before.n_qubits == 1:
        ops = (GateOp(Gate.H, 0),)
    stepped = after.amplitudes.tobytes()
    kinds = [op.kind for op in ops if apply_gate(before.copy(), op).amplitudes.tobytes() == stepped]
    assert len(kinds) == 1, kinds
    return kinds[0]


def _recorded_run(instance: KnapsackInstance, config: SearchConfig):
    """``qts_run`` with each move's selection before and after, and the
    gate of each escape, recorded. A run draws from the population first
    and once after each escape, which moves the population to a state of
    its escape machine; the gate is the one the kernel steps the head of
    one draw to the next's by. The recorded run has no room in the cache,
    so every move goes through ``select_move``; it must equal the default
    run."""
    moves: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    heads: list[StateVector] = []
    select_move = tabu.select_move
    sample = tabu.Population.sample

    def record_move(hood, current, *args):
        move = select_move(hood, current, *args)
        moves.append((current, move[0]))
        return move

    def record_draw(population, rng):
        heads.append(population.head)
        return sample(population, rng)

    with (
        mock.patch.object(tabu, "CACHE_SCORES", 0),
        mock.patch.object(tabu, "select_move", record_move),
        mock.patch.object(tabu.Population, "sample", record_draw),
    ):
        result = tabu.qts_run(instance, config)
    assert repr(result) == repr(tabu.qts_run(instance, config))
    gates = [_escape_gate(before, after) for before, after in zip(heads, heads[1:])]
    return result, moves, gates


def _replay_clock(result, initial_evaluation: float, stagnation_limit: int) -> tuple[int, int]:
    """Replay the stagnation clock from the trace: it restarts on every
    strict improvement and every escape. Returns the escapes it triggers
    and the iteration at which the best value was first reached."""
    best, best_iteration, clock_start, triggers = initial_evaluation, 0, 0, 0
    for iteration, current_eval, _ in result.trace:
        if iteration - clock_start > stagnation_limit:
            triggers += 1
            clock_start = iteration
        if current_eval > best:
            best, best_iteration, clock_start = current_eval, iteration, iteration
    return triggers, best_iteration


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
    escapes = result.escapes_cx + result.escapes_h
    assert _replay_clock(result, initial, stagnation) == (escapes, result.best_iteration)
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


def test_tenure_holds_over_whole_runs():
    """An item flipped at iteration i stays tabu through i + tenure, so
    flipping it again that soon must be an aspiration accept (a score above
    the best so far) or an all-tabu fallback."""
    rng = np.random.default_rng(21)
    select_move = tabu.select_move
    reflips = 0
    for n in range(4, 13):
        profits, weights = rng.uniform(0.5, 30.0, size=n), rng.uniform(0.1, 15.0, size=n)
        instance = KnapsackInstance(tuple(profits), tuple(weights), float(0.4 * weights.sum()))
        args = (instance.profits, instance.weights, instance.max_capacity)
        for mode in MODES:
            for seed, tenure in enumerate((None, 1, 3)):
                config = SearchConfig(
                    max_iterations=150,
                    stagnation_limit=8,
                    tabu_tenure=tenure,
                    population_mode=mode,
                    seed=seed,
                )
                moves = []

                def record_move(hood, current, tabu_list, best):
                    score = oracles.flip_scores(*args, current)
                    move = select_move(hood, current, tabu_list, best)
                    # With no room in the cache, one call per iteration.
                    iteration = len(moves) + 1
                    moves.append((iteration, move[1], score[move[1]] > best, move[3:]))
                    return move

                with (
                    mock.patch.object(tabu, "CACHE_SCORES", 0),
                    mock.patch.object(tabu, "select_move", record_move),
                ):
                    observed = tabu.qts_run(instance, config)
                assert repr(observed) == repr(tabu.qts_run(instance, config))
                assert len(moves) == config.max_iterations
                expiry = tenure if tenure is not None else max(2, n // 4)
                last_flip: dict[int, int] = {}
                for iteration, item, beats_best, added in moves:
                    if item in last_flip and iteration <= last_flip[item] + expiry:
                        reflips += 1
                        aspiration = beats_best and added == (1, 0)
                        assert aspiration or added == (0, 1), (n, mode, iteration)
                    last_flip[item] = iteration
    assert reflips > 0


RUN_ITERATIONS = 150


def _run_config(seed, mode, stagnation, tenure) -> SearchConfig:
    return SearchConfig(
        max_iterations=RUN_ITERATIONS,
        stagnation_limit=stagnation,
        tabu_tenure=tenure,
        population_mode=mode,
        seed=seed,
    )


RUN_SETTINGS = (
    fractional_instances(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(MODES),
    st.integers(1, 12),
    st.integers(1, 8),
)


@settings(max_examples=100, deadline=None)
@given(*RUN_SETTINGS)
def test_every_move_of_a_run_matches_the_oracle(instance, seed, mode, stagnation, tenure):
    """Every move of a run that rescores each visit must be the oracle's
    move for that iteration's tabu list and best, with the counters it
    implies; the default run, which picks most moves from cached
    neighbourhoods or replays them from its memo, must equal it."""
    args = (instance.profits, instance.weights, instance.max_capacity)
    select_move = tabu.select_move
    moves = 0

    def checked_move(hood, current, tabu_list, best):
        nonlocal moves
        move = select_move(hood, current, tabu_list, best)
        assert move[:2] == oracles.select_move(*args, current, list(tabu_list), best)
        scores = oracles.flip_scores(*args, current)
        live = set(tabu_list)
        blocked = sum(1 for k in live if scores[k] <= best)
        fallback = blocked == instance.n_items
        assert move[2:] == (blocked, int(not fallback and move[1] in live), int(fallback))
        moves += 1
        return move

    config = _run_config(seed, mode, stagnation, tenure)
    with (
        mock.patch.object(tabu, "CACHE_SCORES", 0),
        mock.patch.object(tabu, "select_move", checked_move),
    ):
        observed = tabu.qts_run(instance, config)
    assert moves == RUN_ITERATIONS
    assert repr(observed) == repr(tabu.qts_run(instance, config))


@settings(max_examples=100, deadline=None)
@given(*RUN_SETTINGS)
def test_runs_that_rescore_every_visit_are_identical(instance, seed, mode, stagnation, tenure):
    _check_rescored_run(instance, _run_config(seed, mode, stagnation, tenure))


@settings(max_examples=15, deadline=None)
@given(fractional_instances(128, min_items=21), *RUN_SETTINGS[1:])
def test_runs_past_20_items_that_rescore_every_visit_are_identical(
    instance, seed, mode, stagnation, tenure
):
    _check_rescored_run(instance, _run_config(seed, mode, stagnation, tenure))


def _check_rescored_run(instance: KnapsackInstance, config: SearchConfig) -> None:
    """With no room in the cache every lookup scores afresh; the result,
    trace and counters must not change, down to the sign of a zero."""
    cached = tabu.qts_run(instance, config)
    with mock.patch.object(tabu, "CACHE_SCORES", 0):
        rescored = tabu.qts_run(instance, config)
    assert repr(rescored) == repr(cached)


def _scored_run(instance: KnapsackInstance, config: SearchConfig):
    """``qts_run`` with the selections it scored and every selection it
    looked up, in order: each draw (the first and each escape's) and each
    result of a ``select_move`` call. A move replayed from the memo looks
    nothing up, so only a run with no room in the cache lists every move.
    Every draw, from the first to each escape's, is a ``Population.sample``."""
    scored: list[tuple[int, ...]] = []
    looked_up: list[tuple[int, ...]] = []
    neighbourhood, select_move = tabu._neighbourhood, tabu.select_move
    sample = tabu.Population.sample

    def record_score(instance, bits):
        scored.append(bits)
        return neighbourhood(instance, bits)

    def record_move(*args):
        move = select_move(*args)
        looked_up.append(move[0])
        return move

    def record_draw(population, rng):
        bits = sample(population, rng)
        looked_up.append(bits)
        return bits

    with (
        mock.patch.object(tabu, "_neighbourhood", record_score),
        mock.patch.object(tabu, "select_move", record_move),
        mock.patch.object(tabu.Population, "sample", record_draw),
    ):
        result = tabu.qts_run(instance, config)
    return result, scored, looked_up


def test_each_selection_is_scored_once_per_run():
    rng = np.random.default_rng(8)
    profits, weights = rng.uniform(0.5, 30.0, size=10), rng.uniform(0.1, 15.0, size=10)
    instance = KnapsackInstance(tuple(profits), tuple(weights), float(0.4 * weights.sum()))
    config = SearchConfig(max_iterations=500, seed=4)

    result, scored, _ = _scored_run(instance, config)
    with mock.patch.object(tabu, "CACHE_SCORES", 0):
        observed, rescored, looked_up = _scored_run(instance, config)
    assert repr(observed) == repr(result)
    escapes = result.escapes_cx + result.escapes_h
    assert len(looked_up) == 1 + escapes + config.max_iterations
    # The default run scores every selection the run stands on, once.
    assert sorted(scored) == sorted(set(looked_up))
    assert len(scored) < config.max_iterations // 2
    assert rescored == looked_up


def _long_run() -> tuple[KnapsackInstance, SearchConfig]:
    """A fractional 20-item instance and a 20,000-iteration config, whose
    run goes past the room of both the cache and the memo."""
    rng = np.random.default_rng(9)
    profits, weights = rng.uniform(0.5, 30.0, size=20), rng.uniform(0.1, 15.0, size=20)
    instance = KnapsackInstance(tuple(profits), tuple(weights), float(0.4 * weights.sum()))
    return instance, SearchConfig(max_iterations=20_000, seed=6)


def test_a_long_run_stores_no_more_than_the_bound():
    """Past ``CACHE_SCORES // n`` distinct selections, new ones are scored
    on every lookup: the calls are exactly the misses of a cache that keeps
    the first ones it scored and no more. A move replayed from the memo
    brings its neighbourhood along and looks nothing up, so the default
    run's lookups are its draws and the moves ``select_move`` picked."""
    instance, config = _long_run()
    result, scored, looked_up = _scored_run(instance, config)
    with mock.patch.object(tabu, "CACHE_SCORES", 0):
        observed, _, visited = _scored_run(instance, config)
    assert repr(observed) == repr(result)
    assert set(looked_up) == set(visited)
    room = tabu.CACHE_SCORES // instance.n_items
    held: set[tuple[int, ...]] = set()
    misses = []
    for bits in looked_up:
        if bits not in held:
            misses.append(bits)
            if len(held) < room:
                held.add(bits)
    assert len(set(looked_up)) > room
    # Lengths and the first differing index first: pytest's diff of two
    # lists of thousands of selections takes minutes to build.
    assert len(scored) == len(misses)
    differ = (k for k, (bits, missed) in enumerate(zip(scored, misses)) if bits != missed)
    assert next(differ, None) is None
    assert scored == misses


def _counted_run(instance: KnapsackInstance, config: SearchConfig):
    """``qts_run`` with the ``tabu_blocked`` and ``all_tabu_fallbacks``
    increments of each ``select_move`` call, in order."""
    calls: list[tuple[int, int]] = []
    select_move = tabu.select_move

    def counted_move(*args):
        move = select_move(*args)
        calls.append((move[2], move[4]))
        return move

    with mock.patch.object(tabu, "select_move", counted_move):
        result = tabu.qts_run(instance, config)
    return result, calls


@settings(max_examples=50, deadline=None)
@given(fractional_instances(8), *RUN_SETTINGS[1:4], st.integers(0, 4))
def test_runs_with_every_item_tabu_are_identical(instance, seed, mode, stagnation, extra):
    """A tenure of at least the item count makes moves find every item
    tabu, so replayed moves carry blocked and fallback increments."""
    _check_rescored_run(instance, _run_config(seed, mode, stagnation, instance.n_items + extra))


def test_replayed_moves_add_the_counts_of_the_move_they_repeat():
    """With every item tabu, most moves replay a fallback from the memo:
    the run's counters exceed what its ``select_move`` calls added, and
    equal a run's that picks every move with ``select_move``."""
    rng = np.random.default_rng(12)
    for tenure in (4, 6):
        instance = KnapsackInstance(
            tuple(rng.uniform(0.5, 30.0, size=4)), tuple(rng.uniform(0.1, 15.0, size=4)), 20.0
        )
        config = SearchConfig(max_iterations=100, tabu_tenure=tenure, seed=3)
        result, calls = _counted_run(instance, config)
        assert len(calls) < config.max_iterations
        assert result.tabu_blocked > sum(blocked for blocked, _ in calls)
        assert result.all_tabu_fallbacks > sum(fell_back for _, fell_back in calls) > 0
        _check_rescored_run(instance, config)


def test_a_run_past_the_memos_room_is_identical():
    """One best value of the long run holds over more distinct (selection,
    tabu list) states than the memo has room for, so the memo fills and
    later moves go through ``select_move`` unstored."""
    instance, config = _long_run()
    states: dict[float, set] = {}
    select_move = tabu.select_move

    def record_state(hood, current, tabu_list, best):
        states.setdefault(best, set()).add((current, *tabu_list))
        return select_move(hood, current, tabu_list, best)

    with (
        mock.patch.object(tabu, "CACHE_SCORES", 0),
        mock.patch.object(tabu, "select_move", record_state),
    ):
        tabu.qts_run(instance, config)
    assert max(map(len, states.values())) > tabu.CACHE_SCORES // instance.n_items
    _check_rescored_run(instance, config)


def _map_search_instance() -> KnapsackInstance:
    """The instance ``search_best_map`` runs for the golden map-search
    problem (teleport over every directed pair of five qubits, budget 6),
    which is also the ``mapsearch-20edge`` benchmark's."""
    problem = MapSearchProblem(load_teleport(), all_directed_pairs(5), edge_budget=6)
    instances = []

    def record_instance(instance, config):
        instances.append(instance)
        return tabu.qts_run(instance, config)

    with mock.patch.object(mapsearch, "qts_run", record_instance):
        search_best_map(problem, SearchConfig(max_iterations=2))
    return instances[0]


def test_map_search_runs_that_rescore_every_visit_are_identical():
    instance = _map_search_instance()
    for seed in range(100):
        _check_rescored_run(instance, SearchConfig(seed=seed))


def test_map_search_runs_pick_few_moves_with_select_move():
    """A map-search run keeps to a few dozen (selection, tabu list) states
    per best value, so most of its 500 moves replay from the memo."""
    instance = _map_search_instance()
    for seed in range(20):
        config = SearchConfig(seed=seed)
        _, calls = _counted_run(instance, config)
        assert len(calls) < config.max_iterations // 4


def _fresh_run(instance: KnapsackInstance, config: SearchConfig) -> str:
    """The repr of a run with no room in the cache on a new equal instance,
    which shares no table with any earlier run."""
    copy = KnapsackInstance(instance.profits, instance.weights, instance.max_capacity)
    with mock.patch.object(tabu, "CACHE_SCORES", 0):
        return repr(tabu.qts_run(copy, config))


def test_runs_sharing_an_instance_match_fresh_runs():
    """One instance object serves a sequence of runs, whose cache and
    move memo carry over from run to run; each run must equal a fresh
    one, and the sequence must pick fewer moves with ``select_move`` than
    runs on new copies of the instance do. The settings interleave, with
    one tenure below and two above ``stagnation_limit + 1`` for each limit
    (two such tenures grow equal tabu lists until the shorter one fills)
    and ``max_iterations`` that cut the last stretch."""
    rng = np.random.default_rng(25)
    integral = KnapsackInstance(
        tuple(map(float, rng.integers(1, 30, size=6))),
        tuple(map(float, rng.integers(1, 15, size=6))),
        20.0,
    )
    fractional = KnapsackInstance(
        tuple(rng.uniform(0.5, 30.0, size=5)), tuple(rng.uniform(0.1, 15.0, size=5)), 14.0
    )
    settings_ = [
        (seed, mode, limit, tenure, iterations)
        for limit, tenure, iterations in (
            (3, 2, 203),
            (3, 6, 150),
            (3, 9, 301),
            (5, 3, 250),
            (5, 8, 97),
            (5, 11, 180),
            (20, 7, 500),
            (20, 25, 260),
            (20, 30, 330),
        )
        for seed in range(3)
        for mode in MODES
    ]
    configs = [
        SearchConfig(
            max_iterations=iterations,
            stagnation_limit=limit,
            tabu_tenure=tenure,
            population_mode=mode,
            seed=seed,
        )
        for seed, mode, limit, tenure, iterations in settings_
    ]
    for instance in (integral, fractional):
        alone = 0
        for config in configs:
            copy = KnapsackInstance(instance.profits, instance.weights, instance.max_capacity)
            alone += len(_counted_run(copy, config)[1])
        shared = 0
        for config in configs:
            result, calls = _counted_run(instance, config)
            assert repr(result) == _fresh_run(instance, config), config
            shared += len(calls)
        assert tabu._TABLES[0] is instance
        assert shared < alone


def test_instances_equal_but_for_a_signed_zero_share_no_tables():
    """Equal instances are still two instances: each run uses the tables of
    its own instance object and matches a fresh run."""
    plus = KnapsackInstance((0.0, 1.0, 2.0), (1.0, 1.0, 1.0), 2.0)
    minus = KnapsackInstance((-0.0, 1.0, 2.0), (1.0, 1.0, 1.0), 2.0)
    assert plus == minus
    for seed in range(4):
        for instance in (plus, minus):
            config = SearchConfig(max_iterations=80, stagnation_limit=3, seed=seed)
            assert repr(tabu.qts_run(instance, config)) == _fresh_run(instance, config)
            assert tabu._TABLES[0] is instance


def test_a_run_on_another_instance_frees_the_last_ones_tables():
    first = KnapsackInstance((3.0, 4.0, 2.5), (2.0, 3.0, 1.5), 4.0)
    tabu.qts_run(first, SearchConfig(seed=1))
    assert tabu._TABLES[0] is first
    ref = weakref.ref(first)
    tabu.qts_run(KnapsackInstance((1.0, 2.0), (1.0, 1.0), 1.0), SearchConfig(seed=1))
    del first
    gc.collect()
    assert ref() is None


def test_a_run_with_no_room_neither_reads_nor_fills_the_tables():
    """With ``CACHE_SCORES // n == 0`` a run scores every lookup afresh and
    picks every move with ``select_move``, even on the instance whose tables
    the last run left, and leaves those tables as they were."""
    rng = np.random.default_rng(3)
    instance = KnapsackInstance(
        tuple(rng.uniform(0.5, 30.0, size=4)), tuple(rng.uniform(0.1, 15.0, size=4)), 20.0
    )
    config = SearchConfig(stagnation_limit=5, seed=2)
    for seed in range(3):
        tabu.qts_run(instance, SearchConfig(stagnation_limit=5, seed=seed))
    tables = tabu._TABLES
    sizes = len(tables[1]), len(tables[2])
    assert tables[0] is instance and all(sizes)
    with mock.patch.object(tabu, "CACHE_SCORES", 0):
        result, scored, looked_up = _scored_run(instance, config)
        _, calls = _counted_run(instance, config)
        tabu.qts_run(KnapsackInstance((1.0,), (1.0,), 1.0), config)
    assert len(calls) == config.max_iterations
    assert scored == looked_up
    assert len(scored) == 1 + result.escapes_cx + result.escapes_h + config.max_iterations
    assert tabu._TABLES is tables and (len(tables[1]), len(tables[2])) == sizes
    assert repr(result) == repr(tabu.qts_run(instance, config))


def test_the_move_memo_holds_no_more_than_its_bound():
    """Runs on one instance store moves in one memo until it holds
    ``CACHE_SCORES // n`` of them, and no more; runs with a full memo pick
    the moves it lacks with ``select_move`` and equal fresh runs."""
    instance = _map_search_instance()
    room = 50
    sizes = []
    with mock.patch.object(tabu, "CACHE_SCORES", instance.n_items * room):
        for seed in range(20):
            config = SearchConfig(seed=seed)
            result = tabu.qts_run(instance, config)
            sizes.append(len(tabu._TABLES[2]))
            assert repr(result) == _fresh_run(instance, config)
    assert tabu._TABLES[0] is instance
    assert max(sizes) == room


def test_every_memo_entry_is_the_move_from_its_key():
    """After runs with several seeds, stagnation limits and tenures, each
    stored move is the one ``select_move`` makes from the best value,
    selection and tabu list its key names, with the counters that move
    adds. An entry stores no key: the test builds the key after the move
    from the key's best value and tenure, the chosen selection and the
    tabu list with the flipped item pushed, and a link, once set, is the
    entry stored under that next key."""
    rng = np.random.default_rng(26)
    fractional = KnapsackInstance(
        tuple(rng.uniform(0.5, 30.0, size=5)), tuple(rng.uniform(0.1, 15.0, size=5)), 14.0
    )
    for instance in (_map_search_instance(), fractional):
        for seed in range(12):
            config = SearchConfig(
                max_iterations=300,
                stagnation_limit=(3, 8, 20)[seed % 3],
                tabu_tenure=(2, 7)[seed % 2],
                population_mode=MODES[seed // 6],
                seed=seed,
            )
            tabu.qts_run(instance, config)
        assert tabu._TABLES[0] is instance
        memo = tabu._TABLES[2]
        assert memo
        links = 0
        for (best, tenure, current, *items), move in memo.items():
            chosen, flipped, *counts = _move(instance, current, items, best)
            after = deque(items, maxlen=tenure)
            after.append(flipped)
            next_key = (best, tenure, chosen, *after)
            *fields, link = move
            assert fields == [chosen, flipped, tabu._neighbourhood(instance, chosen), *counts]
            if link is not None:
                assert link is memo[next_key]
                links += 1
        assert links > len(memo) // 2


class _CountingMemo(dict):
    """A move memo that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_a_warm_run_looks_up_keys_only_after_escapes_improvements_and_misses(monkeypatch):
    """A replayed move follows its entry's link to the next one, so a key
    is looked up only at the first draw, after an escape or an improvement,
    after a move ``select_move`` picked, and where a link is still unset.
    On a problem twenty runs have warmed the links are set, and each run
    stays within ``1 + escapes + improvements + misses`` lookups, where one
    lookup per move would make 500."""
    instance = _map_search_instance()
    for seed in range(20):
        tabu.qts_run(instance, SearchConfig(seed=seed))
    held, cache, moves = tabu._TABLES
    assert held is instance
    memo = _CountingMemo(moves)
    monkeypatch.setattr(tabu, "_TABLES", (instance, cache, memo))
    sample = tabu.sample_candidate
    for seed in range(20, 40):
        memo.lookups = 0
        first = []

        def record_first_draw(population, rng):
            bits = sample(population, rng)
            if not first:
                first.append(fitness(instance, bits))
            return bits

        config = SearchConfig(seed=seed)
        with mock.patch.object(tabu, "sample_candidate", record_first_draw):
            result, calls = _counted_run(instance, config)
        bests = [first[0]] + [best for _, _, best in result.trace]
        improvements = sum(after > before for before, after in zip(bests, bests[1:]))
        escapes = result.escapes_cx + result.escapes_h
        assert memo.lookups <= 1 + escapes + improvements + len(calls)
        assert memo.lookups < config.max_iterations // 10


def test_replacing_the_tables_leaves_no_memo_entry_to_the_cyclic_gc():
    """Links between memo entries form cycles, which the run on another
    instance cuts before it drops the tables: with the collector off, a
    collection after that run finds no memo entry left unreachable."""
    instance = _map_search_instance()
    for seed in range(3):
        tabu.qts_run(instance, SearchConfig(seed=seed))
    entries = tabu._TABLES[2].values()
    assert any(entry[-1] is not None for entry in entries)
    ids = {id(entry) for entry in entries}
    del entries
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        tabu.qts_run(KnapsackInstance((1.0, 2.0), (1.0, 1.0), 1.0), SearchConfig(seed=1))
        gc.collect()
        saved = [item for item in gc.garbage if id(item) in ids and isinstance(item, list)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert saved == []


def _hex(values) -> list[str]:
    """Each value's real and imaginary parts, by ``float.hex``."""
    return [float.hex(float(x)) for value in values for x in (value.real, value.imag)]


def _fresh_heads() -> dict[str, tuple[list[str], list[str]]]:
    """Each mode's head over two items, prepared from ``zero_state``, and
    its CDF, by ``float.hex``."""
    fresh = {}
    for mode, gate in zip(MODES, (GateOp(Gate.H, 1), GateOp(Gate.CX, 1, control=0))):
        head = apply_gate(apply_gate(zero_state(2), GateOp(Gate.H, 0)), gate)
        fresh[mode] = _hex(head.amplitudes), _hex(normalized_cdf(head))
    return fresh


def test_each_run_starts_from_its_own_copy_of_the_prepared_population():
    """Runs start from a copy of the template ``init_population`` keeps for
    their item count and mode, and their escapes step only that copy: each
    run makes one copy, every draw of the run comes from it, and each of its
    heads is a read-only state of the template's escape machine. The
    template stays at its prepared head and CDF, equal to a fresh
    preparation from ``zero_state``. Items 0 and 1 are the best pair, so
    escapes take h, which steps either head."""
    instance = KnapsackInstance((5.0, 5.0, 1.0, 1.0, 1.0), (1.0, 1.0, 3.0, 3.0, 3.0), 3.0)
    fresh = _fresh_heads()
    draws = []  # each draw's population and head, and the head and CDF by hex
    copies = []
    runs = []
    sample, copy = tabu.Population.sample, tabu.Population.copy

    def record_draw(population, rng):
        head = population.head
        draws.append((population, head, (_hex(head.amplitudes), _hex(population._cdf))))
        return sample(population, rng)

    def record_copy(population):
        copies.append(copy(population))
        return copies[-1]

    with (
        mock.patch.object(tabu.Population, "sample", record_draw),
        mock.patch.object(tabu.Population, "copy", record_copy),
    ):
        for seed in range(6):
            mode = MODES[seed % 2]
            config = SearchConfig(
                max_iterations=60, stagnation_limit=2, population_mode=mode, seed=seed
            )
            draws.clear()
            copies.clear()
            tabu.qts_run(instance, config)
            template = tabu._template(instance.n_items, mode)
            assert len(copies) == 1
            own = copies[0]
            assert own is not template and all(own is not earlier for earlier in runs)
            runs.append(own)
            assert all(population is own for population, _, _ in draws)
            assert draws[0][2] == fresh[mode]
            assert any(state != fresh[mode] for _, _, state in draws)
            heads = [head for head, _ in template._states]
            for _, head, _ in draws:
                assert any(head is state for state in heads)
                assert not head.amplitudes.flags.writeable
            assert template._at == 0 and template.head is heads[0]
            assert (_hex(template.head.amplitudes), _hex(template._cdf)) == fresh[mode]
    assert tabu._TABLES[0] is instance


def _knapsack_10item_instances(count: int) -> list[KnapsackInstance]:
    """Integral 10-item instances at half their total weight, as the
    ``knapsack-10item`` benchmark draws them."""
    rng = np.random.default_rng(28)
    instances = []
    for _ in range(count):
        profits = tuple(float(v) for v in rng.integers(1, 30, size=10))
        weights = tuple(float(v) for v in rng.integers(1, 15, size=10))
        instances.append(KnapsackInstance(profits, weights, float(round(sum(weights) * 0.5))))
    return instances


def test_each_mode_prepares_its_population_once_per_item_count():
    """In ``knapsack-10item``'s shape, where the instance changes every two
    runs and the mode every run, the population is prepared twice in all,
    once per mode, however often the instance changes. A run with no room
    in the cache starts from the same template and equals the default run.
    The runs' escapes step their heads, yet each template's head and CDF
    still equal a fresh preparation, and two ``init_population`` calls
    never share a state index: escaping one moves neither the other nor
    the template off the prepared head."""
    tabu._template.cache_clear()
    tabu._escape_machine.cache_clear()
    prepared = []
    zero = tabu.zero_state

    def counted_zero_state(n_qubits):
        prepared.append(n_qubits)
        return zero(n_qubits)

    escapes_h = 0
    with mock.patch.object(tabu, "zero_state", counted_zero_state):
        for i, instance in enumerate(_knapsack_10item_instances(6)):
            for mode in MODES:
                config = SearchConfig(stagnation_limit=5, population_mode=mode, seed=i)
                result = tabu.qts_run(instance, config)
                escapes_h += result.escapes_h
        with mock.patch.object(tabu, "CACHE_SCORES", 0):
            assert repr(tabu.qts_run(instance, config)) == repr(result)
    assert prepared == [2, 2]
    assert escapes_h
    fresh = _fresh_heads()
    for mode in MODES:
        template = tabu._template(10, mode)
        assert (_hex(template.head.amplitudes), _hex(template._cdf)) == fresh[mode]
        first, second = tabu.init_population(10, mode), tabu.init_population(10, mode)
        tabu.escape(first, (0,) * 10, np.random.default_rng(29))
        assert first.head is not template.head
        assert second.head is template.head and (second._at, template._at) == (0, 0)
