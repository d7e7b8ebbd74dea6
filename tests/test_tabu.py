from __future__ import annotations

import dataclasses
import re
from collections import deque

import numpy as np
import pytest

from oracles import brute_force_knapsack_max, population_amplitudes
from qtabu.statevector import Gate, GateOp, apply_gate, zero_state
from qtabu.tabu import (
    KnapsackInstance,
    SearchConfig,
    _neighbourhood,
    escape,
    fitness,
    init_population,
    parse_instance,
    qts_run,
    sample_candidate,
    select_move,
)


def test_instance_validation():
    with pytest.raises(ValueError, match="profits"):
        KnapsackInstance((1.0, 2.0), (1.0,), 5.0)
    with pytest.raises(ValueError, match="at least one"):
        KnapsackInstance((), (), 5.0)
    with pytest.raises(ValueError, match=r"profits\[1\] must be finite"):
        KnapsackInstance((1.0, float("inf")), (1.0, 1.0), 5.0)
    with pytest.raises(ValueError, match=r"weights\[0\] must be finite"):
        KnapsackInstance((1.0,), (float("nan"),), 5.0)
    with pytest.raises(ValueError, match=r"weights\[0\] must be >= 0"):
        KnapsackInstance((1.0,), (-0.5,), 5.0)
    with pytest.raises(ValueError, match="max_capacity must be finite"):
        KnapsackInstance((1.0,), (1.0,), float("nan"))


def test_instance_rejects_totals_beyond_the_float_range():
    """Finite entries whose totals overflow would make a selection's sums
    infinite and its flip scores NaN; the error names the total."""
    big = 1.7e308
    with pytest.raises(ValueError, match=r"total \|profits\| must be finite, got inf"):
        KnapsackInstance((1e308, 1e308, 1.0), (1.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValueError, match=r"total \|profits\| must be finite"):
        KnapsackInstance((big, -big), (1.0, 1.0), 0.0)
    with pytest.raises(ValueError, match=r"total weights plus \|max_capacity\| must be finite"):
        KnapsackInstance((1.0, 1.0), (big, big), 0.0)
    with pytest.raises(ValueError, match=r"total weights plus \|max_capacity\| must be finite"):
        KnapsackInstance((1.0,), (big,), -big)
    # Finite totals whose product overflows: a full load scores 1e200 * (1 - 1e200).
    bound = "total |profits| * (1 + max(0, total weights - max_capacity))"
    with pytest.raises(ValueError, match=re.escape(f"{bound} must be finite, got inf")):
        KnapsackInstance((1e200,), (1e200,), 0.0)
    # Totals just inside the range are accepted and run without overflow.
    instance = KnapsackInstance((big / 2, big / 2), (big / 4, big / 4), big / 2)
    result = qts_run(instance, SearchConfig(max_iterations=20, seed=0))
    assert all(np.isfinite(value) for _, value, _ in result.trace)


def test_parse_instance_round_values():
    inst = parse_instance("4 7\n10 5\n7 4\n4 2\n3 1\n")
    assert inst.n_items == 4
    assert inst.profits == (10.0, 7.0, 4.0, 3.0)
    assert inst.weights == (5.0, 4.0, 2.0, 1.0)
    assert inst.max_capacity == 7.0


def test_parse_instance_errors():
    with pytest.raises(ValueError, match="empty"):
        parse_instance("")
    with pytest.raises(ValueError, match="header"):
        parse_instance("3\n1 1\n1 1\n1 1\n")
    with pytest.raises(ValueError, match="expected 3 item lines"):
        parse_instance("3 5\n1 1\n")
    with pytest.raises(ValueError, match="line 3: item line must be 'profit weight'"):
        parse_instance("1 5\n\n1 2 3\n")
    with pytest.raises(ValueError, match="line 1: n must be an integer, got 'x'"):
        parse_instance("x 5\n")
    with pytest.raises(ValueError, match="line 1: max_capacity must be a number, got 'y'"):
        parse_instance("1 y\n1 1\n")
    with pytest.raises(ValueError, match="line 2: weight must be a number, got 'x'"):
        parse_instance("1 5\n1 x\n")
    with pytest.raises(ValueError, match="line 3: profit must be a number, got 'p'"):
        parse_instance("2 5\n1 1\np 1\n")
    with pytest.raises(ValueError, match="line 1: n must be >= 1, got -1"):
        parse_instance("-1 5\n")


def test_fitness_matches_formula():
    assert fitness(KnapsackInstance((3.0, 4.0), (2.0, 3.0), 5.0), (0, 0)) == 0.0
    assert fitness(KnapsackInstance((3.0, 4.0), (2.0, 3.0), 5.0), (1, 1)) == 7.0
    assert fitness(KnapsackInstance((3.0, 4.0), (3.0, 4.0), 5.0), (1, 1)) == -7.0
    with pytest.raises(ValueError, match="expected 2 bits"):
        fitness(KnapsackInstance((3.0, 4.0), (2.0, 3.0), 5.0), (1, 1, 0))


def test_fitness_rejects_bits_other_than_0_and_1():
    """A selection holds one 0/1 bit per item, so 2, -1, 0.5 or NaN is
    refused, the first such bit named; True and 1.0 equal 1 and pass."""
    inst = KnapsackInstance((3.0,), (1.0,), 5.0)
    for bit in (2, -1, 0.5, float("nan")):
        with pytest.raises(ValueError, match=rf"bits\[0\] must be 0 or 1, got {bit!r}"):
            fitness(inst, (bit,))
    pair = KnapsackInstance((3.0, 4.0), (2.0, 3.0), 5.0)
    with pytest.raises(ValueError, match=r"bits\[1\] must be 0 or 1, got 3"):
        fitness(pair, (1, 3))
    with pytest.raises(ValueError, match=r"bits\[0\] must be 0 or 1, got 2"):
        fitness(pair, (2, -1))
    assert fitness(pair, (True, 1.0)) == fitness(pair, (1, 1)) == 7.0


def test_fitness_penalty_is_unclamped():
    # one unit over capacity zeroes the value; more goes negative
    inst = KnapsackInstance((5.0,), (3.0,), 2.0)
    assert fitness(inst, (1,)) == 0.0
    inst2 = KnapsackInstance((5.0,), (4.0,), 2.0)
    assert fitness(inst2, (1,)) == -5.0


def test_init_population_with_replacement_uniform():
    state = init_population(2, "with_replacement")
    np.testing.assert_allclose(population_amplitudes(state), [0.5] * 4, atol=1e-12)
    state3 = init_population(3)
    probs = np.abs(population_amplitudes(state3)) ** 2
    np.testing.assert_allclose(probs, np.full(8, 1 / 8), atol=1e-12)


def test_init_population_without_replacement_pairs():
    bell = init_population(2, "without_replacement")
    np.testing.assert_allclose(population_amplitudes(bell), [2**-0.5, 0, 0, 2**-0.5], atol=1e-12)
    # odd count: bell on (0,1) tensor |+> on qubit 2
    three = init_population(3, "without_replacement")
    expected = np.zeros(8)
    expected[[0, 3, 4, 7]] = 0.25
    np.testing.assert_allclose(np.abs(population_amplitudes(three)) ** 2, expected, atol=1e-12)


def test_init_population_validation():
    with pytest.raises(ValueError, match="n_items must be >= 1, got 0"):
        init_population(0)
    # No width limit: 4,096 items keep a two-qubit head and sample in full.
    wide = init_population(4096, "without_replacement")
    assert (wide.head.n_qubits, wide.tail) == (2, (2,) * 2047)
    bits = sample_candidate(wide, np.random.default_rng(0))
    assert len(bits) == 4096 and set(bits) == {0, 1}
    assert all(bits[k] == bits[k + 1] for k in range(0, 4096, 2))
    with pytest.raises(ValueError, match="population mode"):
        init_population(2, "sideways")


@pytest.mark.parametrize(
    ("args", "message"),
    [
        ((0,), "n_items must be >= 1, got 0"),
        ((2, "bogus"), "unknown population mode 'bogus'"),
        ((2, ["x"]), r"unknown population mode \['x'\]"),
        ((2.5,), "n_items must be an integer, got 2.5"),
        (("3",), "n_items must be an integer, got '3'"),
        ((True,), "n_items must be an integer, got True"),
    ],
)
def test_init_population_checks_its_arguments_before_its_templates(args, message):
    """Bad arguments raise ``ValueError``, never the ``TypeError`` of a
    memo lookup or of building a tail."""
    with pytest.raises(ValueError, match=message):
        init_population(*args)


def test_sample_candidate_basis_state_deterministic():
    state = zero_state(3)
    apply_gate(state, GateOp(Gate.X, 0))
    apply_gate(state, GateOp(Gate.X, 2))
    rng = np.random.default_rng(0)
    assert sample_candidate(state, rng) == (1, 0, 1)


def test_sample_candidate_leaves_population_intact():
    state = init_population(2)
    before = population_amplitudes(state)
    sample_candidate(state, np.random.default_rng(1))
    np.testing.assert_array_equal(population_amplitudes(state), before)


def test_sample_candidate_bell_correlation():
    state = init_population(2, "without_replacement")
    rng = np.random.default_rng(2)
    draws = [sample_candidate(state, rng) for _ in range(10_000)]
    assert set(draws) <= {(0, 0), (1, 1)}
    ones = sum(bits[0] for bits in draws)
    sigma = np.sqrt(10_000 * 0.25)
    assert abs(ones - 5000) < 3 * sigma


def test_sample_candidate_covers_uniform_support():
    state = init_population(4)
    rng = np.random.default_rng(3)
    seen = {sample_candidate(state, rng) for _ in range(10_000)}
    assert len(seen) == 16


def test_sample_candidate_matches_probabilities_3sigma():
    state = init_population(3, "without_replacement")
    rng = np.random.default_rng(4)
    draws = 100_000
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(draws):
        bits = sample_candidate(state, rng)
        counts[bits] = counts.get(bits, 0) + 1
    probs = np.abs(population_amplitudes(state)) ** 2
    for index, p in enumerate(probs):
        bits = tuple((index >> k) & 1 for k in range(3))
        sigma = np.sqrt(draws * p * (1 - p)) if 0 < p < 1 else 0.0
        assert abs(counts.get(bits, 0) - draws * p) <= 3 * sigma + 1e-9


def _select(inst: KnapsackInstance, current, best_eval, tabu=()):
    """The chosen selection and flipped item of one move from ``current``."""
    current = tuple(current)
    return select_move(_neighbourhood(inst, current), current, deque(tabu), best_eval)[:2]


def test_select_move_picks_best_neighbor():
    inst = KnapsackInstance((3.0, 4.0), (2.0, 3.0), 5.0)
    chosen, flipped = _select(inst, (0, 0), best_eval=0.0)
    assert (chosen, flipped) == ((0, 1), 1)


def test_select_move_respects_tabu():
    inst = KnapsackInstance((3.0, 4.0), (2.0, 3.0), 5.0)
    chosen, flipped = _select(inst, (0, 0), best_eval=4.0, tabu=[1])
    assert (chosen, flipped) == ((1, 0), 0)


def test_select_move_aspiration_overrides_tabu():
    inst = KnapsackInstance((3.0, 4.0), (2.0, 3.0), 5.0)
    chosen, flipped = _select(inst, (0, 0), best_eval=3.5, tabu=[1])
    assert (chosen, flipped) == ((0, 1), 1)  # 4.0 beats best 3.5 despite tabu


def test_select_move_all_tabu_takes_oldest():
    inst = KnapsackInstance((3.0, 4.0), (2.0, 3.0), 5.0)
    chosen, flipped = _select(inst, (0, 0), best_eval=99.0, tabu=[1, 0])
    assert flipped == 1  # oldest entry's item, not the better-scoring one
    assert chosen == (0, 1)


def test_select_move_ties_break_low_index():
    inst = KnapsackInstance((4.0, 4.0), (1.0, 1.0), 5.0)
    _, flipped = _select(inst, (0, 0), best_eval=0.0)
    assert flipped == 0


def test_select_move_changes_none_of_its_arguments():
    """A move reads its neighbourhood and tabu list and writes neither, so a
    second call on the same arguments gives the same move. Flip scores are
    3.0, 4.0 and 2.0: under a best of 10.0 every listed item is blocked
    (item 1 twice) and the move falls back; under 3.5 item 0 is blocked and
    item 1 aspirates."""
    inst = KnapsackInstance((3.0, 4.0, 2.0), (1.0, 1.0, 1.0), 10.0)
    current = (0, 0, 0)
    hood = _neighbourhood(inst, current)
    for tabu_list, best in (([1, 1, 0, 2], 10.0), ([0, 1, 1], 3.5)):
        tabu = deque(tabu_list, maxlen=4)
        snapshot = (hood[0], list(hood[1]), list(hood[2]), list(tabu), tabu.maxlen)
        first = select_move(hood, current, tabu, best)
        assert (hood[0], hood[1], hood[2], list(tabu), tabu.maxlen) == snapshot
        assert select_move(hood, current, tabu, best) == first
        assert current == (0, 0, 0)


def test_escape_cx_branch_entangles():
    population = apply_gate(zero_state(2), GateOp(Gate.X, 0))  # |01>: bit0=1
    rng = np.random.default_rng(6)
    draw, entangled = escape(population, (1, 0), rng)
    assert entangled
    np.testing.assert_allclose(population.amplitudes, [0, 0, 0, 1], atol=1e-12)
    assert draw == (1, 1)


def test_escape_h_branch_spreads_qubit_one():
    population = zero_state(2)
    _, entangled = escape(population, (1, 1), np.random.default_rng(7))
    assert not entangled
    np.testing.assert_allclose(population.amplitudes, [2**-0.5, 0, 2**-0.5, 0], atol=1e-12)


def test_escape_single_item_uses_only_qubit():
    population = zero_state(1)
    _, entangled = escape(population, (0,), np.random.default_rng(8))
    assert not entangled
    np.testing.assert_allclose(population.amplitudes, [2**-0.5, 2**-0.5], atol=1e-12)


def test_escape_preserves_population_norm():
    population = init_population(3)
    rng = np.random.default_rng(9)
    for turn in range(200):
        escape(population, (turn % 2, 0, 1), rng)
    norm = float(np.sum(np.abs(population_amplitudes(population)) ** 2))
    assert abs(norm - 1.0) < 1e-12


def test_qts_run_trivial_single_item():
    inst = KnapsackInstance((5.0,), (1.0,), 1.0)
    result = qts_run(inst, SearchConfig(max_iterations=10, tabu_tenure=1, seed=0))
    assert result.best_solution == (1,)
    assert result.best_evaluation == 5.0
    assert result.best_iteration <= 2


def test_qts_run_deterministic():
    inst = parse_instance("4 7\n10 5\n7 4\n4 2\n3 1\n")
    config = SearchConfig(max_iterations=120, seed=99)
    assert qts_run(inst, config) == qts_run(inst, config)


def test_qts_run_finds_brute_force_optimum():
    rng = np.random.default_rng(10)
    profits = tuple(float(v) for v in rng.integers(1, 20, size=10))
    weights = tuple(float(v) for v in rng.integers(1, 10, size=10))
    capacity = float(int(sum(weights) * 0.4))
    inst = KnapsackInstance(profits, weights, capacity)
    optimum = brute_force_knapsack_max(profits, weights, capacity)
    hits = sum(
        1
        for seed in range(20)
        if qts_run(inst, SearchConfig(seed=seed)).best_evaluation == optimum
    )
    assert hits >= 18


def test_qts_run_monotone_trace_and_shape():
    inst = parse_instance("4 7\n10 5\n7 4\n4 2\n3 1\n")
    result = qts_run(inst, SearchConfig(max_iterations=80, seed=5))
    assert result.iterations_run == 80
    assert [row[0] for row in result.trace] == list(range(1, 81))
    best_column = [row[2] for row in result.trace]
    assert all(b >= a for a, b in zip(best_column, best_column[1:]))
    assert result.best_evaluation == best_column[-1]
    assert fitness(inst, result.best_solution) == result.best_evaluation


def test_qts_run_all_items_fit_reaches_all_ones():
    # when everything fits, selecting everything is the optimum
    rng = np.random.default_rng(11)
    hits = 0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        profits = tuple(float(v) for v in rng.integers(1, 10, size=n))
        weights = tuple(float(v) for v in rng.integers(1, 5, size=n))
        inst = KnapsackInstance(profits, weights, float(sum(weights)))
        result = qts_run(inst, SearchConfig(max_iterations=200, seed=1000 + trial))
        if result.best_solution == (1,) * n:
            hits += 1
    assert hits >= 95


def test_qts_run_config_validation():
    inst = KnapsackInstance((5.0,), (1.0,), 1.0)
    with pytest.raises(ValueError, match="max_iterations"):
        qts_run(inst, SearchConfig(max_iterations=0, seed=0))
    with pytest.raises(ValueError, match="stagnation"):
        qts_run(inst, SearchConfig(stagnation_limit=0, seed=0))
    with pytest.raises(ValueError, match="tenure"):
        qts_run(inst, SearchConfig(tabu_tenure=0, seed=0))
    with pytest.raises(ValueError, match="smaller than max_iterations"):
        qts_run(inst, SearchConfig(max_iterations=2, tabu_tenure=2, seed=0))


@pytest.mark.parametrize(
    ("settings", "message"),
    [
        ({"max_iterations": 0}, "max_iterations must be >= 1"),
        ({"stagnation_limit": 0}, "stagnation_limit must be >= 1"),
        ({"tabu_tenure": 0}, "tabu_tenure must be >= 1"),
        (
            {"tabu_tenure": 600, "max_iterations": 500},
            "tabu_tenure 600 must be smaller than max_iterations 500",
        ),
        (  # an explicit tenure as long as the run
            {"max_iterations": 1, "tabu_tenure": 1},
            "tabu_tenure 1 must be smaller than max_iterations 1",
        ),
        ({"population_mode": "bogus"}, "unknown population mode 'bogus'"),
        # Settings that built but failed inside a run, or ran wrongly.
        ({"max_iterations": 2.5}, "max_iterations must be an integer, got 2.5"),
        ({"max_iterations": True}, "max_iterations must be an integer, got True"),
        ({"tabu_tenure": 1.5}, "tabu_tenure must be an integer, got 1.5"),
        ({"stagnation_limit": float("nan")}, "stagnation_limit must be an integer, got nan"),
        ({"stagnation_limit": 3.0}, "stagnation_limit must be an integer, got 3.0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ],
    ids=[f"config{k}" for k in range(13)],
)
def test_search_config_rejects_what_the_engine_rejected(settings, message):
    """Each setting ``qts_run`` refused, with its message, now refuses to
    build, through ``dataclasses.replace`` too, so no caller can skip it."""
    with pytest.raises(ValueError) as built:
        SearchConfig(**settings)
    with pytest.raises(ValueError) as replaced:
        dataclasses.replace(SearchConfig(), **settings)
    assert str(built.value) == str(replaced.value) == message


def test_search_config_takes_integers_of_any_type():
    """A numpy integer is an integer: it is stored as an ``int``, and the run
    equals one configured with plain ints."""
    config = SearchConfig(
        max_iterations=np.int64(5), stagnation_limit=np.int32(2), tabu_tenure=np.uint8(1), seed=0
    )
    plain = SearchConfig(max_iterations=5, stagnation_limit=2, tabu_tenure=1, seed=0)
    assert config == plain
    assert all(type(getattr(config, name)) is int for name in ("max_iterations", "seed"))
    instance = KnapsackInstance((5.0, 3.0), (1.0, 1.0), 1.0)
    assert repr(qts_run(instance, config)) == repr(qts_run(instance, plain))


def test_derived_tenure_stays_shorter_than_the_run():
    assert SearchConfig().tenure(20) == 5
    assert SearchConfig().tenure(3) == 2
    assert SearchConfig().tenure(2000) == 499
    assert SearchConfig(max_iterations=2).tenure(4) == 1
    assert SearchConfig(max_iterations=1).tenure(4) == 1
    result = qts_run(KnapsackInstance((5.0, 3.0), (1.0, 1.0), 1.0), SearchConfig(max_iterations=1))
    assert result.iterations_run == 1


def test_qts_run_escape_restarts_stagnation_window():
    # a converged run keeps escaping, and each escape restarts the stagnation
    # clock; best_iteration stays where the best value first appeared: the
    # first draw (iteration 0) selects the item, and the first move leaves it
    inst = KnapsackInstance((5.0,), (1.0,), 1.0)
    result = qts_run(inst, SearchConfig(max_iterations=100, tabu_tenure=1, seed=1))
    assert result.escapes_h >= 3
    assert result.trace[0] == (1, 0.0, 5.0)
    assert result.best_iteration == 0
