"""The head-and-tail population against the dense statevector it stands for.

The reference is the dense simulation: ``zero_state`` plus ``apply_gate``
for the preparation gates and every later gate, sampled by the dense
inverse CDF over all ``2**n`` basis states. Gates reach only the head
(qubits 0 and 1); the tail keeps its prepared ``|+>`` and Bell blocks.
Narrow heads step through the process-wide step table, whose entries are
checked against a fresh ``apply_gate`` on a copy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import population_amplitudes, sample_by_doubling
from qtabu import tabu
from qtabu.statevector import (
    Gate,
    GateOp,
    StateVector,
    apply_gate,
    normalized_cdf,
    probabilities,
    zero_state,
)
from qtabu.tabu import (
    KnapsackInstance,
    Population,
    SearchConfig,
    escape,
    init_population,
    qts_run,
    sample_candidate,
)

MODES = ("with_replacement", "without_replacement")
ESCAPE_GATES = (GateOp(Gate.CX, 1, control=0), GateOp(Gate.H, 1))


class Draws:
    """A stand-in generator whose ``random()`` returns the given draws in turn."""

    def __init__(self, us: list[float]) -> None:
        self.us = iter(us)

    def random(self) -> float:
        return next(self.us)


def dense_population(n: int, mode: str) -> StateVector:
    """The population prepared gate by gate on a dense state."""
    state = zero_state(n)
    if mode == "with_replacement":
        for qubit in range(n):
            apply_gate(state, GateOp(Gate.H, qubit))
    else:
        for qubit in range(0, n - 1, 2):
            apply_gate(state, GateOp(Gate.H, qubit))
            apply_gate(state, GateOp(Gate.CX, qubit + 1, control=qubit))
        if n % 2 == 1:
            apply_gate(state, GateOp(Gate.H, n - 1))
    return state


def dense_inverse_cdf(state: StateVector, u: float) -> tuple[int, ...]:
    return dense_inverse_cdfs(state, [u])[0]


def dense_inverse_cdfs(state: StateVector, us: list[float]) -> list[tuple[int, ...]]:
    probs = np.abs(state.amplitudes) ** 2
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    indices = np.minimum(np.searchsorted(cdf, us, side="right"), probs.size - 1)
    return [tuple((int(index) >> k) & 1 for k in range(state.n_qubits)) for index in indices]


def dyadic_inverse_cdfs(state: StateVector, us: list[float]) -> list[tuple[int, ...]]:
    """The exact inverse CDF of a state whose probabilities are whole
    multiples of ``2**-n``, as every fresh population's are.

    The CDF counts those multiples in integers and each draw is searched as
    ``u * 2**n``, a scaling by a power of two, so no draw meets a rounded
    boundary.
    """
    size = 2**state.n_qubits
    scaled = np.abs(state.amplitudes) ** 2 * size
    counts = np.rint(scaled).astype(np.int64)
    assert counts.sum() == size and np.abs(scaled - counts).max() < 1e-6, "state is not dyadic"
    indices = np.searchsorted(np.cumsum(counts), np.asarray(us) * size, side="right")
    return [tuple((int(index) >> k) & 1 for k in range(state.n_qubits)) for index in indices]


@st.composite
def gate_runs(draw):
    n = draw(st.integers(1, 12))
    mode = draw(st.sampled_from(MODES))
    qubit = st.integers(0, min(n, 2) - 1)
    choices = [st.builds(GateOp, st.sampled_from([Gate.X, Gate.Z, Gate.H]), qubit)]
    if n >= 2:
        choices.append(st.sampled_from([GateOp(Gate.CX, 0, control=1), *ESCAPE_GATES]))
    ops = draw(st.lists(st.one_of(choices), max_size=12))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, mode, ops, seed


@settings(max_examples=300, deadline=None)
@given(gate_runs())
def test_factored_population_matches_dense(run):
    n, mode, ops, seed = run
    population = init_population(n, mode)
    dense = dense_population(n, mode)
    for op in ops:
        population.apply(op)
        apply_gate(dense, op)
    assert population.head.n_qubits + sum(population.tail) == n
    np.testing.assert_allclose(
        population_amplitudes(population), dense.amplitudes, rtol=0, atol=1e-12
    )
    assert [float.hex(c) for c in population._cdf] == kernel_cdf(population.head)

    rng_factored = np.random.default_rng(seed)
    rng_dense = np.random.default_rng(seed)
    for _ in range(20):
        assert sample_candidate(population, rng_factored) == dense_inverse_cdf(
            dense, rng_dense.random()
        )


@pytest.mark.parametrize("mode", MODES)
def test_long_tails_sample_as_dense(mode):
    """Fresh populations past the Hypothesis widths, where the tail decides
    most bits, against the exact dyadic CDF. Fixed draws cover the top
    digits' edges, every dyadic edge ``2**-k`` down to the last qubit's,
    the float just below each, and the largest float below 1."""
    rng = np.random.default_rng(13)
    for n in range(13, 21):
        dyadic = [2.0**-k for k in range(1, n + 1)]
        edges = [0.0, 0.25, 0.5, 0.75, math.nextafter(1.0, 0.0)]
        edges += dyadic + [math.nextafter(u, 0.0) for u in dyadic]
        us = edges + rng.random(300).tolist()
        population = init_population(n, mode)
        draws = Draws(us)
        assert [population.sample(draws) for _ in us] == dyadic_inverse_cdfs(
            dense_population(n, mode), us
        )


@pytest.mark.parametrize("mode", MODES)
def test_samples_equal_the_doubling_walk(mode):
    """``Population.sample`` reads a draw's binary digits as one integer and
    must pick what the doubling walk it replaced picks, drawing as often.
    Widths cross one and two redraws (32 and 64 qubits); heads are fresh,
    stepped by escapes, and a dense three-qubit state. Every draw is
    ``2**-k`` or the float just below it, for k up to 60 (past a draw's 53
    digits), or random after such an edge."""
    rng = np.random.default_rng(16)
    edges = [2.0**-k for k in range(1, 61)]
    edges += [math.nextafter(u, 0.0) for u in edges] + [0.0, math.nextafter(1.0, 0.0)]
    populations = [Population(dense_population(3, mode))]
    for n in (1, 2, 3, 10, 31, 32, 33, 34, 35, 63, 64, 65, 66, 67, 100):
        stepped = init_population(n, mode)
        for op in (*ESCAPE_GATES, ESCAPE_GATES[0]) if n >= 2 else (GateOp(Gate.H, 0),):
            stepped.apply(op)
        populations += [init_population(n, mode), stepped]
    for population in populations:
        for u in edges:
            for us in ([u] * 5, [u, *rng.random(4).tolist()]):
                draws, reference = Draws(us), Draws(us)
                assert population.sample(draws) == sample_by_doubling(population, reference)
                assert list(draws.us) == list(reference.us)


def test_escape_gates_stay_in_two_qubit_blocks():
    for mode, tail in (("with_replacement", (1,) * 18), ("without_replacement", (2,) * 9)):
        population = init_population(20, mode)
        for op in ESCAPE_GATES * 5:
            population.apply(op)
        assert population.head.n_qubits == 2
        assert population.tail == tail


def test_gate_on_a_tail_qubit_names_the_head_width(steps):
    population = init_population(5, "without_replacement")
    population.apply(GateOp(Gate.H, 1))
    before = population.head.amplitudes.tobytes()
    for op, message in (
        (GateOp(Gate.H, 2), "target qubit 2"),
        (GateOp(Gate.CX, 1, control=4), "control qubit 4"),
        (GateOp(Gate.X, 3), "target qubit 3"),
    ):
        with pytest.raises(IndexError, match=f"{message} out of range for 2 qubits"):
            population.apply(op)
        assert population.head.amplitudes.tobytes() == before
        assert len(steps) == 1


def test_population_rejects_out_of_range_qubits():
    population = init_population(3)
    for op in (GateOp(Gate.H, 3), GateOp(Gate.CX, 0, control=-1)):
        with pytest.raises(IndexError, match="out of range"):
            population.apply(op)


def test_dense_state_samples_as_one_block():
    state = zero_state(3)
    apply_gate(state, GateOp(Gate.H, 2))
    apply_gate(state, GateOp(Gate.CX, 0, control=2))
    us = np.random.default_rng(12).random(50).tolist()
    draws = Draws(us)
    for u in us:
        assert Population(state).sample(draws) == dense_inverse_cdf(state, u)


@pytest.mark.parametrize("mode", MODES)
def test_populations_up_to_32_qubits_take_one_draw(mode):
    """Past the dense reference's widths, one draw still decides a whole
    sample. A fresh population is ``m`` equally likely blocks (``|+>``
    qubits or Bell pairs), so its dense inverse CDF at ``u`` is outcome
    ``floor(u * 2**m)`` in index order: bit ``j`` of it fills block ``j``."""
    us = np.random.default_rng(14).random(200).tolist()
    for n in range(21, 33):
        blocks = (1,) * n if mode == "with_replacement" else (2,) * (n // 2) + (1,) * (n % 2)

        def outcome(u: float) -> tuple[int, ...]:
            k = int(u * 2 ** len(blocks))
            return tuple(b for j, width in enumerate(blocks) for b in ((k >> j) & 1,) * width)

        population = init_population(n, mode)
        draws = Draws(us)
        assert [population.sample(draws) for _ in us] == [outcome(u) for u in us]
        assert next(draws.us, None) is None


@pytest.mark.parametrize("mode", MODES)
def test_every_qubit_of_a_wide_population_is_sampled_evenly(mode):
    """A draw holds 53 binary digits, so a 120-qubit sample needs more than
    one: each qubit, the lowest included, reads 1 in about half the draws."""
    population = init_population(120, mode)
    rng = np.random.default_rng(15)
    ones = np.sum([sample_candidate(population, rng) for _ in range(2000)], axis=0)
    assert ones.shape == (120,)
    assert np.all((900 <= ones) & (ones <= 1100)), ones


@pytest.fixture
def steps(monkeypatch) -> dict:
    """An empty step table for the test, the process's own put back after."""
    table: dict = {}
    monkeypatch.setattr(tabu, "_STEPS", table)
    return table


def kernel_cdf(state: StateVector) -> list[str]:
    """The normalized CDF of ``state``, each entry as ``float.hex``."""
    cdf = np.cumsum(probabilities(state))
    return [float.hex(c) for c in (cdf / cdf[-1]).tolist()]


def kernel_step(head: StateVector, op: GateOp) -> tuple[bytes, list[str]]:
    """``apply_gate`` on a copy of ``head``, and the normalized CDF of the result."""
    stepped = apply_gate(head.copy(), op)
    return stepped.amplitudes.tobytes(), kernel_cdf(stepped)


@pytest.mark.parametrize("mode", MODES)
def test_step_table_entries_equal_the_kernel(mode, steps):
    """Every head an escape can reach from a fresh population, walked to
    closure under the escape gates, and each of its table entries."""
    for n in (1, 2, 3):
        gates = ESCAPE_GATES if n >= 2 else (GateOp(Gate.H, 0),)
        start = init_population(n, mode).head
        reached = {start.amplitudes.tobytes(): start}
        frontier = [start]
        while frontier:
            head = frontier.pop()
            for op in gates:
                population = Population(head.copy())
                population.apply(op)
                amplitudes, cdf = steps[(head.amplitudes.tobytes(), op)]
                expected = kernel_step(head, op)
                assert (amplitudes.tobytes(), [float.hex(c) for c in cdf]) == expected
                assert population.head.amplitudes.tobytes() == expected[0]
                assert population._cdf is cdf
                if expected[0] not in reached:
                    reached[expected[0]] = population.head
                    frontier.append(population.head)
        assert len(reached) <= 10, (n, len(reached))


@pytest.mark.parametrize("mode", MODES)
def test_normalized_cdf_equals_the_kernel_cdf_on_every_reachable_head(mode):
    """Every head reachable from a fresh one- or two-qubit population under
    x, z and h on each qubit and cx both ways: ``normalized_cdf`` (the CDF
    of ``sample_counts``) equals the plain normalized cumulative sum the
    population used to build, and the prepared heads are the old literals."""
    s = 2.0**-0.5
    plus = np.array([s, s], dtype=complex)
    literals = {1: plus, 2: np.kron(plus, plus)}
    if mode == "without_replacement":
        literals[2] = np.array([s, 0.0, 0.0, s], dtype=complex)
    for n in (1, 2):
        start = init_population(n, mode).head
        assert start.amplitudes.tobytes() == literals[n].tobytes()
        gates = [GateOp(kind, q) for kind in (Gate.X, Gate.Z, Gate.H) for q in range(n)]
        if n == 2:
            gates += [GateOp(Gate.CX, 1, control=0), GateOp(Gate.CX, 0, control=1)]
        reached = {start.amplitudes.tobytes()}
        frontier = [start]
        while frontier:
            head = frontier.pop()
            assert [float.hex(c) for c in normalized_cdf(head).tolist()] == kernel_cdf(head)
            for op in gates:
                stepped = apply_gate(head.copy(), op)
                if stepped.amplitudes.tobytes() not in reached:
                    reached.add(stepped.amplitudes.tobytes())
                    frontier.append(stepped)


def test_an_escape_on_a_dense_state_builds_two_cdfs(monkeypatch):
    """One for the state as it stands and one for the stepped state, which
    the draw then reads; the state's own array is stepped in place."""
    state = dense_population(10, "with_replacement")
    calls = []

    def counted(head: StateVector) -> np.ndarray:
        calls.append(head.n_qubits)
        return normalized_cdf(head)

    monkeypatch.setattr(tabu, "normalized_cdf", counted)
    expected = apply_gate(state.copy(), GateOp(Gate.CX, 1, control=0))
    amplitudes = state.amplitudes
    draw, entangled = escape(state, (1,) + (0,) * 9, np.random.default_rng(18))
    assert calls == [10, 10]
    assert entangled
    assert state.amplitudes is amplitudes
    assert amplitudes.tobytes() == expected.amplitudes.tobytes()
    assert draw == dense_inverse_cdf(expected, np.random.default_rng(18).random())


def test_a_table_hit_writes_into_the_callers_state(steps):
    """A dense state passed in changes in place on a hit, and changing it
    afterwards leaves the stored entry alone."""
    op = GateOp(Gate.H, 1)
    first, second = zero_state(2), zero_state(2)
    Population(first).apply(op)
    assert len(steps) == 1
    amplitudes = second.amplitudes
    Population(second).apply(op)
    expected = kernel_step(zero_state(2), op)[0]
    assert second.amplitudes is amplitudes
    assert amplitudes.tobytes() == first.amplitudes.tobytes() == expected
    first.amplitudes[...] = second.amplitudes[...] = 0.0
    third = zero_state(2)
    Population(third).apply(op)
    assert third.amplitudes.tobytes() == expected


def test_heads_the_table_cannot_key_skip_it(steps):
    """A dense 2**20 state is neither hashed nor stored: an escape on it
    gives the kernel's bytes and adds no entry. Nor is a head of real
    amplitudes, whose bytes could read as a narrower complex head."""
    state = zero_state(20)
    for qubit in range(20):
        apply_gate(state, GateOp(Gate.H, qubit))
    expected = apply_gate(state.copy(), GateOp(Gate.CX, 1, control=0)).amplitudes.tobytes()
    assert escape(state, (1,) + (0,) * 19, np.random.default_rng(16))[1]
    assert state.amplitudes.tobytes() == expected
    assert len(steps) == 0

    real = StateVector(2, np.array([1.0, 0.0, 0.0, 0.0]))
    Population(real).apply(GateOp(Gate.H, 0))
    np.testing.assert_array_equal(real.amplitudes, [2**-0.5, 2**-0.5, 0.0, 0.0])
    assert real.amplitudes.dtype == float
    assert len(steps) == 0


def test_population_rejects_conditioned_gates(steps):
    """A population has no classical bits, so the kernel refuses a
    conditioned gate; its key differs from the plain gate's, so it never
    takes that entry, and nothing is stored for it."""
    population = init_population(4)
    population.apply(GateOp(Gate.X, 0))
    before = population.head.amplitudes.tobytes()
    with pytest.raises(IndexError, match=r"classical bit 0 out of range"):
        population.apply(GateOp(Gate.X, 0, condition=(0, 1)))
    assert population.head.amplitudes.tobytes() == before
    assert len(steps) == 1


@pytest.mark.parametrize("mode", MODES)
def test_runs_are_the_same_with_a_cold_warm_or_disabled_table(mode, steps, monkeypatch):
    rng = np.random.default_rng(17)
    for seed in range(4):
        profits, weights = rng.uniform(0.5, 30.0, size=20), rng.uniform(0.1, 15.0, size=20)
        instance = KnapsackInstance(tuple(profits), tuple(weights), float(weights.sum()) * 0.4)
        config = SearchConfig(seed=seed, population_mode=mode)
        steps.clear()
        cold = repr(qts_run(instance, config))
        assert steps
        warm = repr(qts_run(instance, config))
        with monkeypatch.context() as off:
            off.setattr(tabu, "STEP_ENTRIES", 0)
            off.setattr(tabu, "_STEPS", {})
            disabled = repr(qts_run(instance, config))
            assert len(tabu._STEPS) == 0
        assert cold == warm == disabled
