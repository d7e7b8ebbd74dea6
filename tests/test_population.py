"""The head-and-tail population against the dense statevector it stands for.

The reference is the dense simulation: ``zero_state`` plus ``apply_gate``
for the preparation gates and every later gate, sampled by the dense
inverse CDF over all ``2**n`` basis states. Gates reach only the head
(qubits 0 and 1); the tail keeps its prepared ``|+>`` and Bell blocks.
A population from ``init_population`` escapes through its template's
escape machine, whose states are checked against a fresh ``apply_gate`` on
a copy, and a dense state escapes through ``apply_gate`` in place.
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
# The closure sizes the escape gates reach from each prepared head.
MACHINE_STATES = {1: 3, "with_replacement": 8, "without_replacement": 10}


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


def best_for(n: int, entangled: bool) -> tuple[int, ...]:
    """A best selection over ``n`` items whose escape takes cx if
    ``entangled`` (bits 0 and 1 differ), or h otherwise."""
    return (int(entangled),) + (0,) * (n - 1)


def escape_gate(n: int, entangled: bool) -> GateOp:
    """The gate ``escape`` applies over ``n`` items."""
    return ESCAPE_GATES[0] if entangled else GateOp(Gate.H, min(n, 2) - 1)


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
    """Any gates on the head, by ``apply_gate`` on a copy of a prepared one."""
    n, mode, ops, seed = run
    prepared = init_population(n, mode)
    head = prepared.head.copy()
    dense = dense_population(n, mode)
    for op in ops:
        apply_gate(head, op)
        apply_gate(dense, op)
    population = Population(head, prepared.tail)
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


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12),
    st.sampled_from(MODES),
    st.lists(st.booleans(), max_size=12),
    st.integers(0, 2**32 - 1),
)
def test_escapes_through_the_machine_match_escapes_on_the_dense_state(n, mode, gates, seed):
    """A prepared population steps through its machine, the dense state it
    stands for through ``apply_gate``: each escape's draw and gate agree,
    and so do the amplitudes after them."""
    population = init_population(n, mode)
    dense = dense_population(n, mode)
    rng_factored = np.random.default_rng(seed)
    rng_dense = np.random.default_rng(seed)
    for cx in gates:
        best = best_for(n, cx and n >= 2)
        assert escape(population, best, rng_factored) == escape(dense, best, rng_dense)
    np.testing.assert_allclose(
        population_amplitudes(population), dense.amplitudes, rtol=0, atol=1e-12
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
        for cx in (True, False, True) if n >= 2 else (False,):
            escape(stepped, best_for(n, cx), rng)
        populations += [init_population(n, mode), stepped]
    for population in populations:
        for u in edges:
            for us in ([u] * 5, [u, *rng.random(4).tolist()]):
                draws, reference = Draws(us), Draws(us)
                assert population.sample(draws) == sample_by_doubling(population, reference)
                assert list(draws.us) == list(reference.us)


def test_escape_gates_stay_in_two_qubit_blocks():
    rng = np.random.default_rng(19)
    for mode, tail in (("with_replacement", (1,) * 18), ("without_replacement", (2,) * 9)):
        population = init_population(20, mode)
        for cx in (True, False) * 5:
            escape(population, best_for(20, cx), rng)
        assert population.head.n_qubits == 2
        assert population.tail == tail


def test_gate_on_a_tail_qubit_names_the_head_width():
    population = init_population(5, "without_replacement")
    escape(population, best_for(5, False), np.random.default_rng(20))
    before = population.head.amplitudes.tobytes()
    for op, message in (
        (GateOp(Gate.H, 2), "target qubit 2"),
        (GateOp(Gate.CX, 1, control=4), "control qubit 4"),
        (GateOp(Gate.X, 3), "target qubit 3"),
    ):
        with pytest.raises(IndexError, match=f"{message} out of range for 2 qubits"):
            apply_gate(population.head, op)
        assert population.head.amplitudes.tobytes() == before


def test_population_rejects_out_of_range_qubits():
    population = init_population(3)
    for op in (GateOp(Gate.H, 3), GateOp(Gate.CX, 0, control=-1)):
        with pytest.raises(IndexError, match="out of range"):
            apply_gate(population.head, op)


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


def kernel_cdf(state: StateVector) -> list[str]:
    """The normalized CDF of ``state``, each entry as ``float.hex``."""
    cdf = np.cumsum(probabilities(state))
    return [float.hex(c) for c in (cdf / cdf[-1]).tolist()]


def kernel_hex(state: StateVector) -> tuple[list[str], list[str]]:
    """The amplitudes of ``state``, real and imaginary parts, and its
    normalized CDF, each entry as ``float.hex``."""
    parts = [float.hex(float(x)) for a in state.amplitudes.tolist() for x in (a.real, a.imag)]
    return parts, kernel_cdf(state)


@pytest.mark.parametrize("mode", MODES)
def test_escape_machine_steps_equal_the_kernel(mode):
    """A template's machine is its prepared head walked to closure under
    the escape gates of its width: a pinned number of states, each step
    ``apply_gate`` of the state it leaves and each CDF ``normalized_cdf``,
    both by ``float.hex``, in read-only arrays no escape can write. Every
    item count from two up shares its mode's machine. Copies step their own
    index, never the template's."""
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        template = tabu._template(n, mode)
        states, steps = template._states, template._next
        assert len(states) == MACHINE_STATES[1 if n == 1 else mode]
        assert states[0][0] is template.head and template._at == 0
        narrowest = tabu._template(min(n, 2), mode)
        assert states is narrowest._states and steps is narrowest._next
        assert kernel_hex(template.head) == kernel_hex(dense_population(min(n, 2), mode))
        assert len({head.amplitudes.tobytes() for head, _ in states}) == len(states)
        for (head, cdf), row in zip(states, steps):
            assert [float.hex(c) for c in cdf] == kernel_cdf(head)
            assert [float.hex(c) for c in cdf] == [float.hex(c) for c in normalized_cdf(head)]
            assert not head.amplitudes.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                head.amplitudes[0] = 0.0
            assert len(row) == (1 if n == 1 else 2)
            for entangled, to in enumerate(row):
                stepped = apply_gate(head.copy(), escape_gate(n, bool(entangled)))
                assert kernel_hex(states[to][0]) == kernel_hex(stepped)

        population, at, visited = init_population(n, mode), 0, {0}
        for _ in range(60):
            entangled = n >= 2 and bool(rng.integers(2))
            escape(population, best_for(n, entangled), rng)
            at = steps[at][entangled]
            visited.add(at)
            assert population._at == at
            assert population.head is states[at][0] and population._cdf is states[at][1]
            assert template._at == 0 and template.head is states[0][0]
        assert len(visited) > 1


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
    """A dense state is stepped in its own array by ``apply_gate``, and the
    draw reads the CDF of the stepped state. The name is from when the
    unstepped state's CDF was built too; an escape now builds one CDF."""
    state = dense_population(10, "with_replacement")
    calls = []

    def counted(head: StateVector) -> np.ndarray:
        calls.append(head.n_qubits)
        return normalized_cdf(head)

    monkeypatch.setattr(tabu, "normalized_cdf", counted)
    expected = apply_gate(state.copy(), GateOp(Gate.CX, 1, control=0))
    amplitudes = state.amplitudes
    draw, entangled = escape(state, (1,) + (0,) * 9, np.random.default_rng(18))
    assert calls == [10]
    assert entangled
    assert state.amplitudes is amplitudes
    assert amplitudes.tobytes() == expected.amplitudes.tobytes()
    assert draw == dense_inverse_cdf(expected, np.random.default_rng(18).random())


def test_a_table_hit_writes_into_the_callers_state():
    """A dense state passed to ``escape`` changes in place, and changing it
    afterwards changes no later escape. A population's head is a stored
    machine state: writing into it is refused, so fresh populations keep
    the prepared head."""
    first, second = zero_state(2), zero_state(2)
    escape(first, (1, 1), np.random.default_rng(23))
    amplitudes = second.amplitudes
    escape(second, (1, 1), np.random.default_rng(23))
    expected = apply_gate(zero_state(2), GateOp(Gate.H, 1)).amplitudes.tobytes()
    assert second.amplitudes is amplitudes
    assert amplitudes.tobytes() == first.amplitudes.tobytes() == expected
    first.amplitudes[...] = second.amplitudes[...] = 0.0
    third = zero_state(2)
    escape(third, (1, 1), np.random.default_rng(23))
    assert third.amplitudes.tobytes() == expected

    population = init_population(4)
    prepared = population.head.amplitudes.tobytes()
    escape(population, best_for(4, True), np.random.default_rng(24))
    with pytest.raises(ValueError, match="read-only"):
        population.head.amplitudes[...] = 0.0
    assert init_population(4).head.amplitudes.tobytes() == prepared


def test_heads_the_table_cannot_key_skip_it():
    """A dense 2**20 state escapes through ``apply_gate`` on its own array:
    the kernel's bytes, and no escape machine is built for it. Nor for a
    head of real amplitudes, which stays real."""
    built = tabu._escape_machine.cache_info().currsize
    state = zero_state(20)
    for qubit in range(20):
        apply_gate(state, GateOp(Gate.H, qubit))
    expected = apply_gate(state.copy(), GateOp(Gate.CX, 1, control=0)).amplitudes.tobytes()
    assert escape(state, (1,) + (0,) * 19, np.random.default_rng(16))[1]
    assert state.amplitudes.tobytes() == expected

    real = StateVector(2, np.array([1.0, 0.0, 0.0, 0.0]))
    assert not escape(real, (1, 1), np.random.default_rng(19))[1]
    np.testing.assert_array_equal(real.amplitudes, [2**-0.5, 0.0, 2**-0.5, 0.0])
    assert real.amplitudes.dtype == float
    assert tabu._escape_machine.cache_info().currsize == built


def test_population_rejects_conditioned_gates():
    """A population has no classical bits, so the kernel refuses a
    conditioned gate on its head before writing anything."""
    population = init_population(4)
    escape(population, best_for(4, True), np.random.default_rng(22))
    before = population.head.amplitudes.tobytes()
    with pytest.raises(IndexError, match=r"classical bit 0 out of range"):
        apply_gate(population.head, GateOp(Gate.X, 0, condition=(0, 1)))
    assert population.head.amplitudes.tobytes() == before


@pytest.mark.parametrize("mode", MODES)
def test_runs_are_the_same_with_a_cold_warm_or_disabled_table(mode, monkeypatch):
    """A run whose template and escape machine are built afresh (cold), one
    that reuses them (warm), and one whose population is the dense state, so
    no machine serves its escapes (disabled), give the same bytes."""
    rng = np.random.default_rng(17)
    for seed in range(4):
        profits, weights = rng.uniform(0.5, 30.0, size=12), rng.uniform(0.1, 15.0, size=12)
        instance = KnapsackInstance(tuple(profits), tuple(weights), float(weights.sum()) * 0.4)
        config = SearchConfig(seed=seed, population_mode=mode)
        tabu._template.cache_clear()
        tabu._escape_machine.cache_clear()
        cold = qts_run(instance, config)
        assert tabu._escape_machine.cache_info().currsize == 1
        assert cold.escapes_cx + cold.escapes_h
        warm = qts_run(instance, config)
        with monkeypatch.context() as off:
            off.setattr(tabu, "init_population", dense_population)
            disabled = qts_run(instance, config)
        assert repr(cold) == repr(warm) == repr(disabled)
