"""The factored population against the dense statevector it stands for.

The reference is the dense simulation: ``zero_state`` plus ``apply_gate``
for the preparation gates and every later gate, sampled by the dense
inverse CDF over all ``2**n`` basis states.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtabu.statevector import Gate, GateOp, StateVector, apply_gate, zero_state
from qtabu.tabu import Population, init_population, sample_candidate

MODES = ("with_replacement", "without_replacement")
ESCAPE_GATES = (GateOp(Gate.CX, 1, control=0), GateOp(Gate.H, 1))


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
    probs = np.abs(state.amplitudes) ** 2
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    index = min(int(np.searchsorted(cdf, u, side="right")), probs.size - 1)
    return tuple((index >> k) & 1 for k in range(state.n_qubits))


@st.composite
def gate_runs(draw):
    n = draw(st.integers(1, 12))
    mode = draw(st.sampled_from(MODES))
    qubit = st.integers(0, n - 1)
    choices = [st.builds(GateOp, st.sampled_from([Gate.X, Gate.Z, Gate.H]), qubit)]
    if n >= 2:
        pairs = st.tuples(qubit, qubit).filter(lambda pair: pair[0] != pair[1])
        choices.append(pairs.map(lambda pair: GateOp(Gate.CX, pair[1], control=pair[0])))
        choices.append(st.sampled_from(ESCAPE_GATES))
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
    assert population.n_qubits == n
    assert sum(block.n_qubits for block in population.blocks) == n
    np.testing.assert_allclose(population.amplitudes, dense.amplitudes, rtol=0, atol=1e-12)

    rng_factored = np.random.default_rng(seed)
    rng_dense = np.random.default_rng(seed)
    for _ in range(20):
        assert sample_candidate(population, rng_factored) == dense_inverse_cdf(
            dense, rng_dense.random()
        )


def test_gate_across_distant_blocks_merges_the_range_between():
    population = init_population(6, "without_replacement")
    assert [block.n_qubits for block in population.blocks] == [2, 2, 2]
    population.apply(GateOp(Gate.CX, 4, control=0))
    assert [block.n_qubits for block in population.blocks] == [6]
    dense = dense_population(6, "without_replacement")
    apply_gate(dense, GateOp(Gate.CX, 4, control=0))
    np.testing.assert_allclose(population.amplitudes, dense.amplitudes, rtol=0, atol=1e-12)


def test_escape_gates_stay_in_two_qubit_blocks():
    population = init_population(20)
    for op in ESCAPE_GATES * 5:
        population.apply(op)
    assert [block.n_qubits for block in population.blocks] == [2] + [1] * 18
    assert population.starts == [0, *range(2, 20)]


def test_population_rejects_out_of_range_qubits():
    population = init_population(3)
    for op in (GateOp(Gate.H, 3), GateOp(Gate.CX, 0, control=-1)):
        with pytest.raises(IndexError, match="out of range"):
            population.apply(op)


def test_dense_state_samples_as_one_block():
    state = zero_state(3)
    apply_gate(state, GateOp(Gate.H, 2))
    apply_gate(state, GateOp(Gate.CX, 0, control=2))
    rng = np.random.default_rng(12)
    for _ in range(50):
        u = rng.random()
        assert Population([state]).sample(u) == dense_inverse_cdf(state, u)
