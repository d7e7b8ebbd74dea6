"""The head-and-tail population against the dense statevector it stands for.

The reference is the dense simulation: ``zero_state`` plus ``apply_gate``
for the preparation gates and every later gate, sampled by the dense
inverse CDF over all ``2**n`` basis states. Gates reach only the head
(qubits 0 and 1); the tail keeps its prepared ``|+>`` and Bell blocks.
"""

from __future__ import annotations

import math

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
    return dense_inverse_cdfs(state, [u])[0]


def dense_inverse_cdfs(state: StateVector, us: list[float]) -> list[tuple[int, ...]]:
    probs = np.abs(state.amplitudes) ** 2
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    indices = np.minimum(np.searchsorted(cdf, us, side="right"), probs.size - 1)
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
    assert population.n_qubits == population.head.n_qubits + sum(population.tail) == n
    np.testing.assert_allclose(population.amplitudes, dense.amplitudes, rtol=0, atol=1e-12)

    rng_factored = np.random.default_rng(seed)
    rng_dense = np.random.default_rng(seed)
    for _ in range(20):
        assert sample_candidate(population, rng_factored) == dense_inverse_cdf(
            dense, rng_dense.random()
        )


@pytest.mark.parametrize("mode", MODES)
def test_long_tails_sample_as_dense(mode):
    """Fresh populations past the Hypothesis widths, where the tail decides
    most bits. Fixed draws cover the top digits' edges and the largest
    float below 1; deeper dyadic edges are left out, because there the
    dense cumsum of ``2**n`` rounded terms can land a last bit off."""
    edges = [0.0, 0.25, 0.5, 0.75, math.nextafter(1.0, 0.0)]
    rng = np.random.default_rng(13)
    for n in range(13, 21):
        us = edges + rng.random(300).tolist()
        population = init_population(n, mode)
        assert [population.sample(u) for u in us] == dense_inverse_cdfs(
            dense_population(n, mode), us
        )


def test_escape_gates_stay_in_two_qubit_blocks():
    for mode, tail in (("with_replacement", (1,) * 18), ("without_replacement", (2,) * 9)):
        population = init_population(20, mode)
        for op in ESCAPE_GATES * 5:
            population.apply(op)
        assert population.head.n_qubits == 2
        assert population.tail == tail


def test_gate_on_a_tail_qubit_names_the_head_width():
    population = init_population(5, "without_replacement")
    for op in (GateOp(Gate.H, 2), GateOp(Gate.CX, 1, control=4), GateOp(Gate.X, 3)):
        with pytest.raises(IndexError, match="2-qubit head of a 5-qubit population"):
            population.apply(op)


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
        assert Population(state).sample(u) == dense_inverse_cdf(state, u)
