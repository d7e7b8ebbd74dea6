from __future__ import annotations

import numpy as np
import pytest

from oracles import gate_matrix
from qtabu.qasm import Program
from qtabu.statevector import (
    Gate,
    GateOp,
    MeasureOp,
    StateVector,
    apply_gate,
    bitstring,
    branch_probabilities,
    measure,
    normalize_counts,
    probabilities,
    run_program,
    sample_counts,
    total_variation_distance,
    zero_state,
)

SQ2 = 2.0 ** -0.5


def test_zero_state_basis():
    assert zero_state(1).amplitudes.tolist() == [1, 0]
    assert zero_state(2).amplitudes.tolist() == [1, 0, 0, 0]


def test_zero_state_bounds():
    with pytest.raises(ValueError, match="1..20"):
        zero_state(0)
    with pytest.raises(ValueError, match="1..20"):
        zero_state(21)


def test_from_amplitudes_validates():
    state = StateVector.from_amplitudes([SQ2, SQ2])
    assert state.n_qubits == 1
    with pytest.raises(ValueError, match="2\\*\\*n"):
        StateVector.from_amplitudes([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="not normalized"):
        StateVector.from_amplitudes([1.0, 1.0])


def test_x_flips_lsb_qubit():
    state = apply_gate(zero_state(1), GateOp(Gate.X, 0))
    assert state.amplitudes.tolist() == [0, 1]
    # qubit 0 is the least-significant bit: |01> means qubit 0 set
    state2 = apply_gate(zero_state(2), GateOp(Gate.X, 0))
    assert state2.amplitudes.tolist() == [0, 1, 0, 0]
    assert bitstring(1, 2) == "01"


def test_h_makes_plus_and_minus():
    plus = apply_gate(zero_state(1), GateOp(Gate.H, 0))
    np.testing.assert_allclose(plus.amplitudes, [SQ2, SQ2], atol=1e-15)
    minus = apply_gate(plus, GateOp(Gate.Z, 0))
    np.testing.assert_allclose(minus.amplitudes, [SQ2, -SQ2], atol=1e-15)


def test_bell_construction():
    state = zero_state(2)
    apply_gate(state, GateOp(Gate.H, 0))
    apply_gate(state, GateOp(Gate.CX, 1, control=0))
    np.testing.assert_allclose(state.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-12)
    np.testing.assert_allclose(probabilities(state), [0.5, 0, 0, 0.5], atol=1e-12)


def test_probabilities_lopsided_state():
    state = StateVector.from_amplitudes([1 / np.sqrt(3), np.sqrt(2 / 3)])
    np.testing.assert_allclose(probabilities(state), [1 / 3, 2 / 3], atol=1e-12)


def test_gates_match_kron_matrices():
    # Every gate application must agree with the explicit matrix embedding.
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        ops = [GateOp(Gate.X, 0), GateOp(Gate.Z, 0), GateOp(Gate.H, 0)]
        if n >= 2:
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            ops.append(GateOp(Gate.CX, b, control=a))
        op = ops[int(rng.integers(len(ops)))]
        if op.kind is not Gate.CX:
            op = GateOp(op.kind, int(rng.integers(n)))
        state = StateVector(n, amps.copy())
        apply_gate(state, op)
        expected = gate_matrix(op, n) @ amps
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_gates_are_involutions():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    for op in (
        GateOp(Gate.X, 1),
        GateOp(Gate.Z, 2),
        GateOp(Gate.H, 0),
        GateOp(Gate.CX, 2, control=0),
    ):
        state = StateVector(3, amps.copy())
        apply_gate(state, op)
        apply_gate(state, op)
        np.testing.assert_allclose(state.amplitudes, amps, atol=1e-12)


def test_norm_preserved_over_random_circuits():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        state = zero_state(n)
        for _ in range(100):
            kind = (Gate.X, Gate.Z, Gate.H, Gate.CX)[int(rng.integers(4))]
            if kind is Gate.CX and n >= 2:
                a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
                apply_gate(state, GateOp(Gate.CX, b, control=a))
            else:
                kind = kind if kind is not Gate.CX else Gate.H
                apply_gate(state, GateOp(kind, int(rng.integers(n))))
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12


def test_gateop_validation():
    with pytest.raises(ValueError, match="control"):
        GateOp(Gate.CX, 1)
    with pytest.raises(ValueError, match="control"):
        GateOp(Gate.X, 1, control=0)
    with pytest.raises(ValueError, match="differ"):
        GateOp(Gate.CX, 1, control=1)


def test_apply_gate_index_errors():
    with pytest.raises(IndexError, match="target"):
        apply_gate(zero_state(2), GateOp(Gate.X, 2))
    with pytest.raises(IndexError, match="control"):
        apply_gate(zero_state(2), GateOp(Gate.CX, 0, control=5))


def test_conditioned_gate_respects_classical_bit():
    met = apply_gate(zero_state(1), GateOp(Gate.X, 0, condition=(0, 1)), [1])
    assert met.amplitudes.tolist() == [0, 1]
    unmet = apply_gate(zero_state(1), GateOp(Gate.X, 0, condition=(0, 1)), [0])
    assert unmet.amplitudes.tolist() == [1, 0]
    with pytest.raises(IndexError, match="classical"):
        apply_gate(zero_state(1), GateOp(Gate.X, 0, condition=(3, 1)), [0])


def test_measure_basis_state_is_deterministic():
    rng = np.random.default_rng(0)
    state = apply_gate(zero_state(1), GateOp(Gate.X, 0))
    for _ in range(5):
        outcome, state = measure(state, 0, rng)
        assert outcome == 1
        np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-15)


def test_measure_collapses_and_repeats():
    rng = np.random.default_rng(42)
    state = apply_gate(zero_state(1), GateOp(Gate.H, 0))
    first, state = measure(state, 0, rng)
    assert first in (0, 1)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12
    again, _ = measure(state, 0, rng)
    assert again == first


def test_bell_measurements_agree():
    rng = np.random.default_rng(7)
    for _ in range(50):
        state = zero_state(2)
        apply_gate(state, GateOp(Gate.H, 0))
        apply_gate(state, GateOp(Gate.CX, 1, control=0))
        first, state = measure(state, 0, rng)
        second, state = measure(state, 1, rng)
        assert first == second


def test_entangled_product_state_correlation():
    # (a|0> + b|1>) tensor |0>, then cx(0,1): joint bits always equal.
    rng = np.random.default_rng(13)
    for _ in range(20):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw /= np.linalg.norm(raw)
        state = StateVector.from_amplitudes([raw[0], raw[1], 0, 0])
        apply_gate(state, GateOp(Gate.CX, 1, control=0))
        bit0, state = measure(state, 0, rng)
        bit1, state = measure(state, 1, rng)
        assert bit0 == bit1


def test_probabilities_global_phase_invariant():
    state = apply_gate(zero_state(2), GateOp(Gate.H, 0))
    rotated = StateVector(2, state.amplitudes * np.exp(1j * 0.7))
    np.testing.assert_allclose(probabilities(state), probabilities(rotated), atol=1e-15)


def test_sample_counts_bell_keys_and_total():
    rng = np.random.default_rng(3)
    state = zero_state(2)
    apply_gate(state, GateOp(Gate.H, 0))
    apply_gate(state, GateOp(Gate.CX, 1, control=0))
    counts = sample_counts(state, 1000, rng)
    assert set(counts) <= {"00", "11"}
    assert sum(counts.values()) == 1000


def test_sample_counts_validation_and_determinism():
    state = zero_state(1)
    assert sample_counts(state, 5, np.random.default_rng(1)) == {"0": 5}
    with pytest.raises(ValueError, match="shots"):
        sample_counts(state, 0, np.random.default_rng(1))
    plus = apply_gate(zero_state(1), GateOp(Gate.H, 0))
    first = sample_counts(plus, 100, np.random.default_rng(9))
    second = sample_counts(plus, 100, np.random.default_rng(9))
    assert first == second


def test_uniform_sampling_within_3_sigma():
    rng = np.random.default_rng(17)
    state = zero_state(2)
    apply_gate(state, GateOp(Gate.H, 0))
    apply_gate(state, GateOp(Gate.H, 1))
    shots = 100_000
    counts = sample_counts(state, shots, rng)
    sigma = np.sqrt(shots * 0.25 * 0.75)
    for key in ("00", "01", "10", "11"):
        assert abs(counts[key] - shots / 4) < 3 * sigma


def test_run_program_executes_conditions():
    # h q0; measure q0 -> c0; if(c0==1) x q1; measure q1 -> c1
    program = Program(
        2,
        2,
        [
            GateOp(Gate.H, 0),
            MeasureOp(0, 0),
            GateOp(Gate.X, 1, condition=(0, 1)),
            MeasureOp(1, 1),
        ],
    )
    rng = np.random.default_rng(21)
    seen = set()
    for _ in range(40):
        _, cbits = run_program(program, rng)
        assert cbits[0] == cbits[1]
        seen.add(tuple(cbits))
    assert seen == {(0, 0), (1, 1)}


def test_branch_probabilities_single_h():
    program = Program(1, 1, [GateOp(Gate.H, 0), MeasureOp(0, 0)])
    dist = branch_probabilities(program)
    assert dist.keys() == {"0", "1"}
    np.testing.assert_allclose([dist["0"], dist["1"]], [0.5, 0.5], atol=1e-12)


def test_branch_probabilities_condition_chain():
    program = Program(
        2,
        2,
        [
            GateOp(Gate.H, 0),
            MeasureOp(0, 0),
            GateOp(Gate.X, 1, condition=(0, 1)),
            MeasureOp(1, 1),
        ],
    )
    dist = branch_probabilities(program)
    # classical bit 0 renders rightmost
    np.testing.assert_allclose([dist["00"], dist["11"]], [0.5, 0.5], atol=1e-12)
    assert set(dist) == {"00", "11"}
    assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_total_variation_distance():
    assert total_variation_distance({"0": 1.0}, {"0": 1.0}) == 0.0
    assert total_variation_distance({"0": 1.0}, {"1": 1.0}) == 1.0
    assert abs(total_variation_distance({"0": 0.5, "1": 0.5}, {"0": 0.25, "1": 0.75}) - 0.25) < 1e-15


def test_normalize_counts():
    assert normalize_counts({"0": 3, "1": 1}) == {"0": 0.75, "1": 0.25}
    with pytest.raises(ValueError, match="positive"):
        normalize_counts({})
