from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import gate_matrix, programs
from qtabu import statevector
from qtabu.mapsearch import load_teleport
from qtabu.qasm import Program
from qtabu.statevector import (
    SHOT_BLOCK,
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
    shot_counts,
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
    nan = float("nan")
    for amplitudes in ([nan, 0.0], [1.0, nan], [complex(nan, 0.0), 1.0]):
        with pytest.raises(ValueError, match="state is not normalized"):
            StateVector.from_amplitudes(amplitudes)


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


def test_gates_match_the_index_arithmetic_oracle_bit_for_bit():
    rng = np.random.default_rng(29)
    for n in range(1, 7):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps.real[0] = -0.0
        amps.imag[-1] = -0.0
        ops = [GateOp(kind, t) for kind in (Gate.X, Gate.Z, Gate.H) for t in range(n)]
        ops += [GateOp(Gate.CX, t, control=c) for c in range(n) for t in range(n) if c != t]
        for op in ops:
            state = StateVector(n, amps.copy())
            apply_gate(state, op)
            expected = oracles.apply_gate_by_index(amps, op)
            assert state.amplitudes.tobytes() == expected.tobytes(), op


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


@pytest.mark.parametrize(
    "shots", [1, SHOT_BLOCK - 1, SHOT_BLOCK, SHOT_BLOCK + 1, 2 * SHOT_BLOCK + 5]
)
def test_sample_counts_equal_one_choice_call(shots):
    """Drawn in blocks, the shots give the counts, their key order and the
    generator state of one ``rng.choice`` call over all of them."""
    rng = np.random.default_rng(shots)
    for n in (1, 3, 6):
        amplitudes = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amplitudes[1::3] = 0.0  # outcomes that never occur
        state = StateVector(n, amplitudes / np.linalg.norm(amplitudes))
        seed = int(rng.integers(2**32))
        blocks, choice = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = sample_counts(state, shots, blocks)
        expected = oracles.sample_counts(state, shots, choice)
        assert list(counts.items()) == list(expected.items())
        assert blocks.random() == choice.random()


def test_normalized_cdf_is_the_choice_cdf():
    """``normalized_cdf`` is, bit for bit, the CDF ``Generator.choice`` builds
    from ``p = probs / probs.sum()``. The formulas that differ from it only in
    the last bit (``cumsum(probs)`` scaled to end at 1, say) tell apart on
    about half of these states, and would move ``sample_counts``' draws."""
    rng = np.random.default_rng(20)
    for n in range(1, 11):
        for _ in range(20):
            amplitudes = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state = StateVector(n, amplitudes / np.linalg.norm(amplitudes))
            probs = probabilities(state)
            p = probs / probs.sum()
            cdf = p.cumsum()
            cdf /= cdf[-1]
            got = statevector.normalized_cdf(state)
            assert list(map(float.hex, got.tolist())) == list(map(float.hex, cdf.tolist()))


def _signed_zero_state(n: int, rng: np.random.Generator) -> StateVector:
    """A random state whose amplitudes include -0.0 real and imaginary parts."""
    real, imag = rng.normal(size=(2, 2**n))
    # At least one of each, and never both parts of one amplitude.
    zeros = rng.permutation(np.resize([1, 2, 0], 2**n))
    real[zeros == 1] = -0.0
    imag[zeros == 2] = -0.0
    norm = np.sqrt(np.sum(real**2 + imag**2))
    amplitudes = np.empty(2**n, dtype=complex)
    # Set each part alone: complex arithmetic would turn some -0.0 into 0.0.
    amplitudes.real, amplitudes.imag = real / norm, imag / norm
    return StateVector(n, amplitudes)


def _reshaped_halves(amplitudes: np.ndarray, n: int, qubit: int, control: int | None):
    view = amplitudes.reshape([2] * n)
    index: list[slice | int] = [slice(None)] * n
    if control is not None:
        index[n - 1 - control] = 1
    index[n - 1 - qubit] = 0
    zero = view[(*index, ...)]
    index[n - 1 - qubit] = 1
    return zero, view[(*index, ...)]


def _layout(view: np.ndarray):
    return view.__array_interface__["data"][0], view.shape, view.strides


@pytest.mark.parametrize("n", range(1, 8))
def test_cached_halves_are_the_reshaped_views(n):
    state = zero_state(n)
    for qubit in range(n):
        for control in [None, *(c for c in range(n) if c != qubit)]:
            halves = statevector._halves(state, qubit, control)
            expected = _reshaped_halves(state.amplitudes, n, qubit, control)
            assert list(map(_layout, halves)) == list(map(_layout, expected))
            assert all(half.base is not None for half in halves)  # views, not copies


@pytest.mark.parametrize("n", range(1, 8))
def test_measurement_kernels_match_the_numpy_formulas_bit_for_bit(n):
    rng = np.random.default_rng(700 + n)
    for _ in range(4):
        state = _signed_zero_state(n, rng)
        for part in (state.amplitudes.real, state.amplitudes.imag):
            assert (np.signbit(part) & (part == 0)).any()
        for qubit in range(n):
            one = _reshaped_halves(state.amplitudes, n, qubit, None)[1]
            expected = float(np.sum(np.abs(one) ** 2))
            assert statevector._p_one(state, qubit).hex() == expected.hex()
            for outcome in (0, 1):
                projected = state.copy()
                statevector._project(projected, qubit, outcome)
                kept = state.amplitudes.copy()
                _reshaped_halves(kept, n, qubit, None)[1 - outcome][...] = 0.0
                expected_amplitudes = kept / np.linalg.norm(kept)
                assert projected.amplitudes.tobytes() == expected_amplitudes.tobytes()


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


@settings(max_examples=200, deadline=None)
@given(programs(max_qubits=5), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_shot_counts_matches_one_run_per_shot(program, shots, seed):
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    assert shot_counts(program, shots, rng) == oracles.shot_counts(program, shots, oracle_rng)
    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("measures", [1, 2])
def test_shot_counts_crosses_the_block_boundary(measures):
    # A block holds SHOT_BLOCK // measures shots. The qubit collapses at its
    # first measurement, so every later one repeats that outcome.
    program = Program(
        1, measures, [GateOp(Gate.H, 0), *(MeasureOp(0, cbit) for cbit in range(measures))]
    )
    shots = SHOT_BLOCK // measures + 3
    p_one = probabilities(apply_gate(zero_state(1), GateOp(Gate.H, 0)))[1]
    first_draws = np.random.default_rng(8).random((shots, measures))[:, 0]
    ones = int(np.sum(first_draws < p_one))
    counts = shot_counts(program, shots, np.random.default_rng(8))
    assert counts == {"0" * measures: shots - ones, "1" * measures: ones}


@pytest.mark.parametrize(
    "instructions, error",
    [
        ([GateOp(Gate.H, 0), MeasureOp(0, 2)], "classical bit 2 out of range"),
        ([GateOp(Gate.H, 0), MeasureOp(1, 0)], "measured qubit 1 out of range"),
        ([MeasureOp(0, 0), GateOp(Gate.X, 0, condition=(3, 1))], "classical bit 3 out of range"),
        ([GateOp(Gate.H, 0), MeasureOp(0, -1)], "classical bit -1 out of range"),
    ],
)
def test_shot_counts_raises_what_run_program_raises(instructions, error):
    program = Program(1, 1, instructions)
    with pytest.raises(IndexError, match=error):
        run_program(program, np.random.default_rng(0))
    with pytest.raises(IndexError, match=error):
        shot_counts(program, 10, np.random.default_rng(0))
    with pytest.raises(IndexError, match=error):
        branch_probabilities(program)


def test_shot_counts_rejects_no_shots():
    program = Program(1, 1, [MeasureOp(0, 0)])
    with pytest.raises(ValueError, match="shots must be >= 1, got 0"):
        shot_counts(program, 0, np.random.default_rng(0))


def test_branch_probabilities_single_h():
    program = Program(1, 1, [GateOp(Gate.H, 0), MeasureOp(0, 0)])
    dist = branch_probabilities(program)
    assert dist.keys() == {"0", "1"}
    np.testing.assert_allclose([dist["0"], dist["1"]], [0.5, 0.5], atol=1e-12)


def test_branch_probabilities_copies_one_state_per_extra_branch(monkeypatch):
    """Teleport measures twice into four equally likely paths and then
    measures a settled qubit: the walk copies a state for 1 + 2 branches,
    each last branch taking its parent's state. The distribution, in order
    and to the last bit, is the one a copy per branch (10 copies) gave."""
    copies = []
    copy = StateVector.copy

    def counted(self):
        copies.append(None)
        return copy(self)

    monkeypatch.setattr(StateVector, "copy", counted)
    dist = branch_probabilities(load_teleport())
    assert len(copies) == 3
    assert list(dist.items()) == [
        ("011", 0.25000000000000006),
        ("001", 0.25000000000000017),
        ("010", 0.24999999999999983),
        ("000", 0.24999999999999994),
    ]


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
