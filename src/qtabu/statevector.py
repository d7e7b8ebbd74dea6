"""Dense statevector simulation for the x/z/h/cx gate set (up to 20 qubits).

Convention used throughout the package: qubit 0 is the least-significant
bit of the basis-state index, so basis state ``|q_{n-1} ... q_1 q_0>`` has
index ``sum(q_k << k)`` and bitstrings render with qubit 0 rightmost.

Every stochastic operation takes a ``numpy.random.Generator`` explicitly;
rerunning with the same seed reproduces every draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

MAX_QUBITS = 20
NORM_TOL = 1e-12

_SQRT2_INV = 2.0 ** -0.5


class Gate(Enum):
    X = "x"
    Z = "z"
    H = "h"
    CX = "cx"


@dataclass(frozen=True)
class GateOp:
    """One gate application, optionally conditioned on a classical bit.

    ``control`` is present exactly when ``kind`` is CX. ``condition`` is a
    ``(classical_bit, required_value)`` pair; the gate is skipped unless the
    bit holds that value at execution time.
    """

    kind: Gate
    target: int
    control: int | None = None
    condition: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if (self.kind is Gate.CX) != (self.control is not None):
            raise ValueError("control qubit is required exactly for cx")
        if self.control is not None and self.control == self.target:
            raise ValueError("control and target must differ")


@dataclass(frozen=True)
class MeasureOp:
    """Measure one qubit in the computational basis into a classical bit."""

    qubit: int
    cbit: int


@dataclass
class StateVector:
    """Complex amplitudes over all ``2**n_qubits`` basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex]) -> StateVector:
        """Build a state from raw amplitudes, validating shape and norm."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        n = max(amps.size.bit_length() - 1, 0)
        if amps.size != 2**n or not 1 <= n <= MAX_QUBITS:
            raise ValueError(
                f"amplitude count must be 2**n for 1 <= n <= {MAX_QUBITS}, got {amps.size}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
        return cls(n, amps)

    def copy(self) -> StateVector:
        return StateVector(self.n_qubits, self.amplitudes.copy())


def zero_state(n_qubits: int) -> StateVector:
    """All-zeros computational basis state on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _select(n_qubits: int, bits: dict[int, int]) -> tuple[slice | int, ...]:
    """Index tuple fixing the given qubits in the reshape([2]*n) view."""
    index: list[slice | int] = [slice(None)] * n_qubits
    for qubit, value in bits.items():
        index[n_qubits - 1 - qubit] = value
    return tuple(index)


def _check_qubit(state: StateVector, qubit: int, role: str) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(f"{role} qubit {qubit} out of range for {state.n_qubits} qubits")


def apply_gate(state: StateVector, op: GateOp, classical_bits: Sequence[int] = ()) -> StateVector:
    """Apply one gate in place and return the same state.

    Conditioned gates consult ``classical_bits`` and become a no-op when the
    condition does not hold.
    """
    n = state.n_qubits
    _check_qubit(state, op.target, "target")
    if op.control is not None:
        _check_qubit(state, op.control, "control")
    if op.condition is not None:
        cbit, wanted = op.condition
        if not 0 <= cbit < len(classical_bits):
            raise IndexError(f"classical bit {cbit} out of range")
        if classical_bits[cbit] != wanted:
            return state

    view = state.amplitudes.reshape([2] * n)
    if op.kind is Gate.X:
        lo = _select(n, {op.target: 0})
        hi = _select(n, {op.target: 1})
        tmp = view[lo].copy()
        view[lo] = view[hi]
        view[hi] = tmp
    elif op.kind is Gate.Z:
        view[_select(n, {op.target: 1})] *= -1.0
    elif op.kind is Gate.H:
        lo = _select(n, {op.target: 0})
        hi = _select(n, {op.target: 1})
        a0 = view[lo].copy()
        a1 = view[hi]
        view[lo] = (a0 + a1) * _SQRT2_INV
        view[hi] = (a0 - a1) * _SQRT2_INV
    else:
        assert op.control is not None
        lo = _select(n, {op.control: 1, op.target: 0})
        hi = _select(n, {op.control: 1, op.target: 1})
        tmp = view[lo].copy()
        view[lo] = view[hi]
        view[hi] = tmp
    return state


def probabilities(state: StateVector) -> np.ndarray:
    """Born-rule probability for every basis state, indexed like amplitudes."""
    return np.abs(state.amplitudes) ** 2


def measure(state: StateVector, qubit: int, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Measure one qubit, collapse the state in place, return (outcome, state)."""
    p_one = _p_one(state, qubit)
    outcome = 1 if rng.random() < p_one else 0
    return outcome, _project(state, qubit, outcome)


def _p_one(state: StateVector, qubit: int) -> float:
    """Born probability that measuring ``qubit`` gives 1."""
    _check_qubit(state, qubit, "measured")
    n = state.n_qubits
    view = state.amplitudes.reshape([2] * n)
    return float(np.sum(np.abs(view[_select(n, {qubit: 1})]) ** 2))


def _project(state: StateVector, qubit: int, outcome: int) -> StateVector:
    """Collapse ``qubit`` onto ``outcome`` in place and return the state."""
    n = state.n_qubits
    view = state.amplitudes.reshape([2] * n)
    view[_select(n, {qubit: 1 - outcome})] = 0.0
    # Renormalize by the actual remaining norm so repeated measurement does
    # not accumulate drift.
    state.amplitudes /= np.linalg.norm(state.amplitudes)
    return state


def bitstring(index: int, n_bits: int) -> str:
    """Render a basis index with bit 0 rightmost."""
    return format(index, f"0{n_bits}b")


def cbit_key(cbits: Sequence[int]) -> str:
    """Render classical-register values with bit 0 rightmost."""
    return "".join(str(b) for b in reversed(cbits))


def sample_counts(state: StateVector, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Sample the full register ``shots`` times without collapsing the state."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = probabilities(state)
    probs = probs / probs.sum()
    draws = rng.choice(probs.size, size=shots, p=probs)
    values, counts = np.unique(draws, return_counts=True)
    return {
        bitstring(int(value), state.n_qubits): int(count)
        for value, count in zip(values, counts)
    }


def run_program(program, rng: np.random.Generator) -> tuple[StateVector, list[int]]:
    """Execute gates and measurements in order from the all-zeros state.

    ``program`` needs ``n_qubits``, ``n_cbits``, and an ``instructions`` list
    of GateOp/MeasureOp. Returns the final state and the classical bits.
    """
    state = zero_state(program.n_qubits)
    cbits = [0] * program.n_cbits
    for ins in program.instructions:
        if isinstance(ins, MeasureOp):
            if not 0 <= ins.cbit < program.n_cbits:
                raise IndexError(f"classical bit {ins.cbit} out of range")
            outcome, state = measure(state, ins.qubit, rng)
            cbits[ins.cbit] = outcome
        else:
            apply_gate(state, ins, cbits)
    return state, cbits


def branch_probabilities(program, initial_state: StateVector | None = None) -> dict[str, float]:
    """Exact distribution over classical-register values, bit 0 rightmost.

    Walks every measurement branch with its Born probability instead of
    sampling, so the result is deterministic and exact up to float error.
    Branches of probability below 1e-15 are dropped.
    """
    if initial_state is None:
        start = zero_state(program.n_qubits)
    else:
        if initial_state.n_qubits != program.n_qubits:
            raise ValueError("initial state size does not match program")
        start = initial_state.copy()
    instructions = program.instructions
    dist: dict[str, float] = {}
    # Each pending branch: (next instruction index, state, classical bits, prob).
    pending: list[tuple[int, StateVector, list[int], float]] = [
        (0, start, [0] * program.n_cbits, 1.0)
    ]
    while pending:
        pos, state, cbits, prob = pending.pop()
        while pos < len(instructions):
            ins = instructions[pos]
            pos += 1
            if isinstance(ins, MeasureOp):
                p_one = min(max(_p_one(state, ins.qubit), 0.0), 1.0)
                for outcome, p_out in ((0, 1.0 - p_one), (1, p_one)):
                    if prob * p_out <= 1e-15:
                        continue
                    branch_bits = list(cbits)
                    branch_bits[ins.cbit] = outcome
                    pending.append(
                        (pos, _project(state.copy(), ins.qubit, outcome), branch_bits, prob * p_out)
                    )
                break
            apply_gate(state, ins, cbits)
        else:
            key = cbit_key(cbits)
            dist[key] = dist.get(key, 0.0) + prob
    return dist


def normalize_counts(counts: Mapping[str, int]) -> dict[str, float]:
    """Turn a counts mapping into a probability distribution."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("counts must sum to a positive total")
    return {key: value / total for key, value in counts.items()}


def total_variation_distance(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Half the L1 distance between two distributions over string keys."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
