"""Dense statevector simulation for the x/z/h/cx gate set (up to 20 qubits).

Convention used throughout the package: qubit 0 is the least-significant
bit of the basis-state index, so basis state ``|q_{n-1} ... q_1 q_0>`` has
index ``sum(q_k << k)`` and bitstrings render with qubit 0 rightmost.

Every stochastic operation takes a ``numpy.random.Generator`` explicitly;
rerunning with the same seed reproduces every draw. ``normalized_cdf`` is
the one Born-rule CDF that ``sample_counts`` and the tabu population draw by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Mapping, Sequence

import numpy as np

MAX_QUBITS = 20
NORM_TOL = 1e-12
# Most uniforms ``shot_counts`` or ``sample_counts`` draws at once (512 KiB),
# so their memory stays flat in the shot count.
SHOT_BLOCK = 2**16


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
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails this test too
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


@cache
def _half_indices(n: int, qubit: int, control: int | None):
    """The ``(2,) * n`` shape and the indices of ``_halves``' two views.

    The trailing ``...`` keeps a fully fixed index a 0-d view, not a scalar copy.
    Every state has at most ``MAX_QUBITS`` qubits, so the cache stays small."""
    index: list[slice | int] = [slice(None)] * n
    if control is not None:
        index[n - 1 - control] = 1
    index[n - 1 - qubit] = 0
    zero = (*index, ...)
    index[n - 1 - qubit] = 1
    return (2,) * n, zero, (*index, ...)


def _halves(state: StateVector, qubit: int, control: int | None = None):
    """Views of the amplitudes with ``qubit`` at 0 and at 1, inside ``control`` = 1."""
    shape, zero, one = _half_indices(state.n_qubits, qubit, control)
    view = state.amplitudes.reshape(shape)
    return view[zero], view[one]


def _check_qubit(state: StateVector, qubit: int, role: str) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(f"{role} qubit {qubit} out of range for {state.n_qubits} qubits")


def apply_gate(state: StateVector, op: GateOp, classical_bits: Sequence[int] = ()) -> StateVector:
    """Apply one gate in place and return the same state.

    Conditioned gates consult ``classical_bits`` and become a no-op when the
    condition does not hold.
    """
    _check_qubit(state, op.target, "target")
    if op.control is not None:
        _check_qubit(state, op.control, "control")
    if op.condition is not None:
        cbit, wanted = op.condition
        if not 0 <= cbit < len(classical_bits):
            raise IndexError(f"classical bit {cbit} out of range")
        if classical_bits[cbit] != wanted:
            return state

    if op.kind is Gate.Z:
        _, one = _halves(state, op.target)
        one *= -1.0
    elif op.kind is Gate.H:
        zero, one = _halves(state, op.target)
        zero[...], one[...] = (zero + one) * 2.0**-0.5, (zero - one) * 2.0**-0.5
    else:
        # X and CX swap the target's halves (inside control = 1 for CX).
        zero, one = _halves(state, op.target, op.control)
        tmp = zero.copy()
        zero[...] = one
        one[...] = tmp
    return state


def probabilities(state: StateVector) -> np.ndarray:
    """Born-rule probability for every basis state, indexed like amplitudes."""
    return np.abs(state.amplitudes) ** 2


def normalized_cdf(state: StateVector) -> np.ndarray:
    """The cumulative Born probabilities of ``state``, scaled to end at 1: the
    first entry above a uniform is the outcome ``rng.choice(size, p=probs)`` gives."""
    probs = probabilities(state)
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    return cdf


def measure(state: StateVector, qubit: int, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Measure one qubit, collapse the state in place, return (outcome, state)."""
    p_one = _p_one(state, qubit)
    outcome = 1 if rng.random() < p_one else 0
    return outcome, _project(state, qubit, outcome)


def _p_one(state: StateVector, qubit: int) -> float:
    """Born probability that measuring ``qubit`` gives 1."""
    _check_qubit(state, qubit, "measured")
    # np.sum's own reduction, without its Python wrapper.
    return float(np.add.reduce(np.abs(_halves(state, qubit)[1]) ** 2, axis=None))


def _project(state: StateVector, qubit: int, outcome: int) -> StateVector:
    """Collapse ``qubit`` onto ``outcome`` in place and return the state."""
    _halves(state, qubit)[1 - outcome][...] = 0.0
    # Renormalize by the actual remaining norm so repeated measurement does
    # not accumulate drift. This is np.linalg.norm's formula for a complex
    # vector, without its Python overhead.
    amps = state.amplitudes
    amps /= math.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))
    return state


def bitstring(index: int, n_bits: int) -> str:
    """Render a basis index with bit 0 rightmost."""
    return format(index, f"0{n_bits}b")


def cbit_key(cbits: Sequence[int]) -> str:
    """Render classical-register values with bit 0 rightmost."""
    return "".join(str(b) for b in reversed(cbits))


def sample_counts(state: StateVector, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Sample the full register ``shots`` times without collapsing the state.

    Each shot takes the first normalized-CDF entry above one uniform, as
    ``rng.choice(size, p=probs)`` does, drawn in blocks of ``SHOT_BLOCK``.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cdf = normalized_cdf(state)
    counts = np.zeros(cdf.size, dtype=np.int64)
    for start in range(0, shots, SHOT_BLOCK):
        draws = rng.random(min(SHOT_BLOCK, shots - start))
        counts += np.bincount(cdf.searchsorted(draws, side="right"), minlength=cdf.size)
    return {
        bitstring(int(value), state.n_qubits): int(counts[value])
        for value in np.flatnonzero(counts)
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


def shot_counts(program, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Run ``program`` ``shots`` times and count its classical-register values.

    Gives the counts, and leaves ``rng`` in the state, of ``shots`` calls to
    ``run_program``, but simulates each distinct measurement-outcome prefix
    once. Every shot takes one uniform per measurement, so drawing a
    ``(shots, measurements)`` array row by row hands each shot the uniforms
    ``run_program`` would draw for it. On ``_walk`` a branch weighs its
    shots' rows and its next measurement's column; the rows split on
    ``measure``'s own comparison with ``_p_one``. Shots are drawn and walked
    in blocks of at most ``SHOT_BLOCK`` uniforms (whole rows, at least one),
    which continue the same row-major stream.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    n_measures = sum(isinstance(ins, MeasureOp) for ins in program.instructions)
    block = max(1, SHOT_BLOCK // max(1, n_measures))

    def split(state: StateVector, qubit: int, weight: tuple[np.ndarray, int]):
        # Reads the block of ``draws`` being walked.
        rows, column = weight
        ones = draws[rows, column] < _p_one(state, qubit)
        parts = ((0, rows[~ones]), (1, rows[ones]))
        return [(outcome, (part, column + 1)) for outcome, part in parts if part.size]

    counts: dict[str, int] = {}
    for start in range(0, shots, block):
        draws = rng.random((min(block, shots - start), n_measures))
        start_weight = (np.arange(len(draws)), 0)
        for key, (rows, _) in _walk(program, zero_state(program.n_qubits), start_weight, split):
            counts[key] = counts.get(key, 0) + len(rows)
    return counts


def branch_probabilities(program, initial_state: StateVector | None = None) -> dict[str, float]:
    """Exact distribution over classical-register values, bit 0 rightmost.

    Walks every measurement branch with its Born probability instead of
    sampling, on the same ``_walk`` as ``shot_counts``, so the result is
    deterministic and exact up to float error. Branches of probability
    below 1e-15 are dropped.
    """
    if initial_state is None:
        start = zero_state(program.n_qubits)
    else:
        if initial_state.n_qubits != program.n_qubits:
            raise ValueError("initial state size does not match program")
        start = initial_state.copy()

    def split(state: StateVector, qubit: int, prob: float):
        p_one = min(max(_p_one(state, qubit), 0.0), 1.0)
        parts = ((0, prob * (1.0 - p_one)), (1, prob * p_one))
        return [(outcome, p_out) for outcome, p_out in parts if p_out > 1e-15]

    dist: dict[str, float] = {}
    for key, prob in _walk(program, start, 1.0, split):
        dist[key] = dist.get(key, 0.0) + prob
    return dist


def _walk(program, state: StateVector, weight, split):
    """Walk ``program``'s measurement outcomes depth first from ``state``.

    Yields ``(cbit key, weight)`` at the end of every outcome path. At each
    measurement ``split(state, qubit, weight)`` lists the reached
    ``(outcome, weight)`` children, outcome 0 first; each child continues
    from the state projected onto its outcome. The last reached child takes
    the parent's state, projected after every other child has copied it.
    """
    instructions = program.instructions
    # Each pending branch: (next instruction index, state, classical bits, weight).
    pending = [(0, state, [0] * program.n_cbits, weight)]
    while pending:
        pos, state, cbits, weight = pending.pop()
        while pos < len(instructions):
            ins = instructions[pos]
            pos += 1
            if isinstance(ins, MeasureOp):
                if not 0 <= ins.cbit < program.n_cbits:
                    raise IndexError(f"classical bit {ins.cbit} out of range")
                reached = split(state, ins.qubit, weight)
                for k, (outcome, branch_weight) in enumerate(reached):
                    branch_state = state if k == len(reached) - 1 else state.copy()
                    branch_bits = list(cbits)
                    branch_bits[ins.cbit] = outcome
                    pending.append((
                        pos, _project(branch_state, ins.qubit, outcome),
                        branch_bits, branch_weight,
                    ))
                break
            apply_gate(state, ins, cbits)
        else:
            yield cbit_key(cbits), weight


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
