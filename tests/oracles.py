"""Independent oracles shared by the test modules.

Everything here is built from first principles (explicit kron matrices,
exhaustive enumeration) so package code is checked against math it does
not share. Qubit 0 is the least-significant bit of a basis index,
matching the package convention.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
from hypothesis import strategies as st

from qtabu.qasm import Program
from qtabu.routing import CouplingMap
from qtabu.statevector import (
    Gate,
    GateOp,
    MeasureOp,
    StateVector,
    cbit_key,
    normalized_cdf,
    run_program,
)
from qtabu.tabu import Population

X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=complex)
H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def embed_1q(matrix: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Single-qubit operator on the full 2^n space via explicit kron."""
    axis = n_qubits - 1 - qubit
    left = np.eye(2**axis, dtype=complex)
    right = np.eye(2 ** (n_qubits - 1 - axis), dtype=complex)
    return np.kron(np.kron(left, matrix), right)


def cx_matrix(control: int, target: int, n_qubits: int) -> np.ndarray:
    return embed_1q(P0, control, n_qubits) + embed_1q(P1, control, n_qubits) @ embed_1q(
        X_MATRIX, target, n_qubits
    )


def gate_matrix(op: GateOp, n_qubits: int) -> np.ndarray:
    if op.kind is Gate.CX:
        assert op.control is not None
        return cx_matrix(op.control, op.target, n_qubits)
    single = {Gate.X: X_MATRIX, Gate.Z: Z_MATRIX, Gate.H: H_MATRIX}[op.kind]
    return embed_1q(single, op.target, n_qubits)


def apply_gate_by_index(amplitudes: np.ndarray, op: GateOp) -> np.ndarray:
    """``op`` applied to a copy of ``amplitudes`` through basis-index bit masks.

    Each pair of amplitudes the gate mixes is found by its index: ``lo`` has
    the target bit clear (and, for cx, the control bit set) and ``hi`` is
    ``lo`` with the target bit set. The per-element arithmetic (``* -1.0``
    for z, ``(a0 +/- a1) * 2.0 ** -0.5`` for h) is the package's, so the
    result can be compared bit for bit.
    """
    index = np.arange(amplitudes.size)
    lo = index[(index >> op.target) & 1 == 0]
    if op.control is not None:
        lo = lo[(lo >> op.control) & 1 == 1]
    hi = lo | (1 << op.target)
    a0, a1 = amplitudes[lo], amplitudes[hi]
    out = amplitudes.copy()
    if op.kind is Gate.Z:
        out[hi] = a1 * -1.0
    elif op.kind is Gate.H:
        out[lo] = (a0 + a1) * 2.0 ** -0.5
        out[hi] = (a0 - a1) * 2.0 ** -0.5
    else:
        out[lo], out[hi] = a1, a0
    return out


def program_unitary(program: Program) -> np.ndarray:
    """Full unitary of a measurement-free, condition-free program."""
    unitary = np.eye(2**program.n_qubits, dtype=complex)
    for ins in program.instructions:
        assert isinstance(ins, GateOp) and ins.condition is None
        unitary = gate_matrix(ins, program.n_qubits) @ unitary
    return unitary


def population_amplitudes(population: Population) -> np.ndarray:
    """The dense ``2**n`` amplitudes a head-and-tail population stands for:
    ``kron`` of its tail blocks, from the highest down, with its head; a
    block of width 1 is ``|+>`` and one of width 2 a Bell pair."""
    plus = np.full(2, 2.0**-0.5, dtype=complex)
    bell = np.array([1, 0, 0, 1], dtype=complex) * 2.0**-0.5
    amplitudes = population.head.amplitudes.copy()
    for width in population.tail:
        amplitudes = np.kron(bell if width == 2 else plus, amplitudes)
    return amplitudes


def sample_by_doubling(population: Population, rng) -> tuple[int, ...]:
    """One draw from ``population`` by the doubling walk ``Population.sample``
    used before it read a draw's binary digits as one integer.

    Each tail block, from the highest down, takes the coin ``u >= 0.5``
    for all its qubits and ``u`` becomes ``u + u - coin`` (both exact in
    [0, 1)); a fresh ``u`` is drawn each time the walk has passed 32 qubits
    since the last draw. What is left of ``u`` picks the head's entry from
    ``normalized_cdf`` of the head.
    """
    u, walked = rng.random(), 0
    tail_bits: list[int] = []
    for width in reversed(population.tail):
        if walked >= 32:
            u, walked = rng.random(), 0
        coin = u >= 0.5
        u = u + u - coin
        tail_bits.extend((int(coin),) * width)
        walked += width
    index = bisect_right(normalized_cdf(population.head).tolist(), u)
    return (*((index >> q) & 1 for q in range(population.head.n_qubits)), *reversed(tail_bits))


def assert_routed_equivalent(
    original: Program,
    routed: Program,
    final_layout: tuple[int, ...],
    tol: float = 1e-10,
) -> None:
    """Check the routed program acts like the original up to global phase.

    Logical qubit i starts on physical qubit i and ends on
    ``final_layout[i]``; ancilla qubits must return to |0>.
    """
    dim = 2**original.n_qubits
    u_orig = program_unitary(original)
    u_routed = program_unitary(routed)
    # Basis embedding: logical bits are the low physical bits at the start.
    starts = np.arange(dim)
    ends = np.zeros(dim, dtype=int)
    for logical, physical in enumerate(final_layout):
        ends |= ((starts >> logical) & 1) << physical
    extracted = u_routed[np.ix_(ends, starts)]
    mass = np.sum(np.abs(extracted) ** 2, axis=0)
    assert np.all(np.abs(mass - 1.0) < tol), f"amplitude escaped the logical subspace: {mass}"
    overlap = np.vdot(u_orig, extracted)
    assert abs(abs(overlap) / dim - 1.0) < tol, "routed unitary differs beyond global phase"
    phase = overlap / abs(overlap)
    assert np.max(np.abs(extracted - phase * u_orig)) < tol


def brute_force_knapsack_max(
    profits: tuple[float, ...], weights: tuple[float, ...], capacity: float
) -> float:
    """Exhaustive maximum of profit*(1 - max(0, load - capacity)) over all bitmasks."""
    n = len(profits)
    indices = np.arange(2**n)
    total_profit = np.zeros(2**n)
    total_load = np.zeros(2**n)
    for item in range(n):
        bit = (indices >> item) & 1
        total_profit = total_profit + bit * profits[item]
        total_load = total_load + bit * weights[item]
    values = total_profit * (1.0 - np.maximum(0.0, total_load - capacity))
    return float(values.max())


def top_budget_max(profits: tuple[float, ...] | list[float], budget: int) -> float:
    """The unit-weight knapsack optimum: the sum of the ``budget`` largest profits.

    With every weight 1.0 and capacity ``budget``, a selection of at most
    ``budget`` items scores its profit, one of ``budget + 1`` items scores 0,
    and a larger one at most 0. That needs every profit to be >= 0.
    """
    assert all(profit >= 0.0 for profit in profits)
    return float(sum(sorted(profits, reverse=True)[:budget]))


def edge_profits(program: Program, edges: tuple[tuple[int, int], ...]) -> list[float]:
    """Each edge's map-search profit, counted straight from the cx list:
    1.0 per cx from its first endpoint to its second, 0.5 per cx the other
    way round."""
    pairs = [
        (ins.control, ins.target)
        for ins in program.instructions
        if isinstance(ins, GateOp) and ins.kind is Gate.CX
    ]
    return [
        sum(1.0 for pair in pairs if pair == edge) + sum(0.5 for pair in pairs if pair == edge[::-1])
        for edge in edges
    ]


def flip_scores(
    profits: tuple[float, ...], weights: tuple[float, ...], capacity: float, bits: tuple[int, ...]
) -> np.ndarray:
    """Fitness of every single-flip neighbour, vectorised over numpy arrays.

    The selection's sums are taken left to right, as
    ``brute_force_knapsack_max`` takes them (a dot product's order depends
    on the host's BLAS). Each flip adds ``value * sign`` to them, with
    ``sign`` -1.0 for a set bit and 1.0 for a clear one.
    """
    profit = load = 0.0
    for bit, p, w in zip(bits, profits, weights):
        profit = profit + bit * p
        load = load + bit * w
    profit_array = np.array(profits, dtype=float)
    weight_array = np.array(weights, dtype=float)
    sign = 1.0 - 2.0 * np.asarray(bits, dtype=float)
    flip_profit = profit + profit_array * sign
    flip_load = load + weight_array * sign
    return flip_profit * (1.0 - np.maximum(0.0, flip_load - capacity))


def select_move(
    profits: tuple[float, ...],
    weights: tuple[float, ...],
    capacity: float,
    bits: tuple[int, ...],
    tabu_list: list[int],
    best_evaluation: float,
) -> tuple[tuple[int, ...], int]:
    """The tabu move rule over ``flip_scores``.

    ``tabu_list`` holds the items of the last moves, oldest first. A tabu
    flip is admissible only when it beats ``best_evaluation``; the best
    admissible score wins, ties to the lowest item; with none admissible
    the oldest tabu item is flipped.
    """
    scores = flip_scores(profits, weights, capacity, bits)
    admissible = [
        k for k in range(len(bits)) if k not in tabu_list or scores[k] > best_evaluation
    ]
    if admissible:
        flipped = max(admissible, key=lambda k: (scores[k], -k))
    else:
        flipped = tabu_list[0]
    chosen = list(bits)
    chosen[flipped] ^= 1
    return tuple(chosen), flipped


def random_gate_program(
    rng: np.random.Generator, n_qubits: int, max_gates: int = 15
) -> Program:
    """Measurement-free random circuit over the full gate set."""
    n_gates = int(rng.integers(1, max_gates + 1))
    instructions: list[GateOp | MeasureOp] = []
    for _ in range(n_gates):
        kind = (Gate.X, Gate.Z, Gate.H, Gate.CX)[int(rng.integers(4))]
        if kind is Gate.CX and n_qubits >= 2:
            control, target = (int(v) for v in rng.choice(n_qubits, size=2, replace=False))
            instructions.append(GateOp(Gate.CX, target, control=control))
        else:
            kind = kind if kind is not Gate.CX else Gate.H
            instructions.append(GateOp(kind, int(rng.integers(n_qubits))))
    return Program(n_qubits, 0, instructions)


@st.composite
def programs(draw, max_qubits: int = 10) -> Program:
    """A serializable program touching at most 5 of up to ``max_qubits``
    qubits, with idle qubits between and around them.

    Instructions are x/z/h, cx, conditioned x/z and measurements into 1-3
    classical bits, which later measurements may overwrite.
    """
    n_qubits = draw(st.integers(1, max_qubits))
    used = sorted(draw(st.sets(st.integers(0, n_qubits - 1), min_size=1, max_size=5)))
    n_cbits = draw(st.integers(1, 3))
    qubit = st.sampled_from(used)
    cbit = st.integers(0, n_cbits - 1)
    choices = [
        st.builds(GateOp, st.sampled_from([Gate.X, Gate.Z, Gate.H]), qubit),
        st.builds(MeasureOp, qubit, cbit),
        st.builds(
            lambda kind, target, bit: GateOp(kind, target, condition=(bit, 1)),
            st.sampled_from([Gate.X, Gate.Z]), qubit, cbit,
        ),
    ]
    if len(used) >= 2:
        pairs = st.tuples(qubit, qubit).filter(lambda pair: pair[0] != pair[1])
        choices.append(pairs.map(lambda pair: GateOp(Gate.CX, pair[1], control=pair[0])))
    instructions = draw(st.lists(st.one_of(choices), min_size=1, max_size=14))
    return Program(n_qubits, n_cbits, instructions)


def shot_counts(program: Program, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Classical-register counts of ``shots`` separate runs, one ``run_program`` each."""
    counts: dict[str, int] = {}
    for _ in range(shots):
        _, cbits = run_program(program, rng)
        key = cbit_key(cbits)
        counts[key] = counts.get(key, 0) + 1
    return counts


def sample_counts(state: StateVector, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """All ``shots`` of the full register in one ``rng.choice`` call."""
    probs = np.abs(state.amplitudes) ** 2
    draws = rng.choice(probs.size, size=shots, p=probs / probs.sum())
    values, counts = np.unique(draws, return_counts=True)
    return {
        format(int(value), f"0{state.n_qubits}b"): int(count)
        for value, count in zip(values, counts)
    }


def random_connected_map(rng: np.random.Generator, n_physical: int) -> CouplingMap:
    """Random directed map whose undirected closure is connected."""
    order = list(rng.permutation(n_physical))
    used_pairs: set[frozenset[int]] = set()
    edges: list[tuple[int, int]] = []
    for position in range(1, n_physical):
        a = order[int(rng.integers(position))]
        b = order[position]
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((a, b))
        used_pairs.add(frozenset((a, b)))
    for a in range(n_physical):
        for b in range(a + 1, n_physical):
            if frozenset((a, b)) in used_pairs or rng.random() > 0.25:
                continue
            edges.append((a, b) if rng.random() < 0.5 else (b, a))
    return CouplingMap(n_physical, tuple(edges))


def teleport_distribution(alpha: complex, beta: complex) -> dict[str, float]:
    """Analytic outcome distribution for teleporting alpha|0> + beta|1>.

    The two correction bits are uniform; the teleported bit lands in the
    highest classical bit with the input's Born probabilities. Keys render
    classical bit 0 rightmost.
    """
    p_one = abs(beta) ** 2
    dist: dict[str, float] = {}
    for c0 in "01":
        for c1 in "01":
            dist[f"0{c1}{c0}"] = 0.25 * (1.0 - p_one)
            dist[f"1{c1}{c0}"] = 0.25 * p_one
    return dist
