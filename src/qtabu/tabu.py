"""Quantum-inspired tabu search for 0/1 knapsack-style selection problems.

The population is a quantum state over one qubit per item. Candidates are
drawn from it by Born-rule sampling, improved by single-bit-flip moves
under a tabu list with an aspiration rule, and when the search stagnates
the population itself is perturbed with a gate (an entangling cx or an h)
before resampling.

Only those gates ever reach the population, so it is always a product of
small blocks (the Q-bit individual of quantum-inspired evolutionary
algorithms). ``Population`` stores it that way, as dense one- and two-qubit
blocks, instead of as one array of ``2**n_items`` amplitudes.

Fitness is profit times a soft capacity penalty:

    f(s) = (sum_i b_i s_i) * (1 - max(0, sum_i w_i s_i - max_capacity))

which goes negative when the load exceeds capacity by more than one unit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from typing import Literal, Sequence, get_args

import numpy as np

from .statevector import MAX_QUBITS, Gate, GateOp, StateVector, apply_gate, probabilities

PopulationMode = Literal["with_replacement", "without_replacement"]
CandidateSolution = tuple[int, ...]  # one 0/1 selection bit per item

_MODES = get_args(PopulationMode)
_SQRT2_INV = 2.0 ** -0.5  # the amplitude h puts on each basis state
_PLUS = (_SQRT2_INV, _SQRT2_INV)
_BELL = (_SQRT2_INV, 0.0, 0.0, _SQRT2_INV)
# Rescaled draws stay below 1, so every block lookup lands on an entry of
# positive weight.
_BELOW_ONE = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class KnapsackInstance:
    """Item profits and weights with a capacity bound."""

    profits: tuple[float, ...]
    weights: tuple[float, ...]
    max_capacity: float

    def __post_init__(self) -> None:
        if len(self.profits) != len(self.weights):
            raise ValueError(
                f"{len(self.profits)} profits vs {len(self.weights)} weights"
            )
        if not self.profits:
            raise ValueError("instance must have at least one item")
        for name, values in (("profits", self.profits), ("weights", self.weights)):
            for k, value in enumerate(values):
                if not math.isfinite(value):
                    raise ValueError(f"{name}[{k}] must be finite, got {value!r}")
        for k, value in enumerate(self.weights):
            if value < 0:
                raise ValueError(f"weights[{k}] must be >= 0, got {value!r}")
        if not math.isfinite(self.max_capacity):
            raise ValueError(f"max_capacity must be finite, got {self.max_capacity!r}")
        # The engine scores flips in Python floats and takes a selection's
        # sums from read-only arrays, both built once here.
        for name in ("profits", "weights"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        arrays = tuple(np.array(values) for values in (self.profits, self.weights))
        for array in arrays:
            array.flags.writeable = False
        object.__setattr__(self, "_arrays", arrays)

    @property
    def n_items(self) -> int:
        return len(self.profits)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Profits and weights as read-only float arrays."""
        return self._arrays


def parse_instance(text: str) -> KnapsackInstance:
    """Parse the instance file format: ``n max_capacity`` then n ``b w`` lines."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError("empty instance file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"header must be 'n max_capacity', got {lines[0]!r}")
    n = int(header[0])
    max_capacity = float(header[1])
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} item lines, got {len(lines) - 1}")
    profits: list[float] = []
    weights: list[float] = []
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"item line must be 'profit weight', got {line!r}")
        profits.append(float(fields[0]))
        weights.append(float(fields[1]))
    return KnapsackInstance(tuple(profits), tuple(weights), max_capacity)


def _sums(instance: KnapsackInstance, bits: Sequence[int]) -> tuple[float, float]:
    """Total profit and load of one selection, the only place they are summed.

    They stay numpy dot products on purpose: on fractional data past ten
    items a left-to-right Python sum often differs from the dot in the last
    bit, which would change seeded results.
    """
    profits, weights = instance.arrays()
    chosen = np.asarray(bits, dtype=float)
    return float(profits @ chosen), float(weights @ chosen)


def _value(profit: float, load: float, max_capacity: float) -> float:
    """Profit times the soft capacity penalty of the module docstring."""
    excess = load - max_capacity
    return profit * (1.0 - excess if excess > 0.0 else 1.0)


def fitness(instance: KnapsackInstance, bits: Sequence[int]) -> float:
    """Evaluate one selection; overweight selections are penalized, not clamped.

    The search scores each selection from the same two sums, so this is
    bit for bit the value a run reports.
    """
    if len(bits) != instance.n_items:
        raise ValueError(f"expected {instance.n_items} bits, got {len(bits)}")
    return _value(*_sums(instance, bits), instance.max_capacity)


@dataclass(frozen=True)
class SearchConfig:
    """Engine knobs. ``tabu_tenure=None`` derives ``max(2, n_items // 4)``."""

    max_iterations: int = 500
    stagnation_limit: int = 20
    tabu_tenure: int | None = None
    population_mode: PopulationMode = "with_replacement"
    seed: int | None = None


class Population:
    """A product state stored as dense blocks over contiguous qubit ranges.

    ``blocks`` are ordered from the lowest qubits up; qubit ``starts[j] + b``
    is bit ``b`` of block ``j``'s basis index, so the full state is
    ``kron(blocks[-1], ..., blocks[0])``. A gate acts on the block that owns
    its qubits; a gate spanning blocks first merges them, together with the
    blocks between, into one, so any gate sequence stays exact.
    """

    def __init__(self, blocks: list[StateVector]) -> None:
        self.blocks = blocks
        self.starts = [0, *accumulate(block.n_qubits for block in blocks[:-1])]
        self.n_qubits = sum(block.n_qubits for block in blocks)
        # Each block's normalized CDF, built on first use and dropped when a
        # gate changes the block.
        self._cdfs: list[list[float] | None] = [None] * len(blocks)

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense ``2**n_qubits`` amplitudes, as a new array."""
        return _kron(self.blocks).copy()

    def apply(self, op: GateOp) -> None:
        """Apply one unconditioned gate in place."""
        qubits = (op.target,) if op.control is None else (op.target, op.control)
        for qubit in qubits:
            if not 0 <= qubit < self.n_qubits:
                raise IndexError(f"qubit {qubit} out of range for {self.n_qubits} qubits")
        first = bisect_right(self.starts, min(qubits)) - 1
        last = bisect_right(self.starts, max(qubits)) - 1
        if last > first:
            merged = self.blocks[first : last + 1]
            self.blocks[first : last + 1] = [
                StateVector(sum(block.n_qubits for block in merged), _kron(merged))
            ]
            del self.starts[first + 1 : last + 1]
            del self._cdfs[first + 1 : last + 1]
        offset = self.starts[first]
        local_control = None if op.control is None else op.control - offset
        apply_gate(self.blocks[first], replace(op, target=op.target - offset, control=local_control))
        self._cdfs[first] = None

    def sample(self, u: float) -> CandidateSolution:
        """The basis state at ``u`` in [0, 1) of the dense inverse CDF.

        Walks the blocks from the highest qubits down: ``u`` picks an entry of
        the block's CDF (the first entry above ``u``, as
        ``searchsorted(side="right")`` does), and its position inside that
        entry, rescaled to [0, 1), goes on to the next block. This is the
        index the dense ``2**n`` CDF gives for ``u``.
        """
        index = 0
        for j in range(len(self.blocks) - 1, -1, -1):
            cdf = self._cdfs[j]
            if cdf is None:
                cdf = np.cumsum(probabilities(self.blocks[j]))
                cdf /= cdf[-1]
                cdf = self._cdfs[j] = cdf.tolist()
            k = bisect_right(cdf, u)
            low = cdf[k - 1] if k else 0.0
            u = min((u - low) / (cdf[k] - low), _BELOW_ONE)
            index = (index << self.blocks[j].n_qubits) | k
        return tuple((index >> q) & 1 for q in range(self.n_qubits))


def _kron(blocks: list[StateVector]) -> np.ndarray:
    amplitudes = blocks[0].amplitudes
    for block in blocks[1:]:
        amplitudes = np.kron(block.amplitudes, amplitudes)
    return amplitudes


def _as_population(population: Population | StateVector) -> Population:
    """A dense state acts as a one-block population sharing its amplitudes."""
    return population if isinstance(population, Population) else Population([population])


@dataclass(kw_only=True)
class EngineCounters:
    """What a run's moves and escapes did, counted as they happen."""

    escapes_cx: int = 0  # escapes that entangled qubits 0 and 1 with cx
    escapes_h: int = 0  # escapes that spread one qubit with h
    tabu_blocked: int = 0  # tabu neighbours skipped for not beating the best
    aspiration_accepts: int = 0  # tabu moves taken because they beat the best
    all_tabu_fallbacks: int = 0  # selections that took the oldest tabu move


@dataclass
class SearchState(EngineCounters):
    """Mutable state threaded through one search run."""

    population: Population | StateVector
    current: CandidateSolution
    best_solution: CandidateSolution
    best_evaluation: float
    best_iteration: int
    iteration: int
    tabu_list: deque[tuple[int, int]]  # (item index, last iteration it stays tabu)
    trace: list[tuple[int, float, float]] = field(default_factory=list)


@dataclass
class SearchResult(EngineCounters):
    best_solution: CandidateSolution
    best_evaluation: float
    best_iteration: int
    iterations_run: int
    trace: list[tuple[int, float, float]]


def init_population(n_items: int, mode: PopulationMode = "with_replacement") -> Population:
    """Prepare the population state.

    ``with_replacement`` puts every qubit in ``|+>`` (uniform over all
    selections). ``without_replacement`` entangles item pairs (2k, 2k+1)
    into Bell states so paired items are sampled together, with a lone
    trailing item left in ``|+>``. Each ``|+>`` or Bell block is built
    directly; no ``2**n_items`` array is made.
    """
    if not 1 <= n_items <= MAX_QUBITS:
        raise ValueError(f"n_items must be in 1..{MAX_QUBITS}, got {n_items}")
    if mode not in _MODES:
        raise ValueError(f"unknown population mode {mode!r}")
    if mode == "with_replacement":
        blocks = [_PLUS] * n_items
    else:
        blocks = [_BELL] * (n_items // 2) + [_PLUS] * (n_items % 2)
    return Population(
        [StateVector(len(amps).bit_length() - 1, np.array(amps, dtype=complex)) for amps in blocks]
    )


def sample_candidate(
    population: Population | StateVector, rng: np.random.Generator
) -> CandidateSolution:
    """Draw one selection from the population without collapsing it.

    One uniform draw picks the basis state by the inverse CDF over the basis
    index (qubit 0 least significant).
    """
    return _as_population(population).sample(rng.random())


def select_move(
    state: SearchState,
    instance: KnapsackInstance,
    sums: tuple[float, float] | None = None,
) -> tuple[CandidateSolution, int]:
    """Pick the next selection from the flip neighborhood of ``state.current``.

    Tabu moves are skipped unless they beat ``best_evaluation`` (aspiration).
    The best admissible score wins, ties to the lowest item index. If every
    move is tabu and none aspirates, the oldest tabu move is taken. Expired
    tabu entries are purged first. ``sums`` are ``_sums`` of
    ``state.current``, passed by a caller that already has them.
    """
    while state.tabu_list and state.tabu_list[0][1] < state.iteration:
        state.tabu_list.popleft()
    profit, load = _sums(instance, state.current) if sums is None else sums
    capacity = instance.max_capacity
    tabu_items = {item for item, _ in state.tabu_list}
    best_k = -1
    best_score = 0.0
    # Each flip is scored from the current sums in plain Python floats: at
    # these sizes numpy's per-call overhead would dominate. Taking an item
    # out or putting it in is the same IEEE operation as adding
    # ``value * sign`` to the sums with ``sign = -1.0`` or ``1.0``, so the
    # scores equal a vectorised numpy formula bit for bit.
    for k, (bit, p, w) in enumerate(zip(state.current, instance.profits, instance.weights)):
        if bit:
            score = _value(profit - p, load - w, capacity)
        else:
            score = _value(profit + p, load + w, capacity)
        if k in tabu_items and score <= state.best_evaluation:
            state.tabu_blocked += 1
            continue
        if best_k == -1 or score > best_score:
            best_k, best_score = k, score
    if best_k == -1:
        state.all_tabu_fallbacks += 1
        best_k = state.tabu_list[0][0]
    elif best_k in tabu_items:
        state.aspiration_accepts += 1
    flipped = list(state.current)
    flipped[best_k] ^= 1
    return tuple(flipped), best_k


def escape(state: SearchState, rng: np.random.Generator) -> SearchState:
    """Perturb the population out of a stagnated region and resample.

    If the two leading bits of the best solution differ, entangle them with
    cx(0, 1); otherwise spread qubit 1 with h (qubit 0 when there is only
    one item). The current selection is replaced by a fresh draw and the
    stagnation clock restarts; ``best_solution`` and ``best_evaluation``
    are kept.
    """
    bits = state.best_solution
    if len(bits) >= 2 and bits[0] != bits[1]:
        op = GateOp(Gate.CX, 1, control=0)
        state.escapes_cx += 1
    else:
        op = GateOp(Gate.H, 1 if len(bits) >= 2 else 0)
        state.escapes_h += 1
    _as_population(state.population).apply(op)
    state.current = sample_candidate(state.population, rng)
    state.best_iteration = state.iteration
    return state


def qts_run(instance: KnapsackInstance, config: SearchConfig | None = None) -> SearchResult:
    """Run the full search loop and return the best selection found.

    Deterministic for a fixed config seed: the same instance and config
    reproduce the identical result, trace included.
    """
    if config is None:
        config = SearchConfig()
    n = instance.n_items
    if n > MAX_QUBITS:
        raise ValueError(f"instance has {n} items, population supports at most {MAX_QUBITS}")
    if config.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if config.stagnation_limit < 1:
        raise ValueError("stagnation_limit must be >= 1")
    tenure = config.tabu_tenure if config.tabu_tenure is not None else max(2, n // 4)
    if tenure < 1:
        raise ValueError("tabu_tenure must be >= 1")
    if tenure >= config.max_iterations:
        raise ValueError(
            f"tabu_tenure {tenure} must be smaller than max_iterations {config.max_iterations}"
        )
    rng = np.random.default_rng(config.seed)
    population = init_population(n, config.population_mode)
    current = sample_candidate(population, rng)
    # The sums of the current selection are taken once: they give its trace
    # value and score the next iteration's moves.
    sums = _sums(instance, current)
    state = SearchState(
        population=population,
        current=current,
        best_solution=current,
        best_evaluation=_value(*sums, instance.max_capacity),
        best_iteration=0,
        iteration=0,
        tabu_list=deque(maxlen=tenure),
        trace=[],
    )
    for iteration in range(1, config.max_iterations + 1):
        state.iteration = iteration
        if iteration - state.best_iteration > config.stagnation_limit:
            escape(state, rng)
            sums = _sums(instance, state.current)
        chosen, flipped = select_move(state, instance, sums)
        state.current = chosen
        state.tabu_list.append((flipped, iteration + tenure))
        sums = _sums(instance, chosen)
        current_eval = _value(*sums, instance.max_capacity)
        if current_eval > state.best_evaluation:
            state.best_solution = chosen
            state.best_evaluation = current_eval
            state.best_iteration = iteration
        state.trace.append((iteration, current_eval, state.best_evaluation))
    return SearchResult(
        best_solution=state.best_solution,
        best_evaluation=state.best_evaluation,
        best_iteration=state.best_iteration,
        iterations_run=config.max_iterations,
        trace=state.trace,
        **{counter.name: getattr(state, counter.name) for counter in fields(EngineCounters)},
    )
