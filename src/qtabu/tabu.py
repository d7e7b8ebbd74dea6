"""Quantum-inspired tabu search for 0/1 knapsack-style selection problems.

The population is a quantum state over one qubit per item. Candidates are
drawn from it by Born-rule sampling, improved by single-bit-flip moves
under a tabu list with an aspiration rule, and when the search stagnates
the population itself is perturbed with a gate (an entangling cx or an h)
before resampling. The tabu list is a window over the items of the last
``tenure`` moves, so a flipped item stays tabu for the next ``tenure`` moves.
Both moves are plain functions of their arguments: ``select_move`` writes
nothing and ``escape`` changes only the population and the generator it
draws from, while ``qts_run`` keeps the run (selection, best, tabu list,
clock and counters) in its locals.

Those gates only ever act on qubits 0 and 1, so every other qubit keeps its
prepared ``|+>`` or Bell-pair half for the whole run (the Q-bit individual
of quantum-inspired evolutionary algorithms). ``Population`` stores a dense
two-qubit head for the escapes and a fixed tail of those blocks, instead of
one array of ``2**n_items`` amplitudes. The head is prepared from
``zero_state`` by the escape gates, which from there reach only 3, 8 or 10
heads at any item count. Each mode's are walked once per process, with
``apply_gate`` and ``normalized_cdf``, into an escape machine of read-only
heads, their CDFs and the head each gate leads to, and a population steps
an index through it, so no amplitude or probability is computed here. A
dense ``StateVector`` used as a population takes ``apply_gate`` in place.
Settings are checked once, when a ``SearchConfig`` is built.

Fitness is profit times a soft capacity penalty:

    f(s) = (sum_i b_i s_i) * (1 - max(0, sum_i w_i s_i - max_capacity))

which goes negative when the load exceeds capacity by more than one unit.
``_neighbourhood`` is its only home: it scores a selection and all its
single-bit flips in one loop, and ``fitness`` reads the selection's value.

A run keeps to a few hundred distinct selections and stands on most of them
again and again, so it scores each one once: its value, the score of every
single-bit flip and those flips ranked best first go into a cache keyed by
the selection. The cache holds at most ``CACHE_SCORES`` flip scores
(``CACHE_SCORES // n_items`` selections) at any ``max_iterations``; once it
is full, new selections are scored on every visit but not stored.

It also makes most of its moves more than once. A move is fixed by the
best value, the selection and the tabu list's items in order, and the
tenure fixes the tabu list after it, so ``qts_run`` keeps a memo keyed by
``(best_evaluation, tenure, current, *tabu_list)`` and replays a repeated
move (the chosen selection, the flipped item, its neighbourhood and the
counter increments) without calling ``select_move``. Each entry links to
the entry stored under the key after it, so a run of repeated moves
follows links: it builds a key and looks it up only at the first draw,
after an escape or an improvement, after a move it had to pick, or where a
link is not yet set. An entry stores no key: the key after its move is
the run's own best, tenure, chosen selection and tabu list. A picked
move is stored as the same entry a replay reads, so both end alike: the
flip is pushed and the increments are added to the run's locals. The
seed, the stagnation limit and the population mode never enter a move,
so an entry holds in every later run on the instance and the memo is
never cleared. Runs on one instance repeat each other's moves, so the
cache and the move memo live in one module-level slot that serves every
run on the same instance object (``is``, not ``==``) until a run on
another instance replaces it. The memo holds at most ``CACHE_SCORES //
n_items`` moves, so a run with no room in the cache neither reads nor
fills the slot and makes every move through ``select_move``, with the
same bytes.

A prepared population depends only on its item count and mode, so
``init_population`` builds one template per ``(n_items, mode)``, keeps the
last ``len(_MODES)`` of them process-wide, and hands out copies; each run
steps its own copy's state index, never the template's.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from operator import itemgetter
from typing import Iterable, Literal, Sequence, get_args

import numpy as np

from .statevector import Gate, GateOp, StateVector, apply_gate, normalized_cdf, zero_state

PopulationMode = Literal["with_replacement", "without_replacement"]
CandidateSolution = tuple[int, ...]  # one 0/1 selection bit per item

_MODES = get_args(PopulationMode)
# Flip scores one run's neighbourhood cache may hold: about 4 MiB of Python
# objects (some 60 bytes a score) at any number of items.
CACHE_SCORES = 2**16
# The last instance run with room in the cache, and the neighbourhood cache
# and move memo its runs share (``qts_run``). One slot, not one per
# instance: a run on another instance frees the last one's tables.
_TABLES: tuple[object, dict, dict] = (None, {}, {})
# The escape gates, built once: cx(0, 1), and h on qubit 1, or on qubit 0
# when there is only one item (indexed by ``n_items >= 2``).
_ESCAPE_CX = GateOp(Gate.CX, 1, control=0)
_ESCAPE_H = (GateOp(Gate.H, 0), GateOp(Gate.H, 1))
# Binary digits as text to their values: b"0" -> 0 and b"1" -> 1.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")

# A selection's value, the score of flipping each item, and the items
# ranked by that score, best first with ties to the lowest index.
Neighbourhood = tuple[float, list[float], list[int]]


def _fsum(values: Iterable[float]) -> float:
    """``math.fsum``, with ``inf`` where the exact sum is beyond the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


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
        # Every profit and load sum the engine forms is bounded by one of
        # these totals, so sums stay finite and flip scores are never NaN.
        # A selection's excess load is at most total weights minus
        # max_capacity, so the last bound holds every value and flip score.
        profit = _fsum(map(abs, self.profits))
        weight = _fsum(self.weights)
        totals = (
            ("total |profits|", profit),
            ("total weights plus |max_capacity|", weight + abs(self.max_capacity)),
            (
                "total |profits| * (1 + max(0, total weights - max_capacity))",
                profit * (1.0 + max(0.0, weight - self.max_capacity)),
            ),
        )
        for name, total in totals:
            if not math.isfinite(total):
                raise ValueError(f"{name} must be finite, got {total!r}")
        # The engine sums and scores in Python floats. ``_neighbourhood``
        # reads them from ``_padded``: each tuple with a 0.0 item last.
        for name in ("profits", "weights"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        object.__setattr__(self, "_padded", (self.profits + (0.0,), self.weights + (0.0,)))

    @property
    def n_items(self) -> int:
        return len(self.profits)


def _number(kind: type, text: str, line: int, field: str) -> float:
    """``kind(text)``, or a ``ValueError`` naming the line and the field."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"line {line}: {field} must be {what}, got {text!r}") from None


def parse_instance(text: str) -> KnapsackInstance:
    """Parse the instance file format: ``n max_capacity`` then n ``b w`` lines.

    Blank lines are skipped; errors name the line (counting blank ones) and
    the field.
    """
    lines = [(k, line.strip()) for k, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ValueError("empty instance file")
    line, header = lines[0]
    words = header.split()
    if len(words) != 2:
        raise ValueError(f"line {line}: header must be 'n max_capacity', got {header!r}")
    n = _number(int, words[0], line, "n")
    if n < 1:
        raise ValueError(f"line {line}: n must be >= 1, got {n}")
    max_capacity = _number(float, words[1], line, "max_capacity")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} item lines, got {len(lines) - 1}")
    profits: list[float] = []
    weights: list[float] = []
    for line, item in lines[1:]:
        words = item.split()
        if len(words) != 2:
            raise ValueError(f"line {line}: item line must be 'profit weight', got {item!r}")
        profits.append(_number(float, words[0], line, "profit"))
        weights.append(_number(float, words[1], line, "weight"))
    return KnapsackInstance(tuple(profits), tuple(weights), max_capacity)


def fitness(instance: KnapsackInstance, bits: Sequence[int]) -> float:
    """Evaluate one selection; overweight selections are penalized, not clamped.

    This is the value ``_neighbourhood`` gives the selection, so it is bit
    for bit the value a run reports. A bit that is not 0 or 1 raises
    ``ValueError``; the engine's own bits are always 0 or 1 and skip this
    check.
    """
    if len(bits) != instance.n_items:
        raise ValueError(f"expected {instance.n_items} bits, got {len(bits)}")
    for k, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bits[{k}] must be 0 or 1, got {bit!r}")
    return _neighbourhood(instance, bits)[0]


def _integer(name: str, value: object) -> int:
    """``value`` as an ``int``; ``ValueError`` naming ``name`` unless it is an
    integer (a ``bool`` is not one)."""
    if type(value) is int:  # skips the slow ``Integral`` check
        return value
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SearchConfig:
    """Engine knobs; building one (``replace`` too) raises ``ValueError`` for a
    setting no run accepts. ``tabu_tenure=None`` derives it (``tenure``)."""

    max_iterations: int = 500
    stagnation_limit: int = 20
    tabu_tenure: int | None = None
    population_mode: PopulationMode = "with_replacement"
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_iterations", "stagnation_limit", "tabu_tenure", "seed"):
            value = getattr(self, name)
            if value is not None or name in ("max_iterations", "stagnation_limit"):
                # Stored as an ``int``: a numpy integer would pass the
                # check, then fail as a deque's maxlen.
                object.__setattr__(self, name, _integer(name, value))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.stagnation_limit < 1:
            raise ValueError("stagnation_limit must be >= 1")
        tenure = self.tabu_tenure
        if tenure is not None and tenure < 1:
            raise ValueError("tabu_tenure must be >= 1")
        if tenure is not None and tenure >= self.max_iterations:
            raise ValueError(
                f"tabu_tenure {tenure} must be smaller than max_iterations {self.max_iterations}"
            )
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.population_mode not in _MODES:
            raise ValueError(f"unknown population mode {self.population_mode!r}")

    def tenure(self, n_items: int) -> int:
        """The tabu tenure of a run over ``n_items`` items: ``tabu_tenure``, or
        ``max(2, n_items // 4)`` capped at ``max_iterations - 1`` (and at least 1)."""
        if self.tabu_tenure is not None:
            return self.tabu_tenure
        return max(1, min(max(2, n_items // 4), self.max_iterations - 1))


class Population:
    """A dense ``head`` state over the lowest qubits and a fixed ``tail``.

    ``tail`` lists block widths from the first qubit after the head up: 1
    for a ``|+>``, 2 for a Bell pair, whose two qubits always agree. The
    full state is ``kron(tail blocks from the highest down, head)``; a dense
    ``StateVector`` is a head with no tail. Gates act on the head only: a
    population from ``init_population`` is at a state of its escape machine,
    whose read-only head and CDF are ``head`` and ``_cdf``.
    """

    def __init__(self, head: StateVector, tail: tuple[int, ...] = ()) -> None:
        self.head = head
        self.tail = tail
        self._cdf = tuple(normalized_cdf(head).tolist())
        # The tail's blocks from the highest down, each taking one binary
        # digit of a draw, and a new draw once 32 qubits are walked: the
        # number of digits (and 2.0 to that power) taken from each draw.
        coins, walked = [0], 0
        for width in reversed(tail):
            if walked >= 32:
                coins.append(0)
                walked = 0
            coins[-1] += 1
            walked += width
        self._draws = tuple((t, 2.0**t) for t in coins)
        # A sample's digits are a leading 1, every coin in walk order, then
        # the head's index with its highest qubit first; pick them out in
        # qubit order, a block's digit once for each of its qubits.
        h, total = head.n_qubits, len(tail)
        picks = [total + h - q for q in range(h)]
        for j, width in enumerate(tail):
            picks += [total - j] * width
        self._pick = itemgetter(*picks) if len(picks) > 1 else lambda digits: (digits[picks[0]],)

    def copy(self) -> Population:
        """The same population, with a state index of its own. Everything
        else is shared: nothing changes it, and the machine's heads are
        read-only."""
        twin = object.__new__(Population)
        twin.__dict__.update(self.__dict__)
        return twin

    def sample(self, rng: np.random.Generator) -> CandidateSolution:
        """The basis state at a uniform ``u`` in [0, 1) of the dense inverse CDF.

        Each tail block, from the highest down, splits its probability
        evenly between two outcomes, so it takes the next binary digit of
        ``u`` for all its qubits; what is left of ``u`` picks the head's
        entry (the first CDF entry above it, as ``searchsorted(side="right")``
        does). The ``t`` digits a draw gives are ``int(u * 2**t)``, and what
        is left is ``u * 2**t`` minus them: scaling by a power of two and
        that subtraction are exact, so the tail adds no rounding to the
        dense ``2**n`` inverse CDF. A draw holds 53 binary digits, so ``u``
        is drawn from ``rng`` again each time the walk has passed 32 qubits
        since the last draw: up to 32 qubits take one draw.
        """
        digits = 1
        for t, scale in self._draws:
            u = rng.random() * scale
            coins = int(u)
            digits = digits << t | coins
        index = bisect_right(self._cdf, u - coins)
        digits = digits << self.head.n_qubits | index
        return self._pick(format(digits, "b").encode().translate(_DIGITS))


@dataclass(kw_only=True)
class EngineCounters:
    """What a run's moves and escapes did, counted as they happen."""

    escapes_cx: int = 0  # escapes that entangled qubits 0 and 1 with cx
    escapes_h: int = 0  # escapes that spread one qubit with h
    tabu_blocked: int = 0  # tabu neighbours skipped for not beating the best
    aspiration_accepts: int = 0  # tabu moves taken because they beat the best
    all_tabu_fallbacks: int = 0  # selections that took the oldest tabu move


@dataclass
class SearchResult(EngineCounters):
    best_solution: CandidateSolution
    best_evaluation: float
    best_iteration: int  # when best_evaluation was first reached (0: the first draw)
    iterations_run: int
    trace: list[tuple[int, float, float]]


def init_population(n_items: int, mode: PopulationMode = "with_replacement") -> Population:
    """Prepare the population state, as a copy of its ``_template``.

    ``with_replacement`` puts every qubit in ``|+>`` (uniform over all
    selections). ``without_replacement`` entangles item pairs (2k, 2k+1)
    into Bell states so paired items are sampled together, with a lone
    trailing item left in ``|+>``. Only the head over qubits 0 and 1 is
    stored as amplitudes, made by the escape gates; no ``2**n_items`` array.
    The arguments are checked before the template is looked up.
    """
    n_items = _integer("n_items", n_items)
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    if mode not in _MODES:
        raise ValueError(f"unknown population mode {mode!r}")
    return _template(n_items, mode).copy()


@lru_cache(maxsize=len(_MODES))
def _template(n_items: int, mode: PopulationMode) -> Population:
    """The population ``init_population`` copies, built once per
    ``(n_items, mode)``; the last ``len(_MODES)`` are kept. It is at the
    first state, the prepared head, of the escape machine of its mode."""
    wide = n_items >= 2
    states, steps = _escape_machine(wide, mode)
    rest = n_items - 1 - wide  # qubits past the head
    tail = (1,) * rest if mode == "with_replacement" else (2,) * (rest // 2) + (1,) * (rest % 2)
    population = Population(states[0][0], tail)
    population._states, population._next, population._at = states, steps, 0
    return population


@lru_cache(maxsize=None)  # one per head width and mode: four at most
def _escape_machine(wide: bool, mode: PopulationMode) -> tuple[tuple, tuple]:
    """Each state's head (read-only) and CDF, and each state's next state by
    ``escape``'s ``entangled`` (h, then cx): the prepared head over ``1 +
    wide`` qubits walked to closure under the escape gates of its width by
    ``apply_gate`` on copies. Heads with equal bytes are one state."""
    head = apply_gate(zero_state(1 + wide), _ESCAPE_H[0])
    if wide:
        head = apply_gate(head, _ESCAPE_H[1] if mode == "with_replacement" else _ESCAPE_CX)
    gates = (_ESCAPE_H[wide], _ESCAPE_CX)[: 1 + wide]
    heads, index, steps = [head], {head.amplitudes.tobytes(): 0}, []
    for reached in heads:  # grows as the walk finds new heads
        reached.amplitudes.flags.writeable = False  # a copy of it is writable
        row = []
        for op in gates:
            stepped = apply_gate(reached.copy(), op)
            row.append(index.setdefault(stepped.amplitudes.tobytes(), len(heads)))
            if row[-1] == len(heads):
                heads.append(stepped)
        steps.append(tuple(row))
    return tuple((h, tuple(normalized_cdf(h).tolist())) for h in heads), tuple(steps)


def sample_candidate(
    population: Population | StateVector, rng: np.random.Generator
) -> CandidateSolution:
    """Draw one selection from the population without collapsing it.

    Uniform draws (one per 32 qubits) pick the basis state by the inverse
    CDF over the basis index (qubit 0 least significant). A dense state is
    read as a population with no tail, sharing its amplitudes.
    """
    if not isinstance(population, Population):
        population = Population(population)
    return population.sample(rng)


def _neighbourhood(instance: KnapsackInstance, bits: Sequence[int]) -> Neighbourhood:
    """Score one selection and every single-bit flip of it from its two sums.

    This is the only home of the module docstring's formula and of a
    selection's two sums. The sums run left to right in a ``+=`` loop, so
    seeded output is the same on every host: ``sum`` of floats is
    compensated from Python 3.12 on, and a BLAS dot product sums in an
    order the host's CPU picks. Each flip is scored in plain Python floats
    too, in one loop with no call per item: at these sizes numpy's
    per-call overhead would dominate. Taking an item out or
    putting it in is the same IEEE operation as adding ``value * sign`` to
    the sums with ``sign = -1.0`` or ``1.0``, so the scores equal a
    vectorised numpy formula over the same sums bit for bit. The
    selection's own value comes out of the same loop as a last flip that
    takes out an item of profit and weight 0.0: ``x - 0.0`` is ``x``,
    signed zeros included. ``sorted`` is stable with ``reverse=True`` too,
    so equal scores stay in item order.
    """
    profit = load = 0.0
    for bit, p, w in zip(bits, instance.profits, instance.weights):
        if bit:
            profit += p
            load += w
    capacity = instance.max_capacity
    scores = []
    for bit, p, w in zip((*bits, 1), *instance._padded):
        if bit:
            flip_profit = profit - p
            excess = load - w - capacity
        else:
            flip_profit = profit + p
            excess = load + w - capacity
        scores.append(flip_profit * (1.0 - excess if excess > 0.0 else 1.0))
    value = scores.pop()
    ranked = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    return value, scores, ranked


def select_move(
    hood: Neighbourhood,
    current: CandidateSolution,
    tabu_list: Sequence[int],
    best: float,
) -> tuple[CandidateSolution, int, int, int, int]:
    """Pick the next selection from the flip neighbourhood of ``current``.

    ``hood`` is ``_neighbourhood`` of ``current``, and ``tabu_list`` holds
    the items of the last moves, oldest first. Moves on its items are
    skipped unless they beat ``best`` (aspiration). The best admissible
    score wins, ties to the lowest item index. If every move is tabu and
    none aspirates, the oldest tabu move is taken. Returns the chosen
    selection, the flipped item, and what the move adds to
    ``tabu_blocked``, ``aspiration_accepts`` and ``all_tabu_fallbacks``.
    Only the arguments are read, and nothing is written.
    """
    _, scores, ranked = hood
    # An item may sit in the list twice; it is blocked, and counted, once.
    # A loop, not a set comprehension: on Python 3.11 that costs a function
    # call per move.
    blocked = set()
    for k in tabu_list:
        if scores[k] <= best:
            blocked.add(k)
    aspired = fell_back = 0
    for best_k in ranked:
        if best_k not in blocked:
            if best_k in tabu_list:
                aspired = 1
            break
    else:
        fell_back = 1
        best_k = tabu_list[0]
    flipped = list(current)
    flipped[best_k] ^= 1
    return tuple(flipped), best_k, len(blocked), aspired, fell_back


def escape(
    population: Population | StateVector,
    best_solution: CandidateSolution,
    rng: np.random.Generator,
) -> tuple[CandidateSolution, bool]:
    """Perturb the population out of a stagnated region and resample.

    If the two leading bits of the best solution differ, entangle them with
    cx(0, 1); otherwise spread qubit 1 with h (qubit 0 when there is only
    one item), in place. Returns a fresh draw from the perturbed population
    and whether the gate was cx; only the population and ``rng`` change. A
    population from ``init_population`` takes the gate's step in its escape
    machine; a dense state takes ``apply_gate`` in its own array.
    """
    wide = len(best_solution) >= 2
    entangled = wide and best_solution[0] != best_solution[1]
    if isinstance(population, Population):
        population._at = at = population._next[population._at][entangled]
        population.head, population._cdf = population._states[at]
        return population.sample(rng), entangled
    apply_gate(population, _ESCAPE_CX if entangled else _ESCAPE_H[wide])
    return Population(population).sample(rng), entangled


def qts_run(instance: KnapsackInstance, config: SearchConfig | None = None) -> SearchResult:
    """Run the full search loop and return the best selection found.

    Deterministic for a fixed config seed: the same instance and config
    reproduce the identical result, trace included. The module docstring
    describes the neighbourhood cache, the move memo and the slot that
    keeps both for the next run on the same instance object. A link never
    goes stale, because an entry's move fixes the key after it; a run on
    another instance cuts the links, whose cycles would otherwise wait for
    the cyclic GC, before it replaces the slot.

    A float best is a safe key. ``0.0`` and ``-0.0`` are one key, and that
    is harmless: the best is only compared (``<=`` in ``select_move``,
    ``>`` in the improvement test), and there the two zeros agree; the
    trace records the run's own best, not the key's. A NaN best cannot
    occur: ``KnapsackInstance`` bounds every value and flip score to a
    finite float.

    The run lives in locals, and ``select_move`` and ``escape`` are handed
    all they read: the neighbourhood, selection, tabu list and best, or the
    population, best selection and generator.
    """
    if config is None:
        config = SearchConfig()
    n = instance.n_items
    # Each selection's neighbourhood gives its trace value and scores the
    # next iteration's moves; the first CACHE_SCORES // n scored are kept,
    # and as many moves. Both tables serve every run on this instance
    # object until a run on another one.
    global _TABLES
    room = CACHE_SCORES // n
    if room:
        if _TABLES[0] is not instance:
            # The links between the last instance's moves form cycles; cut
            # them, so its tables are freed at once, not by the cyclic GC.
            for move in _TABLES[2].values():
                move[-1] = None
            _TABLES = (instance, {}, {})
        _, cache, moves = _TABLES
    else:
        cache, moves = {}, {}
    population = init_population(n, config.population_mode)
    rng = np.random.default_rng(config.seed)
    current = best_solution = sample_candidate(population, rng)
    lookup = cache.get
    recall = moves.get

    def score(bits: CandidateSolution) -> Neighbourhood:
        """Score a selection the cache missed, keeping it while there is room."""
        hood = _neighbourhood(instance, bits)
        if len(cache) < room:
            cache[bits] = hood
        return hood

    hood = lookup(current) or score(current)
    best = hood[0]
    best_iteration = 0
    tenure = config.tenure(n)
    tabu_list: deque[int] = deque(maxlen=tenure)
    push = tabu_list.append
    trace: list[tuple[int, float, float]] = []
    record = trace.append
    limit = config.stagnation_limit
    # The stagnation clock restarts at each improvement and each escape,
    # and runs out after that iteration plus the limit.
    escape_after = limit
    escapes = [0, 0]  # h escapes, then cx escapes
    blocked_total = aspired_total = fell_back_total = 0
    # The memo maps (best, tenure, current, *tabu_list) to the move from
    # there, a list: chosen, flipped, the chosen selection's neighbourhood,
    # the tabu_blocked, aspiration_accepts and all_tabu_fallbacks it added,
    # and a link to the entry stored under the key after it (None until a
    # run finds one there). ``move`` is the entry for the current key when
    # a link gave it, or None to look the key up; ``last`` is the entry
    # whose next key that is, or None after an escape or an improvement.
    move = last = None
    for iteration in range(1, config.max_iterations + 1):
        if iteration > escape_after:
            current, entangled = escape(population, best_solution, rng)
            escapes[entangled] += 1
            escape_after = iteration + limit
            hood = lookup(current) or score(current)
            move = last = None
        if move is None:
            key = (best, tenure, current, *tabu_list)
            move = recall(key)
            if move is None:
                chosen, flipped, blocked, aspired, fell_back = select_move(
                    hood, current, tabu_list, best
                )
                hood = lookup(chosen) or score(chosen)
                move = [chosen, flipped, hood, blocked, aspired, fell_back, None]
                if len(moves) < room:
                    moves[key] = move
                else:
                    last = None  # link only to an entry the memo holds
            if last is not None:
                last[-1] = move
        chosen, flipped, hood, blocked, aspired, fell_back, link = move
        push(flipped)
        blocked_total += blocked
        aspired_total += aspired
        fell_back_total += fell_back
        last = move
        current = chosen
        current_eval = hood[0]
        if current_eval > best:
            best, best_solution, best_iteration = current_eval, chosen, iteration
            escape_after = iteration + limit
            link = last = None
        move = link
        record((iteration, current_eval, best))
    return SearchResult(
        best_solution=best_solution,
        best_evaluation=best,
        best_iteration=best_iteration,
        iterations_run=config.max_iterations,
        trace=trace,
        escapes_cx=escapes[1],
        escapes_h=escapes[0],
        tabu_blocked=blocked_total,
        aspiration_accepts=aspired_total,
        all_tabu_fallbacks=fell_back_total,
    )
