"""The three benchmark workloads: seeded inputs, the timed op, and its checks.

Each workload builds its inputs from the benchmark seed, runs one *op* per
call of ``op(i)`` (op ``i`` gets its own derived seed), names in ``prepare``
the host-speed reference kernel (``reference.py``) that rescales its op
times, and checks every result against oracles written here from first
principles: exhaustive knapsack enumeration, a regex reading of the
circuit's cx gates, and a chi-square test on measured bits. Nothing here
reuses package code to decide whether package output is right.

Package functions are always called through their module object
(``mapsearch.search_best_map``, not a bound name), so the tracer's wrappers
on module attributes see the calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import re
from pathlib import Path

import numpy as np
from qtabu import cli, mapsearch, qasm, routing, tabu
from reference import DenseState, EngineSteps, Sequence

ASSETS = Path("src") / "qtabu" / "assets"
MODES = ("with_replacement", "without_replacement")

# Chi-square tail probability below which the measured low bits of the
# teleport circuit are declared non-uniform. Across about 5000 simulate ops
# (some 70 benchmark runs) the chance of any false alarm stays below 1e-5.
UNIFORM_P_MIN = 1e-9


class Outcome:
    """Verdict on one op: the checks it failed and whether it is optimal."""

    def __init__(self, problems: list[str], optimal: bool, key: object) -> None:
        self.problems = problems
        self.best = optimal
        self.key = key  # canonical result, compared by the determinism check

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def optimal(self) -> bool:
        return self.best and self.ok


def op_seed_base(seed: int, workload: str) -> int:
    """First per-op seed of a workload, derived from the benchmark seed."""
    entropy = [seed, *workload.encode()]
    return int(np.random.default_rng(entropy).integers(0, 2**30))


# ---------------------------------------------------------------- oracles


def knapsack_objective(profits, weights, capacity, bits) -> float:
    """The engine's soft-penalty fitness, evaluated term by term."""
    profit = sum(p for p, b in zip(profits, bits) if b)
    load = sum(w for w, b in zip(weights, bits) if b)
    return profit * (1.0 - max(0.0, load - capacity))


def brute_force_optimum(profits, weights, capacity) -> float:
    """Best fitness over every subset, enumerated in chunks of 2^16."""
    n = len(profits)
    best = -math.inf
    chunk = min(2**n, 2**16)
    for start in range(0, 2**n, chunk):
        index = np.arange(start, start + chunk, dtype=np.int64)
        profit = np.zeros(chunk)
        load = np.zeros(chunk)
        for k in range(n):
            bit = (index >> k) & 1
            profit += profits[k] * bit
            load += weights[k] * bit
        value = profit * (1.0 - np.maximum(0.0, load - capacity))
        best = max(best, float(value.max()))
    return best


def circuit_cx_pairs(qasm_text: str) -> list[tuple[int, int]]:
    """(control, target) of every cx in the circuit text, read by regex."""
    pattern = re.compile(r"\bcx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]")
    return [(int(c), int(t)) for c, t in pattern.findall(qasm_text)]


def trace_problems(result, max_iterations: int) -> list[str]:
    """Engine invariants every search result must satisfy."""
    problems = []
    if result.iterations_run != max_iterations:
        problems.append(f"iterations_run {result.iterations_run} != {max_iterations}")
    if len(result.trace) != result.iterations_run:
        problems.append(f"trace has {len(result.trace)} rows for {result.iterations_run} iterations")
    best_column = [row[2] for row in result.trace]
    if any(b < a for a, b in zip(best_column, best_column[1:])):
        problems.append("best-so-far column decreases")
    if best_column and best_column[-1] != result.best_evaluation:
        problems.append("last trace row disagrees with best_evaluation")
    return problems


def improving_iterations(trace) -> int:
    """Rows whose best-so-far value rose over the previous row."""
    return sum(1 for prev, row in zip(trace, trace[1:]) if row[2] > prev[2])


def chi_square_3dof_sf(x: float) -> float:
    """Survival function of the chi-square distribution with 3 degrees of freedom."""
    return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)


def broken_traces(result):
    """Two wrong copies of a search result: one whose best-so-far column
    drops at the end, one whose trace is a row short."""
    rows = list(result.trace)
    rows[-2] = (rows[-2][0], rows[-2][1], result.best_evaluation + 1.0)
    return (
        dataclasses.replace(result, trace=rows),
        dataclasses.replace(result, trace=result.trace[:-1]),
    )


def search_key(result) -> tuple:
    return (
        result.best_solution,
        result.best_evaluation,
        result.best_iteration,
        result.iterations_run,
        tuple(result.trace),
    )


# -------------------------------------------------------------- workloads


class MapSearch:
    """``search_best_map`` on teleport with all 20 directed pairs of 5 qubits.

    The population has 2^20 amplitudes, so the dense population kernels
    (``apply_gate`` in ``init_population``/``escape``, ``sample_candidate``)
    dominate. This is acceptance criterion 7's workload.
    """

    name = "mapsearch-20edge"
    budget = 6
    max_iterations = 500
    tail_percentile = 70.0
    trace_ops = 14

    def __init__(self, root: Path, seed: int) -> None:
        self.qasm_text = (root / ASSETS / "teleport.qasm").read_text()
        self.problem = mapsearch.MapSearchProblem(
            qasm.parse(self.qasm_text), mapsearch.all_directed_pairs(5), self.budget
        )
        self.seed_base = op_seed_base(seed, self.name)

    def prepare(self, scratch: Path) -> None:
        """Compute the oracles; kept out of the set-up time."""
        # Most op time is strided passes over 2^20 amplitudes; a 2^19 kernel
        # tracks the host's speed for them without raising peak memory.
        self.reference = DenseState(19, nominal_ms=36.0)
        self.cx_pairs = circuit_cx_pairs(self.qasm_text)
        edges = self.problem.candidate_edges
        self.profits = [
            sum(1.0 for pair in self.cx_pairs if pair == edge)
            + sum(0.5 for pair in self.cx_pairs if pair == edge[::-1])
            for edge in edges
        ]
        self.weights = [1.0] * len(edges)
        self.optimum = brute_force_optimum(self.profits, self.weights, float(self.budget))

    def op(self, i: int):
        config = tabu.SearchConfig(seed=self.seed_base + i)
        return mapsearch.search_best_map(self.problem, config)

    def check(self, i: int, scored, optimum: float | None = None) -> Outcome:
        optimum = self.optimum if optimum is None else optimum
        result = scored.search
        problems = trace_problems(result, self.max_iterations)
        bits = result.best_solution
        chosen = tuple(e for e, b in zip(self.problem.candidate_edges, bits) if b)
        if tuple(scored.map.edges) != chosen:
            problems.append("map edges differ from the selected candidates")
        own = knapsack_objective(self.profits, self.weights, float(self.budget), bits)
        if scored.score != own or result.best_evaluation != own:
            problems.append(f"score {scored.score!r} but the selection is worth {own!r}")
        if scored.score > optimum:
            problems.append(f"score {scored.score!r} beats the proven optimum {optimum!r}")
        edges = set(chosen)
        unsupported = sum(
            1 for c, t in self.cx_pairs if (c, t) not in edges and (t, c) not in edges
        )
        routing = scored.routing
        optimal = (
            scored.score == optimum
            and unsupported == 0
            and routing is not None
            and routing.swap_count == 0
        )
        routed = None if routing is None else dataclasses.astuple(routing)
        return Outcome(problems, optimal, (search_key(result), chosen, scored.score, routed))

    def wrong_results(self, scored):
        """Deliberately wrong variants of a real result, each of which a
        correct checker must flag: (label, result, optimum override, expect)."""
        decreasing, short = broken_traces(scored.search)
        yield "optimum above the score", scored, self.optimum + 1.0, "not optimal"
        yield "score above the optimum", scored, self.optimum - 0.5, "failed"
        yield "decreasing trace", dataclasses.replace(scored, search=decreasing), None, "failed"
        yield "short trace", dataclasses.replace(scored, search=short), None, "failed"
        yield "inflated score", dataclasses.replace(scored, score=scored.score + 0.5), None, "failed"
        if scored.routing is not None:
            swapped = dataclasses.replace(scored.routing, swap_count=1)
            yield "routed with a swap", dataclasses.replace(scored, routing=swapped), None, "not optimal"


class Knapsack:
    """``qts_run`` on 10-item instances from criterion 5's generator.

    The population is only 2^10 amplitudes, so the Python engine loop
    (``select_move``, ``fitness``, ``qts_run`` itself) dominates. Ops
    alternate the two population modes.
    """

    name = "knapsack-10item"
    n_items = 10
    pool_size = 16
    max_iterations = 500
    # Beyond p90 the latency of these short ops tracks the host's stalls, not
    # the program: p95 and p99 spread by 30-50% between identical runs.
    tail_percentile = 90.0
    trace_ops = 600

    def __init__(self, root: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.instances = []
        for _ in range(self.pool_size):
            profits = tuple(float(v) for v in rng.integers(1, 30, size=self.n_items))
            weights = tuple(float(v) for v in rng.integers(1, 15, size=self.n_items))
            capacity = float(round(sum(weights) * 0.5))
            self.instances.append(tabu.KnapsackInstance(profits, weights, capacity))
        self.seed_base = op_seed_base(seed, self.name)

    def prepare(self, scratch: Path) -> None:
        """Compute the oracles; kept out of the set-up time."""
        self.reference = EngineSteps()
        self.optima = [
            brute_force_optimum(inst.profits, inst.weights, inst.max_capacity)
            for inst in self.instances
        ]

    def op(self, i: int):
        config = tabu.SearchConfig(seed=self.seed_base + i, population_mode=MODES[i % 2])
        return tabu.qts_run(self.instances[self._pool_index(i)], config)

    def _pool_index(self, i: int) -> int:
        """Op ``i``'s instance index: each instance is run in both modes."""
        return (i // 2) % self.pool_size

    def check(self, i: int, result, optimum: float | None = None) -> Outcome:
        inst = self.instances[self._pool_index(i)]
        optimum = self.optima[self._pool_index(i)] if optimum is None else optimum
        problems = trace_problems(result, self.max_iterations)
        own = knapsack_objective(inst.profits, inst.weights, inst.max_capacity, result.best_solution)
        if result.best_evaluation != own:
            problems.append(f"best_evaluation {result.best_evaluation!r} but the solution is worth {own!r}")
        if result.best_evaluation > optimum:
            problems.append(f"best_evaluation {result.best_evaluation!r} beats the optimum {optimum!r}")
        return Outcome(problems, result.best_evaluation == optimum, search_key(result))

    def wrong_results(self, result):
        """Deliberately wrong variants of op 0's result (see ``MapSearch``)."""
        decreasing, short = broken_traces(result)
        yield "optimum above the score", result, self.optima[0] + 1.0, "not optimal"
        yield "score above the optimum", result, result.best_evaluation - 1.0, "failed"
        yield "decreasing trace", decreasing, None, "failed"
        yield "short trace", short, None, "failed"
        yield "inflated score", dataclasses.replace(
            result, best_evaluation=result.best_evaluation + 1.0
        ), None, "failed"


class Simulate:
    """``qtabu simulate`` of teleport on the 16-qubit sample map, 64 shots.

    Routing pads three logical qubits to 16 physical ones, so each shot
    re-simulates 2^16 amplitudes. The op goes through ``cli.main`` because
    the shot loop lives in the CLI; it ends by reading back the CSV the CLI
    wrote (about a hundred bytes).
    """

    name = "simulate-16q"
    shots = 64
    tail_percentile = 80.0
    trace_ops = 20
    header = "bitstring,count,probability"

    def __init__(self, root: Path, seed: int) -> None:
        self.circuit_path = root / ASSETS / "teleport.qasm"
        self.map_path = root / ASSETS / "sample_16q_map.txt"
        self.n_cbits = qasm.parse(self.circuit_path.read_text()).n_cbits
        routing.parse_coupling_map(self.map_path.read_text())  # reject a bad map before timing
        self.seed_base = op_seed_base(seed, self.name)

    def prepare(self, scratch: Path) -> None:
        """Pick the CSV output file inside the run's scratch directory."""
        # The shot loop interleaves per-gate interpretation with passes over
        # 2^16 amplitudes; the host slows the two by different factors.
        self.reference = Sequence(EngineSteps(), DenseState(16, nominal_ms=2.6))
        self.out_path = scratch / "out.csv"

    def op(self, i: int):
        argv = [
            "simulate", str(self.circuit_path), "--map", str(self.map_path),
            "--shots", str(self.shots), "--seed", str(self.seed_base + i),
            "--out", str(self.out_path),
        ]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stderr.getvalue(), self.out_path.read_bytes()

    def check(self, i: int, raw, optimum: float | None = None) -> Outcome:
        code, stderr, csv = raw
        problems = [] if code == 0 else [f"exit code {code}"]
        if f"seed={self.seed_base + i}" not in stderr.split():
            problems.append("effective seed not echoed to stderr")
        problems += self.csv_problems(csv.decode())
        return Outcome(problems, True, (code, csv))

    def csv_problems(self, text: str) -> list[str]:
        lines = text.split("\n")
        if lines[0] != self.header or lines[-1] != "":
            return ["bad CSV header or trailer"]
        counts: dict[str, int] = {}
        for line in lines[1:-1]:
            key, count, probability = line.split(",")
            if len(key) != self.n_cbits or set(key) - {"0", "1"} or key in counts:
                return [f"bad key {key!r}"]
            counts[key] = int(count)
            if int(count) < 1 or float(probability) != int(count) / self.shots:
                return [f"bad row {line!r}"]
        problems = []
        if list(counts) != sorted(counts):
            problems.append("keys not sorted")
        if sum(counts.values()) != self.shots:
            problems.append(f"counts sum to {sum(counts.values())}, not {self.shots}")
        if any(key[0] != "0" for key in counts):
            problems.append("teleported bit measured as 1")
        low = [0, 0, 0, 0]
        for key, count in counts.items():
            low[int(key[-2:], 2)] += count
        expected = self.shots / 4
        chi2 = sum((c - expected) ** 2 / expected for c in low)
        if chi_square_3dof_sf(chi2) < UNIFORM_P_MIN:
            problems.append(f"low bits {low} are not uniform (chi2={chi2:.1f})")
        return problems

    def wrong_results(self, raw):
        """Deliberately wrong variants of op 0's output (see ``MapSearch``)."""
        code, stderr, csv_bytes = raw
        rows = csv_bytes.decode().split("\n")[1:-1]
        flipped = sorted("1" + row[1:] for row in rows)
        skewed = f"000,{self.shots},1.0"

        def csv(body):
            return ("\n".join([self.header, *body]) + "\n").encode()

        yield "teleported bit set", (code, stderr, csv(flipped)), None, "failed"
        yield "counts short of the shots", (code, stderr, csv(rows[:-1])), None, "failed"
        yield "non-uniform low bits", (code, stderr, csv([skewed])), None, "failed"
        yield "bad header", (code, stderr, csv(rows)[1:]), None, "failed"
        yield "nonzero exit", (4, stderr, csv(rows)), None, "failed"


WORKLOADS = {cls.name: cls for cls in (MapSearch, Knapsack, Simulate)}
