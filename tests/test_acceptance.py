"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[acceptance] criterion N (name): PASS/FAIL``
line and enforces a wall-clock budget. Run with ``-s`` to see the lines.
"""

from __future__ import annotations

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    assert_routed_equivalent,
    brute_force_knapsack_max,
    random_connected_map,
    random_gate_program,
    teleport_distribution,
)
from qtabu.mapsearch import (
    DIRECT_EDGE_PROFIT,
    MapSearchProblem,
    all_directed_pairs,
    derive_knapsack,
    load_teleport,
    reference_map,
    search_best_map,
    support_score,
)
from qtabu.qasm import parse
from qtabu.routing import direct_support_count, route
from qtabu.statevector import (
    Gate,
    GateOp,
    StateVector,
    apply_gate,
    branch_probabilities,
    probabilities,
    sample_counts,
    total_variation_distance,
    zero_state,
)
from qtabu.tabu import (
    KnapsackInstance,
    SearchConfig,
    escape,
    qts_run,
    sample_candidate,
)


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_bell_construction():
    with criterion(1, "bell-construction", 1.0):
        state = zero_state(2)
        apply_gate(state, GateOp(Gate.H, 0))
        apply_gate(state, GateOp(Gate.CX, 1, control=0))
        expected = np.array([2**-0.5, 0.0, 0.0, 2**-0.5])
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

        shots = 10_000
        counts = sample_counts(state, shots, np.random.default_rng(0))
        assert set(counts) <= {"00", "11"}
        sigma = np.sqrt(shots * 0.25)
        for key in ("00", "11"):
            assert abs(counts.get(key, 0) - 5000) < 3 * sigma


def test_criterion_2_amplitude_probabilities():
    with criterion(2, "amplitude-probabilities", 1.0):
        amps = np.array([np.sqrt(1 / 3), np.sqrt(2 / 3)], dtype=complex)
        state = StateVector.from_amplitudes(amps)
        probs = probabilities(state)
        assert abs(probs[0] - 1 / 3) < 1e-12
        assert abs(probs[1] - 2 / 3) < 1e-12


def test_criterion_3_routing_equivalence():
    with criterion(3, "routing-equivalence", 30.0):
        rng = np.random.default_rng(2026)
        for _ in range(200):
            program = random_gate_program(rng, n_qubits=3)
            cmap = random_connected_map(rng, 5)
            routed, report = route(program, cmap)
            edge_set = set(cmap.edges)
            for ins in routed.instructions:
                if isinstance(ins, GateOp) and ins.kind is Gate.CX:
                    assert (ins.control, ins.target) in edge_set
            assert_routed_equivalent(program, routed, report.final_layout, tol=1e-10)


def _teleported_bit_marginal(dist: dict[str, float]) -> dict[str, float]:
    # The teleported qubit is measured last, into the highest classical bit,
    # which renders leftmost in the outcome key.
    marginal = {"0": 0.0, "1": 0.0}
    for key, p in dist.items():
        marginal[key[0]] += p
    return marginal


def _prepared_state(n_qubits: int, alpha: complex, beta: complex) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = alpha
    amps[1] = beta
    return StateVector.from_amplitudes(amps)


def test_criterion_4_teleport_invariance():
    with criterion(4, "teleport-invariance", 10.0):
        program = load_teleport()
        layouts = [None, reference_map("ref1"), reference_map("ref2")]
        routed_programs = [route(program, cmap)[0] for cmap in layouts]

        marginals = [
            _teleported_bit_marginal(branch_probabilities(routed))
            for routed in routed_programs
        ]
        for other in marginals[1:]:
            assert total_variation_distance(marginals[0], other) <= 1e-9

        rng = np.random.default_rng(4)
        for _ in range(20):
            raw = rng.normal(size=4)
            alpha = complex(raw[0], raw[1])
            beta = complex(raw[2], raw[3])
            norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
            alpha, beta = alpha / norm, beta / norm
            expected = _teleported_bit_marginal(teleport_distribution(alpha, beta))
            for routed in routed_programs:
                initial = _prepared_state(routed.n_qubits, alpha, beta)
                dist = branch_probabilities(routed, initial_state=initial)
                got = _teleported_bit_marginal(dist)
                assert abs(got["0"] - expected["0"]) < 1e-9
                assert abs(got["1"] - expected["1"]) < 1e-9


def test_criterion_5_engine_optimality():
    with criterion(5, "engine-optimality", 60.0):
        rng = np.random.default_rng(5)
        total_runs = 0
        optimal_runs = 0
        for _ in range(10):
            profits = tuple(float(v) for v in rng.integers(1, 30, size=10))
            weights = tuple(float(v) for v in rng.integers(1, 15, size=10))
            capacity = float(round(sum(weights) * 0.5))
            instance = KnapsackInstance(profits, weights, capacity)
            optimum = brute_force_knapsack_max(profits, weights, capacity)
            for seed in range(100):
                result = qts_run(instance, SearchConfig(seed=seed))
                total_runs += 1
                if result.best_evaluation == optimum:
                    optimal_runs += 1
                best_column = [row[2] for row in result.trace]
                assert all(b >= a for a, b in zip(best_column, best_column[1:]))
        assert total_runs == 1000
        assert optimal_runs >= 0.9 * total_runs, f"only {optimal_runs}/1000 optimal"


def test_criterion_6_escape_semantics():
    with criterion(6, "escape-semantics", 5.0):
        draws = 10_000

        # Entangling branch: product population, best bits 0 and 1 differ.
        population = zero_state(2)
        apply_gate(population, GateOp(Gate.H, 0))
        rng = np.random.default_rng(6)
        assert escape(population, (1, 0), rng)[1]
        samples = [sample_candidate(population, rng) for _ in range(draws)]
        assert all(bits[0] == bits[1] for bits in samples)

        # Spreading branch: basis population, best bits 0 and 1 equal.
        population = zero_state(2)
        assert not escape(population, (0, 0), rng)[1]
        samples = [sample_candidate(population, rng) for _ in range(draws)]
        ones = sum(bits[1] for bits in samples)
        sigma = np.sqrt(draws * 0.25)
        assert abs(ones - draws / 2) < 3 * sigma


def test_criterion_7_map_search_optimality():
    with criterion(7, "map-search-optimality", 60.0):
        circuit = load_teleport()
        problem = MapSearchProblem(circuit, all_directed_pairs(5), edge_budget=6)
        instance = derive_knapsack(problem)
        oracle = brute_force_knapsack_max(
            instance.profits, instance.weights, instance.max_capacity
        )
        successes = 0
        for seed in range(100):
            scored = search_best_map(problem, SearchConfig(seed=seed))
            _, _, unsupported = direct_support_count(circuit, scored.map)
            if (
                scored.score == oracle
                and unsupported == 0
                and scored.routing is not None
                and scored.routing.swap_count == 0
            ):
                successes += 1
        assert successes >= 90, f"only {successes}/100 runs matched the oracle"

        n_cx = 2
        ceiling = DIRECT_EDGE_PROFIT * n_cx
        assert support_score(circuit, reference_map("ref2")) == ceiling


def _cli(args: list[str]) -> tuple[bytes, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "qtabu.cli", *args],
        capture_output=True,
        check=True,
    )
    return proc.stdout, proc.stderr


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "cli-determinism", 10.0):
        circuit = tmp_path / "bell.qasm"
        circuit.write_text(
            "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
            "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        )
        cmap = tmp_path / "map.txt"
        cmap.write_text("[[1, 0]]")
        instance = tmp_path / "inst.txt"
        instance.write_text("3 4\n5 2\n4 2\n3 1\n")

        commands = [
            ["simulate", str(circuit), "--shots", "256", "--seed", "11"],
            ["route", str(circuit), "--map", str(cmap), "--seed", "11"],
            ["qts", str(instance), "--max-iter", "60", "--seed", "11"],
            [
                "search-map", str(circuit),
                "--budget", "1", "--runs", "2", "--max-iter", "60", "--seed", "11",
            ],
            ["bench-teleport", "--shots", "256", "--seed", "11"],
        ]
        for args in commands:
            assert _cli(args) == _cli(args), f"output differed for {args[0]}"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
