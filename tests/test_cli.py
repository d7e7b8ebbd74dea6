from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from oracles import random_gate_program
from qtabu import statevector
from qtabu.cli import _build_parser, main
from qtabu.mapsearch import load_teleport
from qtabu.qasm import Program, serialize
from qtabu.routing import CouplingMap, route
from qtabu.statevector import GateOp

BELL_MEASURED = (
    "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
    "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
)
SINGLE_CX = "qreg q[2];\ncreg c[0];\ncx q[0],q[1];\n"
TINY_INSTANCE = "1 1\n5 1\n"
README_INSTANCE = "4 7\n10 5\n7 4\n4 2\n3 1\n"
# cx on 11 distinct pairs: 22 directed edges carry profit.
ELEVEN_CX = "qreg q[12];\ncreg c[0];\n" + "".join(
    f"cx q[{k}],q[{k + 1}];\n" for k in range(11)
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_counts_sum_to_shots(tmp_path, capsys):
    circuit = write(tmp_path, "bell.qasm", BELL_MEASURED)
    code, out, err = run_cli(
        capsys, ["simulate", circuit, "--shots", "600", "--seed", "1"]
    )
    assert code == 0
    assert "seed=1" in err
    assert "# direct=1 reversed=0 swaps=0 inserted=0" in err
    lines = out.strip().splitlines()
    assert lines[0] == "bitstring,count,probability"
    total = 0
    for line in lines[1:]:
        bitstring, count, probability = line.split(",")
        assert bitstring in ("00", "11")
        assert float(probability) == int(count) / 600
        total += int(count)
    assert total == 600


def test_simulate_without_measurements_samples_state(tmp_path, capsys):
    circuit = write(tmp_path, "x.qasm", "qreg q[1];\ncreg c[0];\nx q[0];\n")
    code, out, _ = run_cli(capsys, ["simulate", circuit, "--shots", "50", "--seed", "2"])
    assert code == 0
    assert out.strip().splitlines()[1] == "1,50,1.0"


def test_simulate_same_seed_is_byte_identical(tmp_path, capsys):
    circuit = write(tmp_path, "bell.qasm", BELL_MEASURED)
    argv = ["simulate", circuit, "--shots", "128", "--seed", "7"]
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second


def test_simulate_writes_out_file(tmp_path, capsys):
    circuit = write(tmp_path, "bell.qasm", BELL_MEASURED)
    out_path = tmp_path / "counts.csv"
    code, out, _ = run_cli(
        capsys,
        ["simulate", circuit, "--shots", "64", "--seed", "3", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("bitstring,count,probability\n")


def teleport_16q_argv(shots: int) -> list[str]:
    """``simulate`` of the bundled teleport circuit on the 16-qubit sample map."""
    assets = resources.files("qtabu").joinpath("assets")
    return [
        "simulate", str(assets.joinpath("teleport.qasm")),
        "--map", str(assets.joinpath("sample_16q_map.txt")),
        "--shots", str(shots), "--seed", "1",
    ]


def test_simulate_readme_example_within_budget(capsys):
    """The README's 4096-shot teleport on the 16-qubit map. Shots run on the
    three touched qubits, and each distinct measurement-outcome prefix is
    simulated once for all the shots that share it; simulating 2^16
    amplitudes once per shot takes tens of seconds."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, teleport_16q_argv(4096))
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert sum(int(count) for _, count, _ in rows) == 4096
    assert all(key[0] == "0" for key, _, _ in rows)  # teleporting |0> never yields 1
    assert elapsed < 10.0, f"4096 shots took {elapsed:.1f} s"


def test_simulate_gate_count_does_not_grow_with_shots(capsys, monkeypatch):
    """Routed teleport applies 4 gates before its measurements and 2
    conditioned ones on each of its 4 outcome paths, at any shot count."""
    calls = []
    apply_gate = statevector.apply_gate

    def counted(*args, **kwargs):
        calls.append(None)
        return apply_gate(*args, **kwargs)

    monkeypatch.setattr(statevector, "apply_gate", counted)
    per_shots = {}
    for shots in (64, 4096):
        calls.clear()
        assert run_cli(capsys, teleport_16q_argv(shots))[0] == 0
        per_shots[shots] = len(calls)
    assert per_shots == {64: 12, 4096: 12}


def test_simulate_measured_circuit_on_a_map_wider_than_the_simulator(tmp_path, capsys):
    """Shots run on the touched qubits only, so a 25-qubit map is fine."""
    circuit = write(tmp_path, "bell.qasm", BELL_MEASURED)
    cmap = write(tmp_path, "map.txt", json.dumps([[q, q + 1] for q in range(24)]))
    code, out, _ = run_cli(capsys, ["simulate", circuit, "--map", cmap, "--shots", "64", "--seed", "1"])
    assert code == 0
    assert {line.split(",")[0] for line in out.strip().splitlines()[1:]} <= {"00", "11"}


def test_simulate_unmeasured_circuit_too_wide_names_the_width(tmp_path, capsys):
    """Only the touched qubits are simulated, so an unmeasured Bell pair on a
    25-qubit map runs; its keys still name all 25 physical qubits."""
    circuit = write(tmp_path, "bell.qasm", "qreg q[2];\ncreg c[0];\nh q[0];\ncx q[0],q[1];\n")
    cmap = write(tmp_path, "map.txt", json.dumps([[q, q + 1] for q in range(24)]))
    code, out, err = run_cli(capsys, ["simulate", circuit, "--map", cmap, "--seed", "1"])
    assert code == 0
    assert "error" not in err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [key for key, _, _ in rows] == ["0" * 25, "0" * 23 + "11"]
    assert sum(int(count) for _, count, _ in rows) == 4096


def test_simulate_unmeasured_memory_is_flat_in_shots(tmp_path, capsys):
    """Shots of a state are drawn in blocks: two million of them used to
    take about 35 MB at once."""
    circuit = write(tmp_path, "bell.qasm", "qreg q[2];\ncreg c[0];\nh q[0];\ncx q[0],q[1];\n")
    tracemalloc.start()
    try:
        code = main(["simulate", circuit, "--shots", "2000000", "--seed", "0"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["00", "11"]
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("measured", [True, False])
def test_simulate_names_the_touched_width(tmp_path, capsys, measured):
    """Past 20 touched qubits both branches stop at the one width check."""
    text = "qreg q[21];\ncreg c[21];\n" + "".join(f"h q[{q}];\n" for q in range(21))
    if measured:
        text += "".join(f"measure q[{q}] -> c[{q}];\n" for q in range(21))
    circuit = write(tmp_path, "wide.qasm", text)
    code, out, err = run_cli(capsys, ["simulate", circuit, "--seed", "1"])
    assert (code, out) == (2, "")
    assert "parse error" not in err
    assert "simulate error: the circuit touches 21 qubits; the simulator holds at most 20" in err


def test_simulate_circuit_touching_no_qubit(tmp_path, capsys):
    circuit = write(tmp_path, "idle.qasm", "qreg q[3];\ncreg c[0];\n")
    code, out, _ = run_cli(capsys, ["simulate", circuit, "--shots", "4", "--seed", "1"])
    assert (code, out) == (0, "bitstring,count,probability\n000,4,1.0\n")


def test_simulate_unmeasured_compacted_counts_equal_full_width(tmp_path, capsys):
    """Unmeasured circuits run on their touched qubits, and each sampled bit
    goes back to its physical qubit. The seeded counts equal those of
    simulating and sampling every qubit of the circuit."""
    rng = np.random.default_rng(16)
    path = tmp_path / "c.qasm"
    for case in range(200):
        n_qubits = int(rng.integers(3, 11))
        small = random_gate_program(rng, int(rng.integers(1, n_qubits + 1)))
        # Spread the touched qubits over the register, idle ones between.
        spread = sorted(rng.choice(n_qubits, size=small.n_qubits, replace=False).tolist())
        full = Program(n_qubits, 0, [
            GateOp(ins.kind, spread[ins.target],
                   control=None if ins.control is None else spread[ins.control])
            for ins in small.instructions
        ])
        path.write_text(serialize(full))
        argv = ["simulate", str(path), "--shots", "64", "--seed", str(case)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        state, _ = statevector.run_program(full, np.random.default_rng(case))
        counts = statevector.sample_counts(state, 64, np.random.default_rng(case))
        expected = "".join(f"{key},{counts[key]},{counts[key] / 64!r}\n" for key in sorted(counts))
        assert out == "bitstring,count,probability\n" + expected


def test_route_reversal_serialization(tmp_path, capsys):
    circuit = write(tmp_path, "cx.qasm", SINGLE_CX)
    cmap = write(tmp_path, "map.txt", "[[1, 0]]")
    code, out, err = run_cli(capsys, ["route", circuit, "--map", cmap])
    assert code == 0
    assert out == (
        "qreg q[2];\ncreg c[0];\n"
        "h q[0];\nh q[1];\ncx q[1],q[0];\nh q[0];\nh q[1];\n"
    )
    assert "# direct=0 reversed=1 swaps=0 inserted=4" in err


def test_route_without_map_is_identity(tmp_path, capsys):
    circuit = write(tmp_path, "cx.qasm", SINGLE_CX)
    code, out, err = run_cli(capsys, ["route", circuit])
    assert code == 0
    assert out == SINGLE_CX
    assert "# direct=1 reversed=0 swaps=0 inserted=0" in err


def test_route_refuses_a_circuit_its_parser_would_reject(tmp_path, capsys):
    # Routed onto this map the circuit spans 5,001 qubits, past the qreg limit.
    circuit = str(resources.files("qtabu").joinpath("assets/teleport.qasm"))
    cmap = write(tmp_path, "map.txt", "[[1, 2], [0, 1], [2, 5000]]")
    out_path = tmp_path / "routed.qasm"
    code, out, err = run_cli(capsys, ["route", circuit, "--map", cmap, "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert not out_path.exists()
    assert err.endswith(
        "serialize error: program is not serializable: qreg size 5001 exceeds the limit of 4096\n"
    )
    # simulate compacts the routed circuit onto the qubits it touches.
    code, out, _ = run_cli(capsys, ["simulate", circuit, "--map", cmap, "--seed", "1"])
    assert code == 0
    assert out.startswith("bitstring,count,probability\n")


def test_qts_trace_and_summary(tmp_path, capsys):
    instance = write(tmp_path, "inst.txt", TINY_INSTANCE)
    code, out, err = run_cli(
        capsys, ["qts", instance, "--max-iter", "10", "--seed", "4"]
    )
    assert code == 0
    assert "seed=4" in err
    lines = out.strip().splitlines()
    assert lines[0] == "iteration,current_eval,best_eval"
    assert len(lines) == 12  # header + 10 trace rows + summary
    summary = lines[-1]
    assert summary.startswith("# best_eval=5.0 best_iter=")
    assert "iterations_run=10" in summary
    assert summary.endswith("solution=1")
    first_row = lines[1].split(",")
    assert first_row[0] == "1"


def test_qts_out_file_keeps_summary_on_stdout(tmp_path, capsys):
    instance = write(tmp_path, "inst.txt", TINY_INSTANCE)
    out_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys,
        ["qts", instance, "--max-iter", "5", "--seed", "4", "--out", str(out_path)],
    )
    assert code == 0
    assert out.startswith("# best_eval=5.0 ")
    trace = out_path.read_text().splitlines()
    assert trace[0] == "iteration,current_eval,best_eval"
    assert len(trace) == 6


def test_search_map_runs_and_reports(tmp_path, capsys):
    circuit = write(tmp_path, "cx.qasm", SINGLE_CX)
    code, out, err = run_cli(
        capsys,
        ["search-map", circuit, "--budget", "1", "--runs", "3", "--seed", "10"],
    )
    assert code == 0
    assert "seed=10" in err
    lines = out.strip().splitlines()
    assert lines[0] == "run,seed,best_score,best_iteration,iterations_run"
    rows = [line.split(",") for line in lines[1:4]]
    assert [row[0] for row in rows] == ["0", "1", "2"]
    assert [row[1] for row in rows] == ["10", "11", "12"]
    edges = json.loads(lines[4])
    assert edges == [[0, 1]]
    assert lines[5] == "score=1.0"


def test_search_map_candidate_file(tmp_path, capsys):
    circuit = write(tmp_path, "cx.qasm", SINGLE_CX)
    candidates = write(tmp_path, "cand.txt", "[[1, 0], [0, 1]]")
    code, out, _ = run_cli(
        capsys,
        ["search-map", circuit, "--candidates", candidates, "--budget", "2", "--seed", "0"],
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "score=1.5"


def test_search_map_too_many_default_candidates(tmp_path, capsys):
    circuit = write(tmp_path, "cx.qasm", SINGLE_CX)
    code, out, err = run_cli(
        capsys, ["search-map", circuit, "--physical", "65", "--seed", "0"]
    )
    assert (code, out) == (1, "")
    assert "usage error: 65 physical qubits give 4160 candidate edges (limit 4096)" in err
    # Fewer than two physical qubits give no pair: a usage error, not a
    # parse error, with one message for every such count.
    for n_physical in ("1", "0", "-3"):
        argv = ["search-map", circuit, "--physical", n_physical, "--seed", "0"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert f"usage error: --physical {n_physical} gives no candidate edge" in err
    # The count is checked before any pair is built.
    tracemalloc.start()
    try:
        code = main(["search-map", circuit, "--physical", "100000", "--seed", "0"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "9999900000 candidate edges (limit 4096)" in capsys.readouterr().err
    assert peak < 2**20
    pairs = [[a, b] for a in range(65) for b in range(65) if a != b][:4097]
    candidates = write(tmp_path, "c4097.json", json.dumps(pairs))
    code, out, err = run_cli(
        capsys, ["search-map", circuit, "--candidates", candidates, "--seed", "0"]
    )
    assert (code, out) == (2, "")
    assert "parse error: 4097 candidate edges exceed the limit of 4096" in err


def test_search_map_engine_error_writes_no_output(tmp_path, capsys, monkeypatch):
    """The 11-pair circuit (22 profit-bearing edges) searches; under settings
    the engine rejects, the run fails before anything is written."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "cx.qasm", ELEVEN_CX)
    argv = ["search-map", "cx.qasm", "--physical", "12", "--out", "o.csv", "--seed", "0"]
    code, out, _ = run_cli(capsys, argv)
    assert (code, out.splitlines()[-1]) == (0, "score=6.0")
    (tmp_path / "o.csv").unlink()
    code, out, err = run_cli(capsys, argv + ["--tenure", "600", "--max-iter", "500"])
    assert code == 2
    assert "engine error: tabu_tenure 600 must be smaller than max_iterations 500" in err
    assert out == ""
    assert not (tmp_path / "o.csv").exists()


def test_search_map_reports_an_unroutable_winner(tmp_path, capsys):
    """Budget 6 is below ELEVEN_CX's eleven interacting pairs, so the best
    map cannot route the chain: one stderr line says so. At budget 11 the
    winner routes and stderr holds only the seed."""
    circuit = write(tmp_path, "cx.qasm", ELEVEN_CX)
    argv = ["search-map", circuit, "--physical", "12", "--runs", "2", "--seed", "0"]
    code, out, err = run_cli(capsys, argv + ["--budget", "6"])
    assert (code, out.splitlines()[-1]) == (0, "score=6.0")
    assert err == "seed=0\n# best map cannot route the circuit\n"
    code, out, err = run_cli(capsys, argv + ["--budget", "11"])
    assert (code, out.splitlines()[-1]) == (0, "score=11.0")
    assert err == "seed=0\n"


def test_search_map_budget_past_every_candidate(tmp_path, capsys):
    """A budget of 400 nines is past any float, yet fits the 20 candidate
    edges of 5 physical qubits as a budget of 20 does: the same output."""
    teleport = write(tmp_path, "teleport.qasm", serialize(load_teleport()))
    argv = ["search-map", teleport, "--physical", "5", "--runs", "2", "--seed", "0", "--budget"]
    code, out, err = run_cli(capsys, argv + ["9" * 400])
    assert (code, err) == (0, "seed=0\n")
    assert (code, out, err) == run_cli(capsys, argv + ["20"])


def test_search_map_memory_stays_flat_in_runs(tmp_path, capsys):
    """50 runs of 2,000 iterations each: only the run in progress holds its
    trace (about 100 bytes per iteration), and every run keeps one CSV row."""
    teleport = write(tmp_path, "teleport.qasm", serialize(load_teleport()))
    argv = ["search-map", teleport, "--physical", "5", "--max-iter", "2000", "--runs", "50",
            "--seed", "0"]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [row.split(",")[4] for row in out[1:51]] == ["2000"] * 50
    assert peak < 4 * 2**20


def test_search_map_holds_one_run_at_a_time(tmp_path, capsys):
    """At 50,000 iterations a run's trace is most of the memory, and only the
    run in progress holds one: three runs peak under 1.5 times one run."""
    teleport = write(tmp_path, "teleport.qasm", serialize(load_teleport()))
    peaks = {}
    for runs in (1, 3):
        argv = ["search-map", teleport, "--physical", "5", "--max-iter", "50000",
                "--runs", str(runs), "--seed", "0"]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peaks[runs] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
    capsys.readouterr()
    assert peaks[3] < 1.5 * peaks[1]


def test_search_map_without_profit(tmp_path, capsys):
    circuit = write(tmp_path, "h.qasm", "qreg q[2];\ncreg c[0];\nh q[0];\n")
    code, out, _ = run_cli(capsys, ["search-map", circuit, "--seed", "3"])
    assert code == 0
    assert out.splitlines()[1:] == ["0,3,0.0,0,0", "[]", "score=0.0"]
    argv = ["search-map", circuit, "--tenure", "600", "--max-iter", "500", "--seed", "0"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "engine error: tabu_tenure 600 must be smaller than max_iterations 500" in err


def test_search_map_device_scale_gate(capsys):
    """Teleport on the 16-qubit device (240 candidate pairs), seeds 0-9:
    the map fits the budget and serves both cx directly, without swaps."""
    teleport = str(resources.files("qtabu").joinpath("assets", "teleport.qasm"))
    argv = ["search-map", teleport, "--physical", "16", "--budget", "6", "--runs", "10", "--seed", "0"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert [row.split(",")[1:3] for row in lines[1:11]] == [[str(s), "3.0"] for s in range(10)]
    edges = [tuple(edge) for edge in json.loads(lines[11])]
    assert len(edges) <= 6
    assert {(0, 1), (1, 2)} <= set(edges)
    cmap = CouplingMap(1 + max(map(max, edges)), tuple(edges))
    _, report = route(load_teleport(), cmap)
    assert (report.direct_count, report.swap_count) == (2, 0)


def test_bench_teleport_output_shape(capsys):
    code, out, err = run_cli(capsys, ["bench-teleport", "--shots", "400", "--seed", "5"])
    assert code == 0
    assert "seed=5" in err
    lines = out.strip().splitlines()
    assert lines[0] == "map,direct,reversed,swaps,inserted,p0,p1,shots0,shots1"
    labels = []
    for line in lines[1:4]:
        fields = line.split(",")
        labels.append(fields[0])
        assert fields[1:5] == ["2", "0", "0", "0"]  # both cx direct on every layout
        assert int(fields[7]) + int(fields[8]) == 400
        assert float(fields[6]) == 0.0  # teleporting |0> never yields 1
    assert labels == ["none", "ref1", "ref2"]
    assert lines[4] == "pair,tvd_exact,tvd_sampled"
    for line in lines[5:8]:
        pair, tvd_exact, tvd_sampled = line.split(",")
        assert pair in ("none/ref1", "none/ref2", "ref1/ref2")
        assert float(tvd_exact) < 1e-12
        assert float(tvd_sampled) < 0.1


def test_bench_teleport_same_seed_identical(capsys):
    argv = ["bench-teleport", "--shots", "200", "--seed", "6"]
    assert run_cli(capsys, argv) == run_cli(capsys, argv)


def test_exit_code_parse_error_unknown_gate(tmp_path, capsys):
    circuit = write(tmp_path, "bad.qasm", "qreg q[1];\ncreg c[0];\ny q[0];\n")
    code, _, err = run_cli(capsys, ["simulate", circuit, "--seed", "0"])
    assert code == 2
    assert "unknown-gate" in err


@pytest.mark.parametrize(
    "text, position",
    [
        ("qreg q[99999999999999999999]; creg c[1];\n", "1:8: range: qreg size"),
        ("qreg q[1];\ncreg c[300000000];\nmeasure q[0] -> c[0];\n", "2:8: range: creg size"),
        # Past the 4,300 digits int() accepts.
        (f"qreg q[1{'0' * 5000}]; creg c[1];\n", "1:8: range: qreg size 1" + "0" * 19 + "..."),
    ],
    ids=["huge-qreg", "huge-creg", "longer-than-int-parses"],
)
def test_exit_code_parse_error_register_too_large(tmp_path, capsys, text, position):
    circuit = write(tmp_path, "big.qasm", text)
    code, out, err = run_cli(capsys, ["simulate", circuit, "--seed", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"seed=0\nparse error: {position} ")
    assert err.endswith(" exceeds the limit of 4096\n")


def test_exit_code_parse_error_bad_map(tmp_path, capsys):
    circuit = write(tmp_path, "cx.qasm", SINGLE_CX)
    cmap = write(tmp_path, "map.txt", "[[0, 0]]")
    code, _, err = run_cli(capsys, ["route", circuit, "--map", cmap])
    assert code == 2
    assert "parse error" in err


def test_exit_code_parse_error_bad_instance(tmp_path, capsys):
    instance = write(tmp_path, "inst.txt", "not numbers\n")
    code, _, err = run_cli(capsys, ["qts", instance, "--seed", "0"])
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 3\nnan 1\n4 2\n", "profits[0] must be finite, got nan"),
        ("2 3\n5 1\n4 -2\n", "weights[1] must be >= 0, got -2.0"),
        ("3 0\n1e308 1\n1e308 1\n1 1\n", "total |profits| must be finite, got inf"),
        ("2 -1.7e308\n1 1.7e308\n1 1\n", "total weights plus |max_capacity| must be finite"),
        ("1 0\n1e200 1e200\n", "total |profits| * (1 + max(0, total weights - max_capacity)) must be finite"),
    ],
)
def test_exit_code_rejected_instance_values(tmp_path, capsys, text, message):
    instance = write(tmp_path, "inst.txt", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, ["qts", instance, "--seed", "0"])
    assert caught == []
    assert code == 2
    assert out == ""
    assert f"parse error: {message}" in err


def test_exit_code_engine_error_for_settings(tmp_path, capsys):
    instance = write(tmp_path, "inst.txt", TINY_INSTANCE)
    argv = ["qts", instance, "--tenure", "600", "--max-iter", "500", "--seed", "0"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "engine error: tabu_tenure 600 must be smaller than max_iterations 500" in err
    assert "parse error" not in err


@pytest.mark.parametrize(
    "text, flags, iterations",
    [
        (README_INSTANCE, ["--max-iter", "1"], 1),
        (README_INSTANCE, ["--max-iter", "2"], 2),  # derives 2, capped at 1
        ("2000 1000\n" + "1 1\n" * 2000, [], 500),  # derives 500, capped at 499
    ],
)
def test_qts_derived_tenure_fits_any_max_iter(tmp_path, capsys, text, flags, iterations):
    instance = write(tmp_path, "inst.txt", text)
    code, out, err = run_cli(capsys, ["qts", instance, *flags, "--seed", "0"])
    assert code == 0
    assert "error" not in err
    assert f" iterations_run={iterations} " in out.splitlines()[-1]


def test_exit_code_engine_error_for_problem_size(tmp_path, capsys):
    """The engine has no item limit: 21 items that all fit run to all ones."""
    instance = write(tmp_path, "inst.txt", "21 30\n" + "1 1\n" * 21)
    code, out, err = run_cli(capsys, ["qts", instance, "--seed", "0"])
    assert code == 0
    assert "error" not in err
    assert out.splitlines()[-1] == (
        f"# best_eval=21.0 best_iter=9 iterations_run=500 solution={'1' * 21}"
    )


def test_exit_code_routing_error(tmp_path, capsys):
    circuit = write(tmp_path, "cx.qasm", SINGLE_CX)
    cmap = write(tmp_path, "map.txt", "[[2, 3]]")
    code, _, err = run_cli(capsys, ["route", circuit, "--map", cmap])
    assert code == 3
    assert "routing error" in err


def test_closed_stdout_exits_quietly(tmp_path):
    """A reader that stops early (``| head -2``) closes stdout while the
    trace is written: exit 1, and stderr holds only the seed echo."""
    instance = write(tmp_path, "inst.txt", "21 30\n" + "1 1\n" * 21)
    argv = ["qts", instance, "--seed", "0", "--max-iter", "20000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtabu.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head[0] == b"iteration,current_eval,best_eval\n"
    assert head[1].startswith(b"1,")
    assert err == b"seed=0\n"


def test_exit_code_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["simulate", str(tmp_path / "nope.qasm"), "--seed", "0"])
    assert code == 1
    assert "usage error" in err


def test_exit_code_bad_flag_value(tmp_path, capsys):
    circuit = write(tmp_path, "cx.qasm", SINGLE_CX)
    code, _, err = run_cli(capsys, ["simulate", circuit, "--shots", "0"])
    assert code == 1
    assert "usage error" in err


def test_exit_code_missing_subcommand(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == 1
    assert "usage error" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_readme_commands_parse():
    """Every ``qtabu ...`` command the README shows is accepted by the CLI's
    own parser, so a renamed or dropped flag fails here; the block names
    every subcommand."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [line.split() for line in readme.read_text().splitlines()
                if line.startswith("qtabu ")]
    parsed = [_build_parser().parse_args(argv[1:]) for argv in commands]
    assert {args.command for args in parsed} == {
        "simulate", "route", "qts", "search-map", "bench-teleport"
    }


def test_repeated_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    # Garbage that only a full collection frees piles up across the calls of
    # a long-lived caller; an argparse parser built per call leaves about 300
    # such objects each time.
    argv = ["route", write(tmp_path, "cx.qasm", SINGLE_CX)]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            main(argv)
        garbage = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert garbage == 0


@pytest.mark.parametrize("flag", ["--seed"])
def test_seed_echo_format(tmp_path, capsys, flag):
    circuit = write(tmp_path, "cx.qasm", SINGLE_CX)
    code, _, err = run_cli(capsys, ["simulate", circuit, flag, "123", "--shots", "1"])
    assert code == 0
    assert err.splitlines()[0] == "seed=123"


@pytest.mark.parametrize("command", ["simulate", "route", "qts", "search-map", "bench-teleport"])
def test_negative_seed_is_a_usage_error(capsys, command):
    positional = [] if command == "bench-teleport" else ["input.txt"]
    code, out, err = run_cli(capsys, [command, *positional, "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert err == "usage error: argument --seed: must be >= 0, got -1\n"
