from __future__ import annotations

import gc
import json
import time
from importlib import resources

import pytest

from qtabu.cli import main

BELL_MEASURED = (
    "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
    "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
)
SINGLE_CX = "qreg q[2];\ncreg c[0];\ncx q[0],q[1];\n"
TINY_INSTANCE = "1 1\n5 1\n"


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


def test_simulate_readme_example_within_budget(capsys):
    """The README's 4096-shot teleport on the 16-qubit map. Each shot runs
    the three touched qubits; a return to 2^16 amplitudes per shot takes
    tens of seconds."""
    assets = resources.files("qtabu").joinpath("assets")
    argv = [
        "simulate", str(assets.joinpath("teleport.qasm")),
        "--map", str(assets.joinpath("sample_16q_map.txt")), "--shots", "4096", "--seed", "1",
    ]
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert sum(int(count) for _, count, _ in rows) == 4096
    assert all(key[0] == "0" for key, _, _ in rows)  # teleporting |0> never yields 1
    assert elapsed < 10.0, f"4096 shots took {elapsed:.1f} s"


def test_simulate_measured_circuit_on_a_map_wider_than_the_simulator(tmp_path, capsys):
    """Shots run on the touched qubits only, so a 25-qubit map is fine."""
    circuit = write(tmp_path, "bell.qasm", BELL_MEASURED)
    cmap = write(tmp_path, "map.txt", json.dumps([[q, q + 1] for q in range(24)]))
    code, out, _ = run_cli(capsys, ["simulate", circuit, "--map", cmap, "--shots", "64", "--seed", "1"])
    assert code == 0
    assert {line.split(",")[0] for line in out.strip().splitlines()[1:]} <= {"00", "11"}


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
    code, _, err = run_cli(
        capsys, ["search-map", circuit, "--physical", "6", "--seed", "0"]
    )
    assert code == 1
    assert "limit 20" in err


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
    ],
)
def test_exit_code_rejected_instance_values(tmp_path, capsys, text, message):
    instance = write(tmp_path, "inst.txt", text)
    code, out, err = run_cli(capsys, ["qts", instance, "--seed", "0"])
    assert code == 2
    assert out == ""
    assert f"parse error: {message}" in err


def test_exit_code_routing_error(tmp_path, capsys):
    circuit = write(tmp_path, "cx.qasm", SINGLE_CX)
    cmap = write(tmp_path, "map.txt", "[[2, 3]]")
    code, _, err = run_cli(capsys, ["route", circuit, "--map", cmap])
    assert code == 3
    assert "routing error" in err


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
