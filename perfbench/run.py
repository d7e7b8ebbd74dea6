"""qtabu benchmark: three closed-loop workloads, end to end and per layer.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py``), each run in its own single-threaded
process, one caller, the next op starting when the last returns:

* ``mapsearch-20edge``: ``search_best_map`` on the bundled teleport circuit
  over all 20 directed pairs of 5 qubits (a 2^20-amplitude population).
* ``knapsack-10item``: ``qts_run`` on 10-item instances, alternating the two
  population modes; the Python engine loop dominates.
* ``simulate-16q``: ``qtabu simulate`` (through ``cli.main``) of teleport on
  the 16-qubit sample map, 64 shots of 2^16 amplitudes each.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: the time from a fresh process's first statement until the
  inputs are built (importing qtabu plus the package calls that build
  them; oracles are excluded). Each of eight such processes, half started
  before the timed pass and half after it, is followed by a reference
  process that imports numpy and fixed standard-library modules instead;
  the median ratio of the pairs is rescaled to the reference's nominal
  time (``reference.py``).
* ``ops_per_s``: ops completed per second of time spent inside ops.
* ``op_ms_p50`` and ``op_ms_tail``: median op latency and the latency at
  the workload's fixed tail percentile (stated in the output with the
  number of samples beyond it).

  These three are rescaled to the host's fast phase by the workload's
  reference kernel, timed before and after every op (``reference.py``):
  the host's speed drifts by up to 1.9x, and the kernels drift with it.
  The raw figures are printed on the comment lines.
* ``optimal_rate``: share of timed ops whose answer is the best possible:
  the brute-force optimum (and, for map search, a map needing no swaps)
  for the search workloads; the teleported bit correct in every shot for
  ``simulate-16q``.
* ``peak_rss_mb``: peak resident memory of the workload process.

With ``--trace 1`` a fixed number of ops per workload (not ``--seconds``,
so every count repeats exactly for a seed) runs twice each, plain and with
every layer function wrapped from outside the package (``tracer.py``), and
the run reports per-layer calls, self times and counters, the tracing
overhead, and the host calibration probe.

Every op is checked (``workloads.py``), one op is repeated to check
determinism, and every checker is first shown to reject deliberately wrong
results. Failed ops are reported as ``failed`` out of ``attempted`` in the
last stdout line, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mapsearch-20edge", "knapsack-10item", "simulate-16q")
SETUP_SAMPLES = 8
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _worker(args: list[str], deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setup_samples = []  # (set-up s, reference set-up s, reference nominal s)

    def sample_setup(count: int) -> None:
        for _ in range(count):
            setup = _worker([*common, "--setup-only"], deadline)["setup_s"]
            reference = _worker([*common, "--setup-reference"], deadline)
            setup_samples.append((setup, reference["setup_s"], reference["nominal_s"]))

    if not trace:
        sample_setup(1)  # warms the bytecode cache
        setup_samples.clear()
        sample_setup(SETUP_SAMPLES // 2)
    report = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        # Half the samples after the timed pass, so that they do not all fall
        # in one of the host's slow or fast phases.
        sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    if report["self_test_escapes"]:
        raise BenchError("checker self-test failed: " + "; ".join(report["self_test_escapes"]))

    figures = report["figures"]
    if trace:
        values = {key: value for key, (value, _) in figures.items()}
        calibration = report["calibration"]
        values["host.calib_python_ms"] = statistics.fmean(
            calibration[when]["python_ms"] for when in ("start", "end")
        )
        values["host.calib_numpy_ms"] = statistics.fmean(
            calibration[when]["numpy_ms"] for when in ("start", "end")
        )
    else:
        values = {
            "setup_s": statistics.median(n * s / r for s, r, n in setup_samples),
            "ops_per_s": figures["ops"] / figures["busy_s"],
            "op_ms_p50": figures["op_ms_p50"],
            "op_ms_tail": figures["op_ms_tail"],
            "optimal_rate": figures["optimal_rate"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    units = _declared_metrics(trace)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    return {
        "report": report,
        "setup_samples": setup_samples,
        "result": {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
        },
    }


def _describe(name: str, run: dict, trace: int) -> None:
    report = run["report"]
    machine = report["machine"]
    print(f"# workload {name}")
    print(
        f"# machine nproc={machine['nproc']} cpu={machine['cpu']!r} "
        f"python={machine['python']} numpy={machine['numpy']}"
    )
    for when, probe in report["calibration"].items():
        print(
            f"# calibration {when}: python_ms={probe['python_ms']:.2f} numpy_ms={probe['numpy_ms']:.2f}"
        )
    if not trace:
        figures = report["figures"]
        print(
            f"# ops={figures['ops']} op_ms_tail is p{figures['tail_percentile']:g} "
            f"with {figures['beyond_tail']} samples beyond it"
        )
        print(
            f"# raw: ops_per_s={figures['ops'] / figures['raw_busy_s']:.6g} "
            f"op_ms_p50={figures['raw_op_ms_p50']:.6g}; reference kernel "
            f"p50={figures['kernel_ms_p50']:.4g} ms, nominal {figures['kernel_nominal_ms']:g} ms"
        )
        print("# raw setup_s samples: " + " ".join(f"{s[0]:.4f}" for s in run["setup_samples"]))
        print("# reference set-up samples: " + " ".join(f"{s[1]:.4f}" for s in run["setup_samples"]))
    for problem in report["problems"]:
        print(f"# FAILED {problem}")
    for key, metric in run["result"]["metrics"].items():
        print(f"{name} {key} {metric['value']:.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qtabu" / "__init__.py").is_file():
        print(f"error: no qtabu sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            _describe(name, run, args.trace)
            results[name] = run["result"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
