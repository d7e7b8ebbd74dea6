"""One workload process: set up, check, then time a closed loop of ops.

Started by ``run.py``; prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --root <checkout> --workload <name> --seed <n>
        (--setup-only | --setup-reference | --seconds <s> --trace <0|1>)

``--setup-only`` times a fresh process from its first statement until the
workload's inputs are built (importing qtabu plus the package calls that
build them) and exits. ``--setup-reference`` times the same span of a
process that imports numpy and a fixed set of standard-library modules
instead (``reference.py``), which rescales set-up time. Otherwise the process also computes the oracles,
checks that one op repeats exactly, feeds every checker deliberately wrong
results, and then either

* ``--trace 0``: runs ops back to back for ``--seconds``, timing the
  workload's reference kernel between them, and reports the end-to-end
  figures both rescaled to the kernel's nominal speed and raw, or
* ``--trace 1``: runs the workload's fixed number of ops twice each, once
  plain and once with every layer function wrapped by the tracer
  (alternating which goes first), and reports per-layer figures.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Single-threaded workload process: pin every BLAS pool before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def _load_workload(root: Path, name: str, seed: int):
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS  # imports every layer of the package

    package_dir = Path(sys.modules["qtabu"].__file__).resolve().parent
    if package_dir != (root / "src" / "qtabu").resolve():
        raise SystemExit(f"qtabu was imported from {package_dir}, not from the checkout")

    return WORKLOADS[name](root, seed)


def _calibrate() -> dict[str, float]:
    """Fixed host-speed probe: a pure-Python loop and a numpy pass over 2^20
    values (in 2^16 chunks, so it barely touches peak memory)."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for k in range(200_000):
        total += k * k
    python_ms = (time.perf_counter() - start) * 1e3
    chunk = np.linspace(0.0, 1.0, 2**16) + 1j
    start = time.perf_counter()
    acc = 0.0
    for _ in range(16):
        acc += float(np.sum(np.abs(chunk) ** 2))
    numpy_ms = (time.perf_counter() - start) * 1e3
    return {"python_ms": python_ms, "numpy_ms": numpy_ms}


def _machine() -> dict[str, object]:
    import platform

    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Tally:
    """Counts attempted, failed and optimal ops, keeping the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.optimal = 0
        self.problems: list[str] = []

    def record(self, outcome, label: str) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{label}: {'; '.join(outcome.problems)}")
        elif outcome.optimal:
            self.optimal += 1


def _attempt(workload, i: int):
    """Run op ``i`` (timed) and check its result (untimed).

    Returns (raw result, outcome, seconds). An exception from the op, or a
    result too malformed to check, is a failed op, not a crashed benchmark.
    """
    from workloads import Outcome

    start = time.perf_counter()
    try:
        raw = workload.op(i)
    except Exception as exc:
        return None, Outcome([f"op raised {exc!r}"], False, None), time.perf_counter() - start
    elapsed = time.perf_counter() - start
    try:
        return raw, workload.check(i, raw), elapsed
    except Exception as exc:
        return raw, Outcome([f"checker raised {exc!r}"], False, None), elapsed


def _same_result(first, second, problem: str) -> None:
    """Mark ``second`` failed when two runs of one op disagree."""
    if first.ok and second.ok and first.key != second.key:
        second.problems.append(problem)


def _determinism_and_self_test(workload, tally: Tally) -> list[str]:
    """Repeat op 0 and compare; then prove each checker rejects wrong input.

    Returns the wrong results a checker let through. When op 0 itself
    fails, that failure is tallied and the self-test is skipped.
    """
    first, outcome, _ = _attempt(workload, 0)
    _, repeat, _ = _attempt(workload, 0)
    _same_result(outcome, repeat, "same seed gave a different result")
    tally.record(outcome, "op 0")
    tally.record(repeat, "op 0 repeated")
    if not outcome.ok:
        return []
    escaped = []
    for label, wrong, optimum, expect in workload.wrong_results(first):
        verdict = workload.check(0, wrong, optimum)
        caught = not verdict.ok if expect == "failed" else verdict.ok and not verdict.optimal
        if not caught:
            escaped.append(f"checker passed a wrong result ({label}): expected {expect}")
    return escaped


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _timed_pass(workload, seconds: float, tally: Tally) -> dict[str, object]:
    """Run ops back to back for ``seconds``, each between two timed runs of
    the workload's reference kernel, which rescale the op's time."""
    kernel = workload.reference
    optimal_before = tally.optimal
    latencies = []
    scaled = []
    kernel_s = [kernel.time()]
    deadline = time.perf_counter() + seconds
    i = 1
    while not latencies or time.perf_counter() < deadline:
        _, outcome, elapsed = _attempt(workload, i)
        kernel_s.append(kernel.time())
        latencies.append(elapsed)
        scaled.append(elapsed * kernel.scale(kernel_s[-2], kernel_s[-1]))
        tally.record(outcome, f"op {i}")
        i += 1
    ordered = sorted(scaled)
    tail = _percentile(ordered, workload.tail_percentile)
    return {
        "ops": len(latencies),
        "optimal_rate": (tally.optimal - optimal_before) / len(latencies),
        "busy_s": sum(scaled),
        "op_ms_p50": _percentile(ordered, 50.0) * 1e3,
        "op_ms_tail": tail * 1e3,
        "tail_percentile": workload.tail_percentile,
        "beyond_tail": sum(1 for v in ordered if v > tail),
        "raw_busy_s": sum(latencies),
        "raw_op_ms_p50": _percentile(sorted(latencies), 50.0) * 1e3,
        "kernel_ms_p50": _percentile(sorted(kernel_s), 50.0) * 1e3,
        "kernel_nominal_ms": kernel.nominal_ms,
    }


def _traced_pass(workload, tally: Tally) -> dict[str, object]:
    from tracer import Tracer

    tracer = Tracer()
    plain_s = traced_s = 0.0
    optimal_hits = 0
    for i in range(1, workload.trace_ops + 1):
        runs = {}
        for traced in (False, True) if i % 2 else (True, False):
            if traced:
                tracer.install()
            try:
                _, runs[traced], elapsed = _attempt(workload, i)
            finally:
                tracer.uninstall()
            if traced:
                traced_s += elapsed
            else:
                plain_s += elapsed
        _same_result(runs[False], runs[True], "traced and plain runs disagree")
        tally.record(runs[False], f"op {i}")
        tally.record(runs[True], f"op {i} traced")
        optimal_hits += runs[True].optimal
    metrics = tracer.metrics()
    metrics["trace.op_wall_s"] = (traced_s, "s")
    metrics["trace.self_sum_frac"] = (tracer.total_self_s() / traced_s, "fraction")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")
    metrics["trace.optimal_hits"] = (optimal_hits, "count")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--setup-reference", action="store_true")
    args = parser.parse_args()
    root = Path(args.root)

    if args.setup_reference:
        import importlib

        from reference import SETUP_NOMINAL_S, SETUP_REFERENCE_MODULES

        for name in SETUP_REFERENCE_MODULES:
            importlib.import_module(name)
        elapsed = time.perf_counter() - _PROCESS_START
        print(json.dumps({"setup_s": elapsed, "nominal_s": SETUP_NOMINAL_S}))
        return 0

    workload = _load_workload(root, args.workload, args.seed)
    setup_s = time.perf_counter() - _PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource
    import tempfile

    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as scratch:
        workload.prepare(Path(scratch))
        escaped = _determinism_and_self_test(workload, tally)
        calibration = {"start": _calibrate()}
        if args.trace:
            figures = _traced_pass(workload, tally)
        else:
            figures = _timed_pass(workload, args.seconds, tally)
        calibration["end"] = _calibrate()
    report = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "self_test_escapes": escaped,
        "machine": _machine(),
        "calibration": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "figures": figures,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
