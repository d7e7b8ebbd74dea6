"""Host-speed reference kernels, timed between ops to rescale op times.

The shared 2-core host this benchmark was built on runs the same code 1.5
to 1.9 times slower in phases lasting from seconds to minutes, set by load
outside the guest (steal time stays 0). Raw op times of two runs of the
same code then differ by more than any useful regression bound. A fixed
kernel that does the same kind of work as a workload's ops slows down by
the same factor: on ``knapsack-10item``, while the raw median latency of
30-second windows swung by 1.8x, its ratio to the time of the engine-step
kernel below stayed within 2%.

So the worker times the workload's kernel before and after every op and
rescales the op's time to the kernel's nominal speed::

    scaled = op_time * nominal_ms / mean(kernel before, kernel after)

Each nominal time is the kernel's median in the host's fast phase, so
scaled figures read as times on that host when it is fast. The kernels are
written here, independent of the package, so a change under ``src/``
leaves them as they are and shows in full in the scaled figures.

Set-up time slows in other phases than these kernels. Its reference is a
whole fresh process that imports numpy and the standard-library modules
below, none of them part of qtabu, timed like the workload's set-up from
its first statement. Over 30-second windows of alternating processes, the
window medians of the ratio of the two spread by 2.7% (interquartile range
over median), and those of raw set-up time by 10%.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


SETUP_REFERENCE_MODULES = (
    "decimal", "fractions", "email.mime.text", "http.client", "xml.dom.minidom",
    "sqlite3", "unittest", "csv", "difflib", "tarfile", "zipfile", "uuid",
)
SETUP_NOMINAL_S = 0.15  # the reference set-up's time in the host's fast phase


class Kernel:
    """A fixed piece of work; subclasses define ``run`` and ``nominal_ms``."""

    nominal_ms: float

    def run(self) -> None:
        raise NotImplementedError

    def time(self) -> float:
        """Seconds one run of the kernel takes now."""
        start = perf_counter()
        self.run()
        return perf_counter() - start

    def scale(self, before: float, after: float) -> float:
        """Factor that rescales an op timed between two kernel runs."""
        return self.nominal_ms * 2e-3 / (before + after)


class EngineSteps(Kernel):
    """Tabu steps on a fixed 10-item knapsack: a Python loop over tiny
    numpy arrays, numpy scalar reads and tuple and set churn, the work of
    the search engine's own loop."""

    nominal_ms = 0.65
    steps = 50

    def __init__(self) -> None:
        self.profits = np.arange(1.0, 11.0)
        self.weights = np.arange(12.0, 2.0, -1.0)
        self.capacity = 30.0

    def run(self) -> None:
        bits = (0, 1) * 5
        tabu: set[int] = set()
        best = -1.0
        for step in range(self.steps):
            chosen = np.asarray(bits, dtype=float)
            sign = 1.0 - 2.0 * chosen
            profit = float(self.profits @ chosen) + self.profits * sign
            load = float(self.weights @ chosen) + self.weights * sign
            scores = profit * (1.0 - np.maximum(0.0, load - self.capacity))
            pick = -1
            for k in range(len(scores)):
                if k in tabu and scores[k] <= best:
                    continue
                if pick == -1 or scores[k] > scores[pick]:
                    pick = k
            flipped = list(bits)
            flipped[pick] ^= 1
            bits = tuple(flipped)
            tabu = {pick, (pick + step) % 10}
            best = max(best, float(scores[pick]))


class DenseState(Kernel):
    """Hadamards, one measurement-style collapse and one inverse-CDF draw on
    a fresh 2^n amplitude vector: the strided whole-vector passes of the
    statevector kernels. The vector is allocated per run and freed, and is
    no larger than the workload's own, so the kernel adds under half a
    megabyte to the workload's peak memory."""

    def __init__(self, n_qubits: int, nominal_ms: float) -> None:
        self.n_qubits = n_qubits
        self.nominal_ms = nominal_ms

    def _half(self, qubit: int, value: int) -> tuple:
        """Index of the half of the ``[2] * n`` view where ``qubit`` is ``value``."""
        index = [slice(None)] * self.n_qubits
        index[self.n_qubits - 1 - qubit] = value
        return tuple(index)

    def run(self) -> None:
        n = self.n_qubits
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = 1.0
        view = amps.reshape([2] * n)
        for qubit in (0, n // 2, n - 1):
            lo, hi = self._half(qubit, 0), self._half(qubit, 1)
            a0 = view[lo].copy()
            a1 = view[hi]
            view[lo] = (a0 + a1) * 0.7071067811865476
            view[hi] = (a0 - a1) * 0.7071067811865476
        view[self._half(1, 1)] = 0.0
        amps /= np.linalg.norm(amps)
        cdf = np.cumsum(np.abs(amps) ** 2)
        int(np.searchsorted(cdf, 0.5 * cdf[-1], side="right"))


class Sequence(Kernel):
    """Several kernels run back to back, for ops that mix their kinds of work."""

    def __init__(self, *parts: Kernel) -> None:
        self.parts = parts
        self.nominal_ms = sum(part.nominal_ms for part in parts)

    def run(self) -> None:
        for part in self.parts:
            part.run()
