"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each traced package function with a timing
wrapper in every ``qtabu`` module that holds it as an attribute, so both
``qtabu.statevector.apply_gate`` and the ``apply_gate`` name imported into
``qtabu.tabu`` are covered. Spans nest through a stack: a span's self time
is its duration minus the durations of the traced spans it called.
``uninstall`` restores the original functions. Spans are aggregated in
memory as they close (calls, self time and a few counters per function).
"""

from __future__ import annotations

import sys
from time import perf_counter

from workloads import improving_iterations

LAYER_FUNCTIONS = {
    "statevector": ("apply_gate", "measure", "run_program", "sample_counts", "branch_probabilities"),
    "qasm": ("parse",),
    "routing": ("route",),
    "tabu": ("qts_run", "init_population", "sample_candidate", "escape", "select_move", "fitness"),
    "mapsearch": ("search_best_map", "derive_knapsack", "decode"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.amplitudes_max = 0
        self.apply_gate_bytes = 0
        self.route_swaps = 0
        self.route_inserted = 0
        self.best_iterations: list[int] = []
        self.improving_iterations = 0
        self.iterations_run = 0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "statevector.apply_gate": self._on_apply_gate,
            "statevector.measure": self._on_state,
            "statevector.sample_counts": self._on_state,
            "statevector.run_program": self._on_state,
            "statevector.branch_probabilities": self._on_state,
            "routing.route": self._on_route,
            "tabu.qts_run": self._on_qts_run,
        }

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("qtabu.")]
        for layer, functions in LAYER_FUNCTIONS.items():
            home = sys.modules[f"qtabu.{layer}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{layer}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, function):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        stack = self._stack
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _on_state(self, args, result) -> None:
        self.amplitudes_max = max(self.amplitudes_max, 2 ** args[0].n_qubits)

    def _on_apply_gate(self, args, result) -> None:
        size = 2 ** args[0].n_qubits
        self.amplitudes_max = max(self.amplitudes_max, size)
        self.apply_gate_bytes += size * 16  # complex128 amplitudes, computed not measured

    def _on_route(self, args, result) -> None:
        report = result[1]
        self.route_swaps += report.swap_count
        self.route_inserted += report.inserted_gate_count

    def _on_qts_run(self, args, result) -> None:
        self.best_iterations.append(result.best_iteration)
        self.improving_iterations += improving_iterations(result.trace)
        self.iterations_run += result.iterations_run

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        out["statevector.apply_gate.bytes_computed"] = (self.apply_gate_bytes, "B")
        out["statevector.amplitudes_max"] = (self.amplitudes_max, "count")
        out["routing.route.swaps"] = (self.route_swaps, "count")
        out["routing.route.inserted_gates"] = (self.route_inserted, "count")
        runs = len(self.best_iterations)
        out["tabu.escapes_per_run"] = (self.calls["tabu.escape"] / runs if runs else 0.0, "count")
        out["tabu.best_iteration_mean"] = (sum(self.best_iterations) / runs if runs else 0.0, "count")
        frac = self.improving_iterations / self.iterations_run if self.iterations_run else 0.0
        out["tabu.improving_iter_frac"] = (frac, "fraction")
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
