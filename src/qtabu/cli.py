"""Command-line harness: simulate, route, search, and benchmark circuits.

Exit codes: 0 success, 1 usage (bad flags or unreadable files), 2 parse
error (circuit, map, or instance text), engine settings the search rejects,
a circuit too wide to simulate, or a serialize error (a routed circuit too
wide for the dialect), 3 routing error, 4 internal error.
Every subcommand that draws random numbers echoes its effective seed to
stderr as ``seed=<n>`` so any run can be reproduced; ``route`` is
deterministic and echoes none. Byte-identical inputs and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from functools import cache
from typing import get_args

import numpy as np

from .mapsearch import (
    DEFAULT_EDGE_BUDGET,
    MAX_CANDIDATE_EDGES,
    MapSearchProblem,
    all_directed_pairs,
    load_teleport,
    reference_map,
    search_best_map,
)
from .qasm import Program, QasmParseError, compact, parse, serialize
from .routing import RoutingError, parse_coupling_map, route
from .statevector import (
    MAX_QUBITS,
    MeasureOp,
    bitstring,
    branch_probabilities,
    normalize_counts,
    run_program,
    sample_counts,
    shot_counts,
    total_variation_distance,
)
from .tabu import PopulationMode, SearchConfig, parse_instance, qts_run


class _Failure(Exception):
    """A failure ``main`` reports as ``<label>: <message>``, exiting ``code``."""

    def __init__(self, label: str, code: int, message: str) -> None:
        super().__init__(message)
        self.label = label
        self.code = code


@contextmanager
def _stage(label: str):
    """Report a ``ValueError`` raised inside as a ``label`` failure, exit code 2.

    Input text is parsed before any stage runs, so a ``ValueError`` here
    belongs to the stage, not to the text.
    """
    try:
        yield
    except ValueError as exc:
        raise _Failure(label, 2, str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _Failure("usage error", 1, message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@cache
def _build_parser() -> _Parser:
    """The one ``qtabu`` parser, built on first use and reused by every call."""
    parser = _Parser(prog="qtabu", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument(
            "--seed", type=_nonnegative_int, default=None, help="RNG seed (echoed to stderr)"
        )
        p.add_argument("--out", default=None, help="write primary output to this file")

    def engine(p: _Parser) -> None:
        p.add_argument("--max-iter", type=_positive_int, default=SearchConfig.max_iterations)
        p.add_argument("--stagnation", type=_positive_int, default=SearchConfig.stagnation_limit)
        p.add_argument("--tenure", type=_positive_int, default=SearchConfig.tabu_tenure)
        p.add_argument(
            "--population",
            choices=get_args(PopulationMode),
            default=SearchConfig.population_mode,
        )

    p = sub.add_parser("simulate", help="run a circuit and tabulate outcomes")
    p.add_argument("circuit", help="circuit file")
    p.add_argument("--map", default=None, help="coupling-map file, or 'none'")
    p.add_argument("--shots", type=_positive_int, default=4096)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("route", help="rewrite a circuit for a coupling map")
    p.add_argument("circuit", help="circuit file")
    p.add_argument("--map", default=None, help="coupling-map file, or 'none'")
    common(p)
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("qts", help="tabu-search a knapsack instance")
    p.add_argument("instance", help="instance file: 'n max_capacity' then n 'profit weight' lines")
    engine(p)
    common(p)
    p.set_defaults(func=cmd_qts)

    p = sub.add_parser("search-map", help="search for a coupling map fitting a circuit")
    p.add_argument("circuit", help="circuit file")
    p.add_argument("--physical", type=int, default=None,
                   help="physical qubit count for default candidates (default: circuit size)")
    p.add_argument("--candidates", default=None,
                   help="candidate edge file (JSON pair list); default: all directed pairs")
    p.add_argument("--budget", type=_nonnegative_int, default=DEFAULT_EDGE_BUDGET, help="edge budget")
    p.add_argument("--runs", type=_positive_int, default=1)
    engine(p)
    common(p)
    p.set_defaults(func=cmd_search_map)

    p = sub.add_parser("bench-teleport", help="teleport across the reference maps")
    p.add_argument("--shots", type=_positive_int, default=4096)
    common(p)
    p.set_defaults(func=cmd_bench_teleport)

    return parser


def _resolve_seed(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().entropy) % 2**32
    print(f"seed={seed}", file=sys.stderr)
    return seed


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _load_map(path: str | None):
    if path is None or path == "none":
        return None
    return parse_coupling_map(_read(path))


def _out_stream(args: argparse.Namespace):
    if args.out is None:
        return nullcontext(sys.stdout)
    return open(args.out, "w")


def _route_circuit(args: argparse.Namespace) -> Program:
    """Parse and route ``args.circuit``; print the routing summary to stderr."""
    program = parse(_read(args.circuit))
    routed, report = route(program, _load_map(args.map))
    print(
        f"# direct={report.direct_count} reversed={report.reversed_count} "
        f"swaps={report.swap_count} inserted={report.inserted_gate_count}",
        file=sys.stderr,
    )
    return routed


def _search_config(args: argparse.Namespace, seed: int) -> SearchConfig:
    """The engine settings ``args`` asks for, seeded with ``seed``."""
    return SearchConfig(
        max_iterations=args.max_iter,
        stagnation_limit=args.stagnation,
        tabu_tenure=args.tenure,
        population_mode=args.population,
        seed=seed,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    routed = _route_circuit(args)
    # Qubits no instruction touches stay in |0> and change no outcome.
    program, qubits = compact(routed)
    if program.n_qubits > MAX_QUBITS:
        raise _Failure(
            "simulate error",
            2,
            f"the circuit touches {program.n_qubits} qubits; "
            f"the simulator holds at most {MAX_QUBITS}",
        )
    rng = np.random.default_rng(seed)
    if any(isinstance(ins, MeasureOp) for ins in program.instructions):
        counts = shot_counts(program, args.shots, rng)
    else:
        # Keys name every physical qubit: each sampled bit goes back to its
        # own, and the untouched ones read 0.
        state, _ = run_program(program, rng)
        counts = {}
        for key, count in sample_counts(state, args.shots, rng).items():
            index = sum(int(bit) << qubit for bit, qubit in zip(reversed(key), qubits))
            counts[bitstring(index, routed.n_qubits)] = count
    with _out_stream(args) as out:
        print("bitstring,count,probability", file=out)
        for key in sorted(counts):
            print(f"{key},{counts[key]},{counts[key] / args.shots!r}", file=out)
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    routed = _route_circuit(args)
    # Serialized before --out is opened, so a circuit the dialect cannot
    # hold leaves no file behind.
    with _stage("serialize error"):
        text = serialize(routed)
    with _out_stream(args) as out:
        out.write(text)
    return 0


def cmd_qts(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    instance = parse_instance(_read(args.instance))
    with _stage("engine error"):
        result = qts_run(instance, _search_config(args, seed))
    with _out_stream(args) as out:
        print("iteration,current_eval,best_eval", file=out)
        for iteration, current_eval, best_eval in result.trace:
            print(f"{iteration},{current_eval!r},{best_eval!r}", file=out)
    solution = "".join(str(b) for b in result.best_solution)
    print(
        f"# best_eval={result.best_evaluation!r} best_iter={result.best_iteration} "
        f"iterations_run={result.iterations_run} solution={solution}"
    )
    return 0


def cmd_search_map(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    program = parse(_read(args.circuit))
    if args.candidates is not None:
        candidates = parse_coupling_map(_read(args.candidates)).edges
    else:
        n_physical = args.physical if args.physical is not None else program.n_qubits
        # Checked before the pairs are built, so a huge count costs nothing.
        if n_physical < 2:
            raise _Failure(
                "usage error",
                1,
                f"--physical {n_physical} gives no candidate edge (a pair needs 2 physical "
                "qubits); pass --physical 2 or more, or --candidates with an explicit pair list",
            )
        n_pairs = n_physical * (n_physical - 1)
        if n_pairs > MAX_CANDIDATE_EDGES:
            raise _Failure(
                "usage error",
                1,
                f"{n_physical} physical qubits give {n_pairs} candidate edges "
                f"(limit {MAX_CANDIDATE_EDGES}); pass --candidates with an explicit pair list",
            )
        candidates = all_directed_pairs(n_physical)
    problem = MapSearchProblem(program, candidates, args.budget)
    # Every run finishes before any output, so an engine error writes nothing.
    # Only the current run holds a trace; the best one so far keeps its edges
    # and whether the circuit routes on them.
    rows = []
    best_score = best_edges = best_routable = None
    for run in range(args.runs):
        row, score, edges, routable = _search_run(args, problem, run, seed + run)
        rows.append(row)
        # The first run with the highest score wins.
        if best_score is None or score > best_score:
            best_score, best_edges, best_routable = score, edges, routable
    with _out_stream(args) as out:
        print("run,seed,best_score,best_iteration,iterations_run", file=out)
        for row in rows:
            print(row, file=out)
    print(json.dumps([list(edge) for edge in best_edges]))
    print(f"score={best_score!r}")
    if not best_routable:
        print("# best map cannot route the circuit", file=sys.stderr)
    return 0


def _search_run(
    args: argparse.Namespace, problem: MapSearchProblem, run: int, seed: int
) -> tuple[str, float, tuple[tuple[int, int], ...], bool]:
    """One ``search-map`` run: its CSV row, its score, its map's edges and
    whether the circuit routes on that map.

    The run's ``ScoredMap``, trace included, is freed on return."""
    with _stage("engine error"):
        scored = search_best_map(problem, _search_config(args, seed))
    search = scored.search
    row = f"{run},{seed},{scored.score!r},{search.best_iteration},{search.iterations_run}"
    return row, scored.score, scored.map.edges, scored.routing is not None


def cmd_bench_teleport(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    program = load_teleport()
    rng = np.random.default_rng(seed)
    layouts = [("none", None), ("ref1", reference_map("ref1")), ("ref2", reference_map("ref2"))]
    exact: dict[str, dict[str, float]] = {}
    sampled: dict[str, dict[str, float]] = {}
    rows = []
    for label, cmap in layouts:
        routed, report = route(program, cmap)
        compacted, _ = compact(routed)
        dist = branch_probabilities(compacted)
        counts = shot_counts(compacted, args.shots, rng)
        exact[label] = dist
        sampled[label] = normalize_counts(counts)
        # The teleported bit lands in the highest classical bit, leftmost in
        # the rendered key.
        p_one = float(sum(p for key, p in dist.items() if key[0] == "1"))
        shots_one = sum(c for key, c in counts.items() if key[0] == "1")
        rows.append(
            f"{label},{report.direct_count},{report.reversed_count},"
            f"{report.swap_count},{report.inserted_gate_count},"
            f"{1.0 - p_one!r},{p_one!r},{args.shots - shots_one},{shots_one}"
        )
    with _out_stream(args) as out:
        print("map,direct,reversed,swaps,inserted,p0,p1,shots0,shots1", file=out)
        for row in rows:
            print(row, file=out)
        print("pair,tvd_exact,tvd_sampled", file=out)
        for a, b in (("none", "ref1"), ("none", "ref2"), ("ref1", "ref2")):
            tvd_exact = total_variation_distance(exact[a], exact[b])
            tvd_sampled = total_variation_distance(sampled[a], sampled[b])
            print(f"{a}/{b},{tvd_exact!r},{tvd_sampled!r}", file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except _Failure as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``). Point stdout at
        # devnull, so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (QasmParseError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except RoutingError as exc:
        print(f"routing error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
