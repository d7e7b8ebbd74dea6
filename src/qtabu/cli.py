"""Command-line harness: simulate, route, search, and benchmark circuits.

Exit codes: 0 success, 1 usage (bad flags or unreadable files), 2 parse
error (circuit, map, or instance text), 3 routing error, 4 internal error.
Every subcommand that draws random numbers echoes its effective seed to
stderr as ``seed=<n>`` so any run can be reproduced; ``route`` is
deterministic and echoes none. Byte-identical inputs and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import cache
from typing import get_args

import numpy as np

from .mapsearch import (
    MapSearchProblem,
    all_directed_pairs,
    load_teleport,
    reference_map,
    search_best_map,
)
from .qasm import Program, QasmParseError, compact, parse, serialize
from .routing import MapFormatError, RoutingError, parse_coupling_map, route
from .statevector import (
    MAX_QUBITS,
    MeasureOp,
    branch_probabilities,
    cbit_key,
    normalize_counts,
    run_program,
    sample_counts,
    total_variation_distance,
)
from .tabu import PopulationMode, SearchConfig, parse_instance, qts_run


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


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
        p.add_argument("--seed", type=int, default=None, help="RNG seed (echoed to stderr)")
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
    p.add_argument("--physical", type=_positive_int, default=None,
                   help="physical qubit count for default candidates (default: circuit size)")
    p.add_argument("--candidates", default=None,
                   help="candidate edge file (JSON pair list); default: all directed pairs")
    p.add_argument("--budget", type=_nonnegative_int, default=6, help="edge budget")
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


def _shot_counts(program: Program, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Run ``program`` once per shot and count its classical-register values.

    The shots run the compacted program: qubits no instruction touches
    would stay in |0> and change no outcome.
    """
    compacted = compact(program)
    counts: dict[str, int] = {}
    for _ in range(shots):
        _, cbits = run_program(compacted, rng)
        key = cbit_key(cbits)
        counts[key] = counts.get(key, 0) + 1
    return counts


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
    rng = np.random.default_rng(seed)
    if any(isinstance(ins, MeasureOp) for ins in routed.instructions):
        counts = _shot_counts(routed, args.shots, rng)
    else:
        # Keys name every physical qubit, so the full routed state is sampled.
        state, _ = run_program(routed, rng)
        counts = sample_counts(state, args.shots, rng)
    with _out_stream(args) as out:
        print("bitstring,count,probability", file=out)
        for key in sorted(counts):
            print(f"{key},{counts[key]},{counts[key] / args.shots!r}", file=out)
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    routed = _route_circuit(args)
    with _out_stream(args) as out:
        out.write(serialize(routed))
    return 0


def cmd_qts(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    instance = parse_instance(_read(args.instance))
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
        candidates = all_directed_pairs(n_physical)
        if len(candidates) > MAX_QUBITS:
            raise _UsageError(
                f"{n_physical} physical qubits give {len(candidates)} candidate edges "
                f"(limit {MAX_QUBITS}); pass --candidates with an explicit pair list"
            )
    problem = MapSearchProblem(program, candidates, args.budget)
    best = None
    with _out_stream(args) as out:
        print("run,seed,best_score,best_iteration,iterations_run", file=out)
        for run in range(args.runs):
            run_seed = seed + run
            scored = search_best_map(problem, _search_config(args, run_seed))
            search = scored.search
            print(
                f"{run},{run_seed},{scored.score!r},"
                f"{search.best_iteration},{search.iterations_run}",
                file=out,
            )
            if best is None or scored.score > best.score:
                best = scored
    assert best is not None
    print(json.dumps([list(edge) for edge in best.map.edges]))
    print(f"score={best.score!r}")
    return 0


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
        dist = branch_probabilities(compact(routed))
        counts = _shot_counts(routed, args.shots, rng)
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
    except (_UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (QasmParseError, MapFormatError, ValueError) as exc:
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
