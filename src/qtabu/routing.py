"""Coupling-map model and circuit rewriting so every cx sits on a map edge.

A coupling map is a directed graph over physical qubits: edge ``(a, b)``
means cx with control ``a`` and target ``b`` runs natively. A cx along the
reverse of an edge is rewritten with the four-hadamard identity
``h a; h b; cx b,a; h a; h b``. A cx between non-adjacent qubits first
moves the control next to the target with swaps along a shortest
undirected path (one swap = three cx, constituents reversed as needed).
Ties between equal-length paths break toward the path whose vertex
sequence is lexicographically smallest, so routing is deterministic.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral

from .qasm import Program
from .statevector import Gate, GateOp, MeasureOp


class RoutingError(Exception):
    """Circuit cannot be placed on the map (too few qubits, disconnected)."""


class MapFormatError(ValueError):
    """Malformed coupling-map data (not a pair list, self-loop, duplicate)."""


def _is_integer(value: object) -> bool:
    """Whether ``value`` is an integer (a numpy one too, but not a ``bool``)."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class CouplingMap:
    """Directed connectivity over ``n_physical`` qubits; the first faulty edge is reported."""

    n_physical: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            a, b = edge
            if not (_is_integer(a) and _is_integer(b)):
                raise MapFormatError(f"edge {list(edge)} is not a pair of integers")
            if a < 0 or b < 0:
                raise MapFormatError(f"edge {list(edge)} has a negative endpoint")
            if a == b:
                raise MapFormatError(f"self-loop edge {list(edge)}")
            if a >= self.n_physical or b >= self.n_physical:
                raise MapFormatError(
                    f"edge {list(edge)} out of range for {self.n_physical} physical qubits"
                )
            if edge in seen:
                raise MapFormatError(f"duplicate edge {list(edge)}")
            seen.add(edge)

    @classmethod
    def spanning(cls, edges: Sequence[tuple[int, int]], n_physical: int = 0) -> CouplingMap:
        """The map over ``edges``, ``n_physical`` qubits wide or one past the
        highest endpoint, whichever is more.

        The width reads only integer endpoints, so ``__post_init__`` reports
        any other as the first faulty edge instead of ``max`` failing on it."""
        highest = max((q for edge in edges for q in edge if _is_integer(q)), default=-1)
        return cls(max(n_physical, 1 + highest), tuple(edges))


@dataclass(frozen=True)
class RoutingReport:
    """Counts of how each original cx was realized, plus inserted overhead.

    ``direct_count`` and ``reversed_count`` classify the original cx gates
    (after any swaps); ``swap_count`` is the number of inserted swaps;
    ``inserted_gate_count`` is total emitted gates minus original gates.
    ``final_layout[i]`` is the physical qubit holding logical ``i`` at the
    end of the circuit.
    """

    direct_count: int
    reversed_count: int
    swap_count: int
    inserted_gate_count: int
    final_layout: tuple[int, ...]


def parse_coupling_map(text: str) -> CouplingMap:
    """Parse a JSON pair list like ``[[0, 1], [1, 2]]`` into a CouplingMap.

    The physical qubit count is one past the highest endpoint mentioned.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapFormatError(f"invalid pair list: {exc}") from None
    if not isinstance(data, list):
        raise MapFormatError("coupling map must be a list of [control, target] pairs")
    edges: list[tuple[int, int]] = []
    for item in data:
        if not isinstance(item, list) or len(item) != 2:
            raise MapFormatError(f"edge {item!r} is not a pair of integers")
        edges.append((item[0], item[1]))
    # CouplingMap checks the endpoints.
    return CouplingMap.spanning(edges)


def _undirected_adjacency(cmap: CouplingMap) -> dict[int, list[int]]:
    adjacency: dict[int, set[int]] = {}
    for a, b in cmap.edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    return {q: sorted(nbrs) for q, nbrs in adjacency.items()}


def _shortest_path(adjacency: dict[int, list[int]], src: int, dst: int) -> list[int] | None:
    """BFS shortest path; among equal-length paths, lexicographically least.

    Distances to ``dst`` come from one BFS; the path then walks from ``src``
    taking the smallest neighbor that moves strictly closer, which makes the
    vertex sequence lexicographically smallest among shortest paths.
    """
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        node = queue.popleft()
        for nbr in adjacency.get(node, ()):
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                queue.append(nbr)
    if src not in dist:
        return None
    path = [src]
    while path[-1] != dst:
        node = path[-1]
        path.append(min(n for n in adjacency[node] if dist.get(n, -1) == dist[node] - 1))
    return path


def _orientation(edges: set[tuple[int, int]], control: int, target: int) -> str | None:
    """How cx ``control, target`` sits on a map with edge set ``edges``:
    ``"direct"`` on an edge, ``"reversed"`` on its reverse, else None."""
    if (control, target) in edges:
        return "direct"
    if (target, control) in edges:
        return "reversed"
    return None


def route(program: Program, cmap: CouplingMap | None) -> tuple[Program, RoutingReport]:
    """Rewrite a program for a coupling map; return (routed program, report).

    With ``cmap=None`` the program is returned unchanged and every cx counts
    as direct. Otherwise the routed program spans all physical qubits and
    measurements follow their logical qubit through swaps. Instructions
    are frozen, so the routed program holds the input's own instruction
    wherever the layout and the cx's orientation leave it as it is; only
    moved qubits, reversed cx and swaps get new ones. The map's undirected
    adjacency is built when the first cx off the map needs a path, so a
    program whose cx all sit on edges never builds it.
    """
    if cmap is None:
        n_cx = len(cx_pairs(program))
        return program, RoutingReport(n_cx, 0, 0, 0, tuple(range(program.n_qubits)))
    if program.n_qubits > cmap.n_physical:
        raise RoutingError(
            f"program uses {program.n_qubits} qubits, map has {cmap.n_physical}"
        )
    edges = set(cmap.edges)
    adjacency: dict[int, list[int]] | None = None
    out: list[GateOp | MeasureOp] = []
    # How many original cx gates landed direct and reversed.
    counts = {"direct": 0, "reversed": 0}
    swaps = 0
    # Logical wire i starts on physical qubit i; the other physical qubits
    # are idle ancillas, missing from ``p2l``.
    l2p = list(range(program.n_qubits))
    p2l = {i: i for i in range(program.n_qubits)}

    def emit_cx(control: int, target: int, ins: GateOp | None = None) -> str:
        """Emit a cx between adjacent physical qubits, reversing if needed;
        the original cx ``ins`` is emitted itself when it lands as written."""
        condition = None if ins is None else ins.condition
        kind = _orientation(edges, control, target)
        if kind == "direct":
            if ins is None or (ins.control, ins.target) != (control, target):
                ins = GateOp(Gate.CX, target, control=control, condition=condition)
            out.append(ins)
            return kind
        assert kind == "reversed"
        hadamards = [GateOp(Gate.H, qubit, condition=condition) for qubit in (control, target)]
        out.extend([*hadamards, GateOp(Gate.CX, control, control=target, condition=condition)])
        out.extend(hadamards)
        return kind

    for ins in program.instructions:
        if isinstance(ins, MeasureOp):
            qubit = l2p[ins.qubit]
            out.append(ins if qubit == ins.qubit else MeasureOp(qubit, ins.cbit))
            continue
        if ins.kind is not Gate.CX:
            target = l2p[ins.target]
            if target != ins.target:
                ins = GateOp(ins.kind, target, condition=ins.condition)
            out.append(ins)
            continue
        assert ins.control is not None
        control = l2p[ins.control]
        target = l2p[ins.target]
        if _orientation(edges, control, target) is None:
            if adjacency is None:
                adjacency = _undirected_adjacency(cmap)
            path = _shortest_path(adjacency, control, target)
            if path is None:
                raise RoutingError(
                    f"no path between physical qubits {control} and {target}"
                )
            # Swap the control toward the target, stopping one hop short.
            # The control carries wire ins.control; the hop may be an ancilla.
            for hop in path[1:-1]:
                for a, b in ((control, hop), (hop, control), (control, hop)):
                    emit_cx(a, b)
                swaps += 1
                other = p2l.pop(hop, None)
                p2l[hop] = p2l.pop(control)
                l2p[ins.control] = hop
                if other is not None:
                    p2l[control], l2p[other] = other, control
                control = hop
        counts[emit_cx(control, target, ins)] += 1
    inserted = len(out) - len(program.instructions)
    report = RoutingReport(counts["direct"], counts["reversed"], swaps, inserted, tuple(l2p))
    return Program(cmap.n_physical, program.n_cbits, out), report


def cx_pairs(program: Program) -> list[tuple[int, int]]:
    """The ``(control, target)`` pair of every cx in ``program``, in order."""
    return [
        (ins.control, ins.target)
        for ins in program.instructions
        if isinstance(ins, GateOp) and ins.kind is Gate.CX
    ]


def direct_support_count(program: Program, cmap: CouplingMap) -> tuple[int, int, int]:
    """Classify each cx against the map without routing.

    Returns ``(direct, reversed, unsupported)`` counts, reading the
    program's qubit indices as physical positions.
    """
    edges = set(cmap.edges)
    counts = {"direct": 0, "reversed": 0, None: 0}
    for control, target in cx_pairs(program):
        counts[_orientation(edges, control, target)] += 1
    return counts["direct"], counts["reversed"], counts[None]
