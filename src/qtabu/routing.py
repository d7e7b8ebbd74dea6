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
from dataclasses import dataclass

from .qasm import Program
from .statevector import Gate, GateOp, MeasureOp


class RoutingError(Exception):
    """Circuit cannot be placed on the map (too few qubits, disconnected)."""


class MapFormatError(ValueError):
    """Malformed coupling-map data (not a pair list, self-loop, duplicate)."""


@dataclass(frozen=True)
class CouplingMap:
    """Directed connectivity over ``n_physical`` qubits."""

    n_physical: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            a, b = edge
            if a == b:
                raise MapFormatError(f"self-loop edge {list(edge)}")
            if not (0 <= a < self.n_physical and 0 <= b < self.n_physical):
                raise MapFormatError(
                    f"edge {list(edge)} out of range for {self.n_physical} physical qubits"
                )
            if edge in seen:
                raise MapFormatError(f"duplicate edge {list(edge)}")
            seen.add(edge)


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
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise MapFormatError(f"edge {item!r} is not a pair of integers")
        if item[0] < 0 or item[1] < 0:
            raise MapFormatError(f"edge {item} has a negative endpoint")
        edges.append((item[0], item[1]))
    n_physical = 1 + max((max(a, b) for a, b in edges), default=-1)
    return CouplingMap(n_physical, tuple(edges))


def _undirected_adjacency(cmap: CouplingMap) -> dict[int, list[int]]:
    adjacency: dict[int, set[int]] = {q: set() for q in range(cmap.n_physical)}
    for a, b in cmap.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
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
        for nbr in adjacency[node]:
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


class _Router:
    def __init__(self, program: Program, cmap: CouplingMap) -> None:
        self.cmap = cmap
        self.edges = set(cmap.edges)
        self.adjacency = _undirected_adjacency(cmap)
        self.out: list[GateOp | MeasureOp] = []
        self.direct = 0
        self.reversed = 0
        self.swaps = 0
        # Logical wire i starts on physical qubit i; remaining physical
        # qubits are idle ancillas.
        self.l2p = list(range(program.n_qubits))
        self.p2l = [i if i < program.n_qubits else -1 for i in range(cmap.n_physical)]

    def emit_cx(self, control: int, target: int, condition: tuple[int, int] | None) -> str:
        """Emit a cx between adjacent physical qubits, reversing if needed."""
        if (control, target) in self.edges:
            self.out.append(GateOp(Gate.CX, target, control=control, condition=condition))
            return "direct"
        assert (target, control) in self.edges
        for qubit in (control, target):
            self.out.append(GateOp(Gate.H, qubit, condition=condition))
        self.out.append(GateOp(Gate.CX, control, control=target, condition=condition))
        for qubit in (control, target):
            self.out.append(GateOp(Gate.H, qubit, condition=condition))
        return "reversed"

    def emit_swap(self, a: int, b: int) -> None:
        self.emit_cx(a, b, None)
        self.emit_cx(b, a, None)
        self.emit_cx(a, b, None)
        self.swaps += 1
        la, lb = self.p2l[a], self.p2l[b]
        self.p2l[a], self.p2l[b] = lb, la
        if la != -1:
            self.l2p[la] = b
        if lb != -1:
            self.l2p[lb] = a

    def route_cx(self, op: GateOp) -> None:
        assert op.control is not None
        control = self.l2p[op.control]
        target = self.l2p[op.target]
        if (control, target) not in self.edges and (target, control) not in self.edges:
            path = _shortest_path(self.adjacency, control, target)
            if path is None:
                raise RoutingError(
                    f"no path between physical qubits {control} and {target}"
                )
            # Walk the control toward the target, stopping one hop short.
            for hop in path[1:-1]:
                self.emit_swap(control, hop)
                control = hop
        kind = self.emit_cx(control, target, op.condition)
        if kind == "direct":
            self.direct += 1
        else:
            self.reversed += 1


def route(program: Program, cmap: CouplingMap | None) -> tuple[Program, RoutingReport]:
    """Rewrite a program for a coupling map; return (routed program, report).

    With ``cmap=None`` the program is returned unchanged and every cx counts
    as direct. Otherwise the routed program spans all physical qubits and
    measurements follow their logical qubit through swaps.
    """
    if cmap is None:
        n_cx = sum(
            1
            for ins in program.instructions
            if isinstance(ins, GateOp) and ins.kind is Gate.CX
        )
        return program, RoutingReport(n_cx, 0, 0, 0, tuple(range(program.n_qubits)))
    if program.n_qubits > cmap.n_physical:
        raise RoutingError(
            f"program uses {program.n_qubits} qubits, map has {cmap.n_physical}"
        )
    router = _Router(program, cmap)
    for ins in program.instructions:
        if isinstance(ins, MeasureOp):
            router.out.append(MeasureOp(router.l2p[ins.qubit], ins.cbit))
        elif ins.kind is Gate.CX:
            router.route_cx(ins)
        else:
            router.out.append(
                GateOp(ins.kind, router.l2p[ins.target], condition=ins.condition)
            )
    inserted = len(router.out) - len(program.instructions)
    routed = Program(cmap.n_physical, program.n_cbits, router.out)
    report = RoutingReport(
        router.direct,
        router.reversed,
        router.swaps,
        inserted,
        tuple(router.l2p),
    )
    return routed, report


def direct_support_count(program: Program, cmap: CouplingMap) -> tuple[int, int, int]:
    """Classify each cx against the map without routing.

    Returns ``(direct, reversed, unsupported)`` counts, reading the
    program's qubit indices as physical positions.
    """
    edges = set(cmap.edges)
    direct = reversed_ = unsupported = 0
    for ins in program.instructions:
        if not isinstance(ins, GateOp) or ins.kind is not Gate.CX:
            continue
        assert ins.control is not None
        if (ins.control, ins.target) in edges:
            direct += 1
        elif (ins.target, ins.control) in edges:
            reversed_ += 1
        else:
            unsupported += 1
    return direct, reversed_, unsupported
