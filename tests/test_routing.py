from __future__ import annotations

import dataclasses
import re
import hashlib
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_routed_equivalent,
    cx_matrix,
    program_unitary,
    random_connected_map,
    random_gate_program,
)
from qtabu import routing
from qtabu.mapsearch import (
    MapSearchProblem,
    all_directed_pairs,
    load_teleport,
    reference_map,
    search_best_map,
)
from qtabu.qasm import Program, compact, parse, serialize
from qtabu.routing import (
    CouplingMap,
    MapFormatError,
    RoutingError,
    direct_support_count,
    parse_coupling_map,
    route,
)
from qtabu.statevector import Gate, GateOp, MeasureOp


def test_parse_coupling_map_reference_lists():
    ref1 = parse_coupling_map("[[0,1],[0,2],[1,2],[3,2],[3,4],[4,2]]")
    assert ref1.n_physical == 5
    assert ref1.edges == ((0, 1), (0, 2), (1, 2), (3, 2), (3, 4), (4, 2))
    ref2 = parse_coupling_map("[[0,1],[0,4],[1,2],[1,3],[1,4],[3,4]]")
    assert ref2 == reference_map("ref2")


def test_parse_coupling_map_rejects_malformed():
    with pytest.raises(MapFormatError, match="self-loop"):
        parse_coupling_map("[[0,0]]")
    with pytest.raises(MapFormatError, match="duplicate"):
        parse_coupling_map("[[0,1],[0,1]]")
    with pytest.raises(MapFormatError, match="pair"):
        parse_coupling_map("[[0,1,2]]")
    with pytest.raises(MapFormatError, match="pair"):
        parse_coupling_map("{\"a\": 1}")
    with pytest.raises(MapFormatError, match="invalid"):
        parse_coupling_map("[[0,")
    with pytest.raises(MapFormatError, match="negative"):
        parse_coupling_map("[[0,-1]]")
    with pytest.raises(MapFormatError, match="pair"):
        parse_coupling_map("[[true,false]]")


def test_coupling_map_invariants():
    with pytest.raises(MapFormatError, match="out of range"):
        CouplingMap(2, ((0, 3),))
    with pytest.raises(MapFormatError, match=r"edge \[0, -1\] has a negative endpoint"):
        CouplingMap(3, ((0, -1),))
    with pytest.raises(MapFormatError, match=r"edge \[-1, -1\] has a negative endpoint"):
        CouplingMap(3, ((-1, -1),))
    for edge in ((1.5, 2), (0, 1.0), (True, 2), (0, False), ("1", 2), (None, 1)):
        with pytest.raises(MapFormatError, match=re.escape(f"edge {list(edge)} is not a pair")):
            CouplingMap(3, ((0, 1), edge))
    with pytest.raises(MapFormatError, match=r"edge \[1\.5, 2\] is not a pair of integers"):
        route(load_teleport(), CouplingMap.spanning([(0, 1), (1.5, 2)]))
    # A non-integer endpoint is reported, not compared by the width's max.
    message = re.escape("edge [0, '1'] is not a pair of integers")
    with pytest.raises(MapFormatError, match=message):
        CouplingMap.spanning([(0, "1")])
    with pytest.raises(MapFormatError, match=message):
        MapSearchProblem(load_teleport(), ((0, "1"),), 2)
    edges = tuple((np.int64(a), np.int32(b)) for a, b in ((0, 1), (1, 2)))
    assert CouplingMap(3, edges).edges == ((0, 1), (1, 2))


def test_coupling_map_reports_the_first_faulty_edge():
    with pytest.raises(MapFormatError, match=r"self-loop edge \[1, 1\]"):
        parse_coupling_map("[[1,1],[0,-1]]")
    with pytest.raises(MapFormatError, match=r"edge \[0, -1\] has a negative endpoint"):
        parse_coupling_map("[[0,-1],[1,1]]")
    with pytest.raises(MapFormatError, match=r"duplicate edge \[0, 1\]"):
        CouplingMap(2, ((0, 1), (0, 1), (0, 5)))


def test_spanning_width():
    assert CouplingMap.spanning([(0, 1), (3, 2)]) == CouplingMap(4, ((0, 1), (3, 2)))
    assert CouplingMap.spanning([(0, 1)], n_physical=5) == CouplingMap(5, ((0, 1),))
    assert CouplingMap.spanning([(0, 6)], n_physical=5).n_physical == 7
    assert CouplingMap.spanning([]) == CouplingMap(0, ())
    assert CouplingMap.spanning((), n_physical=3) == CouplingMap(3, ())
    for edges in ([(0, -1)], [(-2, -1)], [(5, 1), (-1, 0)]):
        with pytest.raises(MapFormatError, match="negative endpoint"):
            CouplingMap.spanning(edges)


def test_route_none_is_identity():
    program = load_teleport()
    routed, report = route(program, None)
    assert routed is program
    assert (report.direct_count, report.reversed_count) == (2, 0)
    assert (report.swap_count, report.inserted_gate_count) == (0, 0)
    assert report.final_layout == (0, 1, 2)


def test_route_direct_edge_untouched():
    program = parse("qreg q[2]; creg c[0]; cx q[0],q[1];")
    routed, report = route(program, CouplingMap(2, ((0, 1),)))
    assert routed.instructions == program.instructions
    assert (report.direct_count, report.reversed_count, report.swap_count) == (1, 0, 0)
    assert report.inserted_gate_count == 0


def test_route_reversal_expansion():
    # cx(2,1) with only edge (1,2): four h gates around the reversed cx
    program = parse("qreg q[3]; creg c[0]; cx q[2],q[1];")
    routed, report = route(program, CouplingMap(3, ((0, 1), (1, 2))))
    assert routed.instructions == [
        GateOp(Gate.H, 2),
        GateOp(Gate.H, 1),
        GateOp(Gate.CX, 2, control=1),
        GateOp(Gate.H, 2),
        GateOp(Gate.H, 1),
    ]
    assert (report.direct_count, report.reversed_count) == (0, 1)
    assert (report.swap_count, report.inserted_gate_count) == (0, 4)


def test_reversal_identity_matrix_oracle():
    # h a; h b; cx(b,a); h a; h b must equal cx(a,b), by explicit matrices
    h_both = np.kron(
        np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    ).astype(complex)
    expanded = h_both @ cx_matrix(1, 0, 2) @ h_both
    np.testing.assert_allclose(expanded, cx_matrix(0, 1, 2), atol=1e-12)


def test_route_swap_along_shortest_path():
    # cx(0,3) on ref1: path 0-2-3, one swap, then a reversed cx on (3,2)
    program = parse("qreg q[4]; creg c[0]; cx q[0],q[3];")
    routed, report = route(program, reference_map("ref1"))
    assert (report.direct_count, report.reversed_count) == (0, 1)
    assert report.swap_count == 1
    assert report.inserted_gate_count == 11
    assert report.final_layout == (2, 1, 0, 3)
    assert_routed_equivalent(program, routed, report.final_layout)


def test_route_tie_breaks_to_lowest_path():
    # 0->3 via 1 or via 2, both length 2: the lower intermediate wins
    cmap = CouplingMap(4, ((0, 1), (1, 3), (0, 2), (2, 3)))
    program = parse("qreg q[4]; creg c[0]; cx q[0],q[3];")
    routed, report = route(program, cmap)
    first = routed.instructions[0]
    assert isinstance(first, GateOp) and first.kind is Gate.CX
    assert (first.control, first.target) == (0, 1)
    assert report.swap_count == 1
    assert_routed_equivalent(program, routed, report.final_layout)


def test_route_remaps_measurements_through_swaps():
    program = parse(
        "qreg q[4]; creg c[2]; cx q[0],q[3]; measure q[0] -> c[0]; measure q[3] -> c[1];"
    )
    routed, report = route(program, reference_map("ref1"))
    measures = [ins for ins in routed.instructions if isinstance(ins, MeasureOp)]
    assert measures == [MeasureOp(report.final_layout[0], 0), MeasureOp(report.final_layout[3], 1)]


def test_route_preserves_conditions():
    program = parse("qreg q[2]; creg c[1]; measure q[0] -> c[0]; if(c[0]==1) x q[1];")
    routed, _ = route(program, CouplingMap(3, ((0, 1), (1, 2))))
    conditioned = [
        ins for ins in routed.instructions if isinstance(ins, GateOp) and ins.condition
    ]
    assert conditioned == [GateOp(Gate.X, 1, condition=(0, 1))]


def test_route_errors():
    program = parse("qreg q[3]; creg c[0]; cx q[0],q[2];")
    with pytest.raises(RoutingError, match="map has 2"):
        route(program, CouplingMap(2, ((0, 1),)))
    with pytest.raises(RoutingError, match="no path"):
        route(program, CouplingMap(4, ((0, 1), (2, 3))))
    with pytest.raises(RoutingError, match="no path"):  # qubit 2 is on no edge
        route(program, CouplingMap(3, ((0, 1),)))


def test_route_memory_follows_the_edges_not_the_highest_endpoint():
    program = load_teleport()
    for edges, swap_count, final_layout in (
        ("[[1, 2], [0, 1], [2, 100000]]", 0, (0, 1, 2)),
        # cx q[0],q[1] swaps logical 0 onto the ancilla 100000.
        ("[[1, 2], [0, 100000], [100000, 1]]", 1, (100000, 1, 2)),
    ):
        cmap = parse_coupling_map(edges)
        tracemalloc.start()
        try:
            routed, report = route(program, cmap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert routed.n_qubits == 100_001
        assert report.direct_count == 2
        assert report.swap_count == swap_count
        assert report.final_layout == final_layout


def _counting_adjacency(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Patch ``routing._undirected_adjacency`` to count its calls."""
    calls = [0]
    build = routing._undirected_adjacency

    def counted(cmap: CouplingMap) -> dict[int, list[int]]:
        calls[0] += 1
        return build(cmap)

    monkeypatch.setattr(routing, "_undirected_adjacency", counted)
    return calls


def test_route_builds_the_adjacency_only_for_a_path(monkeypatch):
    calls = _counting_adjacency(monkeypatch)
    text = resources.files("qtabu").joinpath("assets/sample_16q_map.txt").read_text()
    route(load_teleport(), parse_coupling_map(text))
    assert calls == [0]
    problem = MapSearchProblem(load_teleport(), all_directed_pairs(5))
    assert search_best_map(problem).routing is not None
    assert calls == [0]
    # Two cx off the line 0-1-2-3, one swap each: one adjacency for both.
    program = parse("qreg q[4]; creg c[0]; cx q[0],q[2]; cx q[0],q[3];")
    _, report = route(program, CouplingMap(4, ((0, 1), (1, 2), (2, 3))))
    assert report.swap_count == 2
    assert calls == [1]


def test_route_keeps_the_instructions_it_leaves_in_place():
    program = load_teleport()
    routed, _ = route(program, reference_map("ref1"))
    assert all(a is b for a, b in zip(routed.instructions, program.instructions, strict=True))
    program = parse(
        "qreg q[4]; creg c[2];"
        "h q[3];"  # 0: kept
        "cx q[1],q[2];"  # 1: kept, direct on (1, 2)
        "cx q[2],q[1];"  # 2: reversed, new h/cx/h
        "cx q[0],q[2];"  # 3: swaps logical 0 and 1, then a new cx 1 -> 2
        "h q[0];"  # 4: logical 0 now on 1, new
        "h q[3];"  # 5: kept
        "measure q[1] -> c[0];"  # 6: logical 1 now on 0, new
        "measure q[3] -> c[1];"  # 7: kept
    )
    routed, report = route(program, CouplingMap(4, ((0, 1), (1, 2), (2, 3))))
    assert (report.swap_count, report.final_layout) == (1, (1, 0, 2, 3))
    originals = {id(ins): k for k, ins in enumerate(program.instructions)}
    kept = [originals[id(ins)] for ins in routed.instructions if id(ins) in originals]
    assert kept == [0, 1, 5, 7]
    assert len(routed.instructions) == len(program.instructions) + 4 + 3 + 4


def test_compact_keeps_the_instructions_whose_qubits_keep_their_numbers():
    program = load_teleport()
    assert compact(program)[0] is program
    program = Program(5, 1, [
        GateOp(Gate.H, 0),
        GateOp(Gate.CX, 1, control=0),
        GateOp(Gate.CX, 3, control=1),
        GateOp(Gate.X, 3, condition=(0, 1)),
        MeasureOp(1, 0),
        MeasureOp(3, 0),
    ])
    compacted, used = compact(program)
    assert used == (0, 1, 3)
    same = [a is b for a, b in zip(compacted.instructions, program.instructions, strict=True)]
    assert same == [True, True, False, False, True, False]
    assert compacted.instructions[2:4] == [
        GateOp(Gate.CX, 2, control=1),
        GateOp(Gate.X, 2, condition=(0, 1)),
    ]
    assert compacted.instructions[5] == MeasureOp(2, 0)


def test_route_without_cx_needs_no_connectivity():
    program = parse("qreg q[2]; creg c[1]; h q[1]; measure q[1] -> c[0];")
    routed, report = route(program, CouplingMap(2, ()))
    assert report.inserted_gate_count == 0
    assert routed.instructions == program.instructions


def test_routed_cx_always_on_edges_random():
    rng = np.random.default_rng(37)
    for _ in range(30):
        program = random_gate_program(rng, 3)
        cmap = random_connected_map(rng, 5)
        routed, report = route(program, cmap)
        edge_set = set(cmap.edges)
        for ins in routed.instructions:
            if isinstance(ins, GateOp) and ins.kind is Gate.CX:
                assert (ins.control, ins.target) in edge_set
        assert_routed_equivalent(program, routed, report.final_layout)
        direct, reversed_, unsupported = direct_support_count(program, cmap)
        total_cx = sum(
            1 for ins in program.instructions
            if isinstance(ins, GateOp) and ins.kind is Gate.CX
        )
        assert direct + reversed_ + unsupported == total_cx


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_routing_equivalence_on_random_connected_maps(data):
    """Any program fits any connected map of at least its width: 2-6
    physical qubits, programs of 1 qubit up to the map's width."""
    n_physical = data.draw(st.integers(2, 6), label="n_physical")
    n_qubits = data.draw(st.integers(1, n_physical), label="n_qubits")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cmap = random_connected_map(rng, n_physical)
    program = random_gate_program(rng, n_qubits)
    routed, report = route(program, cmap)
    edge_set = set(cmap.edges)
    for ins in routed.instructions:
        if isinstance(ins, GateOp) and ins.kind is Gate.CX:
            assert (ins.control, ins.target) in edge_set
    assert_routed_equivalent(program, routed, report.final_layout)


def test_direct_support_count_reference_maps():
    teleport = load_teleport()
    assert direct_support_count(teleport, reference_map("ref1")) == (2, 0, 0)
    assert direct_support_count(teleport, reference_map("ref2")) == (2, 0, 0)
    assert direct_support_count(teleport, CouplingMap(3, ())) == (0, 0, 2)
    reversed_only = CouplingMap(3, ((2, 1), (1, 0)))
    assert direct_support_count(teleport, reversed_only) == (0, 2, 0)


def test_route_counts_match_direct_support_on_supported_programs():
    """Whenever every cx already sits on an edge, routing inserts no swap
    and classifies each cx as ``direct_support_count`` does."""
    rng = np.random.default_rng(2026)
    checked = 0
    for _ in range(400):
        n_physical = int(rng.integers(2, 6))
        cmap = random_connected_map(rng, n_physical)
        program = random_gate_program(rng, int(rng.integers(2, n_physical + 1)), max_gates=6)
        direct, reversed_, unsupported = direct_support_count(program, cmap)
        if unsupported:
            continue
        _, report = route(program, cmap)
        assert (report.direct_count, report.reversed_count) == (direct, reversed_)
        assert report.swap_count == 0
        checked += 1
    assert checked >= 300


def _corpus_program(rng: np.random.Generator, n_qubits: int) -> Program:
    """Random program with x/z/h, cx, measurements and conditioned x/z."""
    n_cbits = int(rng.integers(1, 4))
    instructions: list[GateOp | MeasureOp] = []
    for _ in range(int(rng.integers(1, 21))):
        roll = int(rng.integers(6))
        qubit = int(rng.integers(n_qubits))
        if roll < 2 and n_qubits >= 2:
            control, target = (int(v) for v in rng.choice(n_qubits, size=2, replace=False))
            instructions.append(GateOp(Gate.CX, target, control=control))
        elif roll == 2:
            instructions.append(MeasureOp(qubit, int(rng.integers(n_cbits))))
        elif roll == 3:
            kind = (Gate.X, Gate.Z)[int(rng.integers(2))]
            instructions.append(GateOp(kind, qubit, condition=(int(rng.integers(n_cbits)), 1)))
        else:
            instructions.append(GateOp((Gate.X, Gate.Z, Gate.H)[int(rng.integers(3))], qubit))
    return Program(n_qubits, n_cbits, instructions)


def test_route_output_is_pinned_on_a_seeded_corpus():
    """``serialize(routed)`` and the report for 300 seeded programs on
    connected maps of up to 8 qubits, often wider than the program so swaps
    pass through ancillas; the digest was recorded before the router became
    one function and must not move."""
    rng = np.random.default_rng(16)
    lines = []
    swaps = ancilla_layouts = 0
    for _ in range(300):
        n_physical = int(rng.integers(2, 9))
        cmap = random_connected_map(rng, n_physical)
        program = _corpus_program(rng, int(rng.integers(1, n_physical + 1)))
        routed, report = route(program, cmap)
        lines.append(serialize(routed))
        lines.append(repr(dataclasses.astuple(report)))
        swaps += report.swap_count
        ancilla_layouts += max(report.final_layout, default=0) >= program.n_qubits
    assert swaps >= 300 and ancilla_layouts >= 50
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3f9eb48c1e7e6bf7d3a0d72e776590d34d1bd1af174a8e9611b08e811814b51f"


def test_program_unitary_oracle_sanity():
    # The kron oracle itself must reproduce the Bell column
    program = parse("qreg q[2]; creg c[0]; h q[0]; cx q[0],q[1];")
    unitary = program_unitary(program)
    np.testing.assert_allclose(
        unitary[:, 0], [2**-0.5, 0, 0, 2**-0.5], atol=1e-12
    )
