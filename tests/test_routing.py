from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    assert_routed_equivalent,
    cx_matrix,
    program_unitary,
    random_connected_map,
    random_gate_program,
)
from qtabu.mapsearch import load_teleport, reference_map
from qtabu.qasm import Program, parse
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


def test_direct_support_count_reference_maps():
    teleport = load_teleport()
    assert direct_support_count(teleport, reference_map("ref1")) == (2, 0, 0)
    assert direct_support_count(teleport, reference_map("ref2")) == (2, 0, 0)
    assert direct_support_count(teleport, CouplingMap(3, ())) == (0, 0, 2)
    reversed_only = CouplingMap(3, ((2, 1), (1, 0)))
    assert direct_support_count(teleport, reversed_only) == (0, 2, 0)


def test_program_unitary_oracle_sanity():
    # The kron oracle itself must reproduce the Bell column
    program = parse("qreg q[2]; creg c[0]; h q[0]; cx q[0],q[1];")
    unitary = program_unitary(program)
    np.testing.assert_allclose(
        unitary[:, 0], [2**-0.5, 0, 0, 2**-0.5], atol=1e-12
    )
