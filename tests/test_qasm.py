from __future__ import annotations

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import program_unitary, teleport_distribution
from qtabu.mapsearch import load_teleport
from qtabu.qasm import Program, QasmParseError, compact, parse, serialize
from qtabu.routing import parse_coupling_map, route
from qtabu.statevector import Gate, GateOp, MeasureOp, branch_probabilities, run_program


def test_parse_single_gate():
    program = parse("qreg q[1]; creg c[1]; h q[0];")
    assert program == Program(1, 1, [GateOp(Gate.H, 0)])


def test_parse_all_statement_forms():
    source = """
    // full statement zoo
    qreg q[3];
    creg c[2];
    x q[0]; z q[1]; h q[2];
    cx q[0],q[2];
    measure q[1] -> c[0];
    if(c[0]==1) x q[2];
    if(c[1]==1) z q[0];
    """
    program = parse(source)
    assert program.n_qubits == 3
    assert program.n_cbits == 2
    assert program.instructions == [
        GateOp(Gate.X, 0),
        GateOp(Gate.Z, 1),
        GateOp(Gate.H, 2),
        GateOp(Gate.CX, 2, control=0),
        MeasureOp(1, 0),
        GateOp(Gate.X, 2, condition=(0, 1)),
        GateOp(Gate.Z, 0, condition=(1, 1)),
    ]


def test_parse_is_whitespace_insensitive():
    compact = parse("qreg q[2];creg c[1];cx q[0],q[1];measure q[0]->c[0];")
    spread = parse("qreg q[2] ;\n creg c[1] ;\n cx q[ 0 ] , q[ 1 ] ;\nmeasure q[0] -> c[0];")
    assert compact == spread


def test_comments_ignored():
    program = parse("// leading\nqreg q[1]; // trailing\ncreg c[0];\nx q[0]; // gate\n")
    assert program.instructions == [GateOp(Gate.X, 0)]


def _error(source: str) -> QasmParseError:
    with pytest.raises(QasmParseError) as info:
        parse(source)
    return info.value


def test_error_rendering_format():
    err = _error("qreg q[1]; creg c[1]; y q[0];")
    assert str(err) == "1:23: unknown-gate: unknown gate 'y'"
    assert (err.line, err.column, err.kind) == (1, 23, "unknown-gate")


def test_unknown_gate_on_own_line():
    err = _error("qreg q[2];\ncreg c[0];\nfoo q[0];")
    assert (err.line, err.column, err.kind) == (3, 1, "unknown-gate")


def test_redeclaration_error():
    err = _error("qreg q[2];\nqreg q[2];")
    assert (err.kind, err.line, err.column) == ("redeclaration", 2, 1)
    err = _error("qreg q[2]; creg c[1]; creg c[1];")
    assert err.kind == "redeclaration"


def test_range_errors():
    err = _error("qreg q[2];\ncreg c[1];\nx q[5];")
    assert err.kind == "range"
    assert (err.line, err.column) == (3, 5)
    assert "qubit index 5" in err.message
    err = _error("qreg q[2]; creg c[1]; measure q[0] -> c[3];")
    assert err.kind == "range"
    err = _error("x q[0]; qreg q[1]; creg c[0];")
    assert err.kind == "range"  # register used before declaration
    err = _error("qreg q[2]; creg c[0]; cx q[1],q[1];")
    assert err.kind == "range"  # control and target must differ


def test_syntax_errors():
    assert _error("qreg q[1]; creg c[0]; cx q[0];").kind == "syntax"
    assert _error("qreg q[1]; creg c[0]; x q[0]").kind == "syntax"  # missing semicolon
    assert _error("qreg q[1]; creg c[1]; if(c[0]==2) x q[0];").kind == "syntax"
    assert _error("qreg q[1]; creg c[1]; if(c[0]==1) h q[0];").kind == "syntax"
    assert _error("qreg q[1]; creg c[1]; if(c[0]==1) cx q[0],q[1];").kind == "syntax"
    assert _error("qreg r[1]; creg c[0];").kind == "syntax"  # register must be named q
    assert _error("qreg q[1]; creg c[0]; x q[0]; $").kind == "syntax"
    assert _error("qreg q[1];").kind == "syntax"  # missing creg
    assert _error("").kind == "syntax"


def test_conditioned_unknown_gate():
    assert _error("qreg q[1]; creg c[1]; if(c[0]==1) y q[0];").kind == "unknown-gate"


def test_error_positions_inside_source():
    for source in ("qreg q[1]; creg c[0]; x q[9];", "qreg q[1]", "qreg q[1]; creg c[0]; x"):
        err = _error(source)
        lines = source.splitlines() or [""]
        assert 1 <= err.line <= len(lines)
        assert err.column >= 1


def test_serialize_canonical_form():
    text = serialize(Program(1, 0, [GateOp(Gate.X, 0)]))
    assert text == "qreg q[1];\ncreg c[0];\nx q[0];\n"


def test_serialize_empty_program_headers_only():
    assert serialize(Program(2, 1, [])) == "qreg q[2];\ncreg c[1];\n"


def test_serialize_rejects_inexpressible():
    with pytest.raises(ValueError, match="conditioned"):
        serialize(Program(2, 1, [GateOp(Gate.CX, 1, control=0, condition=(0, 1))]))
    with pytest.raises(ValueError, match="must be 1"):
        serialize(Program(1, 1, [GateOp(Gate.X, 0, condition=(0, 0))]))
    with pytest.raises(ValueError, match="out of range"):
        serialize(Program(1, 0, [GateOp(Gate.X, 3)]))


def _random_program(rng: np.random.Generator) -> Program:
    n_qubits = int(rng.integers(1, 6))
    n_cbits = int(rng.integers(1, 4))
    instructions: list[GateOp | MeasureOp] = []
    for _ in range(int(rng.integers(0, 12))):
        choice = rng.integers(5)
        qubit = int(rng.integers(n_qubits))
        cbit = int(rng.integers(n_cbits))
        if choice == 0 and n_qubits >= 2:
            control, target = (int(v) for v in rng.choice(n_qubits, size=2, replace=False))
            instructions.append(GateOp(Gate.CX, target, control=control))
        elif choice == 1:
            instructions.append(MeasureOp(qubit, cbit))
        elif choice == 2:
            kind = Gate.X if rng.random() < 0.5 else Gate.Z
            instructions.append(GateOp(kind, qubit, condition=(cbit, 1)))
        else:
            kind = (Gate.X, Gate.Z, Gate.H)[int(rng.integers(3))]
            instructions.append(GateOp(kind, qubit))
    return Program(n_qubits, n_cbits, instructions)


def test_round_trip_identity_on_random_programs():
    rng = np.random.default_rng(31)
    for _ in range(50):
        program = _random_program(rng)
        assert parse(serialize(program)) == program


def test_serialize_of_parse_is_stable():
    source = "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nif(c[0]==1) z q[1];\n"
    assert serialize(parse(source)) == source


def test_compact_drops_idle_qubits():
    program = Program(6, 2, [GateOp(Gate.H, 1), GateOp(Gate.CX, 4, control=1), MeasureOp(4, 1)])
    assert compact(program) == Program(
        2, 2, [GateOp(Gate.H, 0), GateOp(Gate.CX, 1, control=0), MeasureOp(1, 1)]
    )


def test_compact_keeps_relative_order():
    program = Program(8, 1, [GateOp(Gate.CX, 2, control=7), GateOp(Gate.X, 5), MeasureOp(2, 0)])
    assert compact(program).instructions == [
        GateOp(Gate.CX, 0, control=2), GateOp(Gate.X, 1), MeasureOp(0, 0)
    ]


def test_compact_leaves_a_fully_used_program_unchanged():
    teleport = load_teleport()
    assert compact(teleport) == teleport


def test_compact_keeps_conditions_and_classical_bits():
    program = Program(5, 3, [
        GateOp(Gate.H, 3), MeasureOp(3, 2), GateOp(Gate.Z, 1, condition=(2, 1)), MeasureOp(1, 0),
    ])
    assert compact(program) == Program(2, 3, [
        GateOp(Gate.H, 1), MeasureOp(1, 2), GateOp(Gate.Z, 0, condition=(2, 1)), MeasureOp(0, 0),
    ])


def test_compact_undoes_the_padding_of_a_direct_route():
    teleport = load_teleport()
    text = resources.files("qtabu").joinpath("assets/sample_16q_map.txt").read_text()
    routed, report = route(teleport, parse_coupling_map(text))
    assert routed.n_qubits == 16 and report.swap_count == 0
    assert compact(routed) == teleport
    exact = branch_probabilities(compact(routed))
    expected = teleport_distribution(1.0, 0.0)
    for key in set(exact) | set(expected):
        assert abs(exact.get(key, 0.0) - expected.get(key, 0.0)) < 1e-12


def _touched(program: Program) -> list[int]:
    qubits: set[int] = set()
    for ins in program.instructions:
        if isinstance(ins, MeasureOp):
            qubits.add(ins.qubit)
        else:
            qubits.update(q for q in (ins.target, ins.control) if q is not None)
    return sorted(qubits)


@st.composite
def padded_programs(draw):
    """A program on at most 5 qubits, placed among up to 10 with idle
    qubits between and around them."""
    n_qubits = draw(st.integers(1, 10))
    used = sorted(draw(st.sets(st.integers(0, n_qubits - 1), min_size=1, max_size=5)))
    n_cbits = draw(st.integers(1, 3))
    qubit = st.sampled_from(used)
    cbit = st.integers(0, n_cbits - 1)
    choices = [
        st.builds(GateOp, st.sampled_from([Gate.X, Gate.Z, Gate.H]), qubit),
        st.builds(MeasureOp, qubit, cbit),
        st.builds(
            lambda kind, target, bit: GateOp(kind, target, condition=(bit, 1)),
            st.sampled_from([Gate.X, Gate.Z]), qubit, cbit,
        ),
    ]
    if len(used) >= 2:
        pairs = st.tuples(qubit, qubit).filter(lambda pair: pair[0] != pair[1])
        choices.append(pairs.map(lambda pair: GateOp(Gate.CX, pair[1], control=pair[0])))
    instructions = draw(st.lists(st.one_of(choices), min_size=1, max_size=14))
    return Program(n_qubits, n_cbits, instructions), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(padded_programs())
def test_compacted_program_runs_like_the_full_one(case):
    program, seed = case
    compacted = compact(program)
    used = _touched(program)
    assert compacted.n_qubits == len(used)
    assert compacted.n_cbits == program.n_cbits

    full_state, full_bits = run_program(program, np.random.default_rng(seed))
    small_state, small_bits = run_program(compacted, np.random.default_rng(seed))
    assert small_bits == full_bits
    # The full state is the compacted one with every dropped qubit in |0>.
    index = np.zeros(2**len(used), dtype=int)
    for position, qubit in enumerate(used):
        index |= ((np.arange(index.size) >> position) & 1) << qubit
    embedded = np.zeros(2**program.n_qubits, dtype=complex)
    embedded[index] = small_state.amplitudes
    np.testing.assert_allclose(full_state.amplitudes, embedded, rtol=0, atol=1e-12)

    full_dist = branch_probabilities(program)
    small_dist = branch_probabilities(compacted)
    for key in set(full_dist) | set(small_dist):
        assert abs(full_dist.get(key, 0.0) - small_dist.get(key, 0.0)) <= 1e-12

    if all(isinstance(ins, GateOp) and ins.condition is None for ins in program.instructions):
        expected = program_unitary(compacted)[:, 0]
        np.testing.assert_allclose(small_state.amplitudes, expected, rtol=0, atol=1e-12)
