from __future__ import annotations

import hashlib
import random
import re
import string
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import program_unitary, programs, teleport_distribution
from qtabu.mapsearch import load_teleport
from qtabu.qasm import MAX_REGISTER_SIZE, Program, QasmParseError, compact, parse, serialize
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


@pytest.mark.parametrize(
    "source, position",
    [
        ("qreg q[1]; // note\n  $ creg c[0];", (2, 3, "syntax")),
        ("qreg q[1];\n\tfoo q[0];", (2, 2, "unknown-gate")),
        ("qreg q[1]; creg c[0]; x q[0]\n\n\n", (4, 1, "syntax")),
        ("qreg q[1]; creg c[0]; x q[0] // done", (1, 37, "syntax")),
        ("y q[0];", (1, 1, "unknown-gate")),
    ],
    ids=["after-comment-line", "after-tab", "end-after-blank-lines",
         "end-after-final-comment", "first-column"],
)
def test_error_line_column_and_kind(source, position):
    err = _error(source)
    assert (err.line, err.column, err.kind) == position


def test_stray_character_beats_an_earlier_statement_error():
    err = _error("qreg q[1]; x q[5]; $")
    assert str(err) == "1:20: syntax: unexpected character '$'"
    err = _error("qreg q[1];\ncreg c[1];\ny q[0]; // fine\nx q[0]; - >")
    assert str(err) == "4:9: syntax: unexpected character '-'"


def test_only_ascii_digits_are_numbers():
    err = _error("qreg q[\uff12];")  # a fullwidth 2
    assert str(err) == "1:8: syntax: unexpected character '\uff12'"


def test_register_size_bound():
    largest = parse(f"qreg q[{MAX_REGISTER_SIZE}]; creg c[{MAX_REGISTER_SIZE}];")
    assert (largest.n_qubits, largest.n_cbits) == (MAX_REGISTER_SIZE, MAX_REGISTER_SIZE)
    err = _error("qreg q[1];\ncreg  c[ 4097 ];")
    assert str(err) == "2:10: range: creg size 4097 exceeds the limit of 4096"
    err = _error("qreg q[99999999999999999999]; creg c[1];")
    assert (err.line, err.column, err.kind) == (1, 8, "range")


def test_numbers_of_any_length():
    # A run past the 4,300 digits int() accepts fails like a 5-digit number.
    big = "9" * 5000
    for number, shown in ((big, "9" * 20 + "... (5000 digits)"), ("99999", "99999")):
        err = _error(f"qreg q[{number}]; creg c[1];")
        assert str(err) == f"1:8: range: qreg size {shown} exceeds the limit of 4096"
        err = _error(f"qreg q[2]; creg c[1]; x q[{number}];")
        assert str(err) == f"1:27: range: qubit index {shown} out of range (register size 2)"
        err = _error(f"qreg q[1]; creg c[1]; if(c[0]=={number}) x q[0];")
        assert str(err) == "1:32: syntax: condition value must be 1"
        err = _error(f"qreg q[{number};")
        assert (err.kind, err.message) == ("syntax", "expected ']', got ';'")
    # Leading zeros, however many, still parse.
    for zeros in ("000", "0" * 5000):
        program = parse(f"qreg q[{zeros}2]; creg c[{zeros}]; x q[{zeros}1];")
        assert (program.n_qubits, program.n_cbits) == (2, 0)
        assert program.instructions == [GateOp(Gate.X, 1)]


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
    for n_qubits, n_cbits, keyword in ((4097, 0, "qreg"), (1, 4097, "creg")):
        with pytest.raises(ValueError, match=f"{keyword} size 4097 exceeds the limit of 4096"):
            serialize(Program(n_qubits, n_cbits, []))
    largest = serialize(Program(MAX_REGISTER_SIZE, MAX_REGISTER_SIZE, []))
    assert parse(largest) == Program(MAX_REGISTER_SIZE, MAX_REGISTER_SIZE, [])


def test_serialize_refuses_with_the_parsers_message():
    """``serialize`` writes each instruction as given and parses the text
    back, so an index or condition value that is not a non-negative int is
    refused rather than written as text the parser cannot read, and every
    refusal carries the parser's own message."""
    cases = [
        (Program(2, 0, [GateOp(Gate.X, True)]), "expected qubit index, got 'True'"),
        (Program(2, 1, [MeasureOp(1.0, 0)]), "unexpected character '.'"),
        (Program(2, 1, [GateOp(Gate.X, 0, condition=(0, True))]),
         "expected condition value, got 'True'"),
        (Program(2, 1, [GateOp(Gate.Z, 0, condition=(0, 1.0))]), "unexpected character '.'"),
        (Program(2, 1, [MeasureOp(0, -1)]), "unexpected character '-'"),
        (Program(1, 0, [GateOp(Gate.X, 3)]), "qubit index 3 out of range (register size 1)"),
        (Program(2, 1, [GateOp(Gate.CX, 1, control=0, condition=(0, 1))]),
         "only x and z may be conditioned, got 'cx'"),
    ]
    for program, message in cases:
        with pytest.raises(ValueError) as excinfo:
            serialize(program)
        assert str(excinfo.value) == f"program is not serializable: {message}"


def test_serialize_refuses_text_that_reads_back_as_another_program():
    """Text the parser accepts can still be another program: an operand of
    another type is written as the same digits, and a condition list as the
    same pair. ``serialize`` compares what its text reads back as with the
    program and names the first statement that differs, or the program when
    no statement does."""
    cases = [
        (Program(2, 1, [GateOp(Gate.X, "0")]), "'x q[0];'"),
        (Program(2, 2, [MeasureOp("1", "0")]), "'measure q[1] -> c[0];'"),
        (Program(2, 2, [GateOp(Gate.X, 0, condition=[0, 1])]), "'if(c[0]==1) x q[0];'"),
        # Each statement reads back as given, but into a list, not a tuple.
        (Program(1, 0, (GateOp(Gate.X, 0),)), "the program"),
    ]
    for program, what in cases:
        with pytest.raises(ValueError) as excinfo:
            serialize(program)
        assert str(excinfo.value) == (
            f"program is not serializable: {what} does not read back as given"
        )


def test_readme_dialect_example_parses():
    """The README's "Circuit dialect" example is dialect text holding every
    statement form; ``parse`` itself refuses a source missing either
    declaration."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Circuit dialect", 1)[1].split("```\n")[1]
    instructions = parse(block).instructions
    gates = [ins for ins in instructions if isinstance(ins, GateOp)]
    assert any(ins.kind is not Gate.CX and ins.condition is None for ins in gates)
    assert any(ins.kind is Gate.CX for ins in gates)
    assert any(ins.condition is not None for ins in gates)
    assert any(isinstance(ins, MeasureOp) for ins in instructions)


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


@settings(max_examples=200, deadline=None)
@given(programs())
def test_round_trip_identity_property(program):
    assert parse(serialize(program)) == program


def test_serialize_of_parse_is_stable():
    source = "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nif(c[0]==1) z q[1];\n"
    assert serialize(parse(source)) == source


def test_compact_drops_idle_qubits():
    program = Program(6, 2, [GateOp(Gate.H, 1), GateOp(Gate.CX, 4, control=1), MeasureOp(4, 1)])
    assert compact(program) == (
        Program(2, 2, [GateOp(Gate.H, 0), GateOp(Gate.CX, 1, control=0), MeasureOp(1, 1)]),
        (1, 4),
    )


def test_compact_keeps_relative_order():
    program = Program(8, 1, [GateOp(Gate.CX, 2, control=7), GateOp(Gate.X, 5), MeasureOp(2, 0)])
    compacted, qubits = compact(program)
    assert qubits == (2, 5, 7)
    assert compacted.instructions == [
        GateOp(Gate.CX, 0, control=2), GateOp(Gate.X, 1), MeasureOp(0, 0)
    ]


def test_compact_leaves_a_fully_used_program_unchanged():
    teleport = load_teleport()
    assert compact(teleport) == (teleport, (0, 1, 2))


def test_compact_keeps_conditions_and_classical_bits():
    program = Program(5, 3, [
        GateOp(Gate.H, 3), MeasureOp(3, 2), GateOp(Gate.Z, 1, condition=(2, 1)), MeasureOp(1, 0),
    ])
    assert compact(program) == (Program(2, 3, [
        GateOp(Gate.H, 1), MeasureOp(1, 2), GateOp(Gate.Z, 0, condition=(2, 1)), MeasureOp(0, 0),
    ]), (1, 3))


def test_compact_keeps_qubit_0_of_a_program_touching_none():
    assert compact(Program(3, 0, [])) == (Program(1, 0, []), (0,))
    assert compact(Program(1, 2, [])) == (Program(1, 2, []), (0,))


def test_compact_undoes_the_padding_of_a_direct_route():
    teleport = load_teleport()
    text = resources.files("qtabu").joinpath("assets/sample_16q_map.txt").read_text()
    routed, report = route(teleport, parse_coupling_map(text))
    assert routed.n_qubits == 16 and report.swap_count == 0
    compacted, _ = compact(routed)
    assert compacted == teleport
    exact = branch_probabilities(compacted)
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


@settings(max_examples=200, deadline=None)
@given(programs(), st.integers(0, 2**32 - 1))
def test_compacted_program_runs_like_the_full_one(program, seed):
    compacted, used = compact(program)
    assert list(used) == _touched(program)
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


ALL_FORMS = """\
qreg q[4];
creg c[3];
x q[0]; z q[1]; h q[2];
cx q[0],q[3];
measure q[1] -> c[0];
if(c[0]==1) x q[2];
if(c[2]==1) z q[3];
measure q[3] -> c[2];
"""
SPACING = (
    "// header comment\r\n\tqreg\tq [ 2 ] ;\r\ncreg c[2]; // trailing\r\n"
    "\th q[0];\t// tab then comment\r\ncx q[0] , q[1];\r\n\r\n"
    "measure q[0]->c[1];\r\n// closing comment"
)
_SNIPPETS = (
    "qreg", "creg", "q", "c", "[", "]", ";", ",", "->", "==", "(", ")", "if", "x", "z", "h",
    "cx", "measure", "0", "1", "7", "12", "//", " ", "\n", "\r\n", "\t", "-", "=", "$", "y",
    "q[5]", "c[3]", "qreg q[2];", "creg c[1];", "x q[1];", "cx q[2],q[2];",
)


def _mutated_sources(count: int, seed: int) -> list[str]:
    """ASCII mutations of four bases: insertions, deletions, replacements and
    duplicated runs. No source holds a run of 4 or more digits, so every
    register size stays below ``MAX_REGISTER_SIZE``."""
    rng = random.Random(seed)
    teleport = resources.files("qtabu").joinpath("assets/teleport.qasm").read_text()
    bases = (teleport, ALL_FORMS, SPACING, "")
    alphabet = string.printable
    sources: list[str] = []
    while len(sources) < count:
        text = bases[len(sources) % len(bases)]
        for _ in range(rng.randint(1, 4)):
            # Half the edits start where a statement may start.
            starts = [0, *(k + 1 for k, char in enumerate(text) if char in ";\n")]
            at = rng.choice(starts) if rng.random() < 0.5 else rng.randint(0, len(text))
            span = rng.randint(1, 12)
            kind = rng.randrange(4)
            if kind == 0:
                piece = rng.choice(_SNIPPETS) if rng.random() < 0.5 else rng.choice(alphabet)
                text = text[:at] + piece + text[at:]
            elif kind == 1:
                text = text[:at] + text[at + span:]
            elif kind == 2:
                text = text[:at] + rng.choice(alphabet) + text[at + 1:]
            else:
                text = text[:at + span] + text[at:at + span] + text[at + span:]
        if not re.search(r"[0-9]{4}", text):
            sources.append(text)
    return sources


def _outcome(source: str) -> str:
    try:
        return repr(parse(source))
    except QasmParseError as err:
        return repr((err.line, err.column, err.kind, err.message))


def test_parse_outcomes_of_a_mutated_corpus_are_pinned():
    sources = _mutated_sources(3000, seed=20261019)
    outcomes = [_outcome(source) for source in sources]
    parsed = sum(not outcome.startswith("(") for outcome in outcomes)
    assert 100 < parsed < 2900  # the corpus reaches both programs and errors
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "bb25e1b8059b756e97d62700a63a059b389d6b48db50f4adb925be12bf2e6f5b"
