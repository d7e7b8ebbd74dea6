"""Parser and serializer for a small OpenQASM-2-style circuit dialect.

Supported statements, whitespace-insensitive, with ``//`` line comments:

    qreg q[N];   creg c[N];
    x q[i];   z q[i];   h q[i];
    cx q[i],q[j];
    measure q[i] -> c[j];
    if(c[j]==1) x q[i];      (likewise z)

Exactly one quantum register (named ``q``) and one classical register
(named ``c``). Parsing stops at the first error and raises
:class:`QasmParseError` positioned at the offending token.

:func:`compact` rewrites a program onto only the qubits it touches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .statevector import Gate, GateOp, MeasureOp

_ONE_QUBIT_GATES = {"x": Gate.X, "z": Gate.Z, "h": Gate.H}
_KEYWORDS = {"qreg", "creg", "measure", "if", "cx", *_ONE_QUBIT_GATES}


@dataclass
class Program:
    """A parsed circuit: register sizes plus ordered instructions."""

    n_qubits: int
    n_cbits: int
    instructions: list[GateOp | MeasureOp] = field(default_factory=list)


class QasmParseError(Exception):
    """Parse failure with a 1-based source position and an error kind.

    ``kind`` is one of ``syntax``, ``unknown-gate``, ``range``,
    ``redeclaration``.
    """

    def __init__(self, line: int, column: int, kind: str, message: str) -> None:
        super().__init__(f"{line}:{column}: {kind}: {message}")
        self.line = line
        self.column = column
        self.kind = kind
        self.message = message


class _Token(NamedTuple):
    text: str
    offset: int


_TOKEN_RE = re.compile(
    r"//[^\n]*"
    r"|(?P<tok>[A-Za-z_][A-Za-z0-9_]*|\d+|->|==|[\[\];,()])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)"
)


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens: list[_Token] = []
        for match in _TOKEN_RE.finditer(source):
            if match.lastgroup == "tok":
                self.tokens.append(_Token(match.group(), match.start()))
            elif match.lastgroup == "bad":
                bad = _Token(match.group(), match.start())
                raise self.error("syntax", f"unexpected character {bad.text!r}", bad)
        self.pos = 0
        self.n_qubits: int | None = None
        self.n_cbits: int | None = None
        self.instructions: list[GateOp | MeasureOp] = []

    def error(self, kind: str, message: str, token: _Token | None = None) -> QasmParseError:
        """An error at ``token``, or at the end of the source without one."""
        offset = len(self.source) if token is None else token.offset
        line = self.source.count("\n", 0, offset) + 1
        column = offset - self.source.rfind("\n", 0, offset)
        return QasmParseError(line, column, kind, message)

    def next(self) -> _Token:
        if self.pos >= len(self.tokens):
            raise self.error("syntax", "unexpected end of input")
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.next()
        if token.text != text:
            raise self.error("syntax", f"expected {text!r}, got {token.text!r}", token)
        return token

    def expect_int(self, what: str) -> tuple[int, _Token]:
        token = self.next()
        if not token.text.isdigit():
            raise self.error("syntax", f"expected {what}, got {token.text!r}", token)
        return int(token.text), token

    def parse(self) -> Program:
        while self.pos < len(self.tokens):
            self.statement()
        if self.n_qubits is None:
            raise self.error("syntax", "missing qreg declaration")
        if self.n_cbits is None:
            raise self.error("syntax", "missing creg declaration")
        return Program(self.n_qubits, self.n_cbits, self.instructions)

    def statement(self) -> None:
        token = self.next()
        text = token.text
        if text == "qreg":
            self.declaration(token, "q")
        elif text == "creg":
            self.declaration(token, "c")
        elif text in _ONE_QUBIT_GATES:
            qubit = self.qubit_operand()
            self.expect(";")
            self.instructions.append(GateOp(_ONE_QUBIT_GATES[text], qubit))
        elif text == "cx":
            control = self.qubit_operand()
            self.expect(",")
            target = self.qubit_operand()
            self.expect(";")
            if control == target:
                raise self.error("range", "cx control and target must differ", token)
            self.instructions.append(GateOp(Gate.CX, target, control=control))
        elif text == "measure":
            qubit = self.qubit_operand()
            self.expect("->")
            cbit = self.cbit_operand()
            self.expect(";")
            self.instructions.append(MeasureOp(qubit, cbit))
        elif text == "if":
            self.conditioned()
        elif text.isidentifier():
            raise self.error("unknown-gate", f"unknown gate {text!r}", token)
        else:
            raise self.error("syntax", f"unexpected token {text!r}", token)

    def declaration(self, keyword: _Token, name: str) -> None:
        declared = self.n_qubits if name == "q" else self.n_cbits
        if declared is not None:
            raise self.error("redeclaration", f"{keyword.text} already declared", keyword)
        got = self.next()
        if got.text != name:
            raise self.error(
                "syntax", f"register must be named {name!r}, got {got.text!r}", got
            )
        self.expect("[")
        size, _ = self.expect_int("register size")
        self.expect("]")
        self.expect(";")
        if name == "q":
            self.n_qubits = size
        else:
            self.n_cbits = size

    def conditioned(self) -> None:
        self.expect("(")
        cbit = self.cbit_operand()
        self.expect("==")
        value, value_token = self.expect_int("condition value")
        if value != 1:
            raise self.error("syntax", "condition value must be 1", value_token)
        self.expect(")")
        gate_token = self.next()
        if gate_token.text in ("x", "z"):
            kind = _ONE_QUBIT_GATES[gate_token.text]
        elif gate_token.text in _KEYWORDS:
            raise self.error(
                "syntax", f"only x and z may be conditioned, got {gate_token.text!r}", gate_token
            )
        elif gate_token.text.isidentifier():
            raise self.error("unknown-gate", f"unknown gate {gate_token.text!r}", gate_token)
        else:
            raise self.error("syntax", f"expected a gate, got {gate_token.text!r}", gate_token)
        qubit = self.qubit_operand()
        self.expect(";")
        self.instructions.append(GateOp(kind, qubit, condition=(cbit, 1)))

    def operand(self, name: str, size: int | None, what: str) -> int:
        got = self.next()
        if got.text != name:
            raise self.error("syntax", f"expected register {name!r}, got {got.text!r}", got)
        if size is None:
            raise self.error("range", f"{what} used before its register is declared", got)
        self.expect("[")
        index, index_token = self.expect_int(f"{what} index")
        self.expect("]")
        if index >= size:
            raise self.error(
                "range", f"{what} index {index} out of range (register size {size})", index_token
            )
        return index

    def qubit_operand(self) -> int:
        return self.operand("q", self.n_qubits, "qubit")

    def cbit_operand(self) -> int:
        return self.operand("c", self.n_cbits, "classical bit")


def parse(source: str) -> Program:
    """Parse circuit text; raise QasmParseError at the first problem."""
    return _Parser(source).parse()


def _qubits(ins: GateOp | MeasureOp) -> tuple[int, ...]:
    if isinstance(ins, MeasureOp):
        return (ins.qubit,)
    return (ins.target,) if ins.control is None else (ins.control, ins.target)


def compact(program: Program) -> tuple[Program, tuple[int, ...]]:
    """Drop the qubits no instruction touches and renumber the rest 0..k-1.

    Returns the new program and the kept qubits, old qubit ``kept[k]``
    becoming ``k``; one that touches no qubit keeps qubit 0. The touched
    qubits keep their relative order, so every amplitude of the compacted
    state is computed by the same arithmetic as the matching amplitude of
    the full state; the dropped qubits would only have stayed in |0>.
    Classical bits and conditions are untouched. A program that touches
    every qubit comes back unchanged.
    """
    touched = {qubit for ins in program.instructions for qubit in _qubits(ins)}
    used = tuple(sorted(touched)) or (0,)
    if len(used) == program.n_qubits:
        return program, used
    new = {qubit: index for index, qubit in enumerate(used)}

    def relabel(ins: GateOp | MeasureOp) -> GateOp | MeasureOp:
        if isinstance(ins, MeasureOp):
            return replace(ins, qubit=new[ins.qubit])
        control = None if ins.control is None else new[ins.control]
        return replace(ins, target=new[ins.target], control=control)

    return Program(len(used), program.n_cbits, list(map(relabel, program.instructions))), used


def _require(valid: bool, what: str) -> None:
    if not valid:
        raise ValueError(f"program is not serializable: {what}")


def serialize(program: Program) -> str:
    """Render a program in canonical text form, one statement per line.

    Raises ValueError for programs the dialect cannot express (conditions
    with value != 1 or on gates other than x/z, out-of-range indices).
    """
    lines = [f"qreg q[{program.n_qubits}];", f"creg c[{program.n_cbits}];"]
    for ins in program.instructions:
        if isinstance(ins, MeasureOp):
            _require(0 <= ins.qubit < program.n_qubits, f"qubit {ins.qubit} out of range")
            _require(0 <= ins.cbit < program.n_cbits, f"classical bit {ins.cbit} out of range")
            lines.append(f"measure q[{ins.qubit}] -> c[{ins.cbit}];")
            continue
        _require(0 <= ins.target < program.n_qubits, f"qubit {ins.target} out of range")
        prefix = ""
        if ins.condition is not None:
            cbit, value = ins.condition
            _require(ins.kind in (Gate.X, Gate.Z), "only x and z may be conditioned")
            _require(value == 1, "condition value must be 1")
            _require(0 <= cbit < program.n_cbits, f"classical bit {cbit} out of range")
            prefix = f"if(c[{cbit}]==1) "
        if ins.kind is Gate.CX:
            assert ins.control is not None
            _require(0 <= ins.control < program.n_qubits, f"qubit {ins.control} out of range")
            lines.append(f"cx q[{ins.control}],q[{ins.target}];")
        else:
            lines.append(f"{prefix}{ins.kind.value} q[{ins.target}];")
    return "\n".join(lines) + "\n"
