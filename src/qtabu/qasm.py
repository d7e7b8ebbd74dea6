"""Parser and serializer for a small OpenQASM-2-style circuit dialect.

Supported statements, whitespace-insensitive, with ``//`` line comments:

    qreg q[N];   creg c[N];
    x q[i];   z q[i];   h q[i];
    cx q[i],q[j];
    measure q[i] -> c[j];
    if(c[j]==1) x q[i];      (likewise z)

Exactly one quantum register (named ``q``) and one classical register
(named ``c``), each of at most ``MAX_REGISTER_SIZE`` bits. Numbers are ASCII
digits. Parsing stops at the first error and raises :class:`QasmParseError`
positioned at the offending token. A stray character fails before any
statement is parsed. The tokenizer keeps only the token texts; a token's
offset in the source is found, by scanning the source again, only when an
error is raised at it.

The parser is the only home of these rules: :func:`serialize` writes every
instruction as given and parses its own text back, so it refuses exactly
what :func:`parse` refuses, with the parser's message.

:func:`compact` rewrites a program onto only the qubits it touches.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from itertools import islice

from .statevector import Gate, GateOp, MeasureOp

# Largest register ``qreg``/``creg`` may declare.
MAX_REGISTER_SIZE = 4096
# Numbers past this many digits, leading zeros aside, read as 10**_MAX_DIGITS:
# out of every range here, and int() refuses a run of over 4,300 digits.
_MAX_DIGITS = 20

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


# One match per token: skip whitespace and comments, then take a token, a
# stray character, or the end of the source. The skip never backtracks:
# whatever follows it matches the stray-character or end alternative.
_TOKEN_RE = re.compile(
    r"(?:\s+|//[^\n]*)*"
    r"([A-Za-z_][A-Za-z0-9_]*|[0-9]+|->|==|[\[\];,()]|.|\Z)"
)
# A one-character match outside this set is a stray character.
_ONE_CHAR_TOKENS = frozenset(string.ascii_letters + string.digits + "_[];,()")


class _Parser:
    """Recursive descent over the token texts; ``pos`` indexes the next one."""

    def __init__(self, source: str) -> None:
        self.source = source
        tokens = _TOKEN_RE.findall(source)
        # The end of the source matches as the first empty token.
        del tokens[tokens.index(""):]
        self.tokens = tokens
        strays = {text for text in set(tokens) if len(text) == 1} - _ONE_CHAR_TOKENS
        if strays:
            at = min(map(tokens.index, strays))
            raise self.error("syntax", f"unexpected character {tokens[at]!r}", at)
        self.pos = 0
        self.n_qubits: int | None = None
        self.n_cbits: int | None = None
        self.instructions: list[GateOp | MeasureOp] = []

    def error(self, kind: str, message: str, at: int | None = None) -> QasmParseError:
        """An error at token index ``at``, by default the last token read.

        Index ``len(tokens)`` is the end of the source."""
        if at is None:
            at = self.pos - 1
        match = next(islice(_TOKEN_RE.finditer(self.source), at, None))
        offset = match.start(1)
        line = self.source.count("\n", 0, offset) + 1
        column = offset - self.source.rfind("\n", 0, offset)
        return QasmParseError(line, column, kind, message)

    def next(self) -> str:
        if self.pos >= len(self.tokens):
            raise self.error("syntax", "unexpected end of input", len(self.tokens))
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> None:
        got = self.next()
        if got != text:
            raise self.error("syntax", f"expected {text!r}, got {got!r}")

    def expect_int(self, what: str) -> int:
        got = self.next()
        if not got.isdigit():
            raise self.error("syntax", f"expected {what}, got {got!r}")
        digits = got.lstrip("0")
        return int(digits or "0") if len(digits) <= _MAX_DIGITS else 10**_MAX_DIGITS

    def number(self, at: int) -> str:
        """The number at token index ``at`` as a message shows it."""
        digits = self.tokens[at].lstrip("0") or "0"
        if len(digits) <= _MAX_DIGITS:
            return digits
        return f"{digits[:_MAX_DIGITS]}... ({len(digits)} digits)"

    def parse(self) -> Program:
        while self.pos < len(self.tokens):
            self.statement()
        if self.n_qubits is None:
            raise self.error("syntax", "missing qreg declaration", len(self.tokens))
        if self.n_cbits is None:
            raise self.error("syntax", "missing creg declaration", len(self.tokens))
        return Program(self.n_qubits, self.n_cbits, self.instructions)

    def statement(self) -> None:
        start = self.pos
        text = self.next()
        if text == "qreg":
            self.declaration(text, "q")
        elif text == "creg":
            self.declaration(text, "c")
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
                raise self.error("range", "cx control and target must differ", start)
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
            raise self.error("unknown-gate", f"unknown gate {text!r}")
        else:
            raise self.error("syntax", f"unexpected token {text!r}")

    def declaration(self, keyword: str, name: str) -> None:
        declared = self.n_qubits if name == "q" else self.n_cbits
        if declared is not None:
            raise self.error("redeclaration", f"{keyword} already declared")
        got = self.next()
        if got != name:
            raise self.error("syntax", f"register must be named {name!r}, got {got!r}")
        self.expect("[")
        size_at = self.pos
        size = self.expect_int("register size")
        self.expect("]")
        if size > MAX_REGISTER_SIZE:
            message = (
                f"{keyword} size {self.number(size_at)} exceeds the limit of {MAX_REGISTER_SIZE}"
            )
            raise self.error("range", message, size_at)
        self.expect(";")
        if name == "q":
            self.n_qubits = size
        else:
            self.n_cbits = size

    def conditioned(self) -> None:
        self.expect("(")
        cbit = self.cbit_operand()
        self.expect("==")
        if self.expect_int("condition value") != 1:
            raise self.error("syntax", "condition value must be 1")
        self.expect(")")
        gate = self.next()
        if gate in ("x", "z"):
            kind = _ONE_QUBIT_GATES[gate]
        elif gate in _KEYWORDS:
            raise self.error("syntax", f"only x and z may be conditioned, got {gate!r}")
        elif gate.isidentifier():
            raise self.error("unknown-gate", f"unknown gate {gate!r}")
        else:
            raise self.error("syntax", f"expected a gate, got {gate!r}")
        qubit = self.qubit_operand()
        self.expect(";")
        self.instructions.append(GateOp(kind, qubit, condition=(cbit, 1)))

    def operand(self, name: str, size: int | None, what: str) -> int:
        got = self.next()
        if got != name:
            raise self.error("syntax", f"expected register {name!r}, got {got!r}")
        if size is None:
            raise self.error("range", f"{what} used before its register is declared")
        self.expect("[")
        index_at = self.pos
        index = self.expect_int(f"{what} index")
        self.expect("]")
        if index >= size:
            message = f"{what} index {self.number(index_at)} out of range (register size {size})"
            raise self.error("range", message, index_at)
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
            return MeasureOp(new[ins.qubit], ins.cbit)
        control = None if ins.control is None else new[ins.control]
        return GateOp(ins.kind, new[ins.target], control, ins.condition)

    return Program(len(used), program.n_cbits, list(map(relabel, program.instructions))), used


def serialize(program: Program) -> str:
    """Render a program in canonical text form, one statement per line.

    Every instruction is written as given, and the text is parsed back
    before it is returned: the parser is the dialect's one rulebook, so a
    program it would refuse (a register past ``MAX_REGISTER_SIZE``, an
    index out of range or not written in digits, such as a bool or a float,
    a condition other than ``==1`` or on a gate other than x/z) raises
    ValueError with the parser's message, and every text returned reads
    back.
    """
    lines = [f"qreg q[{program.n_qubits}];", f"creg c[{program.n_cbits}];"]
    for ins in program.instructions:
        if isinstance(ins, MeasureOp):
            lines.append(f"measure q[{ins.qubit}] -> c[{ins.cbit}];")
            continue
        prefix = ""
        if ins.condition is not None:
            cbit, value = ins.condition
            prefix = f"if(c[{cbit}]=={value}) "
        operands = ",".join(f"q[{qubit}]" for qubit in _qubits(ins))
        lines.append(f"{prefix}{ins.kind.value} {operands};")
    text = "\n".join(lines) + "\n"
    try:
        parse(text)
    except QasmParseError as exc:
        raise ValueError(f"program is not serializable: {exc.message}") from exc
    return text
