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
error is raised at it. Every gate is read on one path: an ``if(c[j]==1)``
prefix only supplies the condition of the gate that follows it, and one
reader takes each ``[number]``, a register size or an index alike.

The parser is the only home of these rules, and :func:`serialize` is exactly
its inverse: it writes every instruction as given, parses its own text back
and compares the result with the program, so it refuses what :func:`parse`
refuses, with the parser's message, and text that reads back as another
program.

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
        # Declared register sizes, None until the register is declared.
        self.sizes: dict[str, int | None] = {"q": None, "c": None}
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

    def indexed(self, what: str) -> tuple[int, int]:
        """Read ``[ number ]``; return the number and its token index."""
        self.expect("[")
        at = self.pos
        number = self.expect_int(what)
        self.expect("]")
        return number, at

    def parse(self) -> Program:
        while self.pos < len(self.tokens):
            self.statement()
        for keyword in ("qreg", "creg"):
            if self.sizes[keyword[0]] is None:
                raise self.error("syntax", f"missing {keyword} declaration", len(self.tokens))
        return Program(self.sizes["q"], self.sizes["c"], self.instructions)

    def statement(self) -> None:
        start = self.pos
        text = self.next()
        condition = None
        if text == "if":
            # The prefix only supplies the condition; the gate is read below.
            self.expect("(")
            cbit = self.operand("c", "classical bit")
            self.expect("==")
            if self.expect_int("condition value") != 1:
                raise self.error("syntax", "condition value must be 1")
            self.expect(")")
            condition = (cbit, 1)
            text = self.next()
            if text in _KEYWORDS and text not in ("x", "z"):
                raise self.error("syntax", f"only x and z may be conditioned, got {text!r}")
        if text in ("qreg", "creg"):
            self.declaration(text)
        elif text in _ONE_QUBIT_GATES:
            qubit = self.operand("q", "qubit")
            self.expect(";")
            self.instructions.append(GateOp(_ONE_QUBIT_GATES[text], qubit, condition=condition))
        elif text == "cx":
            control = self.operand("q", "qubit")
            self.expect(",")
            target = self.operand("q", "qubit")
            self.expect(";")
            if control == target:
                raise self.error("range", "cx control and target must differ", start)
            self.instructions.append(GateOp(Gate.CX, target, control=control))
        elif text == "measure":
            qubit = self.operand("q", "qubit")
            self.expect("->")
            cbit = self.operand("c", "classical bit")
            self.expect(";")
            self.instructions.append(MeasureOp(qubit, cbit))
        elif text.isidentifier():
            raise self.error("unknown-gate", f"unknown gate {text!r}")
        elif condition:
            raise self.error("syntax", f"expected a gate, got {text!r}")
        else:
            raise self.error("syntax", f"unexpected token {text!r}")

    def declaration(self, keyword: str) -> None:
        name = keyword[0]  # qreg declares q, creg declares c
        if self.sizes[name] is not None:
            raise self.error("redeclaration", f"{keyword} already declared")
        got = self.next()
        if got != name:
            raise self.error("syntax", f"register must be named {name!r}, got {got!r}")
        size, size_at = self.indexed("register size")
        if size > MAX_REGISTER_SIZE:
            message = (
                f"{keyword} size {self.number(size_at)} exceeds the limit of {MAX_REGISTER_SIZE}"
            )
            raise self.error("range", message, size_at)
        self.expect(";")
        self.sizes[name] = size

    def operand(self, name: str, what: str) -> int:
        got = self.next()
        if got != name:
            raise self.error("syntax", f"expected register {name!r}, got {got!r}")
        size = self.sizes[name]
        if size is None:
            raise self.error("range", f"{what} used before its register is declared")
        index, index_at = self.indexed(f"{what} index")
        if index >= size:
            message = f"{what} index {self.number(index_at)} out of range (register size {size})"
            raise self.error("range", message, index_at)
        return index


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
    every qubit comes back unchanged, and an instruction whose qubits keep
    their numbers (all of those below the first dropped qubit) is kept
    itself; only renumbered ones are built anew.
    """
    touched = {qubit for ins in program.instructions for qubit in _qubits(ins)}
    used = tuple(sorted(touched)) or (0,)
    if len(used) == program.n_qubits:
        return program, used
    new = {qubit: index for index, qubit in enumerate(used)}

    def relabel(ins: GateOp | MeasureOp) -> GateOp | MeasureOp:
        if isinstance(ins, MeasureOp):
            qubit = new[ins.qubit]
            return ins if qubit == ins.qubit else MeasureOp(qubit, ins.cbit)
        target = new[ins.target]
        control = None if ins.control is None else new[ins.control]
        if target == ins.target and control == ins.control:
            return ins
        return GateOp(ins.kind, target, control, ins.condition)

    return Program(len(used), program.n_cbits, list(map(relabel, program.instructions))), used


def serialize(program: Program) -> str:
    """Render a program in canonical text form, one statement per line.

    Exactly :func:`parse`'s inverse: every instruction is written as given,
    and the text is parsed back and compared with the program before it is
    returned. A program the parser would refuse (a register past
    ``MAX_REGISTER_SIZE``, an index out of range or not written in digits,
    such as a bool or a float, a condition other than ``==1`` or on a gate
    other than x/z) raises ValueError with the parser's message; one whose
    text reads back as another program (an operand ``"0"`` read as ``0``, a
    condition ``[0, 1]`` read as ``(0, 1)``) raises it naming the first
    such statement.
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
        back = parse(text)
    except QasmParseError as exc:
        raise ValueError(f"program is not serializable: {exc.message}") from exc
    if back != program:
        given = [program.n_qubits, program.n_cbits, *program.instructions]
        read = [back.n_qubits, back.n_cbits, *back.instructions]
        wrong = [line for line, a, b in zip(lines, given, read) if a != b]
        what = repr(wrong[0]) if wrong else "the program"
        raise ValueError(f"program is not serializable: {what} does not read back as given")
    return text
