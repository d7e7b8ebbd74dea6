"""The CLI's error contract under mutated inputs.

Seeded mutations of the bundled circuit, the 16-qubit map, a 4-item
instance and a candidate list, with small and malformed flag values, run
through ``simulate``, ``route``, ``qts``, ``search-map`` and
``bench-teleport`` in process. Every call must exit 0-3, end stderr with
one labelled line when it fails, and finish within a time bound. The
mutations add what hand-found failures came from: numbers past Python's
4,300-digit conversion limit, quoted or fractional map endpoints, and bytes
that are not UTF-8.

Tier-1 runs a few seconds of examples; set ``QTABU_FUZZ_EXAMPLES`` to run
more.
"""

from __future__ import annotations

import io
import os
import re
import signal
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path
from time import perf_counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtabu.cli import main

ASSETS = resources.files("qtabu") / "assets"
CIRCUIT = (ASSETS / "teleport.qasm").read_bytes()
MAP = (ASSETS / "sample_16q_map.txt").read_bytes()
INSTANCE = b"4 7\n10 5\n7 4\n4 2\n3 1\n"
CANDIDATES = b"[[0, 1], [1, 2], [2, 0], [1, 0], [0, 2]]\n"

HUGE = b"9" * 4400
TOKENS = [
    HUGE, b"-" + HUGE, b"0." + HUGE, b"1e" + HUGE, b"1e200", b"1e400", b"-1", b"1.5", b"2.0",
    b'"1"', b"nan", b"inf", b"true", b"null", b"\xff", b"\xc3\x28", b"\x00", b"\r", b"\t",
    b"\xe2\x80\xa8", b"[", b"]", b",", b"\n", b";", b"->", b"q[", b"c[", b"qreg", b"creg",
    b"cx", b"h", b"x", b"z", b"measure", b"if(c[0]==1)", b"==", b"//", b" ", b"0", b"1",
    b"2", b"15", b"16", b"17", b"99999",
]
# Flag values: small valid ones, and ones each flag must refuse.
BAD_NUMBERS = ["0", "-1", "1.5", "1e3", "x", "", HUGE.decode(), "-" + HUGE.decode()]
SMALL = ["1", "2", "8", "30"]
LABELLED = re.compile(
    r"(usage error|parse error|engine error|simulate error|serialize error|routing error): \S"
)
# Lines stderr may hold besides a failure: the seed echo and ``# `` notes
# (the routing summary, an unroutable winner).
PREAMBLE = re.compile(r"seed=\d+|# \S.*")
SECONDS_PER_CALL = 5.0
EXAMPLES = int(os.environ.get("QTABU_FUZZ_EXAMPLES", "150"))


@st.composite
def mutated(draw, base: bytes) -> bytes:
    """``base`` with up to four spans inserted, replaced, deleted or doubled."""
    data = bytearray(base)
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 8)))
        chunk = draw(st.sampled_from(TOKENS) | st.binary(max_size=4))
        kind = draw(st.sampled_from(("insert", "replace", "delete", "double")))
        if kind == "insert":
            data[start:start] = chunk
        elif kind == "replace":
            data[start:end] = chunk
        elif kind == "delete":
            del data[start:end]
        else:
            data[start:start] = data[start:end]
    return bytes(data)


def flag(name: str, good: list[str]):
    """No flag, or ``name`` with a valid or a malformed value."""
    value = st.sampled_from(good) | st.sampled_from(BAD_NUMBERS)
    return st.just([]) | value.map(lambda v: [name, v])


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, bytes]]:
    """An argv with ``{name}`` placeholders for the files it reads, and the
    bytes of each file."""
    command = draw(st.sampled_from(["simulate", "route", "qts", "search-map", "bench-teleport"]))
    files: dict[str, bytes] = {}
    argv = [command]
    if command in ("simulate", "route", "search-map"):
        files["circuit"] = draw(mutated(CIRCUIT))
        argv.append("{circuit}")
    if command in ("simulate", "route") and draw(st.booleans()):
        files["map"] = draw(mutated(MAP))
        argv += ["--map", "{map}"]
    if command == "qts":
        files["instance"] = draw(mutated(INSTANCE))
        argv.append("{instance}")
    if command == "search-map":
        if draw(st.booleans()):
            files["candidates"] = draw(mutated(CANDIDATES))
            argv += ["--candidates", "{candidates}"]
        argv += draw(flag("--physical", ["2", "3", "5"]))
        argv += draw(flag("--budget", ["0", "1", "3"]))
        argv += draw(flag("--runs", ["1", "2"]))
    if command in ("qts", "search-map"):
        argv += ["--max-iter", draw(st.sampled_from(SMALL + BAD_NUMBERS))]
        argv += draw(flag("--stagnation", SMALL))
        argv += draw(flag("--tenure", SMALL))
        argv += draw(st.just([]) | st.sampled_from(["--population=without_replacement",
                                                     "--population=sideways"]).map(lambda a: [a]))
    if command in ("simulate", "bench-teleport"):
        argv += ["--shots", draw(st.sampled_from(["1", "16", "64"] + BAD_NUMBERS))]
    if command != "route":
        argv += draw(flag("--seed", ["0", "7", str(2**32), "9" * 40]))
    return argv, files


class _Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise _Overrun(f"a call ran past {SECONDS_PER_CALL} s")


def run_in_process(argv: list[str], files: dict[str, bytes]) -> tuple[int, str, float]:
    """``main`` on ``argv`` with its files written out: the exit code, the
    captured stderr and the seconds the call took, stopped by an alarm
    past the bound."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in files.items():
            paths["{" + name + "}"] = path = str(Path(tmp) / name)
            Path(path).write_bytes(data)
        argv = [paths.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_CALL)
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return code, err.getvalue(), perf_counter() - start


@settings(
    max_examples=EXAMPLES,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_mutated_inputs_keep_the_error_contract(invocation):
    argv, files = invocation
    code, err, seconds = run_in_process(argv, files)
    assert code in (0, 1, 2, 3), err
    assert seconds < SECONDS_PER_CALL
    lines = err.splitlines()
    if code == 0:
        assert all(PREAMBLE.fullmatch(line) for line in lines), err
    else:
        assert lines and LABELLED.match(lines[-1]), err
        assert all(PREAMBLE.fullmatch(line) for line in lines[:-1]), err
