"""Seeded CLI output pinned by digest.

Each case runs one subcommand through ``cli.main`` and hashes its exit
code, stdout and stderr, so every count, every ``repr``-rendered float and
every summary line is part of the digest. The digests were recorded from
the simulator that ran every shot on all routed physical qubits. The
``qts`` and ``search-map`` digests were last re-recorded when
``best_iter``/``best_iteration`` became the iteration at which the best
was first reached. A deliberate change to seeded output re-records them
and says so in CHANGES.md. The ``--help`` digests pin every help text at
80 columns.
"""

from __future__ import annotations

import hashlib
from importlib import resources

import pytest

from qtabu.cli import main

ASSETS = resources.files("qtabu").joinpath("assets")
TELEPORT = str(ASSETS.joinpath("teleport.qasm"))
MAP_16Q = str(ASSETS.joinpath("sample_16q_map.txt"))

BELL = (
    "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
    "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
)
# No measurement, and cx q[0],q[5] is not an edge of the 16-qubit map, so
# the routed state has SWAPs and is sampled over all 16 physical bits.
UNMEASURED = "qreg q[6];\ncreg c[0];\nh q[0];\ncx q[0],q[5];\nh q[3];\n"
INSTANCE = "6 9\n10 5\n7 4\n4 2\n3 1\n8 3\n2.5 1.5\n"

CASES = {
    **{
        f"simulate-teleport-16q-seed{seed}": (
            ["simulate", TELEPORT, "--map", MAP_16Q, "--shots", "64", "--seed", str(seed)],
            digest,
        )
        for seed, digest in enumerate([
            "5905b834d2f62997f85b7ba2395fc9e4940f1ce2a5b33d40ab52624cc4aab19e",
            "05ecec60553a4f16e76a23986fd0224043c14babd7c4bfbed101a10bc0de9887",
            "a4e7624512730f688521cf6f1d6d835641893f73cd2ec759413254043a1d766f",
            "f3dcb9d3f3a6ff13529c9544212c7dfa2679493ff475fd06d476f2b5764d0e73",
            "7431d43d748b627a8f16cfe49e245778f364a9679ad92acb2cbdddaebe7a7763",
            "d73109ab3846ac702e88dfa33d3d6e501cd21a7261530fde34c5001f997c57d8",
            "c4aa9c3ea29d5e51c60306e6b8b0758608abed71360711bb8846a8d29ef560ab",
            "4fe902ff8d61f90aad02b3d1b3ce2c2dcbe1e2011a1938f3f77ee68761c2b11e",
            "dd838b7f81b07f01dc79ad1dee73bad52a310046d0cf0df657199119729957d6",
            "49bfa4f9106c236338988ccd723d601d271bcf521191f2e451bce2bbbf0a1333",
        ])
    },
    "simulate-bell-unrouted": (
        ["simulate", "{bell}", "--shots", "500", "--seed", "3"],
        "2e3264412694642b17599018568ceee60fb724da1afbc4e29336e67c6893785d",
    ),
    "simulate-unmeasured-16q": (
        ["simulate", "{unmeasured}", "--map", MAP_16Q, "--shots", "256", "--seed", "4"],
        "3afac49c1a05598b3ce765c4e463f462ecd862effc8d67a0db451fc99cb79cfe",
    ),
    "route-teleport-16q": (
        ["route", TELEPORT, "--map", MAP_16Q],
        "4dc67282f04129d5b59303f4d332c2b79316ba048d146b01f1f666ed05bbdc3f",
    ),
    "route-unmeasured-16q": (
        ["route", "{unmeasured}", "--map", MAP_16Q],
        "6d9cadb7ad86c722d6aef8592ad92a78b6bb7f8139af237c8982f2b9594631b9",
    ),
    "qts": (
        ["qts", "{instance}", "--max-iter", "80", "--seed", "5"],
        "f188cd5840398161447fb76ed5c8334665ee40ff8c3c969ee78233ad015de9eb",
    ),
    "search-map": (
        ["search-map", TELEPORT, "--physical", "4", "--runs", "3", "--seed", "6"],
        "a3a9d874eaee8e38ce052b1ceacda9e4768560917f608df95e6eb1481a1cf5d7",
    ),
    "bench-teleport": (
        ["bench-teleport", "--shots", "512", "--seed", "7"],
        "911aa1d4e7db0ae482bd0011f1cec90d21df491747a6ffded4b9dbb13d254649",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    inputs = {"bell": BELL, "unmeasured": UNMEASURED, "instance": INSTANCE}
    paths = {}
    for key, text in inputs.items():
        path = tmp_path / f"{key}.txt"
        path.write_text(text)
        paths[key] = str(path)
    argv, digest = CASES[name]
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    payload = f"{code}\n--- stdout\n{captured.out}--- stderr\n{captured.err}"
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


HELP_DIGESTS = {
    "qtabu": "4ea8dc5093c952643c4a0e19fc1913fc732c5c3b9815c26f6a913283cd66fa76",
    "simulate": "8e0de358f108e4d005ceb25b3475a8d859af25c2a36e9d030e4fbf597f5d388a",
    "route": "f09309be8cdf39a8e4b710acf7049b30f3365fbe3210513f96de320d0c54443f",
    "qts": "4d62736db3c63587406511886a24f910ffdbb29c1461e23c79dccabd8e32eb09",
    "search-map": "ed1b801ab60ab80c081b1d89d429ba0acb689469bbca9b579f9b0b36f8ac7d6d",
    "bench-teleport": "48eb77256c01ab0833150211ea4f6b4545e70ed1fac6e0067e3f28675d7ab25b",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS))
def test_help_matches_golden(command, capsys, monkeypatch):
    # argparse wraps help text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "qtabu" else [command, "--help"]
    code = main(argv)
    captured = capsys.readouterr()
    payload = f"{code}\n--- stdout\n{captured.out}--- stderr\n{captured.err}"
    assert hashlib.sha256(payload.encode()).hexdigest() == HELP_DIGESTS[command]
