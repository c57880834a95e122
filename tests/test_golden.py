"""Golden CLI output: the exit code, stdout and stderr of every command on
the fixture sessions, in json and text format, compared byte for byte
with the recordings in ``golden/cli.json``.  Any refactor below the CLI
is held to identical output by this test.

Re-record only when an output change is intended, from the repository
root:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys
from pathlib import Path

import pytest

from helpers import run_cli

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
RECORDING = HERE / "golden" / "cli.json"
# payoff acts, relative to the fixtures directory the commands run in
ACT3 = "../tests/golden/act3.json"
ACT2 = "../tests/golden/act2.json"

ASSESSED = ["linda/session.json", "voting/session.json", "certainty/session.json"]
MODELS = [
    ("linda/session.json", "model1"),
    ("linda/session.json", "model2"),
    ("strategies/session-maps.json", "capacity"),
    ("strategies/session-maps.json", "exact"),
    ("strategies/session-maps.json", "alt"),
    ("strategies/session-rationalize.json", "objective"),
]
DOMINANCE = [[], ["--additive-only"], ["--weak"], ["--additive-only", "--weak"]]


def commands() -> list[list[str]]:
    out = []
    for s in ASSESSED:
        out.append(["check", s])
        for c in ("product", "canonical-sound", "interval-additive", "additive-sound"):
            out.append(["build", s, c])
        out.append(["identify", s])
    for s, m in MODELS:
        out.append(["build", s, "belief-lift", "--model", m])
        out.append(["mobius", s, "--model", m])
        out.append(["mobius", s, "--model", m, "--invert"])
        out.append(["choquet", s, "--model", m, "--act", ACT3])
    out.append(["choquet", "strategies/session-rationalize.json", "--act", ACT2])
    for flags in DOMINANCE:
        for choice in ([], ["--choice", "s1"], ["--choice", "s2"]):
            out.append(["rationalize", "strategies/session-rationalize.json", *choice, *flags])
        for _, m in MODELS[2:5]:
            out.append(["rationalize", "strategies/session-maps.json", "--choice", "s",
                        "--model", m, *flags])
    out.append(["rationalize", "strategies/session-rationalize.json", "--choice", "nope"])
    return out


CASES = [(fmt, args) for args in commands() for fmt in ("json", "text")]


def case_id(fmt: str, args: list[str]) -> str:
    return " ".join([fmt, *args])


def run(fmt: str, args: list[str]) -> dict:
    """One command in the fixtures directory: its exit code, stdout and
    stderr."""
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        res = run_cli("--format", fmt, *args)
    finally:
        os.chdir(cwd)
    return {"exit": res.exit_code, "stdout": res.stdout, "stderr": res.stderr}


@pytest.fixture(scope="module")
def recording() -> dict:
    return json.loads(RECORDING.read_text())


def test_every_case_is_recorded(recording):
    assert sorted(recording) == sorted(case_id(fmt, args) for fmt, args in CASES)


@pytest.mark.parametrize("fmt,args", CASES, ids=[case_id(f, a) for f, a in CASES])
def test_output_matches_the_recording(recording, fmt, args):
    assert run(fmt, args) == recording[case_id(fmt, args)]


if __name__ == "__main__":
    recorded = {case_id(fmt, args): run(fmt, args) for fmt, args in CASES}
    RECORDING.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {RECORDING}", file=sys.stderr)
