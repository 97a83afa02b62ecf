"""Recorded CLI transcripts replay byte for byte.

tests/golden/transcripts.json holds the stdout, stderr and exit code of
each command in COMMANDS, run in-process as `cohdist` (conftest.run_cli)
in a directory that holds the state files of tests/golden.  Every replay
must match them exactly, except for one masked field (see _mask).

The help text is argparse's, wrapped at a fixed width rather than the
terminal's, and a few error lines quote Python's own exception text, so
the transcripts belong to the Python version they were recorded with
(Python 3.11).  To record them again after an intended output change:

    PYTHONPATH=src python tests/test_golden_transcripts.py
"""

import json
import re
import shutil
from pathlib import Path

import pytest
from conftest import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
TRANSCRIPTS = GOLDEN / "transcripts.json"

COMMANDS = (
    ["measures", "--werner", "0.37"],
    ["measures", "--file", "state_2x3.json"],
    ["measures", "--file", "state_2x4.json"],
    ["measures", "--file", "state_3x3.json"],
    ["measures", "--file", "truncated.json"],
    ["measures", "--file", "trace_third.json"],
    ["measures", "--file", "not_utf8.json"],
    ["measures", "--file", "missing.json"],
    ["measures"],
    ["measures", "--werner", "1.5"],
    ["protocol", "lqicc", "--p", "0.3"],
    ["protocol", "licc", "--p", "0.7"],
    ["protocol", "bogus", "--p", "0.3"],
    ["protocol", "lqicc", "--p", "1.5"],
    ["scan", "--steps", "11"],
    ["scan", "--steps", "11", "--format", "json"],
    ["scan", "--steps", "1"],
    ["scan", "--from", "0.2", "--to", "0.8", "--steps", "7", "--out", "sweep.csv"],
    ["verify", "theorem3"],
    ["verify", "lemma1", "--seed", "42"],
    ["verify", "theorem4", "--brute-theta", "21", "--brute-phi", "4"],
    ["--help"],
    ["measures", "--help"],
    ["verify", "--help"],
    ["verify", "all"],
)

# The discord of a random zero-discord spec is 0 up to eigvalsh rounding,
# and its printed digits (0.000e+00, 2.220e-16, ...) follow the LAPACK
# build.  Only its size is part of the output contract, and
# test_cli.py::TestVerify::test_lemma1_random_specs_print_only_rounding_noise
# checks that; here the digits are masked.
_NOISE = re.compile(r"^(\[PASS\] lemma1: random zero-discord spec .*\(discord=)[^)]*\)$", re.M)


def _mask(text: str) -> str:
    return _NOISE.sub(r"\1*)", text)


def _run(args: list[str]) -> dict:
    result = run_cli(args)
    return {"args": args, "stdout": _mask(result.stdout), "stderr": result.stderr, "exit_code": result.exit_code}


def _in_state_dir(path: Path) -> None:
    for state in GOLDEN.glob("*.json"):
        if state != TRANSCRIPTS:
            shutil.copy(state, path / state.name)


def _recorded() -> list[dict]:
    return json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))


def test_every_command_is_recorded():
    assert [t["args"] for t in _recorded()] == [list(c) for c in COMMANDS]


@pytest.mark.parametrize("recorded", _recorded(), ids=lambda t: " ".join(t["args"]))
def test_transcript_replays_byte_for_byte(recorded, tmp_path, monkeypatch):
    _in_state_dir(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _run(recorded["args"]) == recorded


def test_the_mask_hides_only_the_random_spec_digits():
    lines = [
        "[PASS] lemma1: random zero-discord spec 002 (2x4, 3 blocks) (discord=2.220e-16)",
        "[PASS] lemma1: negative control: werner(0.1) must fail (discord=0.013189)",
        "[PASS] theorem3: product state |0><0| x |+><+| (discord=0.000e+00 qi=1.000000)",
    ]
    assert _mask("\n".join(lines)).splitlines() == [
        "[PASS] lemma1: random zero-discord spec 002 (2x4, 3 blocks) (discord=*)",
        *lines[1:],
    ]


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _in_state_dir(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            transcripts = [_run(list(c)) for c in COMMANDS]
        finally:
            os.chdir(here)
    TRANSCRIPTS.write_text(json.dumps(transcripts, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(transcripts)} transcripts in {TRANSCRIPTS}")
