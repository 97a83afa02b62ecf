"""The mutation harness ends cleanly on SIGTERM, as a CI cancel or `kill` sends it.

The harness is imported by path and run in this process on its control row,
with `run` patched to signal the process where it would start a check: no
tier-1 run starts from tier-1."""

import importlib.util
import os
import signal
import tempfile
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "mutants" / "run.py"


def test_sigterm_exits_143_and_removes_the_rows_copy(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("mutants_run", HARNESS)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)

    def run(cmd, cwd):  # the row's copy exists when its first check would start
        assert (cwd / "src" / "cohdist").is_dir()
        os.kill(os.getpid(), signal.SIGTERM)

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(harness, "MUTANTS", harness.MUTANTS[:1])
    monkeypatch.setattr(harness, "run", run)
    # stands in for the default action, which would end this test run
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: pytest.fail("the harness installed no SIGTERM handler"))
    try:
        with pytest.raises(SystemExit) as exit_:
            harness.main()
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert exit_.value.code == 143
    assert list(tmp_path.glob("cohdist-mutant-*")) == []
