"""Tests of the benchmark itself: exact counts, seeding, and negative
controls that its checks must catch.  Run from the repository root:

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

from cohdist import coherence, optimize  # noqa: E402

TINY_GRID = (5, 4)  # theta = pi/2 is the middle of five points


@pytest.fixture()
def scratch():
    path = ROOT / ".perfbench" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def make(name: str, seed: int, workdir: Path):
    workload = workloads.WORKLOADS[name](seed, ROOT, workdir)
    if name == "werner_certify":
        workload.GRID = TINY_GRID
    return workload


def run_items(workload, items, tracer=None) -> list[list[str]]:
    return [worker.execute(workload, item, tracer)[1] for item in items]


def traced_summary(workload, items) -> dict:
    tracer = Tracer()
    with tracer:
        problems = run_items(workload, items, tracer)
    assert problems == [[]] * len(items)
    return tracer.summary()


def patch_everywhere(monkeypatch, orig, fake) -> None:
    """Replace orig under every name a cohdist module bound it to."""
    for name, mod in list(sys.modules.items()):
        if name == "cohdist" or name.startswith("cohdist."):
            for attr, obj in list(vars(mod).items()):
                if obj is orig:
                    monkeypatch.setattr(mod, attr, fake)


# --- exact counts ---------------------------------------------------------


@pytest.mark.parametrize("name, n", [("werner_certify", 2), ("discord_audit", 16)])
def test_one_seed_gives_identical_counts(name, n, scratch):
    summaries = []
    for _ in range(2):
        workload = make(name, 3, scratch)
        summaries.append(traced_summary(workload, workload.items[:n]))
    first, second = summaries
    assert first["counts"] and first["counts"] == second["counts"]
    assert first["edges"] == second["edges"]


def test_cli_session_counts_repeat(scratch):
    workload = make("cli_session", 3, scratch)
    counts = []
    for k in range(2):
        span_dir = scratch / f"spans{k}"
        span_dir.mkdir()
        assert run_items(worker.traced_cli(workload, span_dir), workload.items[:2]) == [[], []]
        counts.append([json.loads(p.read_text())["summary"]["counts"] for p in span_dir.iterdir()])
    assert counts[0] and sorted(map(str, counts[0])) == sorted(map(str, counts[1]))
    assert all(c["cli.main"] == 1 for c in counts[0])


def test_werner_certify_counts_per_grid_point(scratch):
    workload = make("werner_certify", 3, scratch)
    metrics = {}
    for grid in ((3, 2), (5, 4)):
        workload.GRID = grid
        metrics[grid] = layer_metrics(traced_summary(workload, workload.items[:1]), 1)
        assert metrics[grid]["optimize.grid_points"] == grid[0] * grid[1]
    points = 5 * 4 - 3 * 2
    small, large = metrics[(3, 2)], metrics[(5, 4)]
    for key, per_point in (
        ("states.validations", 4),
        ("protocols.kraus_validations", 1),
        ("linalg.jacobi_calls.n2", 4),
        ("protocols.measure_calls", 1),
    ):
        assert large[key] - small[key] == per_point * points, key


@pytest.mark.parametrize("name, n", [("werner_certify", 2), ("discord_audit", 8)])
def test_traced_run_reports_every_per_layer_metric(name, n, scratch):
    workload = make(name, 3, scratch)
    workload.TRACE_ITEMS = n
    result = worker.traced_run(workload, 3)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    probes = {"cli.interp_start_s", "cli.import_s"}  # run.py adds these
    assert {m["name"] for m in declared} - probes == set(result["metrics"])
    assert result["attempted"] == 2 * n and result["failed"] == 0
    assert result["metrics"]["states.validations_per_item"] > 0


def test_tracer_restores_the_package():
    before = (optimize.brute_force_measurement_opt, coherence.c_re, optimize.c_re)
    with Tracer():
        assert optimize.c_re is not before[2]
    assert (optimize.brute_force_measurement_opt, coherence.c_re, optimize.c_re) == before


# --- seeding ----------------------------------------------------------------


def _inputs(workload) -> str:
    if workload.name == "discord_audit":
        return repr([item[3].tolist() for item in workload.items])
    if workload.name == "cli_session":
        files = sorted(p.read_text() for p in workload.workdir.iterdir())
        return (repr([item[:2] for item in workload.items]) + repr(files)).replace(str(workload.workdir), "")
    return repr(workload.items)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_seed_picks_the_inputs(name, scratch):
    a = _inputs(make(name, 1, scratch / "a"))
    again = _inputs(make(name, 1, scratch / "b"))
    other = _inputs(make(name, 2, scratch / "c"))
    assert a == again
    assert a != other


# --- the reference -----------------------------------------------------------


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.95])
def test_oracle_closed_forms_match_its_matrices(p):
    measures = oracle.bipartite_measures(oracle.werner_matrix(p), 2, 2)
    assert measures["qi"] == pytest.approx(oracle.qi_werner(p), abs=1e-12)
    steered = p * np.full((2, 2), 0.5) + (1 - p) * np.eye(2) / 2
    rate = oracle.entropy(np.diag(np.diag(steered))) - oracle.entropy(steered)
    assert rate == pytest.approx(oracle.rate_werner(p), abs=1e-12)


# --- negative controls ---------------------------------------------------------


def test_sweep_rate_off_by_1e_3_fails(monkeypatch, scratch):
    workload = make("werner_certify", 5, scratch)
    assert run_items(workload, workload.items[:1]) == [[]]
    orig = optimize.brute_force_measurement_opt

    def inflated(p, grid):
        result = orig(p, grid)
        return dataclasses.replace(result, rate=result.rate + 1e-3)

    patch_everywhere(monkeypatch, orig, inflated)
    assert run_items(workload, workload.items[:1])[0]


def test_argmax_that_misses_its_rate_fails(monkeypatch, scratch):
    workload = make("werner_certify", 5, scratch)
    orig = optimize.brute_force_measurement_opt

    def wrong_argmax(p, grid):
        return dataclasses.replace(orig(p, grid), theta=0.0, phi=0.0)

    patch_everywhere(monkeypatch, orig, wrong_argmax)
    problems = run_items(workload, workload.items[:1])[0]
    assert any("recomputed" in x for x in problems)


def test_discord_of_the_wrong_sign_fails(monkeypatch, scratch):
    workload = make("discord_audit", 5, scratch)
    general = [item for item in workload.items if item[0] == "general"][:4]
    assert run_items(workload, general) == [[]] * 4
    orig = coherence.basis_dependent_discord

    def flipped(rho, tol=1e-10, check=False):
        return -orig(rho, tol, check)

    patch_everywhere(monkeypatch, orig, flipped)
    assert all(run_items(workload, general))


def test_malformed_file_accepted_with_exit_0_fails(scratch):
    workload = make("cli_session", 5, scratch)
    malformed = [item for item in workload.items if item[0] == "malformed"][:1]
    assert run_items(workload, malformed) == [[]]
    for fake in ("pass", "print('S(rho) = 0.0'); raise SystemExit(2)"):
        workload.prefix = [sys.executable, "-c", fake]
        assert run_items(workload, malformed)[0], fake


def test_run_exits_nonzero_without_the_sources():
    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "werner_certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
