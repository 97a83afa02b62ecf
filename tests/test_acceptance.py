"""Acceptance gate: the nine headline checks, one test per criterion.

Each test prints a single PASS line after its assertions so a verbose
run reads as a checklist.  Tolerances are the contract, not aspirations;
see the module docstrings for where each bound comes from.
"""

import numpy as np
import pytest
from click.testing import CliRunner

from cohdist.cli import main
from cohdist.coherence import c_re, qi_relative_entropy, relative_entropy
from cohdist.optimize import (
    brute_force_measurement_opt,
    gap_second_derivative,
    qi_werner_closed_form,
    rate_werner_closed_form,
)
from cohdist.protocols import (
    ERASE_K1,
    ERASE_K2,
    is_incoherent_kraus,
    licc_erasing_protocol,
    lqicc_werner_protocol,
)
from cohdist.states import (
    DensityMatrix,
    pure_state,
    random_density_matrix,
    random_zero_discord_spec,
    werner,
    zero_discord_state,
)
from cohdist.verify import discord_report

from conftest import random_monomial_unitary, trace_distance


def gap(p: float) -> float:
    """The Werner gap qi - rate, as theorem4_suite reads it."""
    return qi_werner_closed_form(p) - rate_werner_closed_form(p)


def test_criterion_1_closed_form_matches_matrix_oracle():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 50):
        closed = qi_werner_closed_form(float(p))
        matrix = qi_relative_entropy(werner(float(p)))
        worst = max(worst, abs(closed - matrix))
    assert worst < 1e-9
    print(f"criterion 1: PASS (max |closed - matrix| = {worst:.3e} over 50 p)")


def test_criterion_2_protocols_hit_the_steered_state_and_rate():
    worst_td = 0.0
    worst_rate = 0.0
    for p in (0.1, 0.5, 0.9):
        target = p * pure_state([1.0, 1.0]).mat + (1.0 - p) * np.eye(2) / 2
        for protocol in (lqicc_werner_protocol, licc_erasing_protocol):
            result = protocol(p)
            for _, state in result.ensemble.items:
                worst_td = max(worst_td, trace_distance(state.mat, target))
            worst_rate = max(worst_rate, abs(result.rate - rate_werner_closed_form(p)))
    assert worst_td < 1e-12
    assert worst_rate < 1e-10
    print(
        "criterion 2: PASS (max trace distance = "
        f"{worst_td:.3e}, max rate error = {worst_rate:.3e})"
    )


def test_criterion_3_erasing_kraus_pair_is_complete_and_incoherent():
    total = ERASE_K1.conj().T @ ERASE_K1 + ERASE_K2.conj().T @ ERASE_K2
    defect = np.max(np.abs(total - np.eye(2)))
    assert defect < 1e-12
    assert is_incoherent_kraus(ERASE_K1)
    assert is_incoherent_kraus(ERASE_K2)
    print(f"criterion 3: PASS (completeness defect = {defect:.3e}, both incoherent)")


def test_criterion_4_gap_is_positive_across_the_interior():
    # The quadratic behaviour near p=0 puts the first grid point at
    # ~7.2e-7, below a blanket 1e-6 margin; it is pinned exactly and
    # every later grid point must clear the margin.
    gaps = [gap(k / 1000.0) for k in range(1, 1000)]
    assert gaps[0] == pytest.approx(7.199071054715114e-07, abs=1e-12)
    assert min(gaps) > 0.0
    assert all(g > 1e-6 for g in gaps[1:])
    for p in (1e-6, 1.0 - 1e-6):
        edge = gap(p)
        assert 0.0 < edge < 1e-4
    mid = gap(0.5)
    assert abs(mid - 0.073761) < 1e-6
    print(
        "criterion 4: PASS (grid minimum "
        f"{min(gaps):.3e} at p=0.001, others > 1e-6, gap(0.5) = {mid:.6f})"
    )


def test_criterion_5_grid_search_certifies_the_protocol_rate():
    worst = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        found = brute_force_measurement_opt(p, grid=(200, 400)).rate
        expected = rate_werner_closed_form(p)
        assert found <= expected + 1e-9
        worst = max(worst, abs(found - expected))
    assert worst < 2e-4
    print(f"criterion 5: PASS (max |grid - closed| = {worst:.3e} on 200x400)")


def test_criterion_6_gap_curvature_matches_finite_differences():
    h = 1e-4
    worst = 0.0
    for p in np.linspace(0.05, 0.95, 19):
        p = float(p)
        numeric = (gap(p + h) - 2.0 * gap(p) + gap(p - h)) / (h * h)
        worst = max(worst, abs(gap_second_derivative(p) - numeric))
    assert worst < 1e-4
    assert gap_second_derivative(1.0 / 3.0 - 1e-3) > 0.0
    assert gap_second_derivative(1.0 / 3.0 + 1e-3) < 0.0
    print(
        "criterion 6: PASS (max curvature error = "
        f"{worst:.3e}, sign change bracketed at 1/3)"
    )


def test_criterion_7_zero_discord_family_passes_and_werner_fails():
    rng = np.random.default_rng(7)
    worst_d = 0.0
    worst_gap = 0.0
    dim_pairs = ((2, 2), (2, 3), (2, 4), (3, 3))
    for i in range(100):
        da, db = dim_pairs[i % len(dim_pairs)]
        spec = random_zero_discord_spec(rng, dim_a=da, dim_b=db)
        rep = discord_report(zero_discord_state(spec))
        assert rep.passed
        worst_d = max(worst_d, rep.discord)
        worst_gap = max(worst_gap, abs(rep.qi - rep.marginal_coherence))
    assert worst_d < 1e-9
    assert worst_gap < 1e-9
    for p in (0.1, 0.5, 0.9):
        rep = discord_report(werner(p))
        assert not rep.passed
        assert rep.discord > 1e-9
    print(
        "criterion 7: PASS (100 states, max D = "
        f"{worst_d:.3e}, max |qi - c_re(B)| = {worst_gap:.3e}; controls fail)"
    )


def test_criterion_8_entropy_identity_and_monomial_invariance():
    rng = np.random.default_rng(11)
    worst_id = 0.0
    worst_inv = 0.0
    for i in range(50):
        dims = (2,) if i % 2 == 0 else (2, 2)
        dim = 2 if i % 2 == 0 else 4
        rho = random_density_matrix(dim, rng, dims)
        worst_id = max(worst_id, abs(c_re(rho) - relative_entropy(rho, rho.dephased)))
        u = random_monomial_unitary(rng, dim)
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, dims)
        worst_inv = max(worst_inv, abs(c_re(rotated) - c_re(rho)))
    assert worst_id < 1e-9
    assert worst_inv < 1e-9
    print(
        "criterion 8: PASS (max identity error = "
        f"{worst_id:.3e}, max invariance error = {worst_inv:.3e})"
    )


def test_criterion_9_scan_is_deterministic_with_the_expected_midpoint():
    runner = CliRunner()
    args = ["scan", "--from", "0", "--to", "1", "--steps", "101"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    lines = first.output.splitlines()
    assert len(lines) == 102
    assert lines[51] == "0.500000,0.262483,0.188722,0.073761"
    print("criterion 9: PASS (byte-identical runs, p=0.5 row as expected)")
