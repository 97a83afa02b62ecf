import json

import numpy as np
import pytest

from cohdist import linalg, verify
from cohdist.coherence import qi_relative_entropy
from cohdist.optimize import qi_werner_closed_form, rate_werner_closed_form
from cohdist.states import (
    DensityMatrix,
    pure_state,
    random_zero_discord_spec,
    werner,
    zero_discord_state,
)
from cohdist.verify import (
    CSV_HEADER,
    MAX_SCAN_STEPS,
    check_chain,
    check_theorem3,
    discord_report,
    figure_data,
    lemma1_suite,
    records_to_csv,
    records_to_json,
    theorem3_suite,
    theorem4_suite,
)


def overlap_mixture() -> DensityMatrix:
    """Two-block mixture whose B factors share basis support."""
    mat = 0.5 * np.kron(pure_state([1.0, 0.0]).mat, pure_state([1.0, 1.0]).mat)
    mat = mat + 0.5 * np.kron(pure_state([0.0, 1.0]).mat, pure_state([1.0, 0.0]).mat)
    return DensityMatrix(mat, (2, 2))


class TestDiscordReport:
    def test_werner_states_fail_with_positive_discord(self):
        rep = discord_report(werner(0.5))
        assert not rep.passed
        assert rep.marginal_coherence == pytest.approx(0.0, abs=1e-12)
        assert rep.discord == pytest.approx(rep.qi, abs=1e-12)
        assert rep.qi == pytest.approx(qi_relative_entropy(werner(0.5)), abs=1e-12)

    def test_block_mixtures_pass(self):
        spec = random_zero_discord_spec(np.random.default_rng(12), 2, 3)
        rep = discord_report(zero_discord_state(spec))
        assert rep.passed
        assert abs(rep.qi - rep.marginal_coherence) < 1e-9

    def test_overlapping_supports_fail(self):
        rep = discord_report(overlap_mixture())
        assert not rep.passed
        assert rep.discord == pytest.approx(0.28959791223372333, abs=1e-9)


def test_discord_report_builds_each_derived_state_once(monkeypatch):
    """One report on a 3x3 state validates four derived states: the
    B-dephased state, rho_B, its dephasing and rho_A.  The check route
    never builds the product states rho_A x rho_B and rho_A x
    dephase(rho_B): it diagonalizes them from the eigendecompositions of
    rho_A, rho_B and dephase(rho_B).  That is four values-only solves,
    one per validation, and three eigendecompositions; a second report
    validates nothing new and repeats only the eigendecompositions."""
    rho = zero_discord_state(random_zero_discord_spec(np.random.default_rng(5), 3, 3))
    counts = {"validations": 0, "jacobi": 0, "eigh": 0}
    post_init = DensityMatrix.__post_init__
    jacobi, eigh = linalg._jacobi, linalg.hermitian_eigh

    def counting_post_init(self):
        counts["validations"] += 1
        post_init(self)

    def counting_jacobi(mat):
        counts["jacobi"] += 1
        return jacobi(mat)

    def counting_eigh(mat):
        counts["eigh"] += 1
        return eigh(mat)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting_post_init)
    monkeypatch.setattr(linalg, "_jacobi", counting_jacobi)
    monkeypatch.setattr(linalg, "hermitian_eigh", counting_eigh)
    assert discord_report(rho).passed
    assert counts == {"validations": 4, "jacobi": 4, "eigh": 3}
    discord_report(rho)
    assert counts == {"validations": 4, "jacobi": 4, "eigh": 6}


def test_check_theorem3_on_seeded_random_specs():
    rng = np.random.default_rng(13)
    for _ in range(10):
        assert check_theorem3(random_zero_discord_spec(rng, 2, 3)).passed


def test_check_theorem4_single_point():
    line = theorem4_suite(brute_grid=(21, 4)).checks[4]
    assert line.passed
    assert line.label == "p=0.5: protocols and sweep meet the closed form"
    fields = dict(item.split("=") for item in line.detail.split())
    assert list(fields) == ["rate", "lqicc", "licc", "brute", "gap"]
    rate = rate_werner_closed_form(0.5)
    assert fields["rate"] == fields["lqicc"] == fields["licc"] == f"{rate:.6f}"
    assert fields["gap"] == f"{qi_werner_closed_form(0.5) - rate:.6f}"
    assert float(fields["brute"]) <= float(fields["rate"])
    assert abs(float(fields["brute"]) - rate) <= 2e-4


class TestCheckChain:
    def test_achievable_rate_passes(self):
        rho = werner(0.5)
        rep = check_chain(rho, rate_werner_closed_form(0.5))
        assert rep.passed
        assert rep.slack > 0.0

    def test_rate_above_the_bound_fails(self):
        rho = werner(0.5)
        rep = check_chain(rho, qi_relative_entropy(rho) + 1e-3)
        assert not rep.passed
        assert rep.slack < 0.0


class TestFigureData:
    def test_grid_and_bounds(self):
        records = figure_data(0.0, 1.0, 11)
        assert len(records) == 11
        assert records[0].p == 0.0 and records[-1].p == 1.0
        assert records[5].p == pytest.approx(0.5, abs=1e-15)
        for r in records:
            assert 0.0 <= r.rate <= r.qi <= 2.0

    def test_deterministic(self):
        assert figure_data(0.1, 0.9, 20) == figure_data(0.1, 0.9, 20)

    def test_validation(self):
        with pytest.raises(ValueError, match="steps"):
            figure_data(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="0 <= from <= to <= 1"):
            figure_data(0.8, 0.2, 5)
        with pytest.raises(ValueError, match="0 <= from <= to <= 1"):
            figure_data(0.0, 1.2, 5)
        # a float once reached range() as a TypeError; a string or bool is no count either
        for steps in (3.0, "3", True):
            with pytest.raises(ValueError, match="steps must be an integer"):
                figure_data(0.0, 1.0, steps)

    def test_step_count_is_capped_before_any_record_is_built(self):
        with pytest.raises(ValueError, match="at most 1000001"):
            figure_data(0.0, 1.0, MAX_SCAN_STEPS + 1)


def test_csv_golden():
    text = records_to_csv(figure_data(0.0, 1.0, 3))
    assert text == (
        "p,qi,rate,gap\n"
        "0.000000,0.000000,0.000000,0.000000\n"
        "0.500000,0.262483,0.188722,0.073761\n"
        "1.000000,1.000000,1.000000,0.000000\n"
    )
    assert CSV_HEADER == "p,qi,rate,gap"


def test_json_round_trip_keeps_full_precision():
    text = records_to_json(figure_data(0.0, 1.0, 3))
    assert text.endswith("\n")
    rows = json.loads(text)
    assert [r["p"] for r in rows] == [0.0, 0.5, 1.0]
    assert rows[1]["qi"] == qi_werner_closed_form(0.5)
    assert rows[1]["rate"] == rate_werner_closed_form(0.5)
    assert rows[1]["gap"] == qi_werner_closed_form(0.5) - rate_werner_closed_form(0.5)


def test_theorem3_suite_passes():
    suite = theorem3_suite()
    assert suite.name == "theorem3"
    assert all(c.passed for c in suite.checks)
    assert len(suite.checks) == 2


def test_lemma1_suite_randomized_and_negative_controls():
    suite = lemma1_suite(seed=3)
    assert all(c.passed for c in suite.checks)
    assert len(suite.checks) == 104  # 100 random + 3 werner controls + 1 overlap
    labels = [c.label for c in suite.checks]
    assert sum("must fail" in s for s in labels) == 4


def test_lemma1_suite_is_seed_deterministic():
    assert lemma1_suite(seed=11).checks == lemma1_suite(seed=11).checks


def test_theorem4_suite_small_grid():
    # an odd theta count puts the optimal equator on the grid
    suite = theorem4_suite(brute_grid=(21, 4))
    assert all(c.passed for c in suite.checks)
    assert len(suite.checks) == 11  # 9 p values + positivity + curvature
    by_label = {c.label: c for c in suite.checks}
    gap_line = by_label["gap positive on the interior grid"]
    assert gap_line.passed
    assert "7.199e-07" in gap_line.detail and "p=0.001" in gap_line.detail
    assert by_label["gap convex below 1/3, concave above"].passed


def test_curvature_line_fails_on_a_shifted_second_derivative(monkeypatch):
    """A 1e-3 shift keeps the signs at 0.2 and 0.5, so only the
    central-difference check can catch it."""
    d2 = verify.gap_second_derivative
    monkeypatch.setattr(verify, "gap_second_derivative", lambda p: d2(p) + 1e-3)
    checks = theorem4_suite(brute_grid=(21, 4)).checks
    assert [c.label for c in checks if not c.passed] == ["gap convex below 1/3, concave above"]
