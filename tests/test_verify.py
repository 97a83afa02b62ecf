import json

import numpy as np
import pytest

from cohdist.coherence import qi_relative_entropy
from cohdist.linalg import kron
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
    CheckLine,
    ScanRecord,
    SuiteResult,
    check_chain,
    check_theorem3,
    check_theorem4,
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
    mat = 0.5 * kron(pure_state([1.0, 0.0]).mat, pure_state([1.0, 1.0]).mat)
    mat = mat + 0.5 * kron(pure_state([0.0, 1.0]).mat, pure_state([1.0, 0.0]).mat)
    return DensityMatrix(mat, (2, 2))


def test_scan_record_enforces_the_gap_identity():
    ScanRecord(0.5, 0.3, 0.2, 0.1)
    with pytest.raises(ValueError, match="gap"):
        ScanRecord(0.5, 0.3, 0.2, 0.2)


def test_suite_result_passed_property():
    good = CheckLine("ok", True, "")
    bad = CheckLine("no", False, "")
    assert SuiteResult("s", (good, good)).passed
    assert not SuiteResult("s", (good, bad)).passed


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


def test_check_theorem3_on_seeded_random_specs():
    rng = np.random.default_rng(13)
    for _ in range(10):
        assert check_theorem3(random_zero_discord_spec(rng, 2, 3)).passed


def test_check_theorem4_single_point():
    (rec,) = check_theorem4(p_grid=(0.5,), brute_grid=(60, 8))
    assert rec.passed
    assert rec.qi == pytest.approx(qi_werner_closed_form(0.5), abs=1e-15)
    assert rec.rate == pytest.approx(rate_werner_closed_form(0.5), abs=1e-15)
    assert rec.gap == pytest.approx(rec.qi - rec.rate, abs=1e-15)
    assert abs(rec.lqicc_rate - rec.rate) <= 1e-10
    assert abs(rec.licc_rate - rec.rate) <= 1e-10
    assert abs(rec.brute_force_rate - rec.rate) <= 2e-4


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
            assert r.passed

    def test_deterministic(self):
        assert figure_data(0.1, 0.9, 20) == figure_data(0.1, 0.9, 20)

    def test_validation(self):
        with pytest.raises(ValueError, match="steps"):
            figure_data(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="0 <= from <= to <= 1"):
            figure_data(0.8, 0.2, 5)
        with pytest.raises(ValueError, match="0 <= from <= to <= 1"):
            figure_data(0.0, 1.2, 5)

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
    assert suite.passed
    assert len(suite.checks) == 2


def test_lemma1_suite_randomized_and_negative_controls():
    suite = lemma1_suite(n_random=8, seed=3)
    assert suite.passed
    assert len(suite.checks) == 12  # 8 random + 3 werner controls + 1 overlap
    labels = [c.label for c in suite.checks]
    assert sum("must fail" in s for s in labels) == 4


def test_lemma1_suite_is_seed_deterministic():
    assert lemma1_suite(n_random=5, seed=11).checks == lemma1_suite(n_random=5, seed=11).checks


def test_theorem4_suite_small_grid():
    suite = theorem4_suite(p_grid=(0.5,), brute_grid=(60, 8))
    assert suite.passed
    by_label = {c.label: c for c in suite.checks}
    gap_line = by_label["gap positive on the interior grid"]
    assert gap_line.passed
    assert "7.199e-07" in gap_line.detail and "p=0.001" in gap_line.detail
    assert by_label["gap convex below 1/3, concave above"].passed
