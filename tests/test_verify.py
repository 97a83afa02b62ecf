import math

import numpy as np
import pytest
from conftest import run_cli

from cohdist import closed_forms, coherence, linalg, optimize, verify
from cohdist.closed_forms import (
    MAX_SCAN_STEPS,
    figure_data,
    qi_werner_closed_form,
    rate_werner_closed_form,
)
from cohdist.coherence import qi_relative_entropy
from cohdist.states import (
    DensityMatrix,
    pure_state,
    random_zero_discord_spec,
    werner,
    zero_discord_state,
)
from cohdist.verify import (
    DEFAULT_P_GRID,
    VERDICT_TOL,
    CheckLine,
    check_theorem3,
    discord_report,
    lemma1_suite,
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


def lemma1_states(seed: int) -> list[DensityMatrix]:
    """The 100 zero-discord states lemma1_suite(seed) draws, then its four
    negative controls, in the suite's order."""
    rng = np.random.default_rng(seed)
    dims_cycle = ((2, 2), (2, 3), (2, 4), (3, 3))
    specs = [random_zero_discord_spec(rng, *dims_cycle[i % 4]) for i in range(100)]
    controls = [werner(p) for p in (0.1, 0.5, 0.9)] + [verify._OVERLAP_CONTROL]
    return [zero_discord_state(spec) for spec in specs] + controls


CONTROL_LABELS = [
    f"negative control: {name} must fail"
    for name in ("werner(0.1)", "werner(0.5)", "werner(0.9)", "overlapping blocks")
]


def test_discord_verdict_is_one_rule_on_the_lemma1_states():
    """passed is |discord| <= VERDICT_TOL and nothing else.  The discord is
    qi - C_re(rho_B) from the same calls, so qi - C_re(rho_B) - discord
    reads exactly 0.0: a clause bounding it could never fail."""
    reports = [discord_report(rho) for rho in lemma1_states(7)]
    for rep in reports:
        assert rep.passed == (abs(rep.discord) <= VERDICT_TOL)
        assert rep.qi - rep.marginal_coherence - rep.discord == 0.0
    assert [rep.passed for rep in reports] == [True] * 100 + [False] * 4
    # the helper draws the suite's own states
    details = [c.detail for c in lemma1_suite(7)[:100]]
    assert details == [f"discord={rep.discord:.3e}" for rep in reports[:100]]


def test_sign_flipped_discord_fails_the_negative_controls(monkeypatch):
    """A discord of the wrong sign keeps every random spec within
    VERDICT_TOL, and the controls' discord > VERDICT_TOL rule fails all four.
    The verdict bounds |discord|, so the controls' reports still fail."""
    discord = verify.basis_dependent_discord
    monkeypatch.setattr(verify, "basis_dependent_discord", lambda rho, check=False: -discord(rho, check=check))
    assert not any(discord_report(rho).passed for rho in lemma1_states(7)[100:])
    assert [c.label for c in lemma1_suite(7) if not c.passed] == CONTROL_LABELS
    assert run_cli(["verify", "lemma1"]).exit_code == 1


def non_finite_check_routes(states: list[DensityMatrix]) -> list[int]:
    """Indices of the states whose double-relative-entropy discord is not finite."""
    return [
        i
        for i, rho in enumerate(states)
        if not math.isfinite(coherence._discord_via_relative_entropies(rho))
    ]


def test_check_route_is_finite_on_every_lemma1_state():
    """basis_dependent_discord skips its cross-check when the check route is
    not finite; on the lemma-1 specs and controls it always is, so every
    report there is cross-checked."""
    assert non_finite_check_routes(lemma1_states(7)) == []


def test_an_infinite_relative_entropy_fails_the_finiteness_check(monkeypatch):
    monkeypatch.setattr(coherence, "_relative_entropy_eig", lambda *args: math.inf)
    assert non_finite_check_routes(lemma1_states(7)) == list(range(104))


def test_discord_report_builds_each_derived_state_once(monkeypatch):
    """One report on a 3x3 state validates three derived states: the
    B-dephased state, rho_B and its dephasing.  The check route reads
    rho_A from the partial trace of the validated state, so rho_A is never
    validated, and it never builds the product states rho_A x rho_B and
    rho_A x dephase(rho_B): it diagonalizes them from the
    eigendecompositions of rho_A, rho_B and dephase(rho_B).  That is three
    values-only solves, one per validation, and three
    eigendecompositions; a second report validates nothing new and
    repeats only the eigendecompositions."""
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
    assert counts == {"validations": 3, "jacobi": 3, "eigh": 3}
    discord_report(rho)
    assert counts == {"validations": 3, "jacobi": 3, "eigh": 6}


def test_check_theorem3_on_seeded_random_specs():
    rng = np.random.default_rng(13)
    for _ in range(10):
        assert check_theorem3(random_zero_discord_spec(rng, 2, 3)).passed


def test_check_theorem4_single_point():
    line = theorem4_suite(brute_grid=(21, 4))[4]
    assert line.passed
    assert line.label == "p=0.5: protocols and sweep meet the closed form"
    fields = dict(item.split("=") for item in line.detail.split())
    assert list(fields) == ["rate", "lqicc", "licc", "brute", "gap"]
    rate = rate_werner_closed_form(0.5)
    assert fields["rate"] == fields["lqicc"] == fields["licc"] == f"{rate:.6f}"
    assert fields["gap"] == f"{qi_werner_closed_form(0.5) - rate:.6f}"
    assert float(fields["brute"]) <= float(fields["rate"])
    assert abs(float(fields["brute"]) - rate) <= 2e-4


class TestFigureData:
    def test_grid_and_bounds(self):
        records = list(figure_data(0.0, 1.0, 11))
        assert len(records) == 11
        assert records[0]["p"] == 0.0 and records[-1]["p"] == 1.0
        assert records[5]["p"] == pytest.approx(0.5, abs=1e-15)
        for r in records:
            assert list(r) == ["p", "qi", "rate", "gap"]  # the scan's columns: the CSV header and the JSON keys
            assert 0.0 <= r["rate"] <= r["qi"] <= 2.0

    def test_deterministic(self):
        assert list(figure_data(0.1, 0.9, 20)) == list(figure_data(0.1, 0.9, 20))

    def test_returns_an_iterator_checked_at_the_call(self):
        # a row is made as it is read, but a bad argument raises before any row is asked for
        rows = figure_data(0.0, 1.0, 3)
        assert iter(rows) is rows
        assert [r["p"] for r in rows] == [0.0, 0.5, 1.0]
        with pytest.raises(ValueError, match="at least 2"):
            figure_data(0.0, 1.0, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="steps"):
            figure_data(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="0 <= from <= to <= 1"):
            figure_data(0.8, 0.2, 5)
        with pytest.raises(ValueError, match="0 <= from <= to <= 1"):
            figure_data(0.0, 1.2, 5)
        # a float once reached range() as a TypeError; a string or bool is no count either
        for steps in (3.0, "3", True):
            with pytest.raises(ValueError, match="steps must be integers"):
                figure_data(0.0, 1.0, steps)

    @pytest.mark.parametrize("steps", [0, -3, 1])
    def test_every_step_count_below_2_reads_at_least_2(self, steps):
        # 0 and -3 once read "steps must be positive", a weaker rule than the one 1 broke
        with pytest.raises(ValueError, match=f"^steps must be at least 2, got {steps}$"):
            figure_data(0.0, 1.0, steps)

    def test_step_count_is_capped_before_any_record_is_built(self):
        with pytest.raises(ValueError, match="at most 1000001"):
            figure_data(0.0, 1.0, MAX_SCAN_STEPS + 1)

    def test_every_range_ends_exactly_at_its_end(self, monkeypatch):
        # control: the uniform formula ends one ulp past the end of one range, short of another's
        assert 0.059 + (1.0 - 0.059) * 6 / 6 == 1.0000000000000002
        assert 0.002 + (1.0 - 0.002) * 6 / 6 == 0.9999999999999999
        # the closed forms keep only the range check that an overshoot broke: the loop costs the grid alone
        for name in ("qi_werner_closed_form", "rate_werner_closed_form"):
            monkeypatch.setattr(closed_forms, name, closed_forms._check_p)
        for p_to in (1.0, 0.9, 0.7, 0.3):
            for p_from in (k / 1000 for k in range(1001) if k / 1000 <= p_to):
                for steps in (2, 3, 5, 7, 11, 13, 101):
                    ps = [r["p"] for r in figure_data(p_from, p_to, steps)]
                    assert all(p_from <= p <= p_to for p in ps), (p_from, p_to, steps)
                    assert ps[-1] == p_to, (p_from, p_to, steps)


def test_theorem3_suite_passes():
    checks = theorem3_suite()
    assert type(checks) is tuple and all(type(c) is CheckLine for c in checks)
    assert all(c.passed for c in checks)
    assert len(checks) == 2


def test_lemma1_suite_randomized_and_negative_controls():
    checks = lemma1_suite(seed=3)
    assert all(c.passed for c in checks)
    assert len(checks) == 104  # 100 random + 3 werner controls + 1 overlap
    labels = [c.label for c in checks]
    assert sum("must fail" in s for s in labels) == 4


def test_theorem4_suite_small_grid():
    # an odd theta count puts the optimal equator on the grid
    checks = theorem4_suite(brute_grid=(21, 4))
    assert all(c.passed for c in checks)
    assert len(checks) == 11  # 9 p values + positivity + curvature
    by_label = {c.label: c for c in checks}
    gap_line = by_label["gap positive on the interior grid"]
    assert gap_line.passed
    assert "7.199e-07" in gap_line.detail and "p=0.001" in gap_line.detail
    assert by_label["gap convex below 1/3, concave above"].passed


def test_curvature_line_fails_on_a_shifted_second_derivative(monkeypatch):
    """A 1e-3 shift keeps the signs at 0.2 and 0.5, so only the
    central-difference check can catch it."""
    d2 = closed_forms.gap_second_derivative
    monkeypatch.setattr(closed_forms, "gap_second_derivative", lambda p: d2(p) + 1e-3)
    checks = theorem4_suite(brute_grid=(21, 4))
    assert [c.label for c in checks if not c.passed] == ["gap convex below 1/3, concave above"]


def test_per_p_lines_fail_on_a_qi_closed_form_off_by_1e_9(monkeypatch):
    """The gap and curvature lines cannot see a 1e-9 shift of qi; the tie to
    qi_relative_entropy(werner(p)) fails every per-p line."""
    qi = closed_forms.qi_werner_closed_form
    monkeypatch.setattr(closed_forms, "qi_werner_closed_form", lambda p: qi(p) + 1e-9)
    failed = [c.label for c in theorem4_suite(brute_grid=(21, 4)) if not c.passed]
    assert failed == [f"p={p:g}: protocols and sweep meet the closed form" for p in DEFAULT_P_GRID]


# Each gate control below fails one step past its bound and passes one step inside it.


def test_a_20x1_sweep_misses_the_2e_4_allowance_by_less_than_2e_2():
    """On a 20x1 grid the sweep falls short of the rate by more than the
    2e-4 allowance at seven p, but by less than 2e-2, so a looser
    allowance would pass them; the other two are within 2e-4."""
    result = run_cli(["verify", "theorem4", "--brute-theta", "20", "--brute-phi", "1"])
    assert result.exit_code == 1
    assert result.output.endswith("4/11 checks passed\n")
    misses = {p: abs(optimize.brute_force_measurement_opt(p, (20, 1)).rate - rate_werner_closed_form(p)) for p in DEFAULT_P_GRID}
    failed = {float(line.split("p=")[1].split(":")[0]) for line in result.output.splitlines() if line.startswith("[FAIL]")}
    print(f"20x1 sweep: worst |brute - rate| = {max(misses.values()):.3e}")
    assert failed == {p for p, miss in misses.items() if miss > 2e-4} == set(DEFAULT_P_GRID[2:])
    assert all(2e-4 < misses[p] < 2e-2 for p in failed)


@pytest.mark.parametrize("eps, passed", [(2e-9, False), (5e-10, True)])
def test_a_sweep_above_the_rate_by_more_than_1e_9_fails(monkeypatch, eps, passed):
    """A sweep that beats the closed form by 2e-9 is within the 2e-4
    allowance; only the bf <= rate + 1e-9 clause fails it."""
    def above(p, grid):
        return optimize.BruteForceResult(rate_werner_closed_form(p) + eps, math.pi / 2, 0.0)

    monkeypatch.setattr(optimize, "brute_force_measurement_opt", above)
    checks = theorem4_suite(brute_grid=(21, 4))
    assert [c.passed for c in checks] == [passed] * len(DEFAULT_P_GRID) + [True, True]


def test_a_discord_between_1e_9_and_1e_6_fails_the_verdict():
    """A zero-discord state mixed with the overlap control at weight 1e-4
    has a discord of order 1e-8: the verdict fails it, and passes the same
    state at weight 0."""
    assert VERDICT_TOL == 1e-9
    base = zero_discord_state(random_zero_discord_spec(np.random.default_rng(0), 2, 2))
    reports = {
        w: discord_report(DensityMatrix((1.0 - w) * base.mat + w * verify._OVERLAP_CONTROL.mat, (2, 2)))
        for w in (0.0, 1e-4)
    }
    print(f"weight 1e-4: discord = {reports[1e-4].discord:.3e}")
    assert 1e-9 < reports[1e-4].discord < 1e-6 and not reports[1e-4].passed
    assert reports[0.0].passed


def test_a_zero_gap_at_one_p_fails_its_line(monkeypatch):
    """Both routes to qi read the rate at p = 0.5, so the qi tie holds and
    only the gap > 0 clause can fail the p=0.5 line.  The gap and curvature
    lines read the same patched closed form at p = 0.5 and fail too."""
    qi, qi_re = closed_forms.qi_werner_closed_form, verify.qi_relative_entropy
    at_half = werner(0.5).mat.tobytes()
    monkeypatch.setattr(closed_forms, "qi_werner_closed_form", lambda p: rate_werner_closed_form(p) if p == 0.5 else qi(p))
    monkeypatch.setattr(
        verify,
        "qi_relative_entropy",
        lambda rho: rate_werner_closed_form(0.5) if rho.mat.tobytes() == at_half else qi_re(rho),
    )
    failed = [c.label for c in theorem4_suite(brute_grid=(21, 4)) if not c.passed]
    assert failed == [
        "p=0.5: protocols and sweep meet the closed form",
        "gap positive on the interior grid",
        "gap convex below 1/3, concave above",
    ]
