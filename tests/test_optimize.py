import math

import numpy as np
import pytest

from cohdist import optimize
from cohdist.coherence import c_re
from cohdist.optimize import (
    BruteForceResult,
    brute_force_measurement_opt,
    conditional_c_re,
    gap_analysis,
    gap_second_derivative,
    gap_werner_closed_form,
    qi_werner_closed_form,
    rate_werner_closed_form,
    steered_state,
)
from cohdist.states import bloch_qubit


class TestClosedForms:
    def test_frozen_values(self):
        assert qi_werner_closed_form(0.5) == pytest.approx(0.26248318376373436, abs=1e-12)
        assert qi_werner_closed_form(0.1) == pytest.approx(0.013188643469861705, abs=1e-12)
        assert rate_werner_closed_form(0.5) == pytest.approx(0.18872187554086717, abs=1e-12)
        assert rate_werner_closed_form(0.1) == pytest.approx(0.007225546012191789, abs=1e-12)
        assert rate_werner_closed_form(0.9) == pytest.approx(0.7136030428840436, abs=1e-12)
        assert gap_werner_closed_form(0.5) == pytest.approx(0.0737613082228672, abs=1e-12)
        assert gap_werner_closed_form(1.0 / 3.0) == pytest.approx(0.044110417748401104, abs=1e-12)

    def test_endpoints(self):
        assert qi_werner_closed_form(0.0) == 0.0
        assert rate_werner_closed_form(0.0) == 0.0
        assert gap_werner_closed_form(0.0) == 0.0
        assert qi_werner_closed_form(1.0) == pytest.approx(1.0, abs=1e-15)
        assert rate_werner_closed_form(1.0) == pytest.approx(1.0, abs=1e-15)
        assert gap_werner_closed_form(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gap_is_the_difference_of_the_other_two(self):
        for p in np.linspace(0.0, 1.0, 21):
            diff = qi_werner_closed_form(p) - rate_werner_closed_form(p)
            assert gap_werner_closed_form(p) == pytest.approx(diff, abs=1e-12)

    @pytest.mark.parametrize(
        "fn",
        (qi_werner_closed_form, rate_werner_closed_form, gap_werner_closed_form),
    )
    def test_domain(self, fn):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError, match="mixing parameter"):
                fn(bad)


class TestSteering:
    def test_steered_state_matrix(self):
        p = 0.6
        want = p * bloch_qubit(0.0, 1.0, 0.0).mat + (1 - p) * np.eye(2) / 2
        assert np.abs(steered_state(p, 0.0, 1.0, 0.0).mat - want).max() < 1e-15
        with pytest.raises(ValueError, match="norm"):
            steered_state(0.5, 1.0, 1.0, 0.0)

    def test_equatorial_steering_attains_the_protocol_rate(self):
        # the equator maximizes the steered coherence; check it at 49 seeded p in (0, 1]
        sampled = 1.0 - np.random.default_rng(71).uniform(0.0, 1.0, 49)
        for p in (0.1, 0.5, 0.9, 1.0, *sampled):
            got = c_re(steered_state(float(p), 1.0, 0.0, 0.0))
            assert got == pytest.approx(rate_werner_closed_form(p), abs=1e-10)

    def test_conditional_matches_the_matrix_route(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            p = float(rng.uniform(0.0, 1.0))
            theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
            n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
            got = c_re(steered_state(p, *n))
            assert got == pytest.approx(conditional_c_re(p, n[2]), abs=1e-10)

    def test_conditional_frozen_value(self):
        assert conditional_c_re(0.5, 0.5) == pytest.approx(0.14315587846583222, abs=1e-12)

    def test_conditional_shape(self):
        """Even in z, maximal on the equator, vanishing at the poles."""
        for p in (0.3, 0.8):
            assert conditional_c_re(p, 0.0) == pytest.approx(rate_werner_closed_form(p), abs=1e-15)
            assert conditional_c_re(p, 1.0) == pytest.approx(0.0, abs=1e-15)
            zs = np.linspace(0.0, 1.0, 21)
            vals = [conditional_c_re(p, z) for z in zs]
            for z, prev, cur in zip(zs[1:], vals, vals[1:]):
                assert cur <= prev + 1e-15
                assert conditional_c_re(p, -z) == pytest.approx(cur, abs=1e-15)

    def test_conditional_domain(self):
        with pytest.raises(ValueError, match="z component"):
            conditional_c_re(0.5, 1.5)
        # values inside rounding fuzz of the ball are clamped, not rejected
        assert conditional_c_re(0.5, 1.0 + 1e-13) == pytest.approx(0.0, abs=1e-12)


class TestBruteForce:
    def test_matches_the_closed_form_on_a_coarse_grid(self):
        p = 0.5
        res = brute_force_measurement_opt(p, (60, 8))
        assert isinstance(res, BruteForceResult)
        assert abs(res.rate - rate_werner_closed_form(p)) < 2e-4
        assert res.rate <= rate_werner_closed_form(p) + 1e-9
        assert abs(res.direction.z) < 0.05  # equatorial winner

    def test_deterministic_reduction(self):
        a = brute_force_measurement_opt(0.3, (24, 8))
        b = brute_force_measurement_opt(0.3, (24, 8))
        assert (a.rate, a.theta, a.phi) == (b.rate, b.theta, b.phi)

    def test_flat_landscape_keeps_the_first_grid_point(self):
        res = brute_force_measurement_opt(0.0, (12, 6))
        assert res.rate == pytest.approx(0.0, abs=1e-12)
        assert (res.theta, res.phi) == (0.0, 0.0)
        assert (res.direction.x, res.direction.y, res.direction.z) == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_phi_ties_resolve_to_the_first_azimuth(self, p):
        """Werner rates are flat in phi: the equator wins at phi = 0, whatever
        rounding noise says about the other azimuths."""
        res = brute_force_measurement_opt(p, (21, 20))
        assert (res.theta, res.phi) == (math.pi / 2, 0.0)

    def test_grid_validation(self):
        for bad in ((1, 8), (8, 0)):
            with pytest.raises(ValueError, match="grid"):
                brute_force_measurement_opt(0.5, bad)


class TestGapCurvature:
    def test_sign_structure(self):
        assert gap_second_derivative(0.2) > 0.0
        assert gap_second_derivative(0.5) < 0.0
        assert abs(gap_second_derivative(1.0 / 3.0)) < 1e-14

    def test_bracketing_the_inflection(self):
        third = 1.0 / 3.0
        assert gap_second_derivative(third - 1e-3) == pytest.approx(
            0.0024363806447288234, abs=1e-12
        )
        assert gap_second_derivative(third + 1e-3) == pytest.approx(
            -0.0024327288126356193, abs=1e-12
        )

    def test_endpoint_sentinels(self):
        assert math.isnan(gap_second_derivative(0.0))
        assert math.isnan(gap_second_derivative(1.0))

    def test_matches_central_differences(self):
        h = 1e-4
        for p in np.linspace(0.05, 0.95, 19):
            fd = (
                gap_werner_closed_form(p + h)
                - 2.0 * gap_werner_closed_form(p)
                + gap_werner_closed_form(p - h)
            ) / (h * h)
            assert abs(fd - gap_second_derivative(p)) <= 1e-4


class TestGapAnalysis:
    def test_fields_are_consistent(self):
        g = gap_analysis(0.5)
        assert g.p == 0.5
        assert g.gap == g.qi - g.rate
        assert g.qi == qi_werner_closed_form(0.5)
        assert g.second_derivative == gap_second_derivative(0.5)

    def test_endpoint_gaps_are_tiny_but_positive(self):
        low = gap_analysis(1e-6).gap
        high = gap_analysis(1.0 - 1e-6).gap
        assert 0.0 < low < 1e-4
        assert 0.0 < high < 1e-4
        assert low == pytest.approx(7.214662064790973e-13, abs=1e-15)
        assert high == pytest.approx(4.843565947987294e-06, rel=1e-9)

    def test_endpoint_curvature_is_the_sentinel(self):
        assert math.isnan(gap_analysis(0.0).second_derivative)
        assert math.isnan(gap_analysis(1.0).second_derivative)

    def test_curvature_crosscheck_guard_raises_on_mismatch(self, monkeypatch):
        monkeypatch.setattr(optimize, "gap_second_derivative", lambda p: 99.0)
        with pytest.raises(ArithmeticError, match="curvature"):
            gap_analysis(0.5)
