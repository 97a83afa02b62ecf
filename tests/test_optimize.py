import math

import numpy as np
import pytest

from cohdist.coherence import c_re, xlog2x
from cohdist.optimize import (
    BruteForceResult,
    brute_force_measurement_opt,
    gap_second_derivative,
    qi_werner_closed_form,
    rate_werner_closed_form,
)
from cohdist.states import DensityMatrix


def gap(p: float) -> float:
    """The Werner gap as theorem4_suite reads it."""
    return qi_werner_closed_form(p) - rate_werner_closed_form(p)


class TestClosedForms:
    def test_frozen_values(self):
        assert qi_werner_closed_form(0.5) == pytest.approx(0.26248318376373436, abs=1e-12)
        assert qi_werner_closed_form(0.1) == pytest.approx(0.013188643469861705, abs=1e-12)
        assert rate_werner_closed_form(0.5) == pytest.approx(0.18872187554086717, abs=1e-12)
        assert rate_werner_closed_form(0.1) == pytest.approx(0.007225546012191789, abs=1e-12)
        assert rate_werner_closed_form(0.9) == pytest.approx(0.7136030428840436, abs=1e-12)
        assert gap(0.5) == pytest.approx(0.0737613082228672, abs=1e-12)
        assert gap(1.0 / 3.0) == pytest.approx(0.044110417748401104, abs=1e-12)

    def test_endpoints(self):
        assert qi_werner_closed_form(0.0) == 0.0
        assert rate_werner_closed_form(0.0) == 0.0
        assert gap(0.0) == 0.0
        assert qi_werner_closed_form(1.0) == pytest.approx(1.0, abs=1e-15)
        assert rate_werner_closed_form(1.0) == pytest.approx(1.0, abs=1e-15)
        assert gap(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_gaps_are_tiny_but_positive(self):
        """qi - rate, as theorem4_suite reads the gap."""
        low = qi_werner_closed_form(1e-6) - rate_werner_closed_form(1e-6)
        high = qi_werner_closed_form(1.0 - 1e-6) - rate_werner_closed_form(1.0 - 1e-6)
        assert 0.0 < low < 1e-4
        assert 0.0 < high < 1e-4
        assert low == pytest.approx(7.214662064790973e-13, abs=1e-15)
        assert high == pytest.approx(4.843565947987294e-06, rel=1e-9)

    def test_gap_is_the_difference_of_the_other_two(self):
        """qi - rate equals the simplified gap
        (1+3p)/4 log2(1+3p) - (1-p)/4 log2(1-p) - (1+p) log2(1+p)."""
        for p in np.linspace(0.0, 1.0, 21):
            simplified = 0.25 * xlog2x(1.0 + 3.0 * p) - 0.25 * xlog2x(1.0 - p) - xlog2x(1.0 + p)
            assert gap(p) == pytest.approx(simplified, abs=1e-12)

    @pytest.mark.parametrize("fn", (qi_werner_closed_form, rate_werner_closed_form))
    def test_domain(self, fn):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError, match="mixing parameter"):
                fn(bad)


def steered(p: float, x: float, y: float, z: float) -> DensityMatrix:
    """Bob's conditional state p (I + n.sigma)/2 + (1-p) I/2 when Alice's
    projection along the unit Bloch direction n = (x, y, z) clicks."""
    bloch = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])
    return DensityMatrix(p * bloch + (1.0 - p) * np.eye(2) / 2)


def landscape(p: float, z: float) -> float:
    """The analytic c_re of steered(p, n) for a unit n with z component z:
    (1-p)/2 log2(1-p) + (1+p)/2 log2(1+p)
    - (1+pz)/2 log2(1+pz) - (1-pz)/2 log2(1-pz)."""
    terms = (1.0 - p, 1.0 + p, 1.0 + p * z, 1.0 - p * z)
    xlx = [t * math.log2(t) if t > 0.0 else 0.0 for t in terms]
    return 0.5 * (xlx[0] + xlx[1] - xlx[2] - xlx[3])


class TestSteering:
    def test_equatorial_steering_attains_the_protocol_rate(self):
        # the equator maximizes the steered coherence; check it at 49 seeded p in (0, 1]
        sampled = 1.0 - np.random.default_rng(71).uniform(0.0, 1.0, 49)
        for p in (0.1, 0.5, 0.9, 1.0, *sampled):
            got = c_re(steered(float(p), 1.0, 0.0, 0.0))
            assert got == pytest.approx(rate_werner_closed_form(p), abs=1e-10)

    def test_conditional_matches_the_matrix_route(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            p = float(rng.uniform(0.0, 1.0))
            theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
            n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
            got = c_re(steered(p, *n))
            assert got == pytest.approx(landscape(p, n[2]), abs=1e-10)

    def test_conditional_frozen_value(self):
        got = c_re(steered(0.5, math.sqrt(0.75), 0.0, 0.5))
        assert got == pytest.approx(0.14315587846583222, abs=1e-12)

    def test_conditional_shape(self):
        """Even in z, maximal on the equator, vanishing at the poles."""

        def at(p, z):
            return c_re(steered(p, math.sqrt(1.0 - z * z), 0.0, z))

        for p in (0.3, 0.8):
            assert at(p, 0.0) == pytest.approx(rate_werner_closed_form(p), abs=1e-15)
            assert at(p, 1.0) == pytest.approx(0.0, abs=1e-15)
            zs = np.linspace(0.0, 1.0, 21)
            vals = [at(p, z) for z in zs]
            for z, prev, cur in zip(zs[1:], vals, vals[1:]):
                assert cur <= prev + 1e-15
                assert at(p, -z) == pytest.approx(cur, abs=1e-15)


class TestBruteForce:
    def test_matches_the_closed_form_on_a_coarse_grid(self):
        p = 0.5
        res = brute_force_measurement_opt(p, (60, 8))
        assert isinstance(res, BruteForceResult)
        assert abs(res.rate - rate_werner_closed_form(p)) < 2e-4
        assert res.rate <= rate_werner_closed_form(p) + 1e-9
        assert abs(math.cos(res.theta)) < 0.05  # equatorial winner

    def test_deterministic_reduction(self):
        a = brute_force_measurement_opt(0.3, (24, 8))
        b = brute_force_measurement_opt(0.3, (24, 8))
        assert (a.rate, a.theta, a.phi) == (b.rate, b.theta, b.phi)

    def test_flat_landscape_keeps_the_first_grid_point(self):
        res = brute_force_measurement_opt(0.0, (12, 6))
        assert res.rate == pytest.approx(0.0, abs=1e-12)
        assert (res.theta, res.phi) == (0.0, 0.0)

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

    @pytest.mark.parametrize("grid", [(21.9, 1.5), (21, True), (True, 4), (21, 4.0), (21, "4")])
    def test_grid_sizes_must_be_integers(self, grid):
        # each of these once ran a truncated sweep, (21.9, 1.5) and (21, True) a 21x1 one
        with pytest.raises(ValueError, match="grid sizes must be integers"):
            brute_force_measurement_opt(0.5, grid)

    def test_numpy_integer_grid_sizes_pass(self):
        res = brute_force_measurement_opt(0.5, (np.int64(21), np.int32(4)))
        assert res == brute_force_measurement_opt(0.5, (21, 4))


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
            fd = (gap(p + h) - 2.0 * gap(p) + gap(p - h)) / (h * h)
            assert abs(fd - gap_second_derivative(p)) <= 1e-4


class TestGapAnalysis:
    def test_endpoint_curvature_is_the_sentinel(self):
        """At p = 0 and 1 the gap, read as qi - rate, is a finite 0 while its
        curvature is the nan sentinel."""
        for p in (0.0, 1.0):
            assert gap(p) == pytest.approx(0.0, abs=1e-15)
            assert math.isnan(gap_second_derivative(p))
