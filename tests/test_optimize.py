import ast
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import gap, grid_pairs, random_unitary

from cohdist import optimize
from cohdist.closed_forms import gap_second_derivative, qi_werner_closed_form, rate_werner_closed_form
from cohdist.coherence import basis_dependent_discord, c_re, qi_relative_entropy
from cohdist.optimize import (
    RECHECK_POINTS,
    SWEEP_TIE_TOL,
    BruteForceResult,
    brute_force_measurement_opt,
)
from cohdist.protocols import KrausChannel, ensemble_rate, is_incoherent_kraus, measure_local_A
from cohdist.scalars import xlog2x
from cohdist.states import DensityMatrix, pure_state, random_density_matrix, random_zero_discord_spec, werner, zero_discord_state
from cohdist.verify import DEFAULT_P_GRID, VERDICT_TOL


# p, qi, rate, gap, gap'': endpoints, the gap's tiny ends, the inflection at 1/3 and either side of it
CLOSED_FORM_VALUES = (
    (0.0, 0.0, 0.0, 0.0, 1.4426950408889634),
    (1e-6, 1.4427336412187701e-12, 7.212674347396728e-13, 7.214662064790973e-13, 1.4426863847461295),
    (0.1, 0.013188643469861705, 0.007225546012191789, 0.005963097457669916, 0.7846826174221246),
    (1.0 / 3.0 - 1e-3, 0.12512667353759055, 0.08120497725882012, 0.043921696278770433, 0.0024363806447288234),
    (1.0 / 3.0, 0.12581458369391152, 0.08170416594551042, 0.044110417748401104, 0.0),
    (1.0 / 3.0 + 1e-3, 0.12650411688291407, 0.0822049776645784, 0.04429913921833567, -0.0024327288126356193),
    (0.5, 0.26248318376373436, 0.18872187554086717, 0.0737613082228672, -0.38471867757039024),
    (0.9, 0.7832132254353728, 0.7136030428840436, 0.06961018255132911, -3.4887362297457165),
    (1.0 - 1e-6, 0.9999936564343228, 0.9999888128683748, 4.843565947987294e-06, -360673.6700391921),
    (1.0, 1.0, 1.0, 0.0, math.nan),
)


class TestClosedForms:
    @pytest.mark.parametrize("row", CLOSED_FORM_VALUES, ids=[f"{row[0]:.7g}" for row in CLOSED_FORM_VALUES])
    def test_values(self, row):
        """qi, rate, the gap qi - rate as theorem4_suite reads it, and its
        curvature, whose nan sentinel marks p = 1 alone.  At p = 0 and 1
        every log2 argument is 1, 2 or 4, so the values there are exact."""
        p, *want = row
        got = [qi_werner_closed_form(p), rate_werner_closed_form(p), gap(p), gap_second_derivative(p)]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15, nan_ok=True)
        assert p not in (0.0, 1.0) or repr(got) == repr(want)

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

    @pytest.mark.parametrize("grid", [(3,), 5, (21, 4, 2), ()])
    def test_a_grid_holds_exactly_two_sizes(self, grid):
        with pytest.raises(ValueError, match="grid must hold two sizes"):
            brute_force_measurement_opt(0.5, grid)

    def test_numpy_integer_grid_sizes_pass(self):
        res = brute_force_measurement_opt(0.5, (np.int64(21), np.int32(4)))
        assert res == brute_force_measurement_opt(0.5, (21, 4))


def projector_up(theta: float, phi: float) -> np.ndarray:
    """|n><n| for the Bloch direction at (theta, phi), in the sweep's arithmetic."""
    st = math.sin(theta)
    nx, ny, nz = st * math.cos(phi), st * math.sin(phi), math.cos(theta)
    off = 0.5 * (nx - 1j * ny)
    return np.array([[0.5 * (1.0 + nz), off], [off.conjugate(), 0.5 * (1.0 - nz)]])


def scalar_landscape_winner(p: float, grid: tuple[int, int]) -> tuple[float, float, float]:
    """(rate, theta, phi) of the sweep done point by point on the scalar
    route, every grid point through measure_local_A, under the tie rule."""
    rho = werner(p)
    landscape = []
    for theta in np.linspace(0.0, math.pi, grid[0]).tolist():
        for phi in np.linspace(0.0, 2.0 * math.pi, grid[1], endpoint=False).tolist():
            up = projector_up(theta, phi)
            rate = ensemble_rate(measure_local_A(rho, KrausChannel((up, np.eye(2) - up))))
            landscape.append((rate, theta, phi))
    floor = max(rate for rate, _, _ in landscape) - SWEEP_TIE_TOL
    return next(point for point in landscape if point[0] >= floor)


def count_scalar_calls(monkeypatch) -> list[bytes]:
    """Record the +n projector of every scalar-route measurement the sweep
    makes.  The poles' projectors repeat across phi, so this is a list."""
    seen = []

    def counting(rho, channel):
        seen.append(channel.operators[0].tobytes())
        return measure_local_A(rho, channel)

    monkeypatch.setattr(optimize, "measure_local_A", counting)
    return seen


def record_kernel_calls(monkeypatch) -> list[np.ndarray]:
    """Record the rates of every optimize._rates call the sweep makes, one
    array per chunk."""
    chunks = []
    orig = optimize._rates

    def recording(rho, elements):
        chunks.append(orig(rho, elements))
        return chunks[-1]

    monkeypatch.setattr(optimize, "_rates", recording)
    return chunks


# dividing a non-finite conditional state by its probability warns before it is rejected
QUIET_NONFINITE = pytest.mark.filterwarnings("ignore:invalid value")

# two measurements on a qubit A: the computational basis, then the X basis
Z_AND_X = np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])]], dtype=complex)


class TestBatchedSweep:
    @pytest.mark.parametrize("grid", [(12, 6), (21, 20), (24, 8), (60, 8)])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.37, 0.5, 1.0])
    def test_matches_the_full_scalar_landscape(self, p, grid):
        res = brute_force_measurement_opt(p, grid)
        assert (res.rate, res.theta, res.phi) == scalar_landscape_winner(p, grid)

    @pytest.mark.parametrize("grid, point", [((6, 4), 5), ((21, 20), None), ((41, 400), None)])
    def test_a_batched_rate_off_by_1e_11_raises(self, monkeypatch, grid, point):
        """Point 5 of a 24-point grid is rechecked because every point is; the
        winner of a larger grid, theta = pi/2 and phi = 0 on a Werner state,
        because it always is.  The 41x400 grid spans five chunks, and its
        winner, point 8000, lies in the second."""
        at = (grid[0] // 2) * grid[1] if point is None else point
        orig = optimize._rates

        def shifted(by):
            start = [0]  # grid index of the chunk's first point

            def rates(rho, elements):
                out = orig(rho, elements)
                if start[0] <= at < start[0] + len(out):
                    out[at - start[0]] += by
                start[0] += len(out)
                return out

            return rates

        monkeypatch.setattr(optimize, "_rates", shifted(1e-13))
        brute_force_measurement_opt(0.5, grid)  # within SWEEP_TIE_TOL passes
        monkeypatch.setattr(optimize, "_rates", shifted(1e-11))
        with pytest.raises(ArithmeticError, match=f"sweep routes disagree at grid point {at}:"):
            brute_force_measurement_opt(0.5, grid)
        if grid == (41, 400):
            chunks = record_kernel_calls(monkeypatch)
            brute_force_measurement_opt(0.5, grid)
            assert [len(rates) for rates in chunks] == [4096, 4096, 4096, 4096, 16]

    def test_a_non_psd_conditional_state_raises_before_any_scalar_call(self, monkeypatch):
        # Hermitian with unit trace, but each |n>-outcome leaves Bob in diag(1.2, -0.2)
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        seen = count_scalar_calls(monkeypatch)
        monkeypatch.setattr(optimize, "werner", lambda p: SimpleNamespace(mat=bad, dims=(2, 2)))
        with pytest.raises(ValueError, match="not a state"):
            brute_force_measurement_opt(0.5, (6, 4))
        assert seen == []

    @pytest.mark.parametrize(
        "mat",
        [
            pytest.param(np.diag([0.5, np.nan, 0.25, 0.25]), marks=QUIET_NONFINITE),
            pytest.param(np.diag([0.5, np.inf, 0.25, 0.25]), marks=QUIET_NONFINITE),
            np.eye(4) / 4 + 0.1j * np.eye(4)[::-1],  # anti-diagonal i/10: not Hermitian
        ],
        ids=["nan", "inf", "non-hermitian"],
    )
    def test_the_batched_pass_rejects_what_a_density_matrix_would(self, mat):
        rho = SimpleNamespace(mat=mat.astype(complex), dims=(2, 2))
        with pytest.raises(ValueError, match="not a state"):
            optimize._rates(rho, Z_AND_X)

    def test_a_small_grid_is_rechecked_at_every_point(self, monkeypatch):
        seen = count_scalar_calls(monkeypatch)
        brute_force_measurement_opt(0.5, (6, 4))
        assert len(seen) == 24

    @pytest.mark.parametrize("grid", [(6, 4), (21, 20), (41, 400)])
    def test_every_run_rechecks_the_same_fixed_seed_points(self, monkeypatch, grid):
        """The winner and min(N, 64) - 1 of the other N - 1 points, drawn by
        default_rng(0) over their theta-major ranks, in grid order."""
        n_theta, n_phi = grid
        n = n_theta * n_phi
        thetas = np.linspace(0.0, math.pi, n_theta).tolist()
        phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False).tolist()
        runs = []
        for _ in range(2):
            seen = count_scalar_calls(monkeypatch)
            res = brute_force_measurement_opt(0.5, grid)
            runs.append(seen)
        best = thetas.index(res.theta) * n_phi + phis.index(res.phi)
        others = np.random.default_rng(0).choice(n - 1, min(n, RECHECK_POINTS) - 1, replace=False)
        want = sorted([best, *(others + (others >= best)).tolist()])
        assert len(want) == min(n, RECHECK_POINTS) and RECHECK_POINTS == 64
        assert runs[0] == runs[1] == [projector_up(thetas[i // n_phi], phis[i % n_phi]).tobytes() for i in want]

    def test_a_second_sweep_on_a_grid_rebuilds_nothing(self, monkeypatch):
        """Angles, their trig and the recheck draw are built once per grid
        size, on a grid no other test sweeps, and shared read-only."""
        first = brute_force_measurement_opt(0.3, (9, 7))

        def no_generator(*args, **kwargs):
            raise AssertionError("the recheck draw was made again")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        assert brute_force_measurement_opt(0.3, (9, 7)) == first
        for cached in optimize._grid(9, 7):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0

    @pytest.mark.parametrize("grid, chunk", [((21, 20), 7), ((7, 9), 4), ((3, 5000), 4096)])
    def test_chunking_leaves_every_rate_bit_for_bit(self, monkeypatch, grid, chunk):
        """One chunk and chunks of chunk points, which split theta rows, give
        the same rates in grid order; a 5000-point row spans two default chunks."""
        chunks = record_kernel_calls(monkeypatch)
        runs = []
        for size in (grid[0] * grid[1], chunk):
            monkeypatch.setattr(optimize, "CHUNK_POINTS", size)
            brute_force_measurement_opt(0.5, grid)
            runs.append(chunks[:])
            chunks.clear()
        one, many = runs
        assert len(one) == 1 < len(many) == -(-grid[0] * grid[1] // chunk)
        assert np.concatenate(many).tobytes() == one[0].tobytes()


def haar_elements(rng: np.random.Generator, da: int, outcomes: int) -> np.ndarray:
    """A rank-1 POVM {w_k+ w_k} on A, w_k the rows of an outcomes x da matrix
    with orthonormal columns: a Haar basis when outcomes == da."""
    g = rng.standard_normal((outcomes, da)) + 1j * rng.standard_normal((outcomes, da))
    w = np.linalg.qr(g)[0]
    return w.conj()[:, :, None] * w[:, None, :]


def scalar_rate(rho: DensityMatrix, elements: np.ndarray) -> float:
    """ensemble_rate(measure_local_A(...)) with Kraus operators M / |w| for
    each element M = w+ w, so that K+ K = M."""
    kraus = [m / math.sqrt(np.trace(m).real) for m in elements]
    return ensemble_rate(measure_local_A(rho, KrausChannel(kraus)))


def ginibre(seed: int, dims: tuple[int, int]) -> DensityMatrix:
    n = dims[0] * dims[1]
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    g = a + 1j * b
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def swap_ab(rho: DensityMatrix) -> SimpleNamespace:
    """rho with A and B swapped: what a kernel whose reshape swaps them reads."""
    da, db = rho.dims
    return SimpleNamespace(mat=rho.mat.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db), dims=(db, da))


# (dims, outcomes): Haar bases on a qutrit A; bases and 3- and 4-outcome POVMs on a qubit A
KERNEL_CASES = [((3, 2), 3), *(((2, db), outcomes) for db in (2, 3, 4) for outcomes in (2, 3, 4))]


def kernel_accepts(sigma: np.ndarray) -> bool:
    """Whether _rates takes sigma / tr(sigma) as the conditional state of one
    Z-basis element on the block-diagonal state (sigma ⊕ I / db) / 2, whose
    other blocks a non-finite entry of sigma cannot reach."""
    db = len(sigma)
    mat = np.zeros((2 * db, 2 * db), dtype=complex)
    mat[:db, :db], mat[db:, db:] = 0.5 * sigma, 0.5 * np.eye(db) / db
    try:
        optimize._rates(SimpleNamespace(mat=mat, dims=(2, db)), Z_AND_X[:1, :1])
    except ValueError as exc:  # a -inf on the diagonal sends the outcome below the floor
        assert re.fullmatch("conditional state 0 of measurement 0 is not a state|all outcomes of measurement 0 fell below the probability floor", str(exc))
        return False
    return True


def density_matrix_accepts(sigma: np.ndarray) -> bool:
    try:
        DensityMatrix(sigma / np.trace(sigma).real)
    except ValueError:
        return False
    return True


def edge_cases(db: int) -> list[tuple[str, np.ndarray, bool]]:
    """(id, sigma, verdict) rows at B dimension db: a non-finite part of each
    entry, then defects on either side of the tolerance, as in test_scalars."""
    base = np.array([[0.5, 0.1 + 0.2j, 0.05j], [0.1 - 0.2j, 0.3, 0.1], [-0.05j, 0.1, 0.2]]) if db == 3 else np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
    g = np.random.default_rng(2640 + db).standard_normal((2, db, db))
    u = np.linalg.qr(g[0] + 1j * g[1])[0]

    def changed(at, by):
        sigma = base.copy()
        sigma[at] += by
        return sigma

    def min_eigenvalue(x):  # unit trace, in a seeded basis
        return u @ np.diag([1.0 - x, x] if db == 2 else [0.6 - x, 0.4, x]) @ u.conj().T

    rows = []
    for (i, j), part, bad in itertools.product(itertools.product(range(db), repeat=2), ("re", "im"), (np.nan, np.inf, -np.inf)):
        sigma = base.copy()
        sigma[i, j] = complex(bad, sigma[i, j].imag) if part == "re" else complex(sigma[i, j].real, bad)
        rows.append((f"e{i}{j}-{part}-{bad}", sigma, False))
    rows += [
        ("off-diagonal-2e-10", changed((0, 1), 2e-10), False),
        ("off-diagonal-0.5e-10", changed((0, 1), 0.5e-10), True),
        ("diagonal-imag-0.6e-10", changed((0, 0), 0.6e-10j), False),
        ("diagonal-imag-0.4e-10", changed((0, 0), 0.4e-10j), True),
        # each entry passes; the trace's imaginary part, 0.9e-10 or 1.35e-10, is what the trace rule reads
        ("diagonal-imag-0.45e-10-each", base + np.diag([0.45e-10j] * db), db == 2),
        ("min-eigenvalue-2e-10", min_eigenvalue(-2e-10), False),
        ("min-eigenvalue-0.5e-10", min_eigenvalue(-0.5e-10), True),
    ]
    return [(f"db{db}-{name}", sigma, verdict) for name, sigma, verdict in rows]


EDGE_CASES = edge_cases(2) + edge_cases(3)


class TestRateKernel:
    @pytest.mark.parametrize("dims, outcomes", KERNEL_CASES)
    def test_matches_the_scalar_route(self, dims, outcomes):
        rng = np.random.default_rng(2600 + 10 * dims[1] + outcomes)
        for seed in range(3):
            state = ginibre(2610 + seed, dims)
            elements = np.array([haar_elements(rng, dims[0], outcomes) for _ in range(8)])
            # a trace off by 9e-11 passes DensityMatrix; both routes renormalize the kept q
            for rho in (state, *(DensityMatrix(state.mat * (1.0 + d), dims) for d in (-9e-11, 9e-11))):
                got = optimize._rates(rho, elements)
                want = [scalar_rate(rho, m) for m in elements]
                assert np.abs(got - want).max() <= 1e-14

    def test_a_measurement_that_keeps_no_outcome_raises(self):
        # A sits in |1>: the Z basis keeps its |1> outcome, |0><0| twice keeps nothing, and nothing divides 0/0
        rho = SimpleNamespace(mat=np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex), dims=(2, 2))
        with pytest.raises(ValueError, match="all outcomes of measurement 1 fell below the probability floor"):
            optimize._rates(rho, np.array([Z_AND_X[0], Z_AND_X[0, :1].repeat(2, axis=0)]))

    @pytest.mark.parametrize("db", [2, 3])
    def test_a_kernel_that_swaps_a_and_b_fails_the_agreement(self, db):
        # control: the same comparison on what a swapped reshape reads; square, so both splits fit
        rng = np.random.default_rng(2620 + db)
        rho = ginibre(2630, (db, db))
        elements = np.array([haar_elements(rng, db, db) for _ in range(8)])
        want = [scalar_rate(rho, m) for m in elements]
        assert np.abs(optimize._rates(rho, elements) - want).max() <= 1e-14
        assert np.abs(optimize._rates(swap_ab(rho), elements) - want).max() > 1e-3

    @pytest.mark.parametrize(
        "mat",
        [
            np.diag([1.2, -0.2, 0.0, 0.0, 0.0, 0.0]),  # the |0>-outcome leaves Bob in diag(1.2, -0.2, 0)
            pytest.param(np.diag([0.5, np.nan, 0.0, 0.25, 0.25, 0.0]), marks=QUIET_NONFINITE),
            pytest.param(np.diag([0.5, np.inf, 0.0, 0.25, 0.25, 0.0]), marks=QUIET_NONFINITE),
            np.eye(6) / 6 + 0.1j * np.eye(6)[::-1],  # anti-diagonal i/10: not Hermitian
        ],
        ids=["non-psd", "nan", "inf", "non-hermitian"],
    )
    def test_a_qutrit_b_rejects_what_a_density_matrix_would(self, mat):
        with pytest.raises(ValueError, match="not a state"):
            optimize._rates(SimpleNamespace(mat=mat.astype(complex), dims=(2, 3)), Z_AND_X)

    def test_a_qutrit_b_state_passes(self):
        # control: the non-PSD case's split with no negative weight is a state, incoherent after either measurement
        rho = SimpleNamespace(mat=np.diag([0.8, 0.2, 0.0, 0.0, 0.0, 0.0]).astype(complex), dims=(2, 3))
        assert optimize._rates(rho, Z_AND_X).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("sigma, expected", [case[1:] for case in EDGE_CASES], ids=[case[0] for case in EDGE_CASES])
    def test_the_kernel_and_a_density_matrix_agree_at_the_tolerance_edge(self, sigma, expected):
        with warnings.catch_warnings():  # a non-finite entry warns on its way to the rejection
            warnings.simplefilter("ignore", RuntimeWarning)
            assert kernel_accepts(sigma) == density_matrix_accepts(sigma) == expected

    def test_a_rule_that_skips_the_diagonal_pairs_fails_the_edge_table(self, monkeypatch):
        # control: with only the i < j pairs tested, a diagonal imaginary part of 0.6e-10 passes the kernel
        monkeypatch.setattr(optimize, "itertools", SimpleNamespace(combinations_with_replacement=itertools.combinations))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            missed = [name for name, sigma, expected in EDGE_CASES if kernel_accepts(sigma) != expected]
        assert missed == ["db2-diagonal-imag-0.6e-10", "db3-diagonal-imag-0.6e-10"]

    def test_a_density_matrix_rejects_a_non_finite_block(self):
        # given this state, _rates names the wrong outcome: 0 * inf turns every conditional state NaN
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = mat[1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite entries"):
            DensityMatrix(mat, (2, 2))

    def test_only_the_werner_sweep_calls_the_kernel(self):
        """So every state _rates sees has passed DensityMatrix, and the
        non-finite block above cannot reach it.  Control: a second caller
        added to a module's source fails the rule."""
        sources = {path.stem: path.read_text(encoding="utf-8") for path in Path(optimize.__file__).parent.glob("*.py")}
        assert kernel_references(sources) == [("optimize", "brute_force_measurement_opt", "rho")]
        sweep = next(f for f in ast.walk(ast.parse(sources["optimize"])) if getattr(f, "name", "") == "brute_force_measurement_opt")
        assert ast.unparse(sweep.body[1]) == "rho = werner(p)"  # after the docstring
        sources["verify"] += "\n\ndef _audit(rho, elements):\n    return optimize._rates(rho, elements)\n"
        assert kernel_references(sources)[1:] == [("verify", "_audit", "rho")]


def kernel_references(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(module, outermost def or "<module>", first argument or "") of each
    reference to optimize._rates in {module: source}, its definition aside."""
    out = []
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        owner, first_arg = {}, {}
        for node in ast.walk(tree):  # breadth first: an outer def claims its nodes first
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update({sub: node.name for sub in ast.walk(node) if sub not in owner})
            elif isinstance(node, ast.Call) and node.args:
                first_arg[node.func] = ast.unparse(node.args[0])
        for node in ast.walk(tree):
            names = {getattr(node, key, None) for key in ("id", "attr", "name")}  # a Name, an Attribute, an import
            if "_rates" in names and not isinstance(node, ast.FunctionDef):
                out.append((module, owner.get(node, "<module>"), first_arg.get(node, "")))
    return out


def grid_max(rho: DensityMatrix, n_theta: int, n_phi: int) -> float:
    """The largest _rates value over the sweep's grid, in 20 batches to bound memory."""
    return max(optimize._rates(rho, chunk).max() for chunk in np.array_split(grid_pairs(n_theta, n_phi), 20))


def erasing_pairs() -> np.ndarray:
    """{|0><n|, |0><-n|} for each direction of the 21x20 sweep, in theta-major
    order, with |n> = (cos t/2, e^{if} sin t/2) and |-n> = (sin t/2, -e^{if} cos t/2)."""
    thetas, phis = optimize._grid(21, 20)[:2]
    t, f = np.divmod(np.arange(21 * 20), 20)
    c, s, e = np.cos(thetas[t] / 2.0), np.sin(thetas[t] / 2.0), np.exp(1j * phis[f])
    pairs = np.zeros((21 * 20, 2, 2, 2), dtype=complex)
    pairs[:, 0, 0] = np.stack([c, e * s], axis=1).conj()
    pairs[:, 1, 0] = np.stack([s, -e * c], axis=1).conj()
    return pairs


# I x H, real and symmetric: its own adjoint
HADAMARD_ON_B = np.kron(np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))


class TestLandscape:
    """The abstract's claims read off _rates at every point of a 21x20 grid,
    on seeded states from 2x2 to 3x3."""

    def test_alice_cannot_help_on_zero_discord_states(self):
        """Zero discord is sufficient: every rate equals qi = C_re(rho_B).
        Control: a Werner landscape is not flat."""
        rng, pairs = np.random.default_rng(39), grid_pairs()
        for db in (2, 3, 4):
            for _ in range(25):
                rho = zero_discord_state(random_zero_discord_spec(rng, 2, db))
                rates = optimize._rates(rho, pairs)
                assert np.abs(rates - qi_relative_entropy(rho)).max() <= 1e-12 and np.abs(rates - c_re(rho.marginal_b)).max() <= 1e-12
        assert np.ptp(optimize._rates(werner(0.5), pairs)) > 1e-3

    def test_states_classical_on_a_reach_qi_in_the_computational_basis(self):
        """A second family reaches qi, though its discord is positive:
        sum_i w_i |i><i| x sigma_i, Dirichlet w and overlapping full-rank
        sigma_i, 10 seeded states at each of 2x2, 2x3, 3x2 and 3x3.  Alice's
        computational-basis measurement gives qi within 1e-12, and at qubit A
        so does the grid maximum.  Each |i><i| is incoherent, so LICC reaches
        qi too.  Control: a seeded Haar unitary on A leaves the computational
        basis more than 1e-3 short of qi on some state."""
        rng, discords, shortfalls = np.random.default_rng(41), [], []
        for da, db in ((2, 2), (2, 3), (3, 2), (3, 3)):
            basis = np.array([np.outer(e, e) for e in np.eye(da)])
            assert all(map(is_incoherent_kraus, basis))
            for _ in range(10):
                w = rng.dirichlet(np.ones(da))
                rho = DensityMatrix(sum(w[i] * np.kron(basis[i], random_density_matrix(db, rng).mat) for i in range(da)), (da, db))
                qi = qi_relative_entropy(rho)
                assert abs(optimize._rates(rho, basis[None])[0] - qi) <= 1e-12
                assert da > 2 or abs(grid_max(rho, 21, 20) - qi) <= 1e-12
                discords.append(basis_dependent_discord(rho))
                u = np.kron(random_unitary(rng, da), np.eye(db))
                shortfalls.append(qi - optimize._rates(DensityMatrix(u @ rho.mat @ u.conj().T, (da, db)), basis[None])[0])
        print(f"least discord {min(discords):.3e}, largest control shortfall {max(shortfalls):.3e}")
        assert min(discords) > VERDICT_TOL
        assert max(shortfalls) > 1e-3

    def test_every_rate_lies_between_c_re_of_b_and_qi(self):
        """C_re(rho_B) <= rate <= qi(rho) within 1e-12.  The lower side holds
        by convexity of C_re: Bob's conditional states average to rho_B.
        The upper side is the QI relative entropy's bound on any rate.

        Control 1: Alice helps, so the grid maximum clears C_re(rho_B) by
        more than 1e-3 on every state.  Control 2: a Hadamard on B, a
        coherent operation, lifts some 2x2 state's grid maximum more than
        1e-3 above the original state's qi."""
        rng, pairs = np.random.default_rng(39), grid_pairs()
        lifted = []
        for db in (2, 3, 4):
            for _ in range(25):
                rho = random_density_matrix(2 * db, rng, (2, db))
                rates = optimize._rates(rho, pairs)
                floor, qi = c_re(rho.marginal_b), qi_relative_entropy(rho)
                assert floor - 1e-12 <= rates.min() and rates.max() <= qi + 1e-12
                assert rates.max() > floor + 1e-3
                if db == 2:
                    rotated = DensityMatrix(HADAMARD_ON_B @ rho.mat @ HADAMARD_ON_B, rho.dims)
                    lifted.append(optimize._rates(rotated, pairs).max() - qi)
        assert max(lifted) > 1e-3

    def test_licc_equals_lqicc_at_every_grid_direction(self):
        """Alice's projective measurement {|n><n|, |-n><-n|} is coherent off
        the poles, yet the incoherent erasing pair {|0><n|, |0><-n|} leaves
        Bob the same branches, so LICC reaches every LQICC rate of the grid.
        The branches agree within 1e-12, and the two rates agree within
        1e-12 of each other and of _rates, on werner(0.5) and seeded 2x2
        and 2x3 states.

        Control 1: every off-pole projector pair fails is_incoherent_kraus
        and every pole pair passes.  Control 2: the erasing pair of the next
        theta row misses the projector rate by more than 1e-3 somewhere."""
        rng, pairs, erasing = np.random.default_rng(40), grid_pairs(), erasing_pairs()
        assert [all(map(is_incoherent_kraus, pair)) for pair in pairs] == [i // 20 in (0, 20) for i in range(21 * 20)]
        assert all(is_incoherent_kraus(k) for ops in erasing for k in ops)
        channels = [(KrausChannel(ops), KrausChannel(pair)) for ops, pair in zip(erasing, pairs)]
        shifted = []
        for rho in (werner(0.5), random_density_matrix(4, rng, (2, 2)), random_density_matrix(6, rng, (2, 3))):
            kernel = optimize._rates(rho, pairs)
            rates = []
            for (erase, projective), want in zip(channels, kernel):
                got, proj = measure_local_A(rho, erase), measure_local_A(rho, projective)
                assert len(got) == len(proj)
                for (_, q, sigma), (_, q_proj, sigma_proj) in zip(got, proj):
                    assert abs(q - q_proj) <= 1e-12 and np.abs(sigma.mat - sigma_proj.mat).max() <= 1e-12
                rates.append(ensemble_rate(got))
                assert abs(rates[-1] - ensemble_rate(proj)) <= 1e-12 and abs(rates[-1] - want) <= 1e-12
            shifted.append(np.abs(np.array(rates[20:]) - kernel[:-20]).max())
        assert max(shifted) > 1e-3

    def test_werner_states_stay_below_qi_on_the_grid(self):
        """A grid result: on the 21x20 grid, no measurement brings a Werner
        state of DEFAULT_P_GRID within 1e-3 of its qi, though Bob alone
        holds no coherence.  Control: on a zero-discord state the grid
        maximum meets qi within 1e-12."""
        for p in DEFAULT_P_GRID:
            rho = werner(p)
            assert c_re(rho.marginal_b) == pytest.approx(0.0, abs=1e-12), p
            assert qi_relative_entropy(rho) - grid_max(rho, 21, 20) > 1e-3, p
        rho = zero_discord_state(random_zero_discord_spec(np.random.default_rng(40), 2, 2))
        assert abs(qi_relative_entropy(rho) - grid_max(rho, 21, 20)) <= 1e-12

    def test_pure_states_reach_qi_on_the_full_grid(self):
        """One round reaches qi on pure 2x2 states: the 200x400 grid maximum
        comes within 1e-7 of qi and never beats it by more than 1e-12.
        Control: a seeded mixed state misses qi by more than 1e-3."""
        for seed in range(900, 905):
            rng = np.random.default_rng(seed)
            a, b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
            rho = pure_state((a + 1j * b).reshape(-1), (2, 2))
            assert -1e-12 <= qi_relative_entropy(rho) - grid_max(rho, 200, 400) <= 1e-7, seed
        mixed = random_density_matrix(4, np.random.default_rng(100), (2, 2))
        assert qi_relative_entropy(mixed) - grid_max(mixed, 200, 400) > 1e-3


MEMORY_PROBE = """
from cohdist.optimize import brute_force_measurement_opt

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

brute_force_measurement_opt(0.5, (3, 2))
before = peak_kb()
brute_force_measurement_opt(0.5, (200, 400))
print(peak_kb() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_full_sweep_grows_peak_memory_by_less_than_8_mb():
    """A 200x400 sweep once held its whole projector stack and every
    conditional state at once: 31.7 MB above the warm-up's peak."""
    src = str(Path(optimize.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True
    )
    assert int(out.stdout) < 8 * 1024
