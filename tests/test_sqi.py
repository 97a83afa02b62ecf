"""Theorem 4 beyond LQICC: the three steps of the argument that no
operation in SQI (separable, incoherent on Bob's side) beats the
closed-form rate on one copy of werner(p), and a two-round probe.

Every product operator A x B on werner(p) leaves Bob with B D_p(tau) B+,
where D_p is the qubit depolarizing map and tau a qubit state
(the reduction).  The ratio r(s) = |s_01|^2 / (s_00 s_11) of a qubit state
is at most p^2 after D_p (step i), and an incoherent B keeps it or
removes every coherence (step ii).  Step (iii), a qubit's C_re is at most
f(r) = 1 - h((1 + sqrt r)/2) at fixed r, with f increasing, is checked on
a grid, not proved.  f(p^2) is the closed-form rate.
"""

import numpy as np
import pytest
from conftest import grid_pairs

from cohdist import linalg, optimize
from cohdist.closed_forms import rate_werner_closed_form
from cohdist.protocols import PROB_FLOOR, is_incoherent_kraus
from cohdist.states import DensityMatrix, pure_state, random_density_matrix, werner
from cohdist.verify import DEFAULT_P_GRID

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def trace_a(mat: np.ndarray) -> np.ndarray:
    """Partial trace over the first qubit of a 4x4 matrix."""
    return np.einsum("abac->bc", mat.reshape(2, 2, 2, 2))


def depolarize(x: np.ndarray, p: float) -> np.ndarray:
    """D_p(X) = p X + (1 - p) tr(X) I/2."""
    return p * x + (1.0 - p) * np.trace(x) * np.eye(2) / 2.0


def ratio(s: np.ndarray) -> float:
    """r(s) = |s_01|^2 / (s_00 s_11)."""
    return abs(s[0, 1]) ** 2 / (s[0, 0].real * s[1, 1].real)


def ginibre(rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def reduction_misses(rho_mat: np.ndarray, p: float, rng: np.random.Generator, pairs: int) -> list[float]:
    """Largest entry of |tr_A[(A x B) rho (A x B)+] - B D_p(conj(A+A)/2) B+|
    on each seeded complex pair (A, B)."""
    misses = []
    for _ in range(pairs):
        a, b = ginibre(rng), ginibre(rng)
        ab = np.kron(a, b)
        lhs = trace_a(ab @ rho_mat @ ab.conj().T)
        rhs = b @ depolarize((a.conj().T @ a).conj() / 2.0, p) @ b.conj().T
        misses.append(float(np.abs(lhs - rhs).max()))
    return misses


class TestReduction:
    def test_bobs_branch_is_an_incoherent_image_of_a_depolarized_qubit(self):
        worst = max(
            max(reduction_misses(werner(p).mat, p, np.random.default_rng(1900 + k), 20))
            for k, p in enumerate(DEFAULT_P_GRID)
        )
        print(f"reduction: worst entry error {worst:.3e} over {20 * len(DEFAULT_P_GRID)} pairs")
        assert worst <= 1e-13

    def test_control_the_singlet_based_state_misses_the_reduction(self):
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        least = min(
            min(reduction_misses(p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0, p, np.random.default_rng(1900 + k), 20))
            for k, p in enumerate(DEFAULT_P_GRID)
        )
        print(f"singlet control: least entry error {least:.3e}")
        assert least > 1e-2


class TestStepOneDepolarizingBoundsTheRatio:
    @pytest.mark.parametrize("p", DEFAULT_P_GRID)
    def test_ratio_after_depolarizing_is_at_most_p_squared(self, p):
        rng = np.random.default_rng(1910)
        for _ in range(50):
            tau = random_density_matrix(2, rng).mat
            assert ratio(depolarize(tau, p)) <= p * p * (1.0 + 1e-14)

    @pytest.mark.parametrize("p", DEFAULT_P_GRID)
    def test_equator_pure_states_reach_p_squared(self, p):
        for phi in np.linspace(0.0, 2.0 * np.pi, 13):
            tau = pure_state([1.0, np.exp(1j * phi)]).mat
            assert abs(ratio(depolarize(tau, p)) - p * p) <= 1e-14


def incoherent_operators(rng: np.random.Generator) -> list[np.ndarray]:
    """Seeded incoherent qubit operators of three kinds: diagonal,
    anti-diagonal, and both columns mapped into one row."""
    ops = []
    for _ in range(10):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        row = int(rng.integers(2))
        collapse = np.zeros((2, 2), dtype=complex)
        collapse[row] = z
        ops += [np.diag(z), np.diag(z)[::-1], collapse]
    return ops


class TestStepTwoIncoherentOperatorsKeepTheRatio:
    def test_incoherent_operators_keep_the_ratio_or_leave_no_coherence(self):
        rng = np.random.default_rng(1920)
        sigmas = [random_density_matrix(2, rng).mat for _ in range(10)]
        kept = collapsed = 0
        for b in incoherent_operators(rng):
            assert is_incoherent_kraus(b)
            for sigma in sigmas:
                out = b @ sigma @ b.conj().T
                out = out / np.trace(out).real
                if out[0, 1] == 0.0:
                    collapsed += 1
                else:
                    assert abs(ratio(out) - ratio(sigma)) <= 1e-12 * ratio(sigma)
                    kept += 1
        assert (kept, collapsed) == (200, 100)

    def test_control_a_hadamard_changes_the_ratio(self):
        rng = np.random.default_rng(1920)
        assert not is_incoherent_kraus(HADAMARD)
        shifts = []
        for _ in range(10):
            sigma = random_density_matrix(2, rng).mat
            shifts.append(abs(ratio(HADAMARD @ sigma @ HADAMARD.T) - ratio(sigma)))
        assert max(shifts) > 1e-3


def entropy(x: np.ndarray) -> np.ndarray:
    """-x log2 x summed over the first axis; an entry <= 0 counts as 0."""
    return -optimize._xlog2x(x).sum(axis=0)


def one_minus_h(x: np.ndarray) -> np.ndarray:
    """1 - h((1 + x)/2), h the binary entropy; f(r) is this at x = sqrt r."""
    return 1.0 - entropy(np.array([0.5 * (1.0 + x), 0.5 * (1.0 - x)]))


R = np.arange(201) / 200.0
S = np.arange(2001) / 2000.0


def grid_c_re() -> np.ndarray:
    """C_re of the qubit state of diagonal (s, 1 - s) and off-diagonal
    sqrt(r s (1 - s)), so of ratio r, at each (r, s) of R x S, from the
    matrix's spectrum."""
    s = np.broadcast_to(S, (R.size, S.size))
    diagonal = np.array([s, 1.0 - s])
    spectrum = np.array(linalg._spectrum_2x2(diagonal[0], diagonal[1], np.sqrt(R[:, None] * s * (1.0 - s))))
    return entropy(diagonal) - entropy(spectrum)


class TestStepThreeTheRatioBoundsTheCoherence:
    def test_c_re_at_fixed_ratio_is_at_most_f_checked_on_a_grid_not_proved(self):
        c, f = grid_c_re(), one_minus_h(np.sqrt(R))
        print(f"step (iii), a grid check: worst C_re - f(r) = {(c - f[:, None]).max():.3e} on 201 x 2001 (r, s)")
        assert (c <= f[:, None] + 1e-14).all()
        assert S[1000] == 0.5 and np.abs(c[:, 1000] - f).max() <= 1e-14
        assert (np.diff(f) > 0.0).all()

    def test_control_f_with_r_for_its_square_root_fails(self):
        excess = (grid_c_re() - one_minus_h(R)[:, None]).max()
        print(f"control: C_re exceeds 1 - h((1 + r)/2) by {excess:.3e}")
        assert excess > 1e-2


def two_round_rate(rho: np.ndarray, bob: tuple[np.ndarray, ...]) -> float:
    """Bob applies the Kraus operators bob to his half of the two-qubit
    state rho and announces the outcome; Alice then measures, per outcome,
    the best direction of the 21x20 grid.  Bob's average final C_re."""
    total = 0.0
    for b in bob:
        k = np.kron(np.eye(2), b)
        out = k @ rho @ k.conj().T
        q = np.trace(out).real
        if q >= PROB_FLOOR:
            total += q * optimize._rates(DensityMatrix(out / q, (2, 2)), grid_pairs()).max()
    return total


class TestTwoRoundProbe:
    """Bob's diagonal filter first, then Alice's outcome-dependent
    projective measurement, on werner(p) at each p of DEFAULT_P_GRID: no
    round order beats the rate."""

    @pytest.mark.parametrize("p", DEFAULT_P_GRID)
    def test_a_diagonal_filter_first_never_beats_the_rate(self, p):
        rate = rate_werner_closed_form(p)
        angles = np.linspace(0.0, np.pi / 2.0, 13)
        excess = []
        for a in angles:
            for b in angles:
                bob = (np.diag([np.cos(a), np.cos(b)]), np.diag([np.sin(a), np.sin(b)]))
                assert all(map(is_incoherent_kraus, bob))
                excess.append(two_round_rate(werner(p).mat, bob) - rate)
        print(f"two rounds at p = {p}: best minus rate {max(excess):.3e} over 13 x 13 filters")
        assert max(excess) <= 1e-12
        assert max(excess) >= -1e-9

    def test_control_a_coherent_filter_reaches_full_coherence(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        bob = (np.outer(plus, [1.0, 0.0]), np.outer(plus, [0.0, 1.0]))
        assert not any(map(is_incoherent_kraus, bob))
        value = two_round_rate(werner(0.5).mat, bob)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert value > rate_werner_closed_form(0.5) + 1e-3
