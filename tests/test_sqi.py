"""Theorem 4 beyond LQICC: the first two steps of the argument that no
operation in SQI (separable, incoherent on Bob's side) beats the
closed-form rate on one copy of werner(p).

Every product operator A x B on werner(p) leaves Bob with B D_p(tau) B+,
where D_p is the qubit depolarizing map and tau a qubit state
(the reduction).  The ratio r(s) = |s_01|^2 / (s_00 s_11) of a qubit state
is at most p^2 after D_p (step i), and an incoherent B keeps it or
removes every coherence (step ii).  Step (iii), C_re <= f(r) at fixed r,
is not checked here.
"""

import numpy as np
import pytest

from cohdist.protocols import is_incoherent_kraus
from cohdist.states import pure_state, random_density_matrix, werner
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
