import numpy as np
import pytest
from conftest import random_hermitian
from hypothesis import given, settings
from hypothesis import strategies as st

from cohdist import linalg
from cohdist.linalg import (
    DEFAULT_TOL,
    ConvergenceError,
    hermitian_eigenvalues,
    hermitian_eigh,
    identity,
    is_hermitian,
    kron,
    trace_distance,
)


def test_jacobi_matches_numpy_across_sizes():
    """The cyclic Jacobi spectrum agrees with the LAPACK oracle."""
    rng = np.random.default_rng(101)
    for dim in (1, 2, 3, 4, 6, 8):
        for _ in range(25):
            m = random_hermitian(rng, dim)
            got = hermitian_eigenvalues(m)
            want = np.linalg.eigvalsh(m)[::-1]
            assert np.allclose(got, want, atol=1e-11, rtol=0.0)


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(7)
    for dim in (2, 4, 8):
        for _ in range(10):
            m = random_hermitian(rng, dim)
            vals = hermitian_eigenvalues(m)
            assert abs(sum(vals) - m.trace().real) <= 10 * DEFAULT_TOL


def test_psd_spectrum_stays_above_negative_window():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vals = hermitian_eigenvalues(g @ g.conj().T)
        assert vals[-1] >= -10 * DEFAULT_TOL


def test_eigh_reconstructs_input():
    rng = np.random.default_rng(23)
    for dim in (2, 3, 5, 8):
        m = random_hermitian(rng, dim)
        vals, vecs = hermitian_eigh(m)
        assert vals == sorted(vals, reverse=True)
        assert np.abs(vecs.conj().T @ vecs - np.eye(dim)).max() < 1e-12
        rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.abs(rebuilt - m).max() < 1e-11


def test_eigh_vectors_satisfy_eigen_equation():
    rng = np.random.default_rng(24)
    m = random_hermitian(rng, 6)
    vals, vecs = hermitian_eigh(m)
    for k, lam in enumerate(vals):
        assert np.abs(m @ vecs[:, k] - lam * vecs[:, k]).max() < 1e-10


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_two_by_two_spectrum_properties(entries):
    a, b, c, d = entries
    m = np.array([[a, c + 1j * d], [c - 1j * d, b]])
    vals = hermitian_eigenvalues(m)
    assert vals[0] >= vals[1]
    assert abs(sum(vals) - (a + b)) <= 1e-9 * max(1.0, abs(a) + abs(b))


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_two_by_two_values_path_is_bit_identical_to_the_loop(entries):
    """Without vectors a 2x2 takes the unrolled path; with them, the loop."""
    a, b, c, d = entries
    m = np.array([[a, c + 1j * d], [c - 1j * d, b]], dtype=complex)
    assert linalg._jacobi(m, False)[0] == linalg._jacobi(m, True)[0]


def test_convergence_error_when_sweeps_exhausted(monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError):
        hermitian_eigenvalues(np.array([[1.0, 0.5], [0.5, -1.0]]))


def test_hermitian_input_is_required():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not square"):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_identity_is_cached_and_read_only():
    assert identity(3) is identity(3)
    assert np.array_equal(identity(3), np.eye(3))
    with pytest.raises(ValueError):
        identity(3)[0, 0] = 2.0


def test_as_matrix_unwraps_mat_attribute():
    class Box:
        mat = np.eye(2)

    assert np.array_equal(linalg.as_matrix(Box()), np.eye(2))
    assert linalg.as_matrix([[1, 2], [3, 4]]).dtype == complex
    with pytest.raises(ValueError, match="ndim"):
        linalg.as_matrix([1.0, 2.0])


def test_kron_shape_and_associativity():
    # integer-valued entries keep the triple product exact
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [1, 0]], dtype=complex)
    c = np.array([[2, 0, 1], [0, 1, 0], [1, 0, 2]], dtype=complex)
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert left.shape == (12, 12)
    assert np.array_equal(left, right)


def test_is_hermitian_tolerance_and_shape():
    assert is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))
    assert not is_hermitian(np.zeros((2, 3)))
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-8
    assert not is_hermitian(m)
    assert is_hermitian(m, tol=1e-6)
    m[1, 1] = np.nan
    assert not is_hermitian(m, tol=1e-6)


def test_trace_distance_values():
    zero = np.diag([1.0, 0.0])
    mixed = np.eye(2) / 2
    assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)
    assert trace_distance(zero, zero) == 0.0
    assert trace_distance(zero, mixed) == trace_distance(mixed, zero)
    with pytest.raises(ValueError, match="shape mismatch"):
        trace_distance(zero, np.eye(3) / 3)
