import json
import math

import numpy as np
import pytest
from conftest import random_hermitian, run_cli, trace_distance
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError

from cohdist import linalg, optimize
from cohdist.linalg import hermitian_eigh, identity
from cohdist.states import DensityMatrix, density_matrix_to_dict, pure_state, random_density_matrix


def descending_spectrum(m) -> list[float]:
    """The eigenvalues DensityMatrix's positivity check reads, sorted descending."""
    return sorted(linalg._jacobi(np.asarray(m, dtype=complex)), reverse=True)


def _two_by_two_states() -> np.ndarray:
    """Unit-trace Hermitian 2x2s, stacked: seeded Ginibre states, pure and
    near-pure ones, exact diagonals (a == d with c = 0 among them) and
    a == d with |c| = 1e-13."""
    rng = np.random.default_rng(109)
    mats = [random_density_matrix(2, rng).mat for _ in range(100)]
    for eps in (0.0, 1e-13, 1e-9, 1e-5):
        for _ in range(25):
            pure = pure_state(rng.standard_normal(2) + 1j * rng.standard_normal(2)).mat
            mats.append((1.0 - eps) * pure + eps * random_density_matrix(2, rng).mat)
    mats += [np.diag([0.3, 0.7]), np.diag([1.0, 0.0]), np.diag([0.5, 0.5])]
    mats += [np.array([[0.5, 1e-13 * z], [1e-13 * np.conj(z), 0.5]]) for z in (1.0, 1j, np.exp(0.7j))]
    return np.array(mats, dtype=complex)


def _worst_two_by_two_error(spectrum) -> float:
    """Worst difference from LAPACK of spectrum(a, d, c) -> (larger,
    smaller) over _two_by_two_states, called once on the stacked arrays
    and once per state on Python scalars."""
    mats = _two_by_two_states()
    want = np.linalg.eigvalsh(mats)[:, ::-1]
    a, d, c = mats[:, 0, 0].real, mats[:, 1, 1].real, mats[:, 0, 1]
    worst = np.abs(np.stack(spectrum(a, d, c), axis=1) - want).max()
    for args, pair in zip(zip(a.tolist(), d.tolist(), c.tolist()), want.tolist()):
        worst = max(worst, *(abs(x - y) for x, y in zip(spectrum(*args), pair)))
    return float(worst)


def test_two_by_two_closed_form_matches_lapack():
    """The one 2x2 form, shared by the scalar path and the batched sweep,
    agrees with eigvalsh within 1e-14, and the scalar path reads only the
    diagonal and the upper triangle: NaN below the diagonal changes
    nothing.  Control: the early-out of the deleted Jacobi-rotation form,
    which returned the bare diagonal when |c| < 7e-13, misses by 1e-13 at
    a == d, |c| = 1e-13."""
    assert _worst_two_by_two_error(linalg._spectrum_2x2) <= 1e-14
    assert type(linalg._spectrum_2x2(0.5, 0.5, 0.25j)[1]) is float
    nan_below = np.array([[0.3, 0.1 - 0.2j], [np.nan, 0.7]])
    want = np.linalg.eigvalsh(nan_below, UPLO="U")[::-1]
    assert np.allclose(descending_spectrum(nan_below), want, atol=1e-14, rtol=0.0)

    def early_out(a, d, c):
        hi, lo = linalg._spectrum_2x2(a, d, c)
        diagonal = np.abs(c) < 7e-13
        return np.where(diagonal, np.maximum(a, d), hi), np.where(diagonal, np.minimum(a, d), lo)

    assert _worst_two_by_two_error(early_out) > 1e-14
    # the radius is a hypot: a sum of squares would overflow to -inf here
    with pytest.raises(ValueError, match=r"min eigenvalue -1e\+200$"):
        DensityMatrix(np.array([[0.5, 1e200], [1e200, 0.5]]))
    half = np.array([0.5, 0.5])
    assert linalg._spectrum_2x2(half, half, np.array([1e200, 1e200j]))[1].tolist() == [-1e200, -1e200]


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_two_by_two_spectrum_properties(entries):
    a, b, c, d = entries
    m = np.array([[a, c + 1j * d], [c - 1j * d, b]])
    vals = descending_spectrum(m)
    assert vals[0] >= vals[1]
    assert abs(sum(vals) - (a + b)) <= 1e-9 * max(1.0, abs(a) + abs(b))


def test_kron_is_bit_identical_to_numpy():
    rng = np.random.default_rng(41)
    for da, db in ((2, 2), (2, 3), (2, 4), (3, 3)):
        a = random_hermitian(rng, da)
        b = random_hermitian(rng, db)
        assert np.array_equal(linalg._kron(a, b), np.kron(a, b))


def test_hermitian_input_is_required(monkeypatch):
    """The eigenvalue path trusts its input: DensityMatrix rejects a
    non-Hermitian matrix before any spectrum is computed."""
    calls = []
    monkeypatch.setattr(linalg, "_jacobi", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    assert calls == []


def test_identity_is_cached_and_read_only():
    assert identity(3) is identity(3)
    assert np.array_equal(identity(3), np.eye(3))
    with pytest.raises(ValueError):
        identity(3)[0, 0] = 2.0


def test_as_matrix_makes_a_complex_matrix():
    assert linalg.as_matrix([[1, 2], [3, 4]]).dtype == complex
    with pytest.raises(ValueError, match="ndim"):
        linalg.as_matrix([1.0, 2.0])


def test_trace_distance_values():
    """The test-side trace distance that bounds acceptance criterion 2."""
    zero = np.diag([1.0, 0.0])
    mixed = np.eye(2) / 2
    assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)
    assert trace_distance(zero, zero) == 0.0
    assert trace_distance(zero, mixed) == trace_distance(mixed, zero)


def _nearly_hermitian(rng, dim):
    """A seeded Hermitian matrix plus anti-Hermitian noise of size 1e-12, so
    the upper and the lower triangle describe spectra that differ in their
    last bits."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return random_hermitian(rng, dim) + 1e-12 * (g - g.conj().T)


def test_spectra_are_numpy_upper_triangle_results_bit_for_bit():
    """_eigvalsh and hermitian_eigh, and _jacobi at n != 2 (at n = 2 it
    takes the closed form), give exactly what numpy.linalg.eigvalsh and
    eigh return at UPLO="U", values and vectors, on single matrices and
    on a stacked 4x4 input.  hermitian_eigh's values are descending and
    its vectors reordered to match.  n = 2 is the discord check route's
    qubit marginals.  Control: the same comparison against UPLO="L",
    which reads the other triangle, fails at every size above 1."""
    rng = np.random.default_rng(2701)
    for dim in (1, 2, 3, 4, 6, 8, 9, 16):
        m = _nearly_hermitian(rng, dim)
        want = np.linalg.eigvalsh(m, UPLO="U")
        want_vals, want_vecs = np.linalg.eigh(m, UPLO="U")
        if dim != 2:
            assert linalg._jacobi(m) == want.tolist()
        assert np.array_equal(linalg._eigvalsh(m), want)
        vals, vecs = hermitian_eigh(m)
        assert vals == want_vals[::-1].tolist()
        assert np.array_equal(vecs, want_vecs[:, ::-1])
        if dim > 1:
            lower_vals, lower_vecs = np.linalg.eigh(m, UPLO="L")
            assert not np.array_equal(linalg._eigvalsh(m), np.linalg.eigvalsh(m, UPLO="L"))
            assert vals != lower_vals[::-1].tolist() and not np.array_equal(vecs, lower_vecs[:, ::-1])
    stack = np.array([_nearly_hermitian(rng, 4) for _ in range(50)])
    assert np.array_equal(linalg._eigvalsh(stack), np.linalg.eigvalsh(stack, UPLO="U"))
    assert not np.array_equal(linalg._eigvalsh(stack), np.linalg.eigvalsh(stack, UPLO="L"))


class _FailedSolves:
    """LAPACK's eigvalsh_up and eigh_up, except that the first eigenvalue
    each returns is replaced by value: NaN is what a failed solve writes."""

    def __init__(self, lapack, value):
        self.lapack, self.value = lapack, value

    def eigvalsh_up(self, m, signature):
        vals = self.lapack.eigvalsh_up(m, signature=signature)
        vals.flat[0] = self.value
        return vals

    def eigh_up(self, m, signature):
        vals, vecs = self.lapack.eigh_up(m, signature=signature)
        vals.flat[0] = self.value
        return vals, vecs


Z_BASIS = np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]], dtype=complex)


def _failed_solve_calls():
    """One call per route that takes a LAPACK spectrum, each on a valid input."""
    rng = np.random.default_rng(2703)
    two_by_three = random_density_matrix(6, rng, (2, 3))
    four = random_density_matrix(4, rng, (2, 2)).mat
    return {
        "_jacobi": lambda: linalg._jacobi(four),
        "hermitian_eigh": lambda: hermitian_eigh(four),
        "DensityMatrix": lambda: DensityMatrix(four, (2, 2)),
        "_rates at db = 3": lambda: optimize._rates(two_by_three, Z_BASIS),
    }


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("route", list(_failed_solve_calls()))
def test_a_non_finite_eigenvalue_raises_linalg_error(monkeypatch, route, value):
    """numpy.linalg's one rule on output holds without its wrapper: a solve
    that comes back with a non-finite eigenvalue raises LinAlgError, a
    ValueError.  Control: the unpatched call passes."""
    call = _failed_solve_calls()[route]
    call()
    monkeypatch.setattr(linalg, "_umath_linalg", _FailedSolves(linalg._umath_linalg, value))
    with pytest.raises(LinAlgError, match="did not converge"):
        call()


def test_without_the_guard_a_failed_solve_passes_as_a_state(monkeypatch):
    """Control for the test above: the guard is what raises, since a NaN
    eigenvalue fails no `<` test of DensityMatrix's positivity rule."""
    monkeypatch.setattr(linalg, "_umath_linalg", _FailedSolves(linalg._umath_linalg, np.nan))
    monkeypatch.setattr(linalg, "_converged", lambda values: values)
    assert any(map(math.isnan, _failed_solve_calls()["DensityMatrix"]().eigenvalues))


def test_a_failed_solve_makes_measures_exit_2_with_nothing_on_stdout(monkeypatch, tmp_path):
    """A state file whose solve fails is input the CLI rejects, before it
    prints a line.  Control: the same file passes when the solves do not
    fail."""
    path = tmp_path / "state_2x3.json"
    rho = random_density_matrix(6, np.random.default_rng(2705), (2, 3))
    path.write_text(json.dumps(density_matrix_to_dict(rho)))
    result = run_cli(["measures", "--file", str(path)])
    assert result.exit_code == 0 and len(result.stdout.splitlines()) == 4
    monkeypatch.setattr(linalg, "_umath_linalg", _FailedSolves(linalg._umath_linalg, np.nan))
    result = run_cli(["measures", "--file", str(path)])
    assert result.exit_code == 2 and result.stdout == ""
    assert "Eigenvalues did not converge" in result.stderr
