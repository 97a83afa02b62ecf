import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohdist.scalars import DEFAULT_TOL, _bipartite_dims, _check_distribution, _check_rows, _payload_rows, _rows_hermitian


def test_is_hermitian_tolerance_and_shape():
    """The boundary check DensityMatrix and the CLI run on rows: a square
    matrix passes within DEFAULT_TOL, a NaN fails, and a non-square one is
    rejected by its shape before the check."""
    with pytest.raises(ValueError, match=r"square, got \(2, 3\)"):
        _check_rows([[0.5 + 0j, 0j, 0j], [0j, 0.5 + 0j, 0j]], ())
    assert _rows_hermitian([[1.0, 1j], [-1j, 2.0]])
    m = [[1.0 + 0j, 2.0 * DEFAULT_TOL], [0j, 1.0 + 0j]]
    assert not _rows_hermitian(m)
    m[0][1] = 0.5 * DEFAULT_TOL
    assert _rows_hermitian(m)
    m[1][1] = complex(float("nan"))
    assert not _rows_hermitian(m)


def test_rules_run_in_order_and_return_the_dims():
    """Each rule that needs no spectrum, with the first broken one reported:
    a matrix that is both non-Hermitian and of the wrong trace fails on
    Hermiticity, as DensityMatrix always has, and a non-square one with
    non-integer dims on its shape.  No rows form a 0x0 square, whose default
    dims (0,) break the positive-size rule, as a zero or negative dim does."""
    half = [[0.5 + 0j, 0j], [0j, 0.5 + 0j]]
    with pytest.raises(ValueError, match=r"^density matrix must be square, got \(2, 1\)$"):
        _check_rows([[0.5 + 0j], [0.5 + 0j]], [1.5])
    with pytest.raises(ValueError, match=r"^dims must be positive, got \(0,\)$"):
        _check_rows([], ())
    with pytest.raises(ValueError, match=r"^dims must be positive, got \[2, -1\]$"):
        _check_rows(half, [2, -1])
    assert _check_rows(half, ()) == (2,)
    assert _check_rows(half, [1, 2]) == (1, 2)
    with pytest.raises(ValueError, match=r"dims \(3,\) incompatible with matrix dimension 2"):
        _check_rows(half, [3])
    with pytest.raises(ValueError, match="dims must be integers"):
        _check_rows(half, [True, 2])
    with pytest.raises(ValueError, match="non-finite"):
        _check_rows([[complex(float("inf")), 0j], [0j, 0.5 + 0j]], ())
    with pytest.raises(ValueError, match="not Hermitian"):
        _check_rows([[1.0 + 0j, 1e-3 + 0j], [0j, 1.0 + 0j]], ())
    with pytest.raises(ValueError, match=r"trace is \(1\.5\+0j\), expected 1"):
        _check_rows([[1.0 + 0j, 0j], [0j, 0.5 + 0j]], ())
    assert _bipartite_dims((2, 3)) == (2, 3)
    with pytest.raises(ValueError, match=r"^needs a bipartite state, dims are \(4,\)$"):
        _bipartite_dims((4,))


def test_distribution_rule_tolerance_and_nan():
    """The one probability-vector rule Ensemble and ZeroDiscordSpec share:
    each entry and the sum's defect may be off by DEFAULT_TOL, no more, and a
    NaN or an infinity fails."""
    _check_distribution([1.0 + DEFAULT_TOL, -DEFAULT_TOL / 2, 0.0], "weights")
    with pytest.raises(ValueError, match=r"^weights must be nonnegative, got \[1\.0, -2e-10\]$"):
        _check_distribution([1.0, -2 * DEFAULT_TOL], "weights")
    with pytest.raises(ValueError, match=r"^weights sum to 1\.0000000002, expected 1$"):
        _check_distribution([0.5, 0.5 + 2 * DEFAULT_TOL], "weights")
    with pytest.raises(ValueError, match="^weights must be nonnegative, got"):
        _check_distribution([1.0, float("nan")], "weights")
    with pytest.raises(ValueError, match="^branch probabilities sum to inf, expected 1$"):
        _check_distribution([0.5, float("inf")], "branch probabilities")


@pytest.mark.parametrize(
    "re, message",
    [
        ([[0.5, 0.0], [0.0]], r"malformed state payload: rows must be equally long, got lengths \[2, 1\]"),
        ([], r"re/im must be matching 2-d arrays, got \(0,\) and \(2, 2\)"),
        ([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]], r"re/im must be matching 2-d arrays, got \(2, 3\) and \(2, 2\)"),
        ([[0.5, 10**400], [0.0, 0.5]], "malformed state payload: int too large to convert to float"),
    ],
    ids=["ragged", "empty", "mismatched", "overflow"],
)
def test_payload_shape_rules(re, message):
    payload = {"dims": [2], "re": re, "im": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ValueError, match=f"^{message}$"):
        _payload_rows(payload)


def _matrix(entries):
    """Rectangular lists of rows drawn from entries, at most 4x4."""
    return st.integers(1, 4).flatmap(lambda cols: st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=4))


ENTRIES = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]) | st.integers(-(2**70), 2**70)


@settings(max_examples=300, derandomize=True)
@given(_matrix(ENTRIES).flatmap(lambda re: st.tuples(st.just(re), st.lists(st.lists(ENTRIES, min_size=len(re[0]), max_size=len(re[0])), min_size=len(re), max_size=len(re)))))
def test_rows_equal_numpy_re_plus_1j_im_bit_for_bit(pair):
    """The rows the CLI checks and DensityMatrix loads are the array the
    numpy route built, every bit of it: negative zeros, subnormals, ints
    past 2**53, infinities and NaNs included."""
    re, im = pair
    rows, dims = _payload_rows({"dims": [], "re": re, "im": im})
    assert dims == ()
    got = np.array(rows, dtype=complex)
    with np.errstate(invalid="ignore"):  # 1j * inf multiplies 0 by inf
        want = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
