import cmath

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
    dims (0,) break the positive-size rule, as a zero or negative dim does;
    the message names the single size, not the tuple it was wrapped in."""
    half = [[0.5 + 0j, 0j], [0j, 0.5 + 0j]]
    with pytest.raises(ValueError, match=r"^density matrix must be square, got \(2, 1\)$"):
        _check_rows([[0.5 + 0j], [0.5 + 0j]], [1.5])
    with pytest.raises(ValueError, match=r"^dims must be positive, got 0$"):
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


def _verdict(rows):
    """None when rows pass _check_rows, else its message."""
    try:
        _check_rows(rows, ())
    except ValueError as exc:
        return str(exc)
    return None


def _padded(rows):
    """2x2 rows zero-padded to 3x3, which take _check_rows' general path."""
    return [[*row, 0j] for row in rows] + [[0j, 0j, 0j]]


def _qubit(changes):
    """A valid qubit state's rows, with the entry at each (i, j) key of changes replaced."""
    rows = [[0.6 + 0j, 0.1 + 0.2j], [0.1 - 0.2j, 0.4 + 0j]]
    for (i, j), value in changes.items():
        rows[i][j] = value
    return rows


def _non_finite(i, j, part, bad):
    """The qubit state with the real or imaginary part of entry (i, j) set to bad."""
    x = _qubit({})[i][j]
    return _qubit({(i, j): complex(bad, x.imag) if part == "re" else complex(x.real, bad)})


NON_FINITE = [
    (f"e{i}{j}-{part}-{bad}", _non_finite(i, j, part, bad), "density matrix has non-finite entries")
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))
    for part in ("re", "im")
    for bad in (float("nan"), float("inf"), float("-inf"))
]
QUBIT_CASES = NON_FINITE + [
    ("off-diagonal-2e-10", _qubit({(0, 1): 0.1 + 2e-10 + 0.2j}), "density matrix is not Hermitian within tolerance"),
    ("off-diagonal-0.5e-10", _qubit({(0, 1): 0.1 + 0.5e-10 + 0.2j}), None),
    ("diagonal-imag-0.6e-10", _qubit({(0, 0): 0.6 + 0.6e-10j}), "density matrix is not Hermitian within tolerance"),
    ("diagonal-imag-0.4e-10", _qubit({(0, 0): 0.6 + 0.4e-10j}), None),
    ("trace-2e-10", _qubit({(1, 1): 0.4 + 2e-10 + 0j}), "trace is (1.0000000002+0j), expected 1"),
    ("trace-2e-10-minus-0j", _qubit({(0, 0): complex(0.6, -0.0), (1, 1): complex(0.4 + 2e-10, -0.0)}), "trace is (1.0000000002+0j), expected 1"),
]


@pytest.mark.parametrize("rows, expected", [case[1:] for case in QUBIT_CASES], ids=[case[0] for case in QUBIT_CASES])
def test_qubit_rules_match_the_general_path(rows, expected):
    """The written-out 2x2 rules reach the verdict and message of the same
    rows padded to 3x3: non-finite before non-Hermitian, bit for bit at the
    tolerance edge, the trace printed as the general path sums it."""
    assert _verdict(rows) == _verdict(_padded(rows)) == expected


def _diagonal_read_by_imag(rows):
    """A qubit rule that tests the diagonal by .imag: the table's control."""
    (a, b), (c, d) = rows
    if not (abs(2 * a.imag) <= DEFAULT_TOL and abs(b - c.conjugate()) <= DEFAULT_TOL and abs(2 * d.imag) <= DEFAULT_TOL):
        finite = all(map(cmath.isfinite, (a, b, c, d)))
        return "density matrix is not Hermitian within tolerance" if finite else "density matrix has non-finite entries"
    tr = sum((a, d))
    return None if abs(tr - 1.0) <= DEFAULT_TOL else f"trace is {tr}, expected 1"


def test_the_qubit_table_fails_a_diagonal_read_by_imag():
    """.imag passes an infinite or NaN real part on the diagonal, which then
    reaches the trace rule: the table must tell that rule from the real one."""
    missed = [name for name, rows, expected in QUBIT_CASES if _diagonal_read_by_imag(rows) != expected]
    assert missed and all(name.startswith(("e00-re", "e11-re")) for name in missed), missed


def test_general_path_names_non_finite_behind_a_non_hermitian_pair():
    """The Hermitian test stops at the first bad pair; the finite rule, run
    after it fails, still names a NaN that comes later."""
    rows = [[0.5 + 0j, 0.3 + 0j, 0j], [0j, 0.25 + 0j, 0j], [0j, 0j, complex(float("nan"))]]
    with pytest.raises(ValueError, match="^density matrix has non-finite entries$"):
        _check_rows(rows, ())


def test_distribution_rule_tolerance_and_nan():
    """The probability-vector rule ZeroDiscordSpec checks its weights by:
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


def _with_re(re, **changes):
    return {"dims": [2], "re": re, "im": [[0.0, 0.0], [0.0, 0.0]], **changes}


HALF = [[0.5, 0.0], [0.0, 0.5]]


@pytest.mark.parametrize(
    "payload, message",
    [
        (_with_re([[0.5, 0.0], [0.0]]), r"malformed state payload: rows must be equally long, got lengths \[2, 1\]"),
        (_with_re([]), r"re/im must be matching 2-d arrays, got \(0,\) and \(2, 2\)"),
        (_with_re([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]), r"re/im must be matching 2-d arrays, got \(2, 3\) and \(2, 2\)"),
        (_with_re([[0.5, 10**400], [0.0, 0.5]]), "malformed state payload: int too large to convert to float"),
        ([1, 2], "malformed state payload: expected a JSON object with dims, re and im, got an array"),
        (None, "malformed state payload: expected a JSON object with dims, re and im, got null"),
        ({"dims": [2, 2], "im": [[0]]}, "malformed state payload: missing key 're'"),
        (_with_re([["0.5", 0.0], [0.0, 0.5]]), "malformed state payload: entries must be numbers, got '0.5'"),
        (_with_re(HALF, im=[[False, 0.0], [0.0, 0.0]]), "malformed state payload: entries must be numbers, got False"),
        (_with_re("oops"), "malformed state payload: expected a list of rows"),
        (_with_re(HALF, dims=[2.9, 2.2]), r"malformed state payload: dims must be integers, got \[2\.9, 2\.2\]"),
        (_with_re(HALF, dims="22"), "malformed state payload: dims must be integers, got '22'"),
    ],
    ids=[
        "ragged", "empty", "mismatched", "overflow", "top-level-list", "null", "missing-re",
        "string-entry", "false-entry", "string-re", "float-dims", "string-dims",
    ],
)
def test_payload_shape_rules(payload, message):
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
