"""Scalar checks, the state rules that need no spectrum, x log2 x and
six-decimal text: the bottom layer, standard library only, so the CLI can
check its input before it loads numpy."""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import operator

# Validation tolerance of the package: Hermiticity, unit trace, positivity,
# Kraus completeness and probability sums all hold to within DEFAULT_TOL.
DEFAULT_TOL = 1e-10


def _index(x) -> int:
    """operator.index that also rejects bool, which it would read as 0 or 1."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


def _indices(values, what: str, least: int = 1) -> tuple[int, ...]:
    """values as a tuple of _index integers, none below least; ValueError naming
    what otherwise, and the value itself for a single size passed as a one-tuple."""
    try:
        sizes = tuple(map(_index, values))
        if min(sizes, default=least) >= least:
            return sizes
        rule = "positive" if least == 1 else f"at least {least}"
    except TypeError:
        rule = "integers"
    shown = values[0] if type(values) is tuple and len(values) == 1 else values
    raise ValueError(f"{what} must be {rule}, got {shown!r}")


def _check_distribution(weights, what: str) -> None:
    """ValueError unless the sequence weights is a probability vector: no entry
    below -DEFAULT_TOL, a sum within DEFAULT_TOL of 1; either test fails a NaN."""
    if not all(w >= -DEFAULT_TOL for w in weights):
        raise ValueError(f"{what} must be nonnegative, got {weights!r}")
    if not abs(sum(weights) - 1.0) <= DEFAULT_TOL:
        raise ValueError(f"{what} sum to {sum(weights)}, expected 1")


def _check_p(p: float) -> float:
    """The Werner mixing parameter as a float; ValueError unless p is a real
    number in [0, 1].  A bool (numpy's included, which is no numbers.Real)
    is rejected, not read as 1 or 0."""
    if type(p) is not float and (isinstance(p, bool) or not isinstance(p, numbers.Real)):
        raise ValueError(f"mixing parameter must be a number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    return float(p)


def xlog2x(x: float) -> float:
    """x log2 x with the 0 log 0 := 0 convention."""
    if x <= 0.0:
        return 0.0
    return x * math.log2(x)


def _fmt6(x: float, sign: str = "") -> str:
    """f"{x:{sign}.6f}", except that a value rounding to zero prints without
    a minus sign."""
    return f"{round(x, 6) + 0.0:{sign}.6f}"


def _floats(rows) -> list[list[float]]:
    """Equally long rows of JSON numbers as floats; a string, bool or null
    entry raises TypeError, not converted, and an int no float holds OverflowError."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TypeError("expected a list of rows")
    for x in itertools.chain.from_iterable(rows):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"entries must be numbers, got {x!r}")
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"rows must be equally long, got lengths {[len(row) for row in rows]}")
    return [list(map(float, row)) for row in rows]


def _payload_rows(payload) -> tuple[list[list[complex]], tuple[int, ...]]:
    """The rows r + 1j * i (as numpy's re + 1j * im, bit for bit) and dims of
    a state file's {"dims": [dA, dB], "re": [[..]], "im": [[..]]}; ValueError
    unless dims are integers and re, im matching 2-d lists of numbers."""
    try:
        dims = _indices(payload["dims"], "dims")
        re, im = (_floats(payload[key]) for key in ("re", "im"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state payload: {exc}") from exc
    # numpy's shapes: (0,) for [], else (rows, columns)
    shape, im_shape = ((len(x), *{len(row) for row in x}) for x in (re, im))
    if len(shape) != 2 or shape != im_shape:
        raise ValueError(f"re/im must be matching 2-d arrays, got {shape} and {im_shape}")
    return [[r + 1j * i for r, i in zip(*pair)] for pair in zip(re, im)], dims


def _rows_hermitian(rows: list[list[complex]]) -> bool:
    """Hermiticity within DEFAULT_TOL of a square matrix held as nested lists,
    one pair of plain scalars at a time.  `not <=` fails a NaN or an infinity."""
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            if not abs(row[j] - rows[j][i].conjugate()) <= DEFAULT_TOL:
                return False
    return True


def _check_rows(rows: list[list[complex]], dims) -> tuple[int, ...]:
    """The state rules that need no spectrum, in order, on equally long rows:
    a square, positive integer dims (empty: (n,), returned), finite entries,
    Hermiticity, unit trace.  ValueError on the first one broken."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"density matrix must be square, got {(n, len(rows[0]))}")
    dims = _indices(dims, "dims") or _indices((n,), "dims")
    if math.prod(dims) != n:
        raise ValueError(f"dims {dims} incompatible with matrix dimension {n}")
    if n == 2:  # the sweep recheck's states: _rows_hermitian's three tests written out
        (a, b), (c, d) = rows
        hermitian = abs(a - a.conjugate()) <= DEFAULT_TOL and abs(b - c.conjugate()) <= DEFAULT_TOL
        hermitian = hermitian and abs(d - d.conjugate()) <= DEFAULT_TOL
        tr = sum((a, d))  # sum's 0 start, as below: -0j imaginary parts print as +0j
    else:
        hermitian, tr = _rows_hermitian(rows), sum(rows[i][i] for i in range(n))
    if not hermitian:  # each entry met a `<=`, which fails a NaN or an infinity
        if not all(map(cmath.isfinite, itertools.chain.from_iterable(rows))):
            raise ValueError("density matrix has non-finite entries")
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(tr - 1.0) > DEFAULT_TOL:
        raise ValueError(f"trace is {tr}, expected 1")
    return dims


def _bipartite_dims(dims: tuple[int, ...]) -> tuple[int, int]:
    """dims of a bipartite state; ValueError for any other split."""
    if len(dims) != 2:
        raise ValueError(f"needs a bipartite state, dims are {dims}")
    return dims
