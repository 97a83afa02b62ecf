"""Scalar checks, x log2 x and six-decimal text: the bottom layer, standard
library only, so the CLI can check its input before it loads numpy."""

from __future__ import annotations

import math
import numbers
import operator


def _index(x) -> int:
    """operator.index that also rejects bool, which it would read as 0 or 1."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


def _indices(values, what: str) -> tuple[int, ...]:
    """values as a tuple of _index integers; ValueError naming what otherwise."""
    try:
        return tuple(map(_index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def _check_p(p: float) -> float:
    """The Werner mixing parameter as a float; ValueError unless p is a real
    number in [0, 1].  A bool (numpy's included, which is no numbers.Real)
    is rejected, not read as 1 or 0."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
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
