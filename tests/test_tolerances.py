"""Every validated type accepts a defect of half its tolerance and
rejects one of twice its tolerance: the tolerance is scalars.DEFAULT_TOL
and no caller can move it."""

import math

import numpy as np
import pytest

from cohdist.protocols import KrausChannel, measure_local_A
from cohdist.scalars import DEFAULT_TOL
from cohdist.states import DensityMatrix, ZeroDiscordSpec, pure_state


def _non_hermitian(defect):
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = defect
    return DensityMatrix(m)


def _off_trace(defect):
    return DensityMatrix(np.eye(2) * (0.5 + 0.5 * defect))


def _negative_eigenvalue(defect):
    return DensityMatrix(np.diag([1.0 + defect, -defect]))


def _incomplete_kraus(defect):
    return KrausChannel((np.diag([math.sqrt(1.0 + defect), 1.0]),))


def _off_diagonal_kraus(defect):
    # K+ K = [[1, d], [d, 1 + d^2]]: every diagonal entry of the defect is O(d^2)
    return KrausChannel((np.array([[1.0, defect], [0.0, 1.0]]),))


def _weights_off_one(defect):
    a = pure_state([1.0, 0.0])
    b0, b1 = pure_state([1.0, 0.0]), pure_state([0.0, 1.0])
    return ZeroDiscordSpec((0.5, 0.5 + defect), (a, a), (b0, b1))


def _support_overlap(defect):
    a = pure_state([1.0, 0.0])
    b0, b1 = pure_state([1.0, 0.0]), DensityMatrix(np.diag([defect, 1.0 - defect]))
    return ZeroDiscordSpec((0.5, 0.5), (a, a), (b0, b1))


@pytest.mark.parametrize(
    "build, message",
    [
        (_non_hermitian, "Hermitian"),
        (_off_trace, "trace"),
        (_negative_eigenvalue, "positive semidefinite"),
        (_incomplete_kraus, "completeness"),
        (_off_diagonal_kraus, "completeness"),
        (_weights_off_one, "sum to"),
        (_support_overlap, "overlap"),
    ],
    ids=[
        "state-hermiticity",
        "state-trace",
        "state-min-eigenvalue",
        "kraus-completeness",
        "kraus-off-diagonal-completeness",
        "spec-weight-sum",
        "spec-support-overlap",
    ],
)
def test_validation_tolerance_edges(build, message):
    build(0.5 * DEFAULT_TOL)
    with pytest.raises(ValueError, match=message):
        build(2.0 * DEFAULT_TOL)


def test_measurement_accepts_a_state_and_a_channel_each_just_inside_tolerance():
    # trace 1 + e times completeness 1 + e puts the outcome probabilities
    # sum near 1 + 2e; divided by that sum they are one half each
    def measure(e):
        k = math.sqrt(1.0 + e)
        channel = KrausChannel((np.diag([k, 0.0]), np.diag([0.0, k])))
        return measure_local_A(DensityMatrix(np.eye(4) * (0.25 + e / 4), (2, 2)), channel)

    assert [q for _, q, _ in measure(0.9 * DEFAULT_TOL)] == [0.5, 0.5]
    with pytest.raises(ValueError, match="completeness"):
        measure(2.0 * DEFAULT_TOL)


def test_a_nan_kraus_operator_fails_completeness():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel((np.array([[1.0, math.nan], [0.0, 1.0]]),))
