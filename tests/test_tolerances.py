"""Every validated type accepts a defect of half its tolerance and
rejects one of twice its tolerance: the tolerance is linalg.DEFAULT_TOL
and no caller can move it."""

import math

import numpy as np
import pytest

from cohdist.linalg import DEFAULT_TOL
from cohdist.protocols import Ensemble, KrausChannel
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


def _probabilities_off_one(defect):
    q = pure_state([1.0, 0.0])
    return Ensemble(((0.5, q), (0.5 + defect, q)))


def _weights_off_one(defect):
    a = pure_state([1.0, 0.0])
    b0, b1 = pure_state([1.0, 0.0]), pure_state([0.0, 1.0])
    return ZeroDiscordSpec((0.5, 0.5 + defect), (a, a), ((0,), (1,)), (b0, b1))


def _block_leak(defect):
    a = pure_state([1.0, 0.0])
    leaky = DensityMatrix(np.diag([1.0 - defect, defect]))
    return ZeroDiscordSpec((1.0,), (a,), ((0,),), (leaky,))


@pytest.mark.parametrize(
    "build, message",
    [
        (_non_hermitian, "Hermitian"),
        (_off_trace, "trace"),
        (_negative_eigenvalue, "positive semidefinite"),
        (_incomplete_kraus, "completeness"),
        (_probabilities_off_one, "sum to"),
        (_weights_off_one, "sum to"),
        (_block_leak, "leaks"),
    ],
    ids=[
        "state-hermiticity",
        "state-trace",
        "state-min-eigenvalue",
        "kraus-completeness",
        "ensemble-probability-sum",
        "spec-weight-sum",
        "spec-block-leak",
    ],
)
def test_validation_tolerance_edges(build, message):
    build(0.5 * DEFAULT_TOL)
    with pytest.raises(ValueError, match=message):
        build(2.0 * DEFAULT_TOL)
