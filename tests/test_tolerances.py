"""Every validated type accepts a defect of half its tolerance and
rejects one of twice its tolerance, and every measure of a state at that
edge is finite: the tolerance is scalars.DEFAULT_TOL and no caller can
move it, neither at the validated types nor at the measures."""

import json
import math

import numpy as np
import pytest
from conftest import run_cli

from cohdist.coherence import basis_dependent_discord, c_re, qi_relative_entropy, von_neumann_entropy
from cohdist.protocols import KrausChannel, measure_local_A
from cohdist.scalars import DEFAULT_TOL
from cohdist.states import DensityMatrix, ZeroDiscordSpec, density_matrix_to_dict, pure_state


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


def _edge_qubit(e):
    return DensityMatrix(np.diag([1.0 + e, -e]))


def _edge_bipartite(e):
    # (1 + e)|psi><psi| - e|10><10| with psi = (|00> + |01> + |11>) / sqrt(3):
    # eigenvalues 1 + e, -e, 0, 0; rho and Delta_B rho both clamp, and on the clean
    # state every measure but S(rho) is nonzero
    psi = np.array([1.0, 1.0, 0.0, 1.0]) / math.sqrt(3.0)
    return DensityMatrix((1.0 + e) * np.outer(psi, psi) - e * np.diag([0.0, 0.0, 1.0, 0.0]), (2, 2))


def _cli_measures(rho):
    """The four values `cohdist measures` prints, by the calls it makes."""
    return [von_neumann_entropy(rho), c_re(rho.marginal_b), qi_relative_entropy(rho), basis_dependent_discord(rho)]


@pytest.mark.parametrize(
    "build, measures",
    [
        (_edge_qubit, lambda rho: [von_neumann_entropy(rho), c_re(rho)]),
        # and the discord's check route, which the verify suites run
        (_edge_bipartite, lambda rho: [*_cli_measures(rho), basis_dependent_discord(rho, check=True)]),
    ],
    ids=["qubit", "bipartite-2x2"],
)
def test_measures_clamp_an_eigenvalue_just_below_zero(build, measures):
    """A state whose least eigenvalue lies in [-DEFAULT_TOL, 0) passes
    validation, and its entropies count that eigenvalue as 0: each measure
    is finite and within 1e-9 of its value on the clean state."""
    edge = build(0.5 * DEFAULT_TOL)
    assert -DEFAULT_TOL <= edge.eigenvalues[-1] < 0.0
    for value, clean in zip(measures(edge), measures(build(0.0)), strict=True):
        assert math.isfinite(value) and abs(value - clean) <= 1e-9


def test_cli_measures_a_state_file_at_the_positivity_edge(tmp_path):
    lines = []
    for e in (0.5 * DEFAULT_TOL, 0.0):
        path = tmp_path / f"edge_{e}.json"
        path.write_text(json.dumps(density_matrix_to_dict(_edge_bipartite(e))), encoding="utf-8")
        result = run_cli(["measures", "--file", str(path)])
        assert result.exit_code == 0, result.output
        lines.append(result.stdout.splitlines())
    assert [line.split(" = ")[0] for line in lines[0]] == ["S(rho)", "C_re(rho_B)", "C_re^A|B(rho)", "D^A|B(rho)"]
    assert lines[0] == lines[1]
