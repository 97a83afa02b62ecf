"""Shared random-object builders for the test suite, the Werner gap, the
sweep's projector pairs, and an in-process runner for the command line."""

import contextlib
import io
from dataclasses import dataclass

import numpy as np

from cohdist import optimize
from cohdist.cli import main
from cohdist.closed_forms import qi_werner_closed_form, rate_werner_closed_form


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Ginibre draw with phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) sum |eigenvalues| of the Hermitian difference a - b."""
    return 0.5 * abs(np.linalg.eigvalsh(a - b)).sum()


def gap(p: float) -> float:
    """The Werner gap qi - rate, as theorem4_suite reads it."""
    return qi_werner_closed_form(p) - rate_werner_closed_form(p)


def grid_pairs(n_theta: int = 21, n_phi: int = 20) -> np.ndarray:
    """The projector pairs of the sweep, by default the 21x20 one, in theta-major order."""
    _, _, st, ct, sp, cp, _ = optimize._grid(n_theta, n_phi)
    t, f = np.divmod(np.arange(n_theta * n_phi), n_phi)
    return optimize._projector_pairs(st[t], ct[t], sp[f], cp[f])


def random_monomial_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Permutation times diagonal phases: the incoherent unitaries."""
    u = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    u[rng.permutation(dim), cols] = np.exp(2j * np.pi * rng.random(dim))
    return u


@dataclass
class CliResult:
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, as a terminal shows them
    exit_code: int
    exception: SystemExit | None  # the SystemExit of a nonzero exit code


class _Tee(io.StringIO):
    """A captured stream that also copies every write into a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


def run_cli(args) -> CliResult:
    """Run `cohdist ARGS` in this process, with stdout and stderr captured and
    its SystemExit caught.  Any other exception propagates."""
    shared = io.StringIO()
    out, err = _Tee(shared), _Tee(shared)
    exit_ = SystemExit(0)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args), prog_name="cohdist")
        except SystemExit as exc:
            exit_ = exc
    code = exit_.code or 0
    return CliResult(out.getvalue(), err.getvalue(), shared.getvalue(), code, exit_ if code else None)
