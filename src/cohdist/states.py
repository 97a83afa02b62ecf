"""Density matrices and the named states used throughout the package."""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix with an ordered subsystem split.

    dims lists the subsystem dimensions (their product must equal the
    matrix dimension); a single-system state may omit it.  Construction
    rejects non-finite entries, then checks Hermiticity, unit trace, and
    positivity, all within tol, and caches the spectrum so entropy
    calls reuse the eigendecomposition done for the positivity check.
    """

    mat: np.ndarray
    dims: tuple[int, ...] = ()
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        m = linalg.as_matrix(self.mat)
        n = m.shape[0]
        if m.shape[1] != n:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        dims = tuple(int(d) for d in self.dims) or (n,)
        if any(d < 1 for d in dims) or math.prod(dims) != n:
            raise ValueError(f"dims {dims} incompatible with matrix dimension {n}")
        rows = m.tolist()
        if not all(map(cmath.isfinite, itertools.chain.from_iterable(rows))):
            raise ValueError("density matrix has non-finite entries")
        if not linalg._rows_hermitian(rows, self.tol):
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = sum(rows[i][i] for i in range(n))
        if abs(tr - 1.0) > self.tol:
            raise ValueError(f"trace is {tr}, expected 1")
        eigs, _ = linalg._jacobi(m, want_vectors=False)  # Hermiticity already checked
        eigs.sort(reverse=True)
        if eigs[-1] < -self.tol:
            raise ValueError(f"not positive semidefinite: min eigenvalue {eigs[-1]}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_eigs", tuple(eigs))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        """Spectrum in descending order (cached at construction)."""
        return self._eigs


@dataclass(frozen=True)
class BlochVector:
    """A point in the unit ball parameterizing a qubit state."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.norm > 1.0 + DEFAULT_TOL:
            raise ValueError(f"Bloch vector has norm {self.norm} > 1")

    @property
    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


def pure_state(amplitudes, dims: tuple[int, ...] = ()) -> DensityMatrix:
    """Outer product |v><v| of a normalized amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if nrm <= 0.0:
        raise ValueError("amplitude vector must be nonzero")
    v = v / nrm
    return DensityMatrix(np.outer(v, v.conj()), dims)


def maximally_mixed(dim: int, dims: tuple[int, ...] = ()) -> DensityMatrix:
    """Identity / dim."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return DensityMatrix(np.eye(dim, dtype=complex) / dim, dims)


def bell_phi_plus() -> DensityMatrix:
    """(|00> + |11>) / sqrt(2) as a two-qubit density matrix."""
    return pure_state([1.0, 0.0, 0.0, 1.0], (2, 2))


def maximally_coherent_qubit() -> DensityMatrix:
    """|+><+| = (|0> + |1>)(<0| + <1|) / 2."""
    return pure_state([1.0, 1.0])


def _check_p(p: float) -> float:
    """The Werner mixing parameter as a float, or ValueError outside [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    return float(p)


def werner(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1 - p) I/4 for p in [0, 1]."""
    p = _check_p(p)
    mat = p * bell_phi_plus().mat + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
    return DensityMatrix(mat, (2, 2))


def bloch_qubit(x: float, y: float, z: float) -> DensityMatrix:
    """(I + x X + y Y + z Z) / 2 for a Bloch vector inside the unit ball."""
    b = BlochVector(float(x), float(y), float(z))
    mat = np.array(
        [
            [0.5 * (1.0 + b.z), 0.5 * (b.x - 1j * b.y)],
            [0.5 * (b.x + 1j * b.y), 0.5 * (1.0 - b.z)],
        ],
        dtype=complex,
    )
    return DensityMatrix(mat, (2,))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduce a bipartite state to one marginal.

    keep selects the surviving subsystem: 0 / "A" or 1 / "B".
    """
    if len(rho.dims) != 2:
        raise ValueError(f"partial_trace needs a bipartite state, dims are {rho.dims}")
    side = {0: 0, 1: 1, "A": 0, "B": 1, "a": 0, "b": 1}.get(keep)
    if side is None:
        raise ValueError(f"keep must be 'A'/'B' or 0/1, got {keep!r}")
    da, db = rho.dims
    t = rho.mat.reshape(da, db, da, db)
    if side == 0:
        red = np.trace(t, axis1=1, axis2=3)
    else:
        red = np.trace(t, axis1=0, axis2=2)
    return DensityMatrix(red, (rho.dims[side],), rho.tol)


def random_density_matrix(dim: int, rng: np.random.Generator, dims: tuple[int, ...] = ()) -> DensityMatrix:
    """Full-rank random state G G+ / tr(G G+) with G complex Ginibre."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, dims)


@dataclass(frozen=True, eq=False)
class ZeroDiscordSpec:
    """Data for a classical-quantum mixture sum_a w_a rho_a^A x rho_a^B
    whose B factors live on pairwise-disjoint blocks of the reference
    basis (so they are perfectly distinguishable by an incoherent
    projective measurement).
    """

    weights: tuple[float, ...]
    a_states: tuple[DensityMatrix, ...]
    blocks: tuple[tuple[int, ...], ...]
    b_states: tuple[DensityMatrix, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        k = len(self.weights)
        if k == 0:
            raise ValueError("need at least one mixture term")
        if not (len(self.a_states) == len(self.blocks) == len(self.b_states) == k):
            raise ValueError("weights, a_states, blocks, b_states must align")
        if any(w < -self.tol for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > self.tol:
            raise ValueError(f"weights sum to {sum(self.weights)}, expected 1")
        da = self.a_states[0].dim
        db = self.b_states[0].dim
        if any(a.dim != da for a in self.a_states):
            raise ValueError("A factors must share one dimension")
        if any(b.dim != db for b in self.b_states):
            raise ValueError("B factors must share one dimension")
        seen: set[int] = set()
        for blk, b in zip(self.blocks, self.b_states):
            idx = tuple(sorted(int(i) for i in blk))
            if not idx:
                raise ValueError("blocks must be nonempty")
            if idx[0] < 0 or idx[-1] >= db:
                raise ValueError(f"block {idx} out of range for dimension {db}")
            if seen & set(idx):
                raise ValueError(f"blocks overlap at indices {sorted(seen & set(idx))}")
            seen.update(idx)
            outside = [j for j in range(db) if j not in set(idx)]
            if outside:
                off = max(
                    float(np.abs(b.mat[outside, :]).max()),
                    float(np.abs(b.mat[:, outside]).max()),
                )
                if off > self.tol:
                    raise ValueError(f"B factor leaks outside its block {idx} by {off}")

    @property
    def dims(self) -> tuple[int, int]:
        return (self.a_states[0].dim, self.b_states[0].dim)


def zero_discord_state(spec: ZeroDiscordSpec) -> DensityMatrix:
    """Assemble sum_a w_a rho_a^A x rho_a^B as a bipartite state."""
    da, db = spec.dims
    mat = np.zeros((da * db, da * db), dtype=complex)
    for w, a, b in zip(spec.weights, spec.a_states, spec.b_states):
        mat += w * linalg.kron(a.mat, b.mat)
    return DensityMatrix(mat, (da, db), spec.tol)


def random_zero_discord_spec(
    rng: np.random.Generator, dim_a: int = 2, dim_b: int = 3
) -> ZeroDiscordSpec:
    """Sample a ZeroDiscordSpec: random block partition of the B basis,
    Ginibre factors on each block, Dirichlet weights."""
    if dim_a < 1 or dim_b < 1:
        raise ValueError("dimensions must be positive")
    perm = [int(i) for i in rng.permutation(dim_b)]
    n_blocks = int(rng.integers(1, dim_b + 1))
    cuts: list[int] = []
    if n_blocks > 1:
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, dim_b), size=n_blocks - 1, replace=False))
    blocks: list[tuple[int, ...]] = []
    start = 0
    for cut in [*cuts, dim_b]:
        blocks.append(tuple(sorted(perm[start:cut])))
        start = cut
    weights = rng.dirichlet(np.ones(len(blocks)))
    a_states = tuple(random_density_matrix(dim_a, rng) for _ in blocks)
    b_states = []
    for blk in blocks:
        sub = random_density_matrix(len(blk), rng)
        full = np.zeros((dim_b, dim_b), dtype=complex)
        full[np.ix_(blk, blk)] = sub.mat
        b_states.append(DensityMatrix(full, (dim_b,)))
    return ZeroDiscordSpec(
        tuple(float(w) for w in weights), a_states, tuple(blocks), tuple(b_states)
    )


def density_matrix_from_dict(payload: dict) -> DensityMatrix:
    """Build a state from {"dims": [dA, dB], "re": [[..]], "im": [[..]]}."""
    try:
        dims = tuple(int(d) for d in payload["dims"])
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state payload: {exc}") from exc
    if re.ndim != 2 or re.shape != im.shape:
        raise ValueError(f"re/im must be matching 2-d arrays, got {re.shape} and {im.shape}")
    return DensityMatrix(re + 1j * im, dims)


def density_matrix_to_dict(rho: DensityMatrix) -> dict:
    """Inverse of density_matrix_from_dict."""
    return {
        "dims": list(rho.dims),
        "re": rho.mat.real.tolist(),
        "im": rho.mat.imag.tolist(),
    }
