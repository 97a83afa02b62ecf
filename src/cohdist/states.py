"""Density matrices and the named states used throughout the package."""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL


def _index(x) -> int:
    """operator.index that also rejects bool, which it would read as 0 or 1."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


@lru_cache(maxsize=None)
def _same_residue(n: int, base: int) -> np.ndarray:
    """Read-only n x n mask of the index pairs (i, j) with i == j modulo base."""
    r = np.arange(n) % base
    keep = r[:, None] == r[None, :]
    keep.setflags(write=False)
    return keep


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix with an ordered subsystem split.

    dims lists the subsystem dimensions (their product must equal the
    matrix dimension); a single-system state may omit it.  Construction
    rejects non-finite entries, then checks Hermiticity, unit trace, and
    positivity, all within linalg.DEFAULT_TOL, and caches the spectrum so
    entropy calls reuse the eigendecomposition done for the positivity
    check.  Each dim must be an integer: a float, a string or a bool is
    rejected, not truncated or read as 1.

    The instance is frozen and its matrix read-only, so the states derived
    from it (its marginals and dephasings) depend on the instance alone:
    each is a cached attribute, validated when first read.
    """

    mat: np.ndarray
    dims: tuple[int, ...] = ()

    def __post_init__(self):
        m = linalg.as_matrix(self.mat)
        n = m.shape[0]
        if m.shape[1] != n:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        try:
            dims = tuple(map(_index, self.dims)) or (n,)
        except TypeError as exc:
            raise ValueError(f"dims must be integers, got {self.dims!r}") from exc
        if any(d < 1 for d in dims) or math.prod(dims) != n:
            raise ValueError(f"dims {dims} incompatible with matrix dimension {n}")
        rows = m.tolist()
        if not all(map(cmath.isfinite, itertools.chain.from_iterable(rows))):
            raise ValueError("density matrix has non-finite entries")
        if not linalg._rows_hermitian(rows):
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = sum(rows[i][i] for i in range(n))
        if abs(tr - 1.0) > DEFAULT_TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        eigs = linalg._jacobi(m)  # Hermiticity already checked
        eigs.sort(reverse=True)
        if eigs[-1] < -DEFAULT_TOL:
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

    def _bipartite(self) -> tuple[int, int]:
        if len(self.dims) != 2:
            raise ValueError(f"needs a bipartite state, dims are {self.dims}")
        return self.dims

    @cached_property
    def marginal_a(self) -> DensityMatrix:
        """rho_A = tr_B rho of a bipartite state."""
        da, db = self._bipartite()
        return DensityMatrix(self.mat.reshape(da, db, da, db).trace(axis1=1, axis2=3), (da,))

    @cached_property
    def marginal_b(self) -> DensityMatrix:
        """rho_B = tr_A rho of a bipartite state."""
        da, db = self._bipartite()
        return DensityMatrix(self.mat.reshape(da, db, da, db).trace(axis1=0, axis2=2), (db,))

    @cached_property
    def dephased(self) -> DensityMatrix:
        """The diagonal of rho in the reference basis, with rho's dims."""
        return DensityMatrix(np.where(_same_residue(self.dim, self.dim), self.mat, 0.0), self.dims)

    @cached_property
    def dephased_b(self) -> DensityMatrix:
        """rho with every entry whose two B indices differ zeroed: B's
        coherences go, A's between equal B indices stay."""
        db = self._bipartite()[1]
        return DensityMatrix(np.where(_same_residue(self.dim, db), self.mat, 0.0), self.dims)


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


def _check_p(p: float) -> float:
    """The Werner mixing parameter as a float; ValueError on a bool or outside [0, 1]."""
    if isinstance(p, (bool, np.bool_)):
        raise ValueError(f"mixing parameter must be a number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    return float(p)


def werner(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1 - p) I/4 for p in [0, 1]."""
    p = _check_p(p)
    mat = p * bell_phi_plus().mat + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
    return DensityMatrix(mat, (2, 2))


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
    projective measurement).  The weights must be nonnegative and sum to
    one, and each B factor may leak outside its block by at most
    linalg.DEFAULT_TOL.
    """

    weights: tuple[float, ...]
    a_states: tuple[DensityMatrix, ...]
    blocks: tuple[tuple[int, ...], ...]
    b_states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        k = len(self.weights)
        if k == 0:
            raise ValueError("need at least one mixture term")
        if not (len(self.a_states) == len(self.blocks) == len(self.b_states) == k):
            raise ValueError("weights, a_states, blocks, b_states must align")
        if not all(w >= -DEFAULT_TOL for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if not abs(sum(self.weights) - 1.0) <= DEFAULT_TOL:
            raise ValueError(f"weights sum to {sum(self.weights)}, expected 1")
        da = self.a_states[0].dim
        db = self.b_states[0].dim
        if any(a.dim != da for a in self.a_states):
            raise ValueError("A factors must share one dimension")
        if any(b.dim != db for b in self.b_states):
            raise ValueError("B factors must share one dimension")
        seen: set[int] = set()
        for blk, b in zip(self.blocks, self.b_states):
            try:
                idx = tuple(sorted(map(_index, blk)))
            except TypeError as exc:
                raise ValueError(f"block indices must be integers, got {blk!r}") from exc
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
                if off > DEFAULT_TOL:
                    raise ValueError(f"B factor leaks outside its block {idx} by {off}")

    @property
    def dims(self) -> tuple[int, int]:
        return (self.a_states[0].dim, self.b_states[0].dim)


def zero_discord_state(spec: ZeroDiscordSpec) -> DensityMatrix:
    """Assemble sum_a w_a rho_a^A x rho_a^B as a bipartite state."""
    da, db = spec.dims
    mat = np.zeros((da * db, da * db), dtype=complex)
    for w, a, b in zip(spec.weights, spec.a_states, spec.b_states):
        mat += w * linalg._kron(a.mat, b.mat)
    return DensityMatrix(mat, (da, db))


def random_zero_discord_spec(rng: np.random.Generator, dim_a: int, dim_b: int) -> ZeroDiscordSpec:
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


def _numbers(rows) -> np.ndarray:
    """A nested list of JSON numbers as a float array; a string, a bool or
    null entry raises TypeError instead of being converted."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TypeError("expected a list of rows")
    for x in itertools.chain.from_iterable(rows):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"entries must be numbers, got {x!r}")
    return np.asarray(rows, dtype=float)


def density_matrix_from_dict(payload: dict) -> DensityMatrix:
    """Build a state from {"dims": [dA, dB], "re": [[..]], "im": [[..]]}.

    Dims must be integers and entries numbers; bools and strings are
    rejected rather than converted.
    """
    try:
        dims = tuple(map(_index, payload["dims"]))
        re = _numbers(payload["re"])
        im = _numbers(payload["im"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
