"""Dense complex linear algebra on finite-dimensional Hilbert spaces.

States, Hermitian operators and density matrices are thin immutable wrappers
around numpy arrays that validate their defining invariants once, at
construction.  All operations are pure functions; everything here is safe to
share across threads.  Units follow the hbar = 1 convention, so generators
and frequencies are dimensionless.

Each operator decomposes itself at most once: `HermitianOperator.eig` calls
eigh_matrix on first access and caches the result, and every holder of the
operator (a Scenario and its with_lambda copies, say) shares the same
read-only arrays.  Two threads reaching a first access together may both
compute it; the results are identical, so that is harmless.  Every
eigendecomposition in the library goes through eigh_matrix.

eigh_matrix follows the block structure of its matrix: it finds the
contiguous diagonal blocks from the exact zeros and decomposes each block on
its own, so a diagonal generator, or a state dephased in its generator's
eigenbasis, costs the sum of its blocks' cubes rather than d^3.  The same
block scan and grouping of blocks by size serve metrology.qfi_mixed,
which evaluates a (rho, drho) pair block by block.  The scan never permutes:
a caller whose operator conserves a quantity orders its basis by that quantity
(models.example2_system orders its labels by total excitation).

HermitianOperator checks Hermiticity on outside input only, relative to
max(1, max|A|): a matrix formed from validated operators (an anticommutator,
an SLD) passes through _hermitian_part first, since its drift is rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "StateVector",
    "HermitianOperator",
    "DensityMatrix",
    "tensor",
    "eigh",
    "expectation",
    "commutator",
    "anticommutator",
    "sym_covariance",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands live on Hilbert spaces of different dimension."""


def _check_dims(*dims: int) -> int:
    first = dims[0]
    for d in dims[1:]:
        if d != first:
            raise DimensionMismatchError(f"dimension mismatch: {dims}")
    return first


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state.  Normalization is enforced at construction."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if arr.size == 0:
            raise ValueError("state vector needs at least one amplitude")
        norm = np.linalg.norm(arr)
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("state vector has zero or non-finite norm")
        arr = arr / norm
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix; anti-Hermitian drift up to 1e-12 * max(1, max|A|) is symmetrized away."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise ValueError("expected a non-empty square matrix")
        # a NaN would pass the drift check below: NaN > tol is False
        if not np.isfinite(mat).all():
            raise ValueError("entries must be finite")
        # max|A| is read only once the absolute bound fails
        drift = np.max(np.abs(mat - mat.conj().T))
        if drift > HERMITICITY_TOL and drift > HERMITICITY_TOL * np.max(np.abs(mat)):
            raise ValueError(f"matrix is not Hermitian (max drift {drift:.3e})")
        sym = _hermitian_part(mat)
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Spectral decomposition (ascending eigenvalues, orthonormal columns).

        Computed once per operator; the arrays are read-only.
        """
        w, v = eigh_matrix(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v


class DensityMatrix(HermitianOperator):
    """Positive unit-trace Hermitian matrix.

    The positivity check reads the smallest eigenvalue of `eig`, so a valid
    density matrix already holds the decomposition that qfi_mixed uses.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} is not 1")
        min_eig = float(self.eig[0][0])
        if min_eig < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        return cls(state.projector())


def tensor(a, b):
    """Kronecker product of two states or two operators.

    Row-major composite indexing: the pair (i, j) maps to index i * dim_b + j.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.matrix, b.matrix))
    raise TypeError("tensor expects two StateVectors or two HermitianOperators")


def _hermitian_part(x: np.ndarray) -> np.ndarray:
    """(X + X^dag) / 2, exactly Hermitian: entries (i, j) and (j, i) add the same pair."""
    return 0.5 * (x + x.conj().T)


def _block_ends(matrix: np.ndarray) -> np.ndarray:
    """Exclusive ends of the contiguous diagonal blocks of a square matrix.

    Every entry outside the blocks is exactly zero.  One O(d^2) pass: the
    running maximum of each row's last nonzero column (at least the row
    itself) closes a block at the rows where it equals the row index.
    """
    d = matrix.shape[0]
    nonzero = matrix != 0
    np.fill_diagonal(nonzero, True)
    last = d - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return np.flatnonzero(np.maximum.accumulate(last) == np.arange(d)) + 1


def _blocks_by_size(ends: np.ndarray) -> list[np.ndarray]:
    """Row indices of the diagonal blocks ending at `ends`, grouped by size.

    One (blocks, size) integer array per distinct size, ascending, so each
    group can go to numpy as one stacked operation.
    """
    starts = np.concatenate(([0], ends[:-1]))
    sizes = ends - starts
    return [starts[sizes == size, None] + np.arange(size) for size in np.unique(sizes)]


def eigh_matrix(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a matrix.

    The matrix is split into the contiguous diagonal blocks its exact zeros
    allow, and each block is decomposed on its own: blocks of one size go to
    LAPACK in one stacked np.linalg.eigh call, and a stable argsort merges
    the eigenvalues, so ties keep block order.  A failure to converge raises
    instead of returning garbage.
    """
    d = matrix.shape[0]
    w = np.empty(d)
    blocks = []  # (row indices of each block of one size, their eigenvectors)
    try:
        for index in _blocks_by_size(_block_ends(matrix)):
            block_w, block_v = np.linalg.eigh(matrix[index[:, :, None], index[:, None, :]])
            w[index] = block_w
            blocks.append((index, block_v))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(w, kind="stable")
    column = np.empty(d, dtype=np.intp)
    column[order] = np.arange(d)  # the sorted position of each eigenvalue
    v = np.zeros((d, d), dtype=blocks[0][1].dtype)
    for index, block_v in blocks:
        v[index[:, :, None], column[index][:, None, :]] = block_v
    return w[order], v


def eigh(op: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of op (cached)."""
    return op.eig


def expectation(op: HermitianOperator, state) -> float:
    """<psi|op|psi> or Tr(op rho).  op.matrix is exactly Hermitian, so the
    imaginary part is rounding of size eps |op| and is dropped unchecked."""
    if isinstance(state, StateVector):
        _check_dims(op.dim, state.dim)
        return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes)).real
    if isinstance(state, DensityMatrix):
        _check_dims(op.dim, state.dim)
        return complex(np.trace(op.matrix @ state.matrix)).real
    raise TypeError("state must be a StateVector or DensityMatrix")


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """ab - ba (anti-Hermitian, returned as a raw matrix)."""
    _check_dims(a.dim, b.dim)
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def anticommutator(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """ab + ba, symmetrized: its anti-Hermitian part is rounding, not checked."""
    _check_dims(a.dim, b.dim)
    return HermitianOperator(_hermitian_part(a.matrix @ b.matrix + b.matrix @ a.matrix))


def sym_covariance(a: HermitianOperator, b: HermitianOperator, state) -> float:
    """Symmetrized covariance (1/2)<{a,b}> - <a><b> on a state or density matrix."""
    half_anti = expectation(anticommutator(a, b), state) / 2.0
    return half_anti - expectation(a, state) * expectation(b, state)
