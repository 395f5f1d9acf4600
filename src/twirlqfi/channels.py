"""Dephasing channel built from the spectral projectors of a noise generator.

Averaging a state over the one-parameter unitary group exp(-i G t) pins the
state to the eigenspaces of G.  For a generator with a discrete spectrum the
averaged state is the pinching sum_i P_i rho P_i over the eigenspace
projectors P_i.  Degenerate eigenspaces are recovered numerically by greedy
clustering of the sorted eigenvalues with a documented tolerance; that is the
honest floating-point analogue of exact degeneracy.

A ProjectorSet is a view of the generator's cached eigendecomposition plus
the cluster bounds, not a validated copy: its invariants (orthonormal
columns, bounds that partition them) hold by construction and are asserted
in tests.  Along a lambda sweep G is decomposed once, and each point's
ProjectorSet only re-clusters the cached spectrum, in O(d).

A finite-time average of exp(-i G t) rho exp(i G t) is provided as an
independent validation oracle: it converges to the pinching as t_max grows
whenever the nonzero eigenvalue gaps of G stay away from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hilbert import DensityMatrix, HermitianOperator, _check_dims

__all__ = [
    "DEFAULT_CLUSTER_TOL",
    "ProjectorSet",
    "cluster_eigenvalues",
    "spectral_projectors",
    "twirl",
    "twirl_hermitian",
    "finite_time_average",
]

# Separates true degeneracies from eigensolver noise at dims up to ~500.
DEFAULT_CLUSTER_TOL = 1e-8


def cluster_eigenvalues(eigenvalues: np.ndarray, cluster_tol: float) -> list[int]:
    """Greedy clustering of ascending eigenvalues.

    Consecutive eigenvalues within cluster_tol * (1 + spectral range) join one
    cluster.  Returns the boundary indices [0, ..., n]; cluster k occupies the
    half-open index range [bounds[k], bounds[k + 1]).
    """
    # a NaN tolerance would fail every gap comparison and merge all clusters
    if not 0 < cluster_tol < math.inf:
        raise ValueError(f"cluster_tol must be positive and finite, got {cluster_tol!r}")
    w = np.asarray(eigenvalues, dtype=float)
    spread = float(w[-1] - w[0]) if w.size else 0.0
    gap = cluster_tol * (1.0 + spread)
    return [0, *(np.flatnonzero(np.diff(w) > gap) + 1).tolist(), w.size]


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """Eigenspace projectors of a generator: a view of its cached decomposition.

    `basis` is the generator's own read-only eigenvector array (`eig[1]`),
    and `bounds` cluster its ascending eigenvalues, computed at construction
    so that a bad cluster_tol raises here.  Orthonormal columns, bounds that
    partition them and strictly increasing cluster values hold by
    construction (eigh_matrix and cluster_eigenvalues) and are asserted in
    tests, not re-checked per instance.  Building one costs O(d) once the
    generator is decomposed; the projector matrices materialize lazily.
    """

    generator: HermitianOperator
    cluster_tol: float = DEFAULT_CLUSTER_TOL

    def __post_init__(self) -> None:
        bounds = cluster_eigenvalues(self.generator.eig[0], self.cluster_tol)
        object.__setattr__(self, "bounds", tuple(bounds))

    @property
    def basis(self) -> np.ndarray:
        return self.generator.eig[1]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """One representative value (the mean) per cluster, strictly increasing."""
        w = self.generator.eig[0]
        values = np.array([w[b1:b2].mean() for b1, b2 in zip(self.bounds, self.bounds[1:])])
        values.setflags(write=False)
        return values

    @property
    def dim(self) -> int:
        return self.generator.dim

    @property
    def n_projectors(self) -> int:
        return len(self.bounds) - 1

    def ranks(self) -> tuple[int, ...]:
        return tuple(b2 - b1 for b1, b2 in zip(self.bounds, self.bounds[1:]))

    @cached_property
    def projectors(self) -> list[HermitianOperator]:
        out = []
        for b1, b2 in zip(self.bounds, self.bounds[1:]):
            cols = self.basis[:, b1:b2]
            out.append(HermitianOperator(cols @ cols.conj().T))
        return out

    @cached_property
    def block_mask(self) -> np.ndarray:
        """1 where two eigenbasis columns share a cluster, 0 elsewhere (d x d)."""
        labels = np.repeat(np.arange(self.n_projectors), self.ranks())
        mask = (labels[:, None] == labels[None, :]).astype(float)
        mask.setflags(write=False)
        return mask

    def pinch(self, matrix: np.ndarray) -> np.ndarray:
        """sum_i P_i M P_i, evaluated as a block mask in the eigenbasis."""
        _check_dims(self.dim, matrix.shape[0])
        v = self.basis
        rotated = v.conj().T @ matrix @ v
        return v @ (self.block_mask * rotated) @ v.conj().T


def spectral_projectors(
    g: HermitianOperator, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> ProjectorSet:
    """Eigenspace projectors of g, with degeneracy detected by clustering."""
    return ProjectorSet(g, cluster_tol)


def twirl(rho: DensityMatrix, p: ProjectorSet) -> DensityMatrix:
    """Average rho over the dephasing group: sum_i P_i rho P_i."""
    return DensityMatrix(p.pinch(rho.matrix))


def twirl_hermitian(op: np.ndarray, p: ProjectorSet) -> np.ndarray:
    """Pinch a raw Hermitian matrix (e.g. the derivative of a density matrix)."""
    return p.pinch(np.asarray(op, dtype=complex))


def _trapezoid_phase_factors(delta: np.ndarray, t_max: float, steps: int) -> np.ndarray:
    """Trapezoidal average of exp(-i delta t) on a uniform grid over [0, t_max].

    Evaluated in closed form via the geometric sum, which is identical to the
    literal trapezoid rule up to rounding.  Near-degenerate phases (|z - 1|
    below 1e-9) are flushed to 1; there the true average deviates from 1 by at
    most steps * 1e-9 * t_max / steps, far below oracle tolerances.
    """
    dt = t_max / steps
    z = np.exp(-1j * delta * dt)
    z_end = np.exp(-1j * delta * t_max)
    near_one = np.abs(z - 1.0) < 1e-9
    denom = np.where(near_one, 1.0, z - 1.0)
    middle = (z_end - z) / denom
    factors = (0.5 + 0.5 * z_end + middle) / steps
    return np.where(near_one, 1.0 + 0.0j, factors)


def finite_time_average(
    rho: DensityMatrix, g: HermitianOperator, t_max: float, steps: int
) -> DensityMatrix:
    """Trapezoidal average of exp(-i g t) rho exp(i g t) over [0, t_max].

    `steps` counts trapezoid intervals (steps + 1 grid points).  This is a
    validation oracle, not a production path: it converges to twirl(rho) as
    t_max grows when the nonzero gaps of g are bounded away from zero.
    """
    _check_dims(rho.dim, g.dim)
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    w, v = g.eig
    delta = w[:, None] - w[None, :]
    factors = _trapezoid_phase_factors(delta, t_max, steps)
    rotated = v.conj().T @ rho.matrix @ v
    averaged = v @ (factors * rotated) @ v.conj().T
    return DensityMatrix(averaged)
