"""Estimation-theoretic quantities for unitary families under dephasing noise.

A Scenario bundles a fiducial state psi0, the encoding generator K (the
parameter lambda enters through exp(-i K lambda)) and the noise generator G
whose eigenspace projectors, which the scenario's Generators pair holds at
its cluster_tol, define the dephasing channel.  The module computes:

* the quantum Fisher information (QFI) of the clean and dephased state, in
  several algebraic forms (projector overlap, anticommutator, covariance,
  eigenvector); their agreement is asserted in tests rather than re-derived
  by report(),
* the information loss between the two, and the exact no-loss / max-loss
  conditions as executable predicates,
* symmetric logarithmic derivatives (SLDs), optimal projective measurements,
  and the classical Fisher information of arbitrary POVMs.

The loss theorem states each exact condition as "these residuals vanish".
The two QFIs report() returns are sums of squares, so neither is a
difference of two numbers of size ||K||^2 and neither comes out negative.
The clean QFI is 4||dpsi - <psi|dpsi> psi||^2 (qfi_pure, and qfi_unitary on
psi0).  The dephased QFI is 4 sum_i (Re<psi|P_i|dpsi>)^2 / p_i + 4 kappa^2,
the squares of the two max-loss residuals (qfi_twirled_pure,
qfi_eigenvector_form; qfi_commuting_form keeps 4 kappa^2 alone, since
commuting K and G make every Re<psi|P_i|dpsi> zero).  The loss and
covariance forms are differences of two such sums, and the anticommutator
form keeps its own cancelling arithmetic, so comparing forms compares
different arithmetic.

A scenario forms those per-eigenspace sums once, on first use
(Scenario._clusters: V^dag psi and V^dag dpsi in G's eigenbasis, summed
cluster by cluster).  The projector-overlap, anticommutator, covariance and
loss forms, both loss residuals, sld_twirled and report() all read that one
pass, so any of them after report() on the same scenario forms no sums again.

Derivatives of the state are always analytic (dpsi = -i K psi); finite
differences appear only in tests, as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import (
    DEFAULT_CLUSTER_TOL,
    ProjectorSet,
    _check_cluster_tol,
    _cluster_layout,
    spectral_projectors,
)
from .hilbert import (
    DensityMatrix,
    HermitianOperator,
    StateVector,
    _block_ends,
    _Blocks,
    _EigenBasis,
    _Layout,
    _check_dims,
    _dagger,
    _hermitian_part,
    _joint_products,
    eigh_matrix,
    expectation,
)

__all__ = [
    "EPS_PROBABILITY",
    "DEFAULT_CONDITION_TOL",
    "ConsistencyError",
    "NonCommutingError",
    "Generators",
    "Scenario",
    "QfiReport",
    "qfi_pure",
    "qfi_unitary",
    "qfi_twirled_pure",
    "qfi_anticommutator_form",
    "qfi_commuting_form",
    "qfi_covariance_form",
    "qfi_eigenvector_form",
    "qfi_loss",
    "loss_covariance_form",
    "check_no_loss",
    "check_max_loss",
    "no_loss_residual",
    "max_loss_residuals",
    "necessary_conditions",
    "qfi_mixed",
    "sld_mixed",
    "sld_twirled",
    "optimal_povm",
    "classical_fisher",
    "report",
]

# Terms with <psi|P_i|psi> below this floor carry no information (Schwarz
# inequality) and are skipped everywhere.
EPS_PROBABILITY = 1e-12

DEFAULT_CONDITION_TOL = 1e-8

# Cross-formula disagreement beyond this is a bug, not a tolerance issue.
CONSISTENCY_GATE = 1e-6


class ConsistencyError(ArithmeticError):
    """Independent formulas for the same quantity disagreed beyond the gate."""


class NonCommutingError(ValueError):
    """An operation restricted to commuting generators got a non-commuting pair."""


@dataclass(frozen=True, eq=False)
class Generators:
    """The generator pair (K, G) and what every psi0 and lambda on it share.

    dephasing (G's eigenspaces at cluster_tol, which define the channel),
    {G, K}, GK - KG and report()'s eigenvector gate are formed on first use;
    scenario() puts a fiducial state on the pair.  Compared by identity.
    {G, K} and GK - KG are kept as blocks on the pair's joint layout, where
    the blocks of both K and G end: d blocks of size 1 for a diagonal pair,
    one per excitation total for example 2, one d x d block for a dense pair.
    """

    k: HermitianOperator
    g: HermitianOperator
    cluster_tol: float = DEFAULT_CLUSTER_TOL

    def __post_init__(self) -> None:
        _check_dims(self.k.dim, self.g.dim)
        _check_cluster_tol(self.cluster_tol)

    @cached_property
    def dephasing(self) -> ProjectorSet:
        """G's eigenspace projectors at cluster_tol: a view of G.eig and its clusters."""
        return spectral_projectors(self.g, self.cluster_tol)

    @cached_property
    def products(self) -> tuple[_Blocks, _Blocks]:
        """({G, K}, GK - KG) as blocks on the pair's joint layout (_joint_products)."""
        return _joint_products(self.g, self.k)

    @cached_property
    def gate(self) -> tuple[_EigenBasis, _Layout]:
        """(V per block, cluster layout) of G by its own eigh_matrix call and
        clustering; report() says why."""
        w, v = eigh_matrix(self.g.blocks)
        return v, _cluster_layout(w, self.cluster_tol)

    def scenario(self, fiducial: StateVector, lam: float = 0.0) -> "Scenario":
        """The scenario (fiducial, K, G, lam) on this pair."""
        s = Scenario(fiducial, self.k, self.g, lam)
        object.__setattr__(s, "generators", self)
        return s


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fiducial state, encoding generator K, noise generator G and lambda.

    The constructor makes a new Generators pair at the default cluster_tol;
    Generators.scenario and with_lambda reuse one.  Compared by identity.
    """

    fiducial: StateVector
    k_generator: HermitianOperator
    g_generator: HermitianOperator
    lam: float = 0.0
    generators: Generators = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_dims(self.fiducial.dim, self.k_generator.dim, self.g_generator.dim)
        if not np.isfinite(self.lam):
            raise ValueError("lambda must be finite")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "generators", Generators(self.k_generator, self.g_generator))

    @property
    def dim(self) -> int:
        return self.fiducial.dim

    def with_lambda(self, lam: float) -> "Scenario":
        return self.generators.scenario(self.fiducial, lam)

    @cached_property
    def psi_lambda(self) -> StateVector:
        """exp(-i K lambda) |psi0>, from K's decomposition (shared across lambdas).

        V^dag and V act block by block (hilbert._blockwise): gathers for a
        diagonal K.
        """
        w, v = self.k_generator._eig
        phases = np.exp(-1j * w * self.lam)
        (coords,) = v.adjoint(self.fiducial.amplitudes)
        evolved = v.apply(phases * coords)
        norm = np.linalg.norm(evolved)
        if abs(norm - 1.0) > 1e-10:
            raise ArithmeticError(f"evolved state norm drifted to {norm!r}")
        return StateVector(evolved)

    @cached_property
    def dpsi(self) -> np.ndarray:
        """Analytic derivative -i K |psi_lambda> (unnormalized)."""
        return -1j * self.k_generator.apply(self.psi_lambda.amplitudes)

    @cached_property
    def rho_lambda(self) -> DensityMatrix:
        return DensityMatrix.from_state(self.psi_lambda)

    @cached_property
    def drho_lambda(self) -> np.ndarray:
        """Analytic |dpsi><psi| + |psi><dpsi| (Hermitian, traceless)."""
        psi = self.psi_lambda.amplitudes
        return np.outer(self.dpsi, psi.conj()) + np.outer(psi, self.dpsi.conj())

    @cached_property
    def _clusters(self) -> "_ClusterData":
        """V^dag psi and V^dag dpsi in G's eigenbasis and their cluster sums
        (_segment_sums): the one pass that the dephased forms read."""
        p = self.generators.dephasing
        a, b = p.generator._eig[1].adjoint(self.psi_lambda.amplitudes, self.dpsi)
        return _segment_sums(a, b, p.layout)


def _rounding_floor(scale: float) -> float:
    """1e-9 max(1, scale), the size of rounding in quantities of that scale."""
    return 1e-9 * max(1.0, scale)


@dataclass(frozen=True)
class QfiReport:
    """Clean/dephased QFI and theorem diagnostics, as report() measures them.

    Derives loss = alice_qfi - bob_qfi, and no_loss and max_loss by comparing
    no_loss_residual and the larger of max_loss_residuals (real, kernel) with
    DEFAULT_CONDITION_TOL.  report() passes both QFIs as sums of squares, so
    each is >= 0; 0 <= loss <= alice_qfi must hold to 1e-9 max(1, alice_qfi),
    the size of rounding in QFIs that large.
    """

    alice_qfi: float
    bob_qfi: float
    loss: float = field(init=False)
    no_loss: bool = field(init=False)
    max_loss: bool = field(init=False)
    cov_gk: float
    mean_commutator: complex
    no_loss_residual: float
    max_loss_residuals: tuple[float, float]

    def __post_init__(self) -> None:
        loss, floor = self.alice_qfi - self.bob_qfi, _rounding_floor(self.alice_qfi)
        if not -floor <= loss <= self.alice_qfi + floor:
            raise ValueError(
                f"loss {loss!r} violates 0 <= loss <= alice_qfi ({self.alice_qfi!r})"
                f" beyond the floor 1e-9 max(1, alice_qfi) = {floor:.3e}"
            )
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "no_loss", self.no_loss_residual <= DEFAULT_CONDITION_TOL)
        object.__setattr__(
            self, "max_loss", max(self.max_loss_residuals) <= DEFAULT_CONDITION_TOL
        )


@dataclass(frozen=True)
class _ClusterData:
    """Per-eigenspace components of psi_lambda and dpsi.

    a = V^dag psi and b = V^dag dpsi are the coordinates in G's eigenbasis V,
    p[i] = <psi|P_i|psi>, overlap[i] = <psi|P_i|dpsi>,
    dpsi_weight[i] = ||P_i dpsi||^2, and kernel_residual = ||(I - S S^dag) dpsi||
    where S has the orthonormal columns P_i psi / sqrt(p_i) over the support.
    """

    a: np.ndarray
    b: np.ndarray
    p: np.ndarray
    overlap: np.ndarray
    dpsi_weight: np.ndarray
    kernel_residual: float

    @property
    def support(self) -> np.ndarray:
        return self.p > EPS_PROBABILITY

    @property
    def rank_regular(self) -> bool:
        """True when no zero-probability eigenspace receives derivative weight.

        At such points the rank of the dephased state changes with lambda and
        its QFI (as a mixed-state formula) is genuinely discontinuous.
        """
        return not np.any(~self.support & (self.dpsi_weight > 1e-9))


def _segment_sums(a: np.ndarray, b: np.ndarray, clusters: _Layout) -> _ClusterData:
    """The cluster sums of a = V^dag psi and b = V^dag dpsi in an eigenbasis V,
    the clusters given as blocks of V's columns."""
    n = clusters.ends.size
    p, weight, overlap = np.empty(n), np.empty(n), np.empty(n, dtype=complex)
    # the clusters of one size r at once, each sum a stacked (1 x r)(r x 1)
    # matmul; tests hold p, the overlap and the weight to np.vdot's bits
    for index in clusters.groups:
        # cluster i holds rows ends[i - 1] to ends[i] - 1: a row's cluster is
        # the number of ends at or below it
        cluster = np.searchsorted(clusters.ends, index[:, 0], side="right")
        seg_a, seg_b = a[index][:, :, None], b[index][:, :, None]
        a_dag, b_dag = seg_a.conj().transpose(0, 2, 1), seg_b.conj().transpose(0, 2, 1)
        p[cluster] = np.real(a_dag @ seg_a)[:, 0, 0]
        overlap[cluster] = (a_dag @ seg_b)[:, 0, 0]
        weight[cluster] = np.real(b_dag @ seg_b)[:, 0, 0]
    # dpsi minus its projection onto each P_i psi, in eigenbasis coordinates.
    # The norm is taken of the vector itself: ||dpsi||^2 - sum |overlap|^2 / p
    # loses about 1e-8 ||dpsi|| to cancellation, the size of the condition
    # tolerance.
    coeff = np.divide(overlap, p, out=np.zeros_like(overlap), where=p > EPS_PROBABILITY)
    residual = b - np.repeat(coeff, np.diff(clusters.ends, prepend=0)) * a
    return _ClusterData(a, b, p, overlap, weight, float(np.linalg.norm(residual)))


def qfi_pure(psi: StateVector, dpsi: np.ndarray) -> float:
    """QFI of a pure unitary family: 4||dpsi - <psi|dpsi> psi||^2.

    That is 4<dpsi|dpsi> - 4|<psi|dpsi>|^2, formed as the norm of dpsi's
    component orthogonal to psi, so it is >= 0 without cancellation.
    Requires <psi|dpsi> purely imaginary (normalization is differentiable);
    a real part signals a non-unitary family or a buggy derivative.
    """
    dpsi = np.asarray(dpsi, dtype=complex)
    _check_dims(psi.dim, dpsi.size)
    ov = complex(np.vdot(psi.amplitudes, dpsi))
    if abs(ov.real) > _rounding_floor(float(np.linalg.norm(dpsi))):
        raise ValueError(
            f"<psi|dpsi> = {ov} is not purely imaginary; not a unitary family"
        )
    return 4.0 * float(np.linalg.norm(dpsi - ov * psi.amplitudes)) ** 2


def qfi_unitary(psi0: StateVector, k: HermitianOperator) -> float:
    """QFI of the clean unitary channel: 4 Var(K) = 4||K psi0 - <K> psi0||^2.

    Formed as that norm, so it is >= 0 without cancellation.  Independent of
    lambda.
    """
    _check_dims(psi0.dim, k.dim)
    psi = psi0.amplitudes
    kpsi = k.apply(psi)
    return 4.0 * float(np.linalg.norm(kpsi - np.vdot(psi, kpsi).real * psi)) ** 2


def qfi_twirled_pure(s: Scenario) -> float:
    """QFI of the dephased pure family (projector-overlap form).

    4 sum_i Re(<psi|P_i|dpsi>)^2 / p_i + 4 kappa^2 over eigenspaces with
    p_i = <psi|P_i|psi> above the floor, where kappa = max_loss_residuals'
    kernel residual holds the weight of dpsi outside span{P_i psi}, that of
    the eigenspaces below the floor included.  Since
    ||dpsi||^2 = sum_i |<psi|P_i|dpsi>|^2 / p_i + kappa^2, this equals
    4<dpsi|dpsi> - 4 sum_i Im(<psi|P_i|dpsi>)^2 / p_i, as a sum of the
    squares of the two max-loss residuals.
    """
    return _twirled_qfi(s._clusters)


def _twirled_qfi(data: _ClusterData) -> float:
    mask = data.support
    real_sum = float(np.sum(np.real(data.overlap[mask]) ** 2 / data.p[mask]))
    return 4.0 * real_sum + 4.0 * data.kernel_residual**2


def qfi_anticommutator_form(s: Scenario) -> float:
    """Dephased QFI via anticommutators: 4<K^2> - sum_i <{P_i,K}>^2 / p_i."""
    data = s._clusters
    ksq = float(np.real(np.vdot(s.dpsi, s.dpsi)))
    # <{P_i, K}> = 2 Re <psi|P_i K|psi> and K psi = i dpsi.
    anti = 2.0 * np.real(1j * data.overlap)
    mask = data.support
    return 4.0 * ksq - float(np.sum(anti[mask] ** 2 / data.p[mask]))


def qfi_commuting_form(s: Scenario) -> float:
    """Dephased QFI for commuting K and G, evaluated on the fiducial state.

    4<K^2> - 4 sum_i <psi0|P_i K|psi0>^2 / <psi0|P_i|psi0>, formed as
    4 kappa_0^2, kappa_0 the kernel residual of K psi0 against span{P_i psi0}
    (what max_loss_residuals reads of dpsi); independent of lambda.  Raises
    NonCommutingError when max |GK - KG| exceeds 1e-9 max(1, max|K| max|G|),
    a floor that scales with the generators.
    """
    # max|A| over the block stacks: the entries outside the blocks are zeros
    comm_norm, k, g = (max(float(np.max(np.abs(x))) for x in blocks.stacks)
                       for blocks in (s.generators.products[1], s.k_generator.blocks,
                                      s.g_generator.blocks))
    if comm_norm > _rounding_floor(k * g):
        raise NonCommutingError(
            f"K and G do not commute (max |[K, G]| = {comm_norm:.3e})"
        )
    psi0, p = s.fiducial.amplitudes, s.generators.dephasing
    kpsi = s.k_generator.apply(psi0)
    cluster = _segment_sums(*p.generator._eig[1].adjoint(psi0, kpsi), p.layout)
    return 4.0 * cluster.kernel_residual**2


def qfi_covariance_form(s: Scenario) -> float:
    """Dephased QFI as 4 Var(K) - 4 sum_i p_i Cov(P_i / p_i, K)^2.

    The difference of qfi_pure on the evolved state and loss_covariance_form,
    each a sum of squares.
    """
    return qfi_pure(s.psi_lambda, s.dpsi) - loss_covariance_form(s)


def qfi_eigenvector_form(s: Scenario) -> float:
    """Dephased QFI from raw eigenvectors of G, without projector matrices.

    Per degenerate cluster i, forms the overlap vectors a_i = <v_ij|psi> and
    b_i = <v_ij|dpsi> and evaluates
    4(<dpsi|dpsi> - sum_i Im(<a_i|b_i>)^2 / ||a_i||^2), as qfi_twirled_pure
    forms it, from the squares of the two max-loss residuals.
    The result does not depend on the basis chosen inside each cluster.
    G's eigenvectors and clusters are the pair's, from Generators.gate.
    """
    v, clusters = s.generators.gate
    return _twirled_qfi(_segment_sums(*v.adjoint(s.psi_lambda.amplitudes, s.dpsi), clusters))


def qfi_loss(s: Scenario) -> float:
    """Information loss 4(sum_i Im(<psi|P_i|dpsi>)^2 / p_i - |<psi|dpsi>|^2).

    The difference of qfi_pure on the evolved state and qfi_twirled_pure,
    each a sum of squares.
    """
    return qfi_pure(s.psi_lambda, s.dpsi) - qfi_twirled_pure(s)


def _no_loss_terms(s: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """(r, p) over the support: r_i = Im<psi|P_i|dpsi> - c p_i with
    c = Im<psi|dpsi>, which is -Cov(P_i, K) to the bit."""
    data = s._clusters
    c = float(np.imag(np.vdot(s.psi_lambda.amplitudes, s.dpsi)))
    mask = data.support
    return np.imag(data.overlap[mask]) - c * data.p[mask], data.p[mask]


def loss_covariance_form(s: Scenario) -> float:
    """Information loss as 4 sum_i Cov(P_i, K)^2 / p_i.

    Cov(P_i, K) = -r_i, the residuals that no_loss_residual reads: the terms
    of the no-loss clause.
    """
    r, p = _no_loss_terms(s)
    return 4.0 * float(np.sum(r**2 / p))


def no_loss_residual(s: Scenario) -> float:
    """Largest violation of Im<psi|P_i|dpsi> = c p_i with c = Im<psi|dpsi>.

    max_i |r_i| over the residuals r_i = Im<psi|P_i|dpsi> - c p_i, the same
    terms that loss_covariance_form sums as r_i^2 / p_i.
    """
    r, _ = _no_loss_terms(s)
    return float(np.max(np.abs(r), initial=0.0))


def max_loss_residuals(s: Scenario) -> tuple[float, float]:
    """Residuals of the two max-loss clauses.

    Returns (max_i |Re<psi|P_i|dpsi>|, ||(I - S S^dag) dpsi||) where S has the
    orthonormal columns P_i|psi>/sqrt(p_i) over the support.  The second is
    the norm of dpsi's component outside span{P_i psi}, so it does not depend
    on any choice of basis.
    """
    data = s._clusters
    real_residual = float(np.max(np.abs(np.real(data.overlap[data.support])), initial=0.0))
    return real_residual, data.kernel_residual


def check_no_loss(s: Scenario, tol: float = DEFAULT_CONDITION_TOL) -> bool:
    """Exact no-loss condition of the loss theorem, tested on residual norms."""
    return no_loss_residual(s) <= tol


def check_max_loss(s: Scenario, tol: float = DEFAULT_CONDITION_TOL) -> bool:
    """Exact max-loss condition of the loss theorem, tested on residual norms."""
    return max(max_loss_residuals(s)) <= tol


def necessary_conditions(s: Scenario) -> tuple[float, complex]:
    """(Cov(G, K), <[G, K]>) on the evolved state.

    Necessary one-directional implications: no loss forces Cov(G, K) = 0 and
    max loss forces <[G, K]> = 0.  Neither converse holds.  {G, K} and
    GK - KG are formed once per generator pair as blocks on the pair's joint
    layout (Generators.products), at sum_i r_i^3 over its block sizes r_i
    (d^3 only for a dense pair), and shared by the scenarios on the pair.
    <K> is read from the scenario's dpsi = -i K psi, so beyond dpsi a point
    costs three matrix-vector products, {G, K} psi, (GK - KG) psi and G psi,
    each block by block: entry by entry when K and G are diagonal.
    """
    anti, comm = s.generators.products
    psi = s.psi_lambda.amplitudes
    half_anti = float(np.vdot(psi, anti.apply(psi)).real) / 2.0
    k_mean = -float(np.imag(np.vdot(psi, s.dpsi)))  # <psi|dpsi> = -i <K>
    cov = half_anti - expectation(s.g_generator, s.psi_lambda) * k_mean
    return cov, complex(np.vdot(psi, comm.apply(psi)))


def _pair_blocks(rho: DensityMatrix, drho):
    """The diagonal blocks of the pair (rho, drho), stacked by size.

    Yields, per block size, the columns of V that each block owns, in
    ascending order, and the blocks of V, rho and drho.  A drho given as a
    _Blocks lies on rho's own layout, and so does a d x d drho whose nonzeros
    fit rho's blocks.  A drho that couples rho's blocks puts the pair on the
    joint layout, whose blocks are runs of rho's: rho and its eigenvectors
    are relaid onto it (_Blocks.relaid), and each joint block owns the
    columns of the eigenvectors at its rows.  No d x d V or rho is formed.
    """
    basis, layout = rho._eig[1], rho.blocks.layout
    if not isinstance(drho, _Blocks):
        ends = np.intersect1d(layout.ends, _block_ends(drho != 0), assume_unique=True)
        drho = _Blocks.on(layout if ends.size == layout.ends.size else _Layout(ends), drho)
    vectors, rhos = (x.relaid(drho.layout) for x in (basis.vectors, rho.blocks))
    for index, v, rho_kk, drho_kk in zip(drho.groups, vectors.stacks, rhos.stacks, drho.stacks):
        cols = basis.column[index]
        if drho.layout is not layout:
            # a joint block's columns in ascending order, so its eigenvalues ascend
            order = np.argsort(cols, axis=1)
            cols, v = np.take_along_axis(cols, order, 1), np.take_along_axis(v, order[:, None], 2)
        yield cols, v, rho_kk, drho_kk


def _mixed_in_eigenbasis(
    rho: DensityMatrix, drho
) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
    """The SLD in rho's eigenbasis V, L' = W o R with R = V^dag drho V, and the QFI.

    Evaluated on the diagonal blocks of the pair (_pair_blocks), blocks of
    one size as stacked matmuls; L' comes back as (columns of V, L' on them)
    per group of blocks.  drho is a d x d array, checked whole before it is
    sliced, or a _Blocks on rho's layout.

    The SLD equation is checked on each block's support S as
    2 R_SS = X + X^dag with X = L'[S, :] V_k^dag rho_kk V_k[:, S], from rho's
    own blocks, so it tests V as well.
    """
    if isinstance(drho, _Blocks):
        parts, diagonal = drho.stacks, drho.diagonal_entries()
    else:
        drho = np.asarray(drho, dtype=complex)
        _check_dims((rho.dim, rho.dim), drho.shape)
        parts, diagonal = [drho], np.diagonal(drho)
    max_drho = max(float(np.max(np.abs(x))) for x in parts)
    # a NaN would pass every floor below: NaN > floor is False
    if not np.isfinite(max_drho):
        raise ValueError("drho entries must be finite")
    floor = _rounding_floor(max_drho)
    # drho^dag - drho: the negation is exact, so the magnitudes are |drho - drho^dag|
    herm_drift = max(float(np.max(np.abs(_dagger(x) - x))) for x in parts)
    if herm_drift > floor:
        raise ValueError(
            f"drho is not Hermitian (max drift {herm_drift:.3e}, floor 1e-9 max(1, max|drho|)"
            f" = {floor:.3e})"
        )
    trace = abs(np.sum(diagonal))
    if trace > floor:
        raise ValueError(
            "drho must be traceless (derivative of a unit-trace family; "
            f"|Tr drho| = {trace:.3e}, floor 1e-9 max(1, max|drho|) = {floor:.3e})"
        )
    eigenvalues = rho._eig[0]
    qfi, sld = 0.0, []
    for cols, v, rho_kk, drho_kk in _pair_blocks(rho, drho):
        v_dag = v.conj().transpose(0, 2, 1)
        rotated = v_dag @ drho_kk @ v
        w = eigenvalues[cols]
        pair_sum = w[:, :, None] + w[:, None, :]
        weights = np.zeros_like(pair_sum)
        mask = pair_sum > EPS_PROBABILITY
        weights[mask] = 2.0 / pair_sum[mask]
        qfi += float(np.sum(weights * np.abs(rotated) ** 2))
        block_sld = weights * rotated
        sld.append((cols, block_sld))
        # eigenvalues ascend, so each block's support is its last columns; the
        # group is checked from its widest support on, other columns masked
        support = w > EPS_PROBABILITY
        first = w.shape[1] - int(support.sum(axis=1).max())
        on = support[:, first:]
        y = v_dag @ (rho_kk @ v[:, :, first:])  # V_k^dag rho_kk V_k,S
        x = block_sld[:, first:, :] @ y  # L' is Hermitian, so x^dag = Y^dag L'[:, S]
        residual = 2.0 * rotated[:, first:, first:] - x - x.conj().transpose(0, 2, 1)
        residual *= on[:, :, None] & on[:, None, :]
        if float(np.max(np.abs(residual), initial=0.0)) > 1e-8 * (1.0 + max_drho):
            raise ConsistencyError("SLD defining equation violated on the support")
    return sld, qfi


def qfi_mixed(rho: DensityMatrix, drho: np.ndarray) -> float:
    """QFI of a general density-matrix family from its eigendecomposition.

    2 sum_ij |<i|drho|j>|^2 / (p_i + p_j) over pairs with p_i + p_j above the
    floor.  The sum runs block by block over the diagonal blocks of the pair
    (rho, drho), so a block-diagonal pair, a dephased state say, costs the
    sum of its blocks' cubes rather than d^3.  drho is a d x d array, or,
    as report() passes drho_B, its blocks on rho's own layout.  A d x d drho
    that fits rho's blocks is read on that layout with rho's eigenvectors
    per block; one that couples rho's blocks goes on the coarser joint
    layout.  The SLD defining equation is verified in rho's eigenbasis, on
    rho's support against rho's own blocks.
    """
    return _mixed_in_eigenbasis(rho, drho)[1]


def sld_mixed(rho: DensityMatrix, drho: np.ndarray) -> HermitianOperator:
    """Symmetric logarithmic derivative 2 <i|drho|j> / (p_i + p_j) |i><j|.

    Verified in rho's eigenbasis as in qfi_mixed, block by block; the blocks
    are scattered into one matrix and rotated back once.
    """
    blocks, _ = _mixed_in_eigenbasis(rho, drho)
    sld = np.zeros((rho.dim, rho.dim), dtype=complex)
    for cols, block_sld in blocks:
        sld[cols[:, :, None], cols[:, None, :]] = block_sld
    basis = rho.eig[1]
    return HermitianOperator(_hermitian_part(basis @ sld @ basis.conj().T))


def sld_twirled(s: Scenario) -> HermitianOperator:
    """SLD of the dephased pure family, built in G's eigenbasis V.

    L = sum_i |phi_i><psi_i| + |psi_i><phi_i| with psi_i = P_i psi / sqrt(p_i)
    and phi_i = (2 P_i dpsi - <psi_i|dpsi> psi_i) / sqrt(p_i), extended by
    zero off their span.  In V the sum holds phi psi^dag + psi phi^dag on
    each cluster's diagonal block (_cross_blocks, as for drho_B), rotated
    back once.
    """
    data, p = s._clusters, s.generators.dephasing
    sizes = p.ranks()
    inv_sqrt_p = np.divide(1.0, np.sqrt(data.p), out=np.zeros_like(data.p), where=data.support)
    scale = np.repeat(inv_sqrt_p, sizes)  # 0 outside the support: psi_i = phi_i = 0
    psi = scale * data.a
    phi = scale * (2.0 * data.b - np.repeat(data.overlap, sizes) * scale * psi)
    sld = _Blocks(p.layout, tuple(_cross_blocks(psi, phi, p.layout))).dense()
    return HermitianOperator(_hermitian_part(p.basis @ sld @ p.basis.conj().T))


def optimal_povm(
    sld: HermitianOperator, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> list[HermitianOperator]:
    """Complete orthogonal eigenprojectors of the SLD (the optimal measurement)."""
    return spectral_projectors(sld, cluster_tol).projectors


def classical_fisher(
    povm: list[HermitianOperator], rho: DensityMatrix, drho: np.ndarray
) -> float:
    """Classical Fisher information sum_x (Tr O_x drho)^2 / Tr(O_x rho).

    Outcomes with probability below the floor are skipped.  The POVM must be
    positive (within 1e-10) and complete (within 1e-9), and drho a finite
    d x d array.
    """
    drho = np.asarray(drho, dtype=complex)
    _check_dims((rho.dim, rho.dim), drho.shape)
    # a NaN would pass the sums below and come back as the answer
    if not np.isfinite(drho).all():
        raise ValueError("drho entries must be finite")
    total = np.zeros((rho.dim, rho.dim), dtype=complex)
    for element in povm:
        _check_dims(element.dim, rho.dim)
        # the eigenvalues alone: element.eig would cache a d x d V per element
        min_eig = float(element._eig[0][0])
        if min_eig < -1e-10:
            raise ValueError(f"POVM element has negative eigenvalue {min_eig:.3e}")
        total += element.matrix
    if float(np.max(np.abs(total - np.eye(rho.dim)))) > 1e-9:
        raise ValueError("POVM elements do not sum to the identity")
    fisher = 0.0
    # rho^T read in memory order as conj(rho), equal up to the sign of a zero
    # since rho.matrix is exactly Hermitian; drho is outside input, read as drho.T
    rho_t = rho.matrix.conj()
    for element in povm:
        # Tr(O rho) and Tr(O drho) as entrywise sums, O(d^2) per element
        prob = float(np.real(np.sum(element.matrix * rho_t)))
        if prob <= EPS_PROBABILITY:
            continue
        dprob = float(np.real(np.sum(element.matrix * drho.T)))
        fisher += dprob**2 / prob
    return fisher


def _gate(values: dict[str, float], scale: float) -> None:
    spread = max(values.values()) - min(values.values())
    if spread > CONSISTENCY_GATE * max(1.0, scale):
        detail = ", ".join(f"{k}={v!r}" for k, v in values.items())
        raise ConsistencyError(f"QFI formulas disagree beyond the gate: {detail}")


def _cross_blocks(a: np.ndarray, b: np.ndarray, clusters: _Layout) -> list[np.ndarray]:
    """b a^dag + a b^dag on each cluster's diagonal block, one stack per group
    of the clusters' layout, each entry the product np.outer forms."""
    out = []
    for index in clusters.groups:
        seg_a, seg_b = a[index], b[index]
        out.append(seg_b[:, :, None] * seg_a.conj()[:, None, :]
                   + seg_a[:, :, None] * seg_b.conj()[:, None, :])
    return out


def _dephased_pair(data: _ClusterData, clusters: _Layout) -> tuple[list, list]:
    """(rho_B, drho_B) in G's eigenbasis, as blocks: a a^dag and b a^dag + a b^dag
    on each cluster's diagonal block.

    Returns, per group of the clusters' layout, the stacked blocks of rho_B
    and of drho_B, each entry the product np.outer forms, so no d x d array
    is made.  rho_B's blocks are stored as their Hermitian parts, the bits
    DensityMatrix keeps: a_i conj(a_j) and a_j conj(a_i) can differ in the
    last bit, and an exactly Hermitian rho_B skips its drift check.
    """
    segments = (data.a[index] for index in clusters.groups)
    rho_b = [_hermitian_part(seg[:, :, None] * seg.conj()[:, None, :]) for seg in segments]
    return rho_b, _cross_blocks(data.a, data.b, clusters)


def report(s: Scenario) -> QfiReport:
    """Full diagnostic report for a scenario, G clustered once per pair at its cluster_tol.

    The scenario's one pass over G's eigenspaces (its cached cluster sums)
    gives the dephased QFI (qfi_twirled_pure, the projector-overlap form) and
    the no-loss and max-loss residuals (no_loss_residual, max_loss_residuals):
    report() calls those public functions, and every other dephased form and
    sld_twirled read the same pass, so it runs once per scenario.  The checks
    below do not reuse the sums; a spread above the consistency gate raises
    instead of averaging discrepant numbers:

    * the clean QFI as 4 Var(K) against the pure-state QFI of the evolved
      state;
    * the dephased QFI against qfi_eigenvector_form, which clusters G's
      spectrum and forms the cluster sums again from G's own decomposition.
      That decomposition is a separate eigh_matrix call made once per (K, G)
      pair and shared by the scenarios on it, so P points on one pair (any
      psi0, any lambda) make 3 + P eigh_matrix calls (K, G and the gate's G
      once, rho_B below at each point) and a fresh report() makes 4, as does
      each point of a CLI sweep that builds a new system (N, alpha_sq or z).
      The call returns G.eig's bits, so the gate checks the clustering and
      the sums, not the decomposition; its removal waits on the benchmark's
      pin of four calls per fresh report().
    * the dephased QFI against qfi_mixed of the dephased density matrix
      rho_B.  That pair is built in G's eigenbasis V, where the pinching
      keeps each cluster's diagonal block: with a = V^dag psi and
      b = V^dag dpsi, rho_B holds the Hermitian part of a a^dag and drho_B
      holds b a^dag + a b^dag on each block, clusters of one size formed
      as one stacked outer product (_dephased_pair).  The blocks stay
      stacked: rho_B is a DensityMatrix.from_blocks on the clusters'
      layout, and qfi_mixed reads drho_B on the same layout, so no d x d
      array is formed, zero-filled or scanned.  That layout is G's
      ProjectorSet's, which groups the clusters by size once per pair; the
      cluster sums, rho_B, its eigenvectors and drho_B all read that one
      grouping, and the gate groups its own clusters once per pair.  The QFI and the SLD equation do not
      change under V, so leaving out the rotation back loses nothing; the
      check still takes its own eigendecomposition of rho_B, the
      mixed-state formula and the SLD defining equation, none of which the
      projector-overlap value uses.  All three run block by block over the
      clusters, so the check costs the sum of the clusters' cubes rather
      than d^3.  The mixed-state check is skipped at rank-change points of
      the dephased family (a zero-probability eigenspace receiving
      derivative weight), where the mixed-state QFI is genuinely
      discontinuous.

    Each eigh_matrix call costs the sum of its operator's blocks' cubes,
    and every product with K, G, their eigenvectors and the pair's products
    runs block by block, blocks of one size as one stacked operation.  For
    diagonal K and G (example 1) every block has size 1: K, G and the gate
    decompose in O(d), and psi(lambda), dpsi, the cluster sums and
    necessary_conditions are entry-wise products and index gathers.  For
    example 2, G's blocks are its excitation totals, of at most
    n_total_max + 1 rows.  Neither forms a d x d array at any point; only a
    dense K or G (one block) has d x d products.

    Both QFIs are sums of squares (qfi_unitary, qfi_twirled_pure), so
    neither is negative.  QfiReport derives the loss and both verdicts from
    what is measured here.
    qfi_mixed's input floors on drho_B (Hermiticity, trace) guard a caller's drho;
    report() builds drho_B itself, so a failure there raises
    ConsistencyError naming the mixed_state stage and the floor.  So does a
    loss outside QfiReport's bounds (the loss_invariant stage), with
    QfiReport's ValueError as the cause.

    The anticommutator and covariance forms and the two loss forms read the
    same per-eigenspace sums with other arithmetic; their agreement is
    asserted in tests and in the acceptance gate, not here.
    """
    alice = qfi_unitary(s.fiducial, s.k_generator)
    alice_check = qfi_pure(s.psi_lambda, s.dpsi)
    _gate({"unitary_variance": alice, "pure_overlap": alice_check}, alice)

    bob = qfi_twirled_pure(s)
    candidates = {
        "projector_overlap": bob,
        "eigenvector": qfi_eigenvector_form(s),
    }
    if s._clusters.rank_regular:
        clusters = s.generators.dephasing.layout
        rho_b, drho_b = _dephased_pair(s._clusters, clusters)
        rho_b = DensityMatrix.from_blocks(clusters, rho_b)
        try:
            candidates["mixed_state"] = qfi_mixed(rho_b, _Blocks(clusters, tuple(drho_b)))
        except ValueError as exc:
            # report() built this pair itself: a failed input floor is its own rounding
            raise ConsistencyError(f"mixed_state check on the dephased pair: {exc}") from exc
    _gate(candidates, alice)
    cov_gk, mean_comm = necessary_conditions(s)
    residuals = no_loss_residual(s), max_loss_residuals(s)
    try:
        return QfiReport(alice, bob, cov_gk, mean_comm, *residuals)
    except ValueError as exc:
        # report() measured both QFIs itself: a loss out of bounds is its own rounding
        raise ConsistencyError(f"loss_invariant: {exc}") from exc
