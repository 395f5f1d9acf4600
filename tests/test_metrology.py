import math

import numpy as np
import pytest
from conftest import (
    SIGMA_X,
    commuting_pair,
    haar_state,
    random_degenerate_hermitian,
    random_density,
    random_hermitian,
    random_scenario,
    random_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from twirlqfi import hilbert, metrology
from twirlqfi.channels import (
    _cluster_layout,
    spectral_projectors,
    twirl,
    twirl_hermitian,
)
from twirlqfi.hilbert import (
    DensityMatrix,
    HermitianOperator,
    StateVector,
    _hermitian_part,
    anticommutator,
    commutator,
    expectation,
)
from twirlqfi.metrology import (
    ConsistencyError,
    NonCommutingError,
    Scenario,
    check_max_loss,
    check_no_loss,
    classical_fisher,
    loss_covariance_form,
    max_loss_residuals,
    necessary_conditions,
    no_loss_residual,
    optimal_povm,
    qfi_anticommutator_form,
    qfi_commuting_form,
    qfi_covariance_form,
    qfi_eigenvector_form,
    qfi_loss,
    qfi_mixed,
    qfi_pure,
    qfi_twirled_pure,
    qfi_unitary,
    report,
    sld_mixed,
    sld_twirled,
)
from twirlqfi.models import (
    QrfStateSpec,
    counterexample_scenario,
    example1_scenario,
    example2_system,
    example3_bob_qfi,
    example3_sld_diag,
    example3_scenario,
    qrf_amplitudes,
)


def on_identity(s):
    """s with its psi0, K and lambda on G = I, whose one eigenspace dephases nothing."""
    identity = HermitianOperator(np.eye(s.dim, dtype=complex))
    return metrology.Generators(s.k_generator, identity).scenario(s.fiducial, s.lam)


def example3(z, lam, x=0.0):
    y = np.sqrt(max(0.0, 1.0 - z * z - x * x))
    return example3_scenario((x, y, z), lam)


# --- independent oracles: every formula rebuilt from materialized projectors


def naive_twirled_qfi(s, p):
    psi = s.psi_lambda.amplitudes
    total = 4.0 * np.real(np.vdot(s.dpsi, s.dpsi))
    for proj in p.projectors:
        prob = np.real(np.vdot(psi, proj.matrix @ psi))
        if prob <= 1e-12:
            continue
        total -= 4.0 * np.imag(np.vdot(psi, proj.matrix @ s.dpsi)) ** 2 / prob
    return total


def naive_anticommutator_qfi(s, p):
    psi = s.psi_lambda.amplitudes
    k = s.k_generator.matrix
    total = 4.0 * np.real(np.vdot(psi, k @ k @ psi))
    for proj in p.projectors:
        prob = np.real(np.vdot(psi, proj.matrix @ psi))
        if prob <= 1e-12:
            continue
        anti = proj.matrix @ k + k @ proj.matrix
        total -= np.real(np.vdot(psi, anti @ psi)) ** 2 / prob
    return total


def symmetrized_covariance(a, b, state):
    """The symmetrized covariance (1/2)<{A, B}> - <A><B> on a state."""
    half_anti = expectation(anticommutator(a, b), state) / 2.0
    return half_anti - expectation(a, state) * expectation(b, state)


def naive_covariance_qfi(s, p):
    state = s.psi_lambda
    total = 4.0 * symmetrized_covariance(s.k_generator, s.k_generator, state)
    for proj in p.projectors:
        prob = expectation(proj, state)
        if prob <= 1e-12:
            continue
        cov = symmetrized_covariance(proj, s.k_generator, state)
        total -= 4.0 * prob * (cov / prob) ** 2
    return total


def explicit_kernel_residual(s, p):
    """||(I - sum_i P_i psi psi^dag P_i / p_i) dpsi|| from projector matrices."""
    psi = s.psi_lambda.amplitudes
    complement = np.eye(s.dim, dtype=complex)
    for proj in p.projectors:
        v = proj.matrix @ psi
        prob = np.real(np.vdot(psi, v))
        if prob > 1e-12:
            complement -= np.outer(v, v.conj()) / prob
    return float(np.linalg.norm(complement @ s.dpsi))


def naive_twirled_sld(s, p):
    """sum_i |phi_i><psi_i| + h.c. from projector matrices, cluster by cluster."""
    psi = s.psi_lambda.amplitudes
    sld = np.zeros((s.dim, s.dim), dtype=complex)
    for proj in p.projectors:
        prob = np.real(np.vdot(psi, proj.matrix @ psi))
        if prob <= 1e-12:
            continue
        psi_i = proj.matrix @ psi / np.sqrt(prob)
        phi_i = (2.0 * proj.matrix @ s.dpsi - np.vdot(psi_i, s.dpsi) * psi_i) / np.sqrt(prob)
        sld += np.outer(phi_i, psi_i.conj()) + np.outer(psi_i, phi_i.conj())
    return sld


def cluster_mask(p):
    """1 where two eigenbasis columns share a cluster of p, 0 elsewhere (d x d)."""
    labels = np.repeat(np.arange(p.n_projectors), p.ranks())
    return (labels[:, None] == labels[None, :]).astype(float)


def eigenbasis_pair(s, p):
    """The dephased pair in G's eigenbasis as block-masked d x d outer products,
    the reference for report()'s pair, which it writes cluster by cluster.

    p is a ProjectorSet of s's G; a = V^dag psi and b = V^dag dpsi are the
    coordinates report() forms, block by block (Scenario._clusters).
    """
    data = s._clusters
    a, b = data.a, data.b
    mask = cluster_mask(p)
    rho = DensityMatrix(mask * np.outer(a, a.conj()))
    return rho, mask * (np.outer(b, a.conj()) + np.outer(a, b.conj()))


def random_traceless(rng, dim):
    h = random_hermitian(rng, dim).matrix
    return h - np.trace(h) / dim * np.eye(dim)


def block_diagonal_pair(rng, blocks):
    """A block-diagonal density matrix and a traceless drho on coarser blocks.

    `blocks` lists, per diagonal block of drho, the (size, rank) of each of
    rho's finer blocks inside it.  drho is dense on its blocks, so it couples
    rho's blocks there; a rank-0 block of rho is exactly zero.
    """
    fine = [part for block in blocks for part in block]
    dim = sum(size for size, _ in fine)
    rho = np.zeros((dim, dim), dtype=complex)
    drho = np.zeros((dim, dim), dtype=complex)
    start = 0
    for size, rank in fine:
        u = random_unitary(rng, size)
        weights = np.zeros(size)
        weights[:rank] = rng.uniform(0.1, 1.0, size=rank)
        rho[start : start + size, start : start + size] = (u * weights) @ u.conj().T
        start += size
    start = 0
    for block in blocks:
        size = sum(part for part, _ in block)
        drho[start : start + size, start : start + size] = random_hermitian(rng, size).matrix
        start += size
    return DensityMatrix(rho / np.trace(rho).real), drho - np.trace(drho) / dim * np.eye(dim)


@st.composite
def block_structures(draw):
    """1-5 blocks of size 1-7, each split into at most two blocks of rho."""
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, 7))
        cut = draw(st.integers(0, size - 1))  # 0: rho does not split this block
        parts = [cut, size - cut] if cut else [size]
        blocks.append([(part, draw(st.integers(0, part))) for part in parts])
    if not any(rank for block in blocks for _, rank in block):
        blocks[0][0] = (blocks[0][0][0], 1)
    return blocks


def textbook_sld(rho, drho):
    """The QFI and the SLD from a dense eigendecomposition of rho's matrix."""
    w, v = np.linalg.eigh(rho.matrix)
    rotated = v.conj().T @ drho @ v
    pair_sum = w[:, None] + w[None, :]
    weights = np.divide(2.0, pair_sum, out=np.zeros_like(pair_sum), where=pair_sum > 1e-12)
    qfi = float(np.sum(weights * np.abs(rotated) ** 2))
    return qfi, v @ (weights * rotated) @ v.conj().T


def finite_difference_drho(s, step=1e-5):
    lo = s.with_lambda(s.lam - step).rho_lambda.matrix
    hi = s.with_lambda(s.lam + step).rho_lambda.matrix
    return (hi - lo) / (2.0 * step)


class TestQfiPure:
    def test_direction_indicator_values(self):
        for lam in (0.0, 0.4, 2.0):
            s = example3(0.0, lam)
            assert qfi_pure(s.psi_lambda, s.dpsi) == pytest.approx(1.0, abs=1e-12)
        s = example3(1.0, 0.7)
        assert qfi_pure(s.psi_lambda, s.dpsi) == pytest.approx(0.0, abs=1e-12)

    def test_matches_four_variance(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            s = random_scenario(rng, 8)
            assert qfi_pure(s.psi_lambda, s.dpsi) == pytest.approx(
                qfi_unitary(s.fiducial, s.k_generator), abs=1e-10
            )

    def test_rejects_non_unitary_derivative(self):
        psi = StateVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            qfi_pure(psi, np.array([1.0, 0.0]))  # <psi|dpsi> real and nonzero


class TestQfiUnitary:
    def test_example1_is_one(self):
        qrf = qrf_amplitudes(QrfStateSpec.uniform(5), 5)
        s = example1_scenario(qrf)
        assert qfi_unitary(s.fiducial, s.k_generator) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_gives_zero(self):
        k = HermitianOperator(np.diag([0.0, 2.0]).astype(complex))
        assert qfi_unitary(StateVector(np.array([1.0, 0.0])), k) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_direction_indicator_closed_form(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            z = float(rng.uniform(0, 1))
            x = float(rng.uniform(0, np.sqrt(1 - z * z)))
            s = example3(z, 0.0, x=x)
            assert qfi_unitary(s.fiducial, s.k_generator) == pytest.approx(
                1.0 - z * z, abs=1e-12
            )

    def test_lambda_independent(self):
        rng = np.random.default_rng(71)
        s = random_scenario(rng, 6)
        assert qfi_unitary(s.psi_lambda, s.k_generator) == pytest.approx(
            qfi_unitary(s.fiducial, s.k_generator), abs=1e-10
        )


class TestDephasedQfiForms:
    def test_trivial_projector_recovers_pure(self):
        rng = np.random.default_rng(73)
        s = on_identity(random_scenario(rng, 7))
        pure = qfi_pure(s.psi_lambda, s.dpsi)
        variance = qfi_unitary(s.fiducial, s.k_generator)  # 4 Var(K)
        assert qfi_twirled_pure(s) == pytest.approx(pure, abs=1e-10)
        assert qfi_anticommutator_form(s) == pytest.approx(variance, abs=1e-10)
        assert qfi_covariance_form(s) == pytest.approx(variance, abs=1e-10)

    def test_uniform_probe_values(self):
        for n, lam in ((2, 0.3), (4, 0.7), (10, 1.2)):
            qrf = qrf_amplitudes(QrfStateSpec.uniform(n), n)
            s = example1_scenario(qrf, lam)
            assert qfi_twirled_pure(s) == pytest.approx(1 - 1 / n, abs=1e-10)
            assert qfi_commuting_form(s) == pytest.approx(1 - 1 / n, abs=1e-10)
            assert qfi_covariance_form(s) == pytest.approx(1 - 1 / n, abs=1e-10)

    def test_direction_indicator_grid(self):
        for z in (0.0, 0.5, 1.0):
            for lam in (0.25, np.pi / 2, 2.5):
                s = example3(z, lam)
                expected = example3_bob_qfi(z, lam)
                assert qfi_twirled_pure(s) == pytest.approx(expected, abs=1e-10)
                assert qfi_anticommutator_form(s) == pytest.approx(expected, abs=1e-10)
                assert qfi_eigenvector_form(s) == pytest.approx(
                    expected, abs=1e-10
                )
        s = example3(1.0 / np.sqrt(2.0), np.pi / 2)
        assert qfi_twirled_pure(s) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_forms_match_naive_projector_oracles(self):
        rng = np.random.default_rng(79)
        for _ in range(25):
            dim = int(rng.integers(2, 17))
            s = random_scenario(rng, dim, degenerate_g=bool(rng.uniform() < 0.5))
            p = spectral_projectors(s.g_generator)
            reference = naive_twirled_qfi(s, p)
            assert qfi_twirled_pure(s) == pytest.approx(reference, abs=1e-9)
            assert qfi_anticommutator_form(s) == pytest.approx(
                naive_anticommutator_qfi(s, p), abs=1e-9
            )
            assert qfi_covariance_form(s) == pytest.approx(
                naive_covariance_qfi(s, p), abs=1e-9
            )
            assert qfi_eigenvector_form(s) == pytest.approx(
                reference, abs=1e-9
            )

    def test_commuting_form_values_and_rejection(self):
        qrf = qrf_amplitudes(QrfStateSpec.squeezed_displaced(0.0, 1.0), 80)
        s = example1_scenario(qrf, 0.5)
        assert qfi_commuting_form(s) == pytest.approx(0.0, abs=1e-10)
        ce = counterexample_scenario(0.8)
        assert qfi_commuting_form(ce) == pytest.approx(0.0, abs=1e-12)
        s3 = example3(0.5, 0.3)
        for scale in (1.0, 1e4, 1e8):
            k = HermitianOperator(scale * s3.k_generator.matrix)
            with pytest.raises(NonCommutingError):
                qfi_commuting_form(Scenario(s3.fiducial, k, s3.g_generator, s3.lam))

    def test_commuting_form_builds_no_matrix_of_a_diagonal_pair(self):
        s = example1_scenario(qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(40.1))), 0.7)
        qfi_commuting_form(s)
        for op in (s.k_generator, s.g_generator):
            assert "matrix" not in vars(op)

    def test_commuting_form_floor_is_read_from_the_block_stacks(self, monkeypatch):
        # max|A| over the block stacks is max|A| over the matrix: the floor of a
        # dense pair, commuting or not, is the one the matrices give
        scales, original = [], metrology._rounding_floor

        def spy(scale):
            scales.append(scale)
            return original(scale)

        monkeypatch.setattr(metrology, "_rounding_floor", spy)
        rng = np.random.default_rng(241)
        k, g = commuting_pair(rng, 6, n_clusters=3)
        s3 = example3(0.5, 0.3)
        for s, raises in ((Scenario(haar_state(rng, 6), k, g, 0.3), False), (s3, True)):
            scales.clear()
            if raises:
                with pytest.raises(NonCommutingError):
                    qfi_commuting_form(s)
            else:
                qfi_commuting_form(s)
            matrices = s.k_generator.matrix, s.g_generator.matrix
            assert scales == [float(np.max(np.abs(matrices[0])) * np.max(np.abs(matrices[1])))]

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_commuting_form_scales_with_k(self, scale):
        # rounding in GK - KG grows as c |K| |G| (up to 7e-8 at c = 1e8), so
        # the commutation floor must scale with the generators
        rng = np.random.default_rng(193)
        for _ in range(10):
            k, g = commuting_pair(rng, 6, n_clusters=3)
            psi0 = haar_state(rng, 6)
            unit = qfi_commuting_form(Scenario(psi0, k, g, 0.3))
            scaled = Scenario(psi0, HermitianOperator(scale * k.matrix), g, 0.3 / scale)
            assert qfi_commuting_form(scaled) == pytest.approx(scale**2 * unit, rel=1e-12)

    def test_commuting_form_equals_sector_average(self):
        # H(G[rho]) = sum_i p_i * 4 Var_{rho_i}(K) in the commuting case
        rng = np.random.default_rng(83)
        for _ in range(10):
            dim = int(rng.integers(4, 13))
            k, g = commuting_pair(rng, dim, n_clusters=max(2, dim // 3))
            s = Scenario(haar_state(rng, dim), k, g, 0.9)
            p = spectral_projectors(g)
            psi = s.fiducial.amplitudes
            total = 0.0
            for proj in p.projectors:
                prob = np.real(np.vdot(psi, proj.matrix @ psi))
                if prob <= 1e-12:
                    continue
                block = proj.matrix @ np.outer(psi, psi.conj()) @ proj.matrix / prob
                mean_k = np.real(np.trace(s.k_generator.matrix @ block))
                mean_k2 = np.real(
                    np.trace(s.k_generator.matrix @ s.k_generator.matrix @ block)
                )
                total += prob * 4.0 * (mean_k2 - mean_k**2)
            assert qfi_commuting_form(s) == pytest.approx(total, abs=1e-8)

    def test_eigenvector_form_basis_invariance(self):
        rng = np.random.default_rng(89)
        dim = 10
        g = random_degenerate_hermitian(rng, dim, 4)
        s = Scenario(haar_state(rng, dim), random_hermitian(rng, dim), g, 0.6)
        reference = qfi_eigenvector_form(s)
        # same formula evaluated in two randomly rotated in-cluster bases
        w, v = np.linalg.eigh(g.matrix)
        bounds = [0, *_cluster_layout(w, 1e-8).ends.tolist()]
        for _ in range(2):
            rotated = v.copy()
            for b1, b2 in zip(bounds, bounds[1:]):
                rotated[:, b1:b2] = rotated[:, b1:b2] @ random_unitary(rng, b2 - b1)
            psi = s.psi_lambda.amplitudes
            total = np.real(np.vdot(s.dpsi, s.dpsi))
            for b1, b2 in zip(bounds, bounds[1:]):
                a = rotated[:, b1:b2].conj().T @ psi
                b = rotated[:, b1:b2].conj().T @ s.dpsi
                norm_sq = np.real(np.vdot(a, a))
                if norm_sq <= 1e-12:
                    continue
                total -= np.imag(np.vdot(a, b)) ** 2 / norm_sq
            assert 4.0 * total == pytest.approx(reference, abs=1e-9)

    def test_nondegenerate_commuting_loses_everything(self):
        # rank-1 clusters and commuting K: appendix lemma via diagonal pair
        rng = np.random.default_rng(97)
        k = HermitianOperator(np.diag(rng.normal(size=6)).astype(complex))
        g = HermitianOperator(np.diag(np.arange(6, dtype=float)).astype(complex))
        lemma = Scenario(haar_state(rng, 6), k, g, 1.1)
        assert qfi_eigenvector_form(lemma) == pytest.approx(0.0, abs=1e-9)


class TestLoss:
    def test_trivial_no_loss(self):
        rng = np.random.default_rng(101)
        s = on_identity(random_scenario(rng, 6))
        assert qfi_loss(s) == pytest.approx(0.0, abs=1e-10)
        assert loss_covariance_form(s) == pytest.approx(0.0, abs=1e-10)
        assert check_no_loss(s)

    def test_uniform_probe_loss(self):
        qrf = qrf_amplitudes(QrfStateSpec.uniform(4), 4)
        s = example1_scenario(qrf, 0.2)
        assert qfi_loss(s) == pytest.approx(0.25, abs=1e-10)
        assert loss_covariance_form(s) == pytest.approx(0.25, abs=1e-10)

    def test_squeezed_probe_max_loss(self):
        qrf = qrf_amplitudes(QrfStateSpec.squeezed_displaced(0.0, 1.0), 80)
        s = example1_scenario(qrf, 0.5)
        alice = qfi_unitary(s.fiducial, s.k_generator)
        assert qfi_loss(s) == pytest.approx(alice, abs=1e-10)
        assert check_max_loss(s)

    def test_direction_indicator_no_loss_at_z_zero(self):
        s = example3(0.0, 1.0)
        assert check_no_loss(s)
        assert qfi_loss(s) == pytest.approx(0.0, abs=1e-10)

    def test_theorem_bounds_fuzz(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            s = random_scenario(rng, dim, degenerate_g=bool(rng.uniform() < 0.4))
            loss = qfi_loss(s)
            alice = qfi_unitary(s.fiducial, s.k_generator)
            assert -1e-9 <= loss <= alice + 1e-9
            assert loss == pytest.approx(loss_covariance_form(s), abs=1e-8)
            assert loss == pytest.approx(alice - qfi_twirled_pure(s), abs=1e-8)

    def test_predicates_agree_with_loss_magnitude(self):
        rng = np.random.default_rng(107)
        tol = 1e-8
        for _ in range(50):
            dim = int(rng.integers(2, 13))
            s = random_scenario(rng, dim, degenerate_g=bool(rng.uniform() < 0.5))
            loss = qfi_loss(s)
            alice = qfi_unitary(s.fiducial, s.k_generator)
            if check_no_loss(s, tol):
                assert abs(loss) <= 10 * tol * max(1.0, alice)
            if check_max_loss(s, tol):
                assert abs(loss - alice) <= 10 * tol * max(1.0, alice)

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            dim = int(rng.integers(3, 13))
            s = random_scenario(rng, dim, degenerate_g=True)
            trivial = qfi_twirled_pure(on_identity(s))
            fine = qfi_twirled_pure(s)
            assert fine <= trivial + 1e-9

    def test_purely_imaginary_overlap(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            s = random_scenario(rng, int(rng.integers(2, 25)))
            ov = np.vdot(s.psi_lambda.amplitudes, s.dpsi)
            assert abs(ov.real) <= 1e-10 * max(1.0, abs(ov))


class TestNecessaryConditions:
    def test_counterexample_not_sufficient(self):
        s = counterexample_scenario(0.7)
        cov, _ = necessary_conditions(s)
        assert abs(cov) <= 1e-12
        assert qfi_twirled_pure(s) <= 1e-10  # zero covariance, yet total loss

    def test_interacting_oscillator_covariance_constant(self):
        for n in (4, 9):
            system = example2_system(n_total_max=n)
            qrf = qrf_amplitudes(QrfStateSpec.uniform(n), n)
            for lam in (0.0, 0.9, 2.2):
                s = system.scenario(qrf, lam)
                cov, _ = necessary_conditions(s)
                assert cov == pytest.approx(0.25, abs=1e-9)

    def test_interacting_oscillator_commutator_estimate(self):
        n = 9
        system = example2_system(n_total_max=n)
        qrf = qrf_amplitudes(QrfStateSpec.uniform(n), n)
        s = system.scenario(qrf, np.pi / 2)
        _, mean_comm = necessary_conditions(s)
        approx = (2.0 * system.kappa / 3.0) * np.sqrt(n) * abs(np.sin(s.lam))
        assert abs(mean_comm) == pytest.approx(approx, rel=0.15)
        # exact magnitude: kappa * sum(sqrt(n)) / N * |sin lambda|
        exact = system.kappa * sum(np.sqrt(k) for k in range(1, n)) / n
        assert abs(mean_comm) == pytest.approx(exact, abs=1e-10)

    def test_commuting_generators_give_an_exact_zero_commutator(self):
        # <[G, K]> is formed from the exact matrix GK - KG, which is the zero
        # matrix when K and G commute; the vector form <G psi|K psi> - c.c.
        # leaves rounding (4.4e-16 on example 1) in the max-loss condition
        probes = [QrfStateSpec.uniform(6), QrfStateSpec.coherent(1.0)]
        scenarios = [
            example1_scenario(qrf_amplitudes(spec), lam)
            for spec in probes
            for lam in (0.0, 0.4, 1.3, 2.9)
        ] + [counterexample_scenario(lam) for lam in (0.0, 0.7, 2.1)]
        for s in scenarios:
            _, mean_comm = necessary_conditions(s)
            assert mean_comm == 0j

    def test_implications_on_extreme_scenarios(self):
        qrf = qrf_amplitudes(QrfStateSpec.squeezed_displaced(0.0, 1.0), 80)
        s = example1_scenario(qrf, 0.4)
        _, mean_comm = necessary_conditions(s)
        assert abs(mean_comm) <= 1e-10  # max loss forces vanishing commutator
        s0 = example3(0.0, 0.8)
        cov, _ = necessary_conditions(s0)
        assert abs(cov) <= 1e-10  # no loss forces vanishing covariance


def generator_pairs():
    """(K, G) pairs for the products of the generators, by name."""
    rng = np.random.default_rng(197)
    pairs = {}
    for alpha_sq in (2.0, 20.0, 60.0):
        s = example1_scenario(qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(alpha_sq))))
        pairs[f"example1_alpha_sq_{alpha_sq:g}"] = s.k_generator, s.g_generator
    for n in (6, 30):
        system = example2_system(n_total_max=n)
        pairs[f"example2_n{n}"] = system.k_generator, system.hamiltonian
    s = counterexample_scenario(0.4)
    pairs["counterexample"] = s.k_generator, s.g_generator
    pairs["dense_d256"] = random_hermitian(rng, 256), random_degenerate_hermitian(rng, 256, 64)
    # block ends that cross: K on (2, 5, 7), G on (3, 5, 7), so both are
    # relaid onto the joint layout (5, 7)
    k_blocks = [random_hermitian(rng, r).matrix for r in (2, 3, 2)]
    g_blocks = [random_hermitian(rng, r).matrix for r in (3, 2, 2)]
    pairs["crossed_blocks"] = (
        HermitianOperator.from_blocks([2, 5, 7], [np.stack([k_blocks[0], k_blocks[2]]),
                                                  k_blocks[1][None]]),
        HermitianOperator.from_blocks([3, 5, 7], [np.stack(g_blocks[1:]), g_blocks[0][None]]),
    )
    return pairs


def vdot_cluster_sums(a, b, bounds):
    """p, the overlap and dpsi_weight, one np.vdot per cluster and sum."""
    segments = [(a[b1:b2], b[b1:b2]) for b1, b2 in zip(bounds, bounds[1:])]
    p = np.array([np.real(np.vdot(seg_a, seg_a)) for seg_a, _ in segments])
    overlap = np.array([np.vdot(seg_a, seg_b) for seg_a, seg_b in segments])
    weight = np.array([np.real(np.vdot(seg_b, seg_b)) for _, seg_b in segments])
    return p, overlap, weight


PER_GENERATOR_PAIR = pytest.mark.parametrize(
    "k, g", [pytest.param(*pair, id=name) for name, pair in generator_pairs().items()]
)


class TestBlockwiseSums:
    """Products and sums formed block by block carry the dense bits."""

    @PER_GENERATOR_PAIR
    def test_generator_products_match_the_dense_products(self, k, g):
        # the pair keeps its products as blocks on the joint layout, where both
        # operators' blocks end: the dense products must be zero outside them
        anti, comm = metrology.Generators(k, g).products
        joint = np.intersect1d(k.blocks.ends, g.blocks.ends)
        assert anti.ends.tolist() == comm.ends.tolist() == joint.tolist()
        gk, kg = g.matrix @ k.matrix, k.matrix @ g.matrix
        assert np.array_equal(anti.dense(), _hermitian_part(gk + kg))
        assert np.array_equal(comm.dense(), gk - kg)

    @PER_GENERATOR_PAIR
    def test_public_products_match_the_dense_products(self, k, g):
        for a, b in ((g, k), (k, g)):
            ab, ba = a.matrix @ b.matrix, b.matrix @ a.matrix
            assert np.array_equal(commutator(a, b), ab - ba)
            assert np.array_equal(anticommutator(a, b).matrix, _hermitian_part(ab + ba))

    @PER_GENERATOR_PAIR
    def test_hermitian_part_of_a_stack_matches_each_matrix(self, k, g):
        stack = np.stack((g.matrix @ k.matrix, k.matrix @ g.matrix, k.matrix))
        sym = _hermitian_part(stack)
        assert all(np.array_equal(sym[i], _hermitian_part(x)) for i, x in enumerate(stack))

    @PER_GENERATOR_PAIR
    def test_hermitian_operator_keeps_the_hermitian_part(self, k, g):
        # GK + KG is Hermitian up to rounding, so its drift is symmetrized away
        x = g.matrix @ k.matrix + k.matrix @ g.matrix
        strided = np.zeros((x.shape[0], 2 * x.shape[1]), dtype=complex)
        strided[:, ::2] = x
        read_only = x.copy()
        read_only.setflags(write=False)
        for matrix in (strided[:, ::2], read_only):
            op = HermitianOperator(matrix)
            assert np.array_equal(op.matrix, _hermitian_part(x))
            assert not np.shares_memory(op.matrix, matrix)

    @pytest.mark.parametrize("case", ["mixed_sizes", "example2_n30"])
    def test_cluster_sums_match_per_cluster_vdot(self, case):
        rng = np.random.default_rng(199)
        if case == "mixed_sizes":
            sizes = np.concatenate((np.arange(1, 17), rng.integers(1, 17, size=24)))
            rng.shuffle(sizes)
            bounds = [0, *np.cumsum(sizes).tolist()]
            basis, k = random_unitary(rng, bounds[-1]), random_hermitian(rng, bounds[-1])
            psi = haar_state(rng, bounds[-1]).amplitudes
            dpsi = -1j * (k.matrix @ psi)
        else:
            system = example2_system(n_total_max=30)
            s = system.scenario(qrf_amplitudes(QrfStateSpec.uniform(30), 30), 0.7)
            p = spectral_projectors(s.g_generator)
            assert p.ranks() == (1,) * 496
            basis, bounds = p.basis, p.bounds
            psi, dpsi = s.psi_lambda.amplitudes, s.dpsi
        clusters = hilbert._Layout(np.array(bounds[1:]))
        data = metrology._segment_sums(basis.conj().T @ psi, basis.conj().T @ dpsi, clusters)
        p_ref, overlap_ref, weight_ref = vdot_cluster_sums(data.a, data.b, bounds)
        assert np.array_equal(data.p, p_ref)
        assert np.array_equal(data.overlap, overlap_ref)
        assert np.array_equal(data.dpsi_weight, weight_ref)


class TestMixedStateQfi:
    def test_pure_state_consistency(self):
        rng = np.random.default_rng(127)
        s = random_scenario(rng, 8)
        value = qfi_mixed(s.rho_lambda, s.drho_lambda)
        assert value == pytest.approx(qfi_pure(s.psi_lambda, s.dpsi), abs=1e-8)
        sld = sld_mixed(s.rho_lambda, s.drho_lambda)
        assert np.max(np.abs(sld.matrix - 2.0 * s.drho_lambda)) < 1e-7

    def test_twirled_uniform_probe(self):
        qrf = qrf_amplitudes(QrfStateSpec.uniform(4), 4)
        s = example1_scenario(qrf, 0.7)
        p = spectral_projectors(s.g_generator)
        rho_b = twirl(s.rho_lambda, p)
        drho_b = twirl_hermitian(s.drho_lambda, p)
        assert qfi_mixed(rho_b, drho_b) == pytest.approx(0.75, abs=1e-10)

    def test_fresh_twirl_decomposes_once(self, eigh_calls):
        # the positivity check of the dephased state holds the decomposition
        # that qfi_mixed reads
        rng = np.random.default_rng(129)
        s = random_scenario(rng, 6, degenerate_g=True)
        p = spectral_projectors(s.g_generator)
        rho, drho_b = s.rho_lambda, twirl_hermitian(s.drho_lambda, p)
        eigh_calls.clear()
        qfi_mixed(twirl(rho, p), drho_b)
        assert eigh_calls == [6]

    def test_eigenbasis_pair_matches_the_pinched_pair(self):
        # report() builds the dephased pair in G's eigenbasis V from V^dag psi
        # and V^dag dpsi; the QFI is the same as the pinched pair's
        rng = np.random.default_rng(139)
        for _ in range(20):
            s = random_scenario(rng, int(rng.integers(4, 17)), degenerate_g=True)
            p = spectral_projectors(s.g_generator)
            rho_v, drho_v = eigenbasis_pair(s, p)
            pinched = qfi_mixed(twirl(s.rho_lambda, p), twirl_hermitian(s.drho_lambda, p))
            assert qfi_mixed(rho_v, drho_v) == pytest.approx(pinched, abs=1e-9)
            assert qfi_mixed(rho_v, drho_v) == pytest.approx(
                qfi_twirled_pure(s), abs=1e-8 * max(1.0, pinched)
            )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_matches_the_textbook_sum(self, dim, data):
        rank = data.draw(st.integers(1, dim))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u = random_unitary(rng, dim)
        weights = np.zeros(dim)
        weights[:rank] = rng.uniform(0.1, 1.0, size=rank)
        rho = DensityMatrix((u * (weights / weights.sum())) @ u.conj().T)
        drho = random_traceless(rng, dim)
        expected, _ = textbook_sld(rho, drho)
        assert abs(qfi_mixed(rho, drho) - expected) <= 1e-10 * max(1.0, expected)
        sld = sld_mixed(rho, drho).matrix
        w, v = np.linalg.eigh(rho.matrix)
        support = v[:, w > 1e-12]
        residual = 2.0 * drho - sld @ rho.matrix - rho.matrix @ sld
        assert np.max(np.abs(support.conj().T @ residual @ support)) <= 1e-8

    @settings(max_examples=100, deadline=None)
    @given(block_structures(), st.integers(0, 2**32 - 1))
    def test_block_diagonal_pairs_match_the_dense_sum(self, blocks, seed):
        # blocks of one size are evaluated as one stack, with ranks that
        # differ from block to block, and drho couples blocks of rho
        rho, drho = block_diagonal_pair(np.random.default_rng(seed), blocks)
        expected, expected_sld = textbook_sld(rho, drho)
        tol = 1e-10 * max(1.0, expected)
        assert abs(qfi_mixed(rho, drho) - expected) <= tol
        assert np.max(np.abs(sld_mixed(rho, drho).matrix - expected_sld)) <= tol

    def test_drho_on_rho_blocks_is_read_per_block(self, monkeypatch):
        # a d x d drho whose nonzeros fit rho's blocks is laid on rho's own
        # layout: the QFI has the bits of drho given as those blocks, and V is
        # never built as a d x d array
        def refuse(self):
            raise AssertionError("built V as a d x d array")

        rng = np.random.default_rng(149)
        for _ in range(20):
            sizes = rng.integers(1, 6, size=int(rng.integers(1, 6)))
            blocks = [[(int(n), int(rng.integers(1, n + 1)))] for n in sizes]
            rho, drho = block_diagonal_pair(rng, blocks)
            assert rho.blocks.ends.tolist() == np.cumsum(sizes).tolist()
            expected = qfi_mixed(rho, hilbert._Blocks.on(rho.blocks.layout, drho))
            with monkeypatch.context() as patch:
                patch.setattr(hilbert._EigenBasis, "dense", refuse)
                assert qfi_mixed(rho, drho) == expected
                with pytest.raises(AssertionError, match="d x d"):
                    rho.eig  # the patch is live

    @pytest.mark.parametrize(
        "case", ["full-rank", "rank-deficient", "example1-dephased", "multi-block"]
    )
    def test_verification_fires_on_perturbed_eigenvectors(self, case):
        # the SLD equation is tested against rho's own matrix, so eigenvectors
        # that are off by 1e-6 fail it although R and L' stay consistent
        rng = np.random.default_rng(141)
        if case == "example1-dephased":
            s = example1_scenario(qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(20.0))), 0.7)
            rho, drho = eigenbasis_pair(s, spectral_projectors(s.g_generator))
        elif case == "multi-block":
            blocks = [[(2, 1), (1, 1)], [(3, 2)], [(1, 0), (2, 2)], [(3, 3)]]
            rho, drho = block_diagonal_pair(rng, blocks)
        else:
            rho = random_density(rng, 6, rank=6 if case == "full-rank" else 3)
            drho = random_traceless(rng, 6)
        for compute in (qfi_mixed, sld_mixed):
            fresh = DensityMatrix(rho.matrix)
            compute(fresh, drho)
            # each block of the eigenvectors off by 1e-6; eig rebuilds V from them
            w, basis = fresh._eig
            noisy = tuple(v + 1e-6 * (rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape))
                          for v in basis.vectors.stacks)
            vectors = hilbert._Blocks(basis.vectors.layout, noisy)
            vars(fresh)["_eig"] = (w, hilbert._EigenBasis(vectors, basis.column))
            vars(fresh).pop("eig", None)
            with pytest.raises(ConsistencyError, match="SLD defining equation"):
                compute(fresh, drho)

    def test_twirled_direction_indicator(self):
        s = example3(0.5, np.pi / 3)
        p = spectral_projectors(s.g_generator)
        rho_b = twirl(s.rho_lambda, p)
        drho_b = twirl_hermitian(s.drho_lambda, p)
        assert qfi_mixed(rho_b, drho_b) == pytest.approx(
            example3_bob_qfi(0.5, np.pi / 3), abs=1e-10
        )

    def test_input_validation(self):
        rng = np.random.default_rng(131)
        s = random_scenario(rng, 4)
        with pytest.raises(ValueError):
            qfi_mixed(s.rho_lambda, np.eye(4))  # not traceless
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            qfi_mixed(s.rho_lambda, bad)  # not Hermitian

    def test_hermiticity_floor_and_message(self):
        # the drift is |drho - drho^dag| against 1e-9 max(1, max|drho|)
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        drho = np.array([[0.0, 1.0], [1.0 + 2e-9, 0.0]], dtype=complex)
        expected = ("drho is not Hermitian (max drift 2.000e-09,"
                    " floor 1e-9 max(1, max|drho|) = 1.000e-09)")
        with pytest.raises(ValueError) as excinfo:
            qfi_mixed(rho, drho)
        assert str(excinfo.value) == expected
        drho[1, 0] = 1.0 + 5e-10  # inside the floor: rounding, accepted
        assert qfi_mixed(rho, drho) == pytest.approx(4.0, abs=1e-8)
        drho[1, 0] = 1.0  # exactly Hermitian
        assert qfi_mixed(rho, drho) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("compute", [qfi_mixed, sld_mixed])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_drho_rejected(self, compute, entry, value):
        # a NaN passes every floor (NaN > floor is False) and used to come
        # back as a NaN QFI
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        drho = np.zeros((2, 2), dtype=complex)
        drho[entry] = value
        with pytest.raises(ValueError, match="^drho entries must be finite$"):
            compute(rho, drho)

    def test_finite_difference_derivative(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            s = random_scenario(rng, int(rng.integers(2, 9)))
            fd = finite_difference_drho(s)
            assert np.max(np.abs(fd - s.drho_lambda)) <= 1e-6


class TestSld:
    def test_twirled_sld_contracts(self):
        cases = []
        qrf = qrf_amplitudes(QrfStateSpec.uniform(6), 6)
        cases.append(example1_scenario(qrf, 0.9))
        cases.append(example3(0.5, np.pi / 3))
        system = example2_system(n_total_max=4)
        cases.append(system.scenario(qrf_amplitudes(QrfStateSpec.uniform(4), 4), 0.7))
        for s in cases:
            p = spectral_projectors(s.g_generator)
            sld = sld_twirled(s).matrix
            rho_b = twirl(s.rho_lambda, p)
            drho_b = twirl_hermitian(s.drho_lambda, p)
            bob = qfi_twirled_pure(s)
            assert np.real(np.trace(drho_b @ sld)) == pytest.approx(bob, abs=1e-8)
            residual = 2.0 * drho_b - sld @ rho_b.matrix - rho_b.matrix @ sld
            w, v = rho_b.eig
            support = v[:, w > 1e-12]
            assert np.max(np.abs(support.conj().T @ residual @ support)) <= 1e-8
            # matches the eigendecomposition route entrywise
            assert np.max(np.abs(sld - sld_mixed(rho_b, drho_b).matrix)) <= 1e-8

    def test_matches_the_explicit_cluster_sum(self):
        rng = np.random.default_rng(143)
        scenarios = [
            random_scenario(rng, int(rng.integers(2, 13)), degenerate_g=True) for _ in range(20)
        ]
        # psi0 misses G's middle eigenspace, so at lambda = 0 that p_i is 0
        g = HermitianOperator(np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 2.0]).astype(complex))
        untouched = Scenario(StateVector([1.0, 0.5j, 0, 0, 0, 0.3]), random_hermitian(rng, 6), g)
        scenarios.append(untouched)
        assert np.linalg.norm(untouched.psi_lambda.amplitudes[2:5]) < 1e-12
        scenarios.append(on_identity(random_scenario(rng, 6)))
        for s in scenarios:
            sld = sld_twirled(s).matrix
            expected = naive_twirled_sld(s, spectral_projectors(s.g_generator))
            assert np.max(np.abs(sld - expected)) <= 1e-12 * max(1.0, np.linalg.norm(expected, 2))

    def test_uniform_probe_sld_structure(self):
        n, lam = 5, 0.8
        qrf = qrf_amplitudes(QrfStateSpec.uniform(n), n)
        s = example1_scenario(qrf, lam)
        sld = sld_twirled(s).matrix
        expected = np.zeros_like(sld)
        for m in range(1, n):
            ket_up = np.zeros(2 * n, dtype=complex)
            ket_up[m] = 1.0  # |0, m>
            ket_down = np.zeros(2 * n, dtype=complex)
            ket_down[n + m - 1] = 1.0  # |1, m-1>
            block = 1j * np.exp(1j * lam) * np.outer(ket_up, ket_down.conj())
            expected += block + block.conj().T
        assert np.max(np.abs(sld - expected)) <= 1e-10

    def test_direction_indicator_sld_diagonal(self):
        z, lam = 0.5, np.pi / 3
        s = example3(z, lam)
        sld = sld_twirled(s).matrix
        upper, lower = example3_sld_diag(z, lam)
        assert np.max(np.abs(sld - np.diag([upper, lower]))) <= 1e-10
        with pytest.raises(ValueError):
            example3_sld_diag(z, 0.0)

    def test_trivial_projector_gives_pure_sld(self):
        rng = np.random.default_rng(139)
        s = on_identity(random_scenario(rng, 6))
        sld = sld_twirled(s).matrix
        assert np.max(np.abs(sld - 2.0 * s.drho_lambda)) <= 1e-10
        # the trace relation reproduces the pure QFI
        assert np.real(np.trace(s.drho_lambda @ sld)) == pytest.approx(
            qfi_pure(s.psi_lambda, s.dpsi), abs=1e-8
        )


class TestMeasurements:
    def test_optimal_povm_direction_indicator(self):
        s = example3(0.5, np.pi / 3)
        sld = sld_twirled(s)
        povm = optimal_povm(sld)
        mats = sorted((np.round(p.matrix.real, 12) for p in povm), key=lambda m: m[0, 0])
        assert np.allclose(mats[0], np.diag([0.0, 1.0]), atol=1e-10)
        assert np.allclose(mats[1], np.diag([1.0, 0.0]), atol=1e-10)

    def test_optimal_povm_sigma_x(self):
        povm = optimal_povm(HermitianOperator(SIGMA_X))
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
        got = sorted((p.matrix for p in povm), key=lambda m: m[0, 1].real)
        assert np.max(np.abs(got[0] - minus)) < 1e-12
        assert np.max(np.abs(got[1] - plus)) < 1e-12

    def test_uniform_probe_sld_povm_saturates(self):
        qrf = qrf_amplitudes(QrfStateSpec.uniform(4), 4)
        s = example1_scenario(qrf, 0.7)
        p = spectral_projectors(s.g_generator)
        povm = optimal_povm(sld_twirled(s))
        rho_b = twirl(s.rho_lambda, p)
        drho_b = twirl_hermitian(s.drho_lambda, p)
        fisher = classical_fisher(povm, rho_b, drho_b)
        assert fisher == pytest.approx(qfi_twirled_pure(s), abs=1e-8)

    def test_classical_fisher_computational_basis(self):
        z, lam = 0.5, 1.1
        s = example3(z, lam)
        p = spectral_projectors(s.g_generator)
        povm = [
            HermitianOperator(np.diag([1.0, 0.0]).astype(complex)),
            HermitianOperator(np.diag([0.0, 1.0]).astype(complex)),
        ]
        rho_b = twirl(s.rho_lambda, p)
        drho_b = twirl_hermitian(s.drho_lambda, p)
        assert classical_fisher(povm, rho_b, drho_b) == pytest.approx(
            example3_bob_qfi(z, lam), abs=1e-10
        )

    def test_classical_fisher_reads_rho_as_its_conjugate_bit_for_bit(self):
        # the stored rho is exactly Hermitian, so conj(rho) stands in for
        # rho^T; drho is raw input and is still read through its transpose
        rng = np.random.default_rng(151)
        for dim in (3, 8, 24):
            s = random_scenario(rng, dim, degenerate_g=True)
            p = spectral_projectors(s.g_generator)
            rho_b = twirl(s.rho_lambda, p)
            drho_b = twirl_hermitian(s.drho_lambda, p)
            u = random_unitary(rng, dim)
            povm = [HermitianOperator(np.outer(col, col.conj())) for col in u.T]
            expected = 0.0
            for element in povm:
                prob = float(np.real(np.sum(element.matrix * rho_b.matrix.T)))
                dprob = float(np.real(np.sum(element.matrix * drho_b.T)))
                expected += dprob**2 / prob
            fisher = classical_fisher(povm, rho_b, drho_b)
            assert np.float64(fisher).view(np.uint64) == np.float64(expected).view(np.uint64)

    def test_classical_fisher_caches_no_eigenvector_matrix(self):
        # the positivity check reads each element's eigenvalues only; eig
        # would build and keep a d x d V on every element of the list
        s = example1_scenario(qrf_amplitudes(QrfStateSpec.uniform(6), 6), 0.7)
        p = spectral_projectors(s.g_generator)
        rho_b = twirl(s.rho_lambda, p)
        drho_b = twirl_hermitian(s.drho_lambda, p)
        povm = optimal_povm(sld_twirled(s))
        fisher = classical_fisher(povm, rho_b, drho_b)
        assert s.dim == 12 and len(povm) == 3
        assert not any("eig" in vars(element) for element in povm)
        expected = 0.0
        for element in povm:
            prob = float(np.real(np.sum(element.matrix * rho_b.matrix.T)))
            dprob = float(np.real(np.sum(element.matrix * drho_b.T)))
            expected += dprob**2 / prob
        assert np.float64(fisher).view(np.uint64) == np.float64(expected).view(np.uint64)

    def test_identity_povm_carries_nothing(self):
        rng = np.random.default_rng(149)
        s = random_scenario(rng, 5)
        povm = [HermitianOperator(np.eye(5, dtype=complex))]
        assert classical_fisher(povm, s.rho_lambda, s.drho_lambda) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_random_povms_bounded_by_qfi(self):
        rng = np.random.default_rng(151)
        qrf = qrf_amplitudes(QrfStateSpec.uniform(4), 4)
        s = example1_scenario(qrf, 0.9)
        p = spectral_projectors(s.g_generator)
        rho_b = twirl(s.rho_lambda, p)
        drho_b = twirl_hermitian(s.drho_lambda, p)
        bob = qfi_twirled_pure(s)
        dim = rho_b.dim
        for _ in range(200):
            n_outcomes = int(rng.integers(2, 6))
            blocks = []
            for _ in range(n_outcomes):
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                blocks.append(a @ a.conj().T)
            total = sum(blocks)
            w, v = np.linalg.eigh(total)
            inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
            povm = [HermitianOperator(inv_sqrt @ b @ inv_sqrt) for b in blocks]
            fisher = classical_fisher(povm, rho_b, drho_b)
            assert fisher <= bob + 1e-8

    @pytest.mark.parametrize("compute", ["classical_fisher", "qfi_mixed", "sld_mixed"])
    def test_drho_must_be_a_finite_square_array(self, compute):
        # a 1-d or (d, 1) drho used to broadcast into a wrong Fisher
        # information, and a NaN drho to come back as NaN
        s = example3_scenario((0.6, 0.0, 0.8), 0.4)
        rho, drho = s.rho_lambda, s.drho_lambda
        povm = optimal_povm(sld_mixed(rho, drho))
        call = {"classical_fisher": lambda d: classical_fisher(povm, rho, d),
                "qfi_mixed": lambda d: qfi_mixed(rho, d),
                "sld_mixed": lambda d: sld_mixed(rho, d).matrix}[compute]
        assert np.all(np.isfinite(call(drho)))
        if compute != "sld_mixed":
            assert call(drho) == pytest.approx(0.36, abs=1e-12)
        for bad in (drho[0], drho[:, :1], drho[None]):
            with pytest.raises(hilbert.DimensionMismatchError, match="dimension mismatch"):
                call(bad)
        with pytest.raises(ValueError, match="^drho entries must be finite$"):
            call(np.full_like(drho, np.nan))

    def test_povm_validation(self):
        rng = np.random.default_rng(157)
        s = random_scenario(rng, 3)
        with pytest.raises(ValueError):
            classical_fisher(
                [HermitianOperator(np.diag([1.0, 1.0, 0.5]).astype(complex))],
                s.rho_lambda,
                s.drho_lambda,
            )
        # complete, but one element is not positive
        negative = np.diag([1.0, 1.5, 0.5]).astype(complex)
        povm = [HermitianOperator(negative), HermitianOperator(np.eye(3) - negative)]
        with pytest.raises(ValueError, match="negative eigenvalue"):
            classical_fisher(povm, s.rho_lambda, s.drho_lambda)


class TestReport:
    def test_one_cluster_pass_per_scenario(self, monkeypatch):
        # report(), the dephased forms, the residuals and sld_twirled read the
        # scenario's one pass; only the gate forms its own sums
        calls, segment_sums = [], metrology._segment_sums

        def counted(a, b, clusters):
            calls.append(clusters)
            return segment_sums(a, b, clusters)

        monkeypatch.setattr(metrology, "_segment_sums", counted)
        s = example1_scenario(qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(20.0))), 0.7)
        report(s)
        assert calls == [s.generators.dephasing.layout, s.generators.gate[1]]
        for form in (qfi_twirled_pure, no_loss_residual, max_loss_residuals,
                     qfi_anticommutator_form, qfi_covariance_form, qfi_loss,
                     loss_covariance_form, sld_twirled):
            form(s)
        assert len(calls) == 2

    def test_uniform_probe_report(self):
        qrf = qrf_amplitudes(QrfStateSpec.uniform(10), 10)
        rep = report(example1_scenario(qrf, 0.6))
        assert rep.alice_qfi == pytest.approx(1.0, abs=1e-10)
        assert rep.bob_qfi == pytest.approx(0.9, abs=1e-10)
        assert rep.loss == pytest.approx(0.1, abs=1e-10)
        assert not rep.no_loss and not rep.max_loss

    def test_direction_indicator_no_loss(self):
        rep = report(example3(0.0, 0.8))
        assert rep.no_loss
        assert rep.loss == pytest.approx(0.0, abs=1e-10)

    def test_counterexample_report(self):
        rep = report(counterexample_scenario(0.7))
        assert rep.bob_qfi <= 1e-10
        assert abs(rep.cov_gk) <= 1e-12
        assert rep.max_loss

    def test_cross_formula_fuzz(self):
        # report() gates only the independent checks; the algebraic forms,
        # which rearrange the same per-eigenspace sums, are reproduced here
        rng = np.random.default_rng(163)
        for _ in range(100):
            dim = int(rng.integers(2, 25))
            s = random_scenario(rng, dim, degenerate_g=bool(rng.uniform() < 0.3))
            rep = report(s)  # raises ConsistencyError on a failed check
            assert 0.0 <= rep.bob_qfi <= rep.alice_qfi + 1e-9
            bob = qfi_twirled_pure(s)
            if bob >= 0.0:
                assert rep.bob_qfi == bob
            assert rep.no_loss == check_no_loss(s)
            assert rep.max_loss == check_max_loss(s)
            tol = 1e-8 * max(1.0, rep.alice_qfi)
            assert qfi_anticommutator_form(s) == pytest.approx(bob, abs=tol)
            assert qfi_covariance_form(s) == pytest.approx(bob, abs=tol)
            assert qfi_eigenvector_form(s) == pytest.approx(bob, abs=tol)
            assert qfi_loss(s) == pytest.approx(rep.loss, abs=tol)
            assert loss_covariance_form(s) == pytest.approx(rep.loss, abs=tol)

    def test_lambda_sweep_shares_the_generator_decompositions(self, eigh_calls):
        s = random_scenario(np.random.default_rng(173), 5, lam=0.2)
        report(s)
        moved = s.with_lambda(1.3)
        assert moved.k_generator.eig is s.k_generator.eig
        assert moved.g_generator.eig is s.g_generator.eig
        eigh_calls.clear()
        report(moved)
        # the eigenvector gate's G is shared with s, so only the dephased
        # density matrix decomposes again
        assert eigh_calls == [5]

    @pytest.mark.parametrize("case", ["dense_clustered", "example2"])
    def test_sweep_gate_equals_a_fresh_scenario(self, case):
        rng = np.random.default_rng(211)
        if case == "dense_clustered":
            s = Scenario(haar_state(rng, 48), random_hermitian(rng, 48),
                         random_degenerate_hermitian(rng, 48, 12))
        else:
            system = example2_system(n_total_max=8)
            s = system.scenario(qrf_amplitudes(QrfStateSpec.uniform(8), 8))
        k, g = s.k_generator.matrix, s.g_generator.matrix
        for lam in np.linspace(-2.0, 2.0, 5):
            moved = s.with_lambda(lam)
            fresh = Scenario(s.fiducial, HermitianOperator(k), HermitianOperator(g), lam)
            assert qfi_eigenvector_form(moved) == qfi_eigenvector_form(fresh)

    def test_gate_decomposition_is_one_per_generator_pair(self, eigh_calls):
        rng = np.random.default_rng(223)
        s = random_scenario(rng, 6, degenerate_g=True)
        other = Scenario(s.fiducial, random_hermitian(rng, 6), s.g_generator, 0.4)
        first, second = s.with_lambda(0.4), s.with_lambda(1.1)
        for moved in (first, second, other):
            moved.psi_lambda  # K decomposed here, not in the gate
        eigh_calls.clear()
        qfi_eigenvector_form(first)
        qfi_eigenvector_form(second)
        assert first.generators.gate is second.generators.gate
        assert eigh_calls == [6]
        # another pair, even with the same G object, decomposes G for itself
        qfi_eigenvector_form(other)
        assert other.generators.gate is not first.generators.gate
        assert eigh_calls == [6, 6]

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_scenario_rejects_a_non_finite_lambda(self, lam):
        s = random_scenario(np.random.default_rng(229), 3)
        with pytest.raises(ValueError, match="lambda must be finite"):
            Scenario(s.fiducial, s.k_generator, s.g_generator, lam)
        with pytest.raises(ValueError, match="lambda must be finite"):
            s.with_lambda(lam)

    @pytest.mark.parametrize("cluster_tol", [0.0, -1e-8, math.nan, math.inf])
    def test_pair_rejects_a_bad_cluster_tol_at_construction(self, cluster_tol):
        rng = np.random.default_rng(223)
        k, g = random_hermitian(rng, 4), random_hermitian(rng, 4)
        with pytest.raises(ValueError) as built:
            metrology.Generators(k, g, cluster_tol)
        with pytest.raises(ValueError) as clustered:
            _cluster_layout(g.eig[0], cluster_tol)
        assert str(built.value) == str(clustered.value)
        assert str(built.value).startswith("cluster_tol must be positive and finite")

    def test_fiducials_on_one_pair_share_its_work(self, eigh_calls, monkeypatch):
        rng = np.random.default_rng(227)
        k, g = random_hermitian(rng, 12), random_degenerate_hermitian(rng, 12, 4)
        products, original = [], metrology._joint_products
        clusterings, cluster = [], metrology.spectral_projectors

        def counted(a, b):
            products.append(a.dim)
            return original(a, b)

        def counted_clusters(generator, cluster_tol):
            clusterings.append(cluster_tol)
            return cluster(generator, cluster_tol)

        monkeypatch.setattr(metrology, "_joint_products", counted)
        monkeypatch.setattr(metrology, "spectral_projectors", counted_clusters)
        pair = metrology.Generators(k, g)
        points = [(haar_state(rng, 12), lam) for _ in range(3) for lam in (0.3, -1.2)]
        reports = [report(pair.scenario(psi0, lam)) for psi0, lam in points]
        # K, G and the gate's G once for the pair; rho_B at each of the 6 points
        assert eigh_calls == [12] * (3 + 6)
        assert products == [12]
        # G is clustered once, and the pair keeps no d x d block mask
        assert clusterings == [pair.cluster_tol]
        assert "block_mask" not in vars(pair.dephasing)
        for (psi0, lam), rep in zip(points, reports):
            fresh = report(Scenario(psi0, HermitianOperator(k.matrix),
                                    HermitianOperator(g.matrix), lam))
            for name in ("alice_qfi", "bob_qfi", "cov_gk", "mean_commutator"):
                assert getattr(rep, name) == getattr(fresh, name)

    @pytest.mark.parametrize("case", ["dense_clustered", "example1"])
    def test_gate_fires_on_a_perturbed_shared_decomposition(self, case):
        # the gate reads the pair's cached decomposition at every point, so a
        # wrong one still fails report() after the first point of a sweep
        rng = np.random.default_rng(229)
        if case == "example1":
            s = example1_scenario(qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(20.0))), 0.7)
        else:
            s = Scenario(haar_state(rng, 12), random_hermitian(rng, 12),
                         random_degenerate_hermitian(rng, 12, 4), 0.7)
        report(s)
        moved = s.with_lambda(1.9)
        v, clusters = moved.generators.gate
        v = v.dense()
        noise = rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)
        # the perturbed V as one dense block, so V^dag x is its dense product
        one_block = hilbert._Layout(np.array([s.dim]))
        perturbed = hilbert._Blocks(one_block, ((v + 1e-3 * noise)[None],))
        vars(moved.generators)["gate"] = (hilbert._EigenBasis(perturbed, np.arange(s.dim)), clusters)
        with pytest.raises(ConsistencyError, match="eigenvector="):
            report(moved)

    def test_diagonal_generators_decompose_in_small_blocks(self, eigh_calls, monkeypatch):
        # example 1 has diagonal K and G with 2-fold clusters: no LAPACK call
        # sees a block larger than 2 x 2, and report() still decomposes 4 times
        lapack, blocks = np.linalg.eigh, []

        def spy(matrix, *args, **kwargs):
            blocks.append(matrix.shape[-1])
            return lapack(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        s = example1_scenario(qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(20.0))), 0.7)
        report(s)
        assert eigh_calls == [s.dim] * 4
        assert blocks and max(blocks) <= 2

    def test_mixed_state_value_is_gated(self, monkeypatch):
        # the eigenbasis pair still feeds the consistency gate
        original = metrology.qfi_mixed
        monkeypatch.setattr(metrology, "qfi_mixed", lambda rho, drho: original(rho, drho) + 1e-3)
        s = example1_scenario(qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(20.0))), 0.7)
        with pytest.raises(ConsistencyError, match="mixed_state"):
            report(s)

    def test_lambda_independence_for_commuting_noise(self):
        rng = np.random.default_rng(167)
        k, g = commuting_pair(rng, 8, n_clusters=3)
        psi0 = haar_state(rng, 8)
        values = [
            qfi_twirled_pure(Scenario(psi0, k, g, lam))
            for lam in np.linspace(-np.pi, np.pi, 20)
        ]
        assert max(values) - min(values) <= 1e-9

    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e6, 1e8])
    def test_floors_scale_with_the_clean_qfi(self, scale):
        # rounding in QFIs of size c^2 is about 1e-16 c^2, which absolute
        # 1e-9 floors on the loss and on a negative dephased QFI rejected;
        # at 1e8 the dephased drho's Hermiticity drift and trace (about
        # 1e-16 |drho|) exceeded absolute 1e-9 floors too
        rng = np.random.default_rng(181)
        no_noise = HermitianOperator(np.eye(6, dtype=complex))
        for _ in range(20):
            k = HermitianOperator(scale * random_hermitian(rng, 6).matrix)
            lam = float(rng.uniform(-np.pi, np.pi))
            rep = report(Scenario(haar_state(rng, 6), k, no_noise, lam))
            assert abs(rep.loss) <= 1e-9 * rep.alice_qfi
        # two-fold clusters {0, 1, 2} in a Haar basis: GK + KG drifts from
        # Hermitian by rounding of size 1e-16 c, which an absolute 1e-12
        # check on {G, K} rejected from c = 1e4 on; with lambda / c the
        # evolved state is the unscaled one, so each value scales exactly
        # K centered on psi0 has <K> = 0, so the imaginary rounding in <K>
        # (about 1e-16 c) is not small against its value and must not raise
        clusters = np.diag([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        for _ in range(20):
            u = random_unitary(rng, 6)
            g = HermitianOperator(u @ clusters @ u.conj().T)
            k = random_hermitian(rng, 6)
            psi0, lam = haar_state(rng, 6), float(rng.uniform(-np.pi, np.pi))
            centered = HermitianOperator(k.matrix - expectation(k, psi0) * np.eye(6))
            for k in (k, centered):
                ref = report(Scenario(psi0, k, g, lam))
                rep = report(Scenario(psi0, HermitianOperator(scale * k.matrix), g, lam / scale))
                assert rep.alice_qfi == pytest.approx(scale**2 * ref.alice_qfi, rel=1e-12)
                assert rep.bob_qfi == pytest.approx(
                    scale**2 * ref.bob_qfi, rel=1e-12, abs=1e-12 * rep.alice_qfi
                )
                assert rep.cov_gk == pytest.approx(
                    scale * ref.cov_gk, rel=1e-12, abs=1e-12 * scale
                )
        s = counterexample_scenario(0.4)
        k = HermitianOperator(scale * s.k_generator.matrix)
        rep = report(Scenario(s.fiducial, k, s.g_generator, s.lam))
        assert rep.alice_qfi == pytest.approx(scale**2, rel=1e-12)
        assert rep.bob_qfi <= 1e-9 * rep.alice_qfi
        assert rep.max_loss

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_products_of_the_generators_scale_with_k(self, scale):
        # {G, K} and both SLDs are formed from validated operators, so their
        # anti-Hermitian rounding grows as c and must not meet an absolute
        # drift check.  With lambda / c each value scales as c
        rng = np.random.default_rng(191)
        clusters = np.diag([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        for _ in range(10):
            u = random_unitary(rng, 6)
            g = HermitianOperator(u @ clusters @ u.conj().T)
            k = random_hermitian(rng, 6)
            psi0, lam = haar_state(rng, 6), float(rng.uniform(-np.pi, np.pi))
            ref = Scenario(psi0, k, g, lam)
            s = Scenario(psi0, HermitianOperator(scale * k.matrix), g, lam / scale)
            p = spectral_projectors(g)
            assert symmetrized_covariance(g, s.k_generator, s.psi_lambda) == pytest.approx(
                scale * symmetrized_covariance(g, k, ref.psi_lambda), rel=1e-12
            )
            for sld in (sld_twirled, lambda x: sld_mixed(*eigenbasis_pair(x, p))):
                unit = sld(ref).matrix
                error = np.max(np.abs(sld(s).matrix - scale * unit))
                assert error <= 1e-12 * scale * np.max(np.abs(unit))

    def test_own_mixed_state_pair_failing_a_floor_is_a_consistency_error(self):
        # K x 1e8 at lambda / 1e8: drho_B is itself rounding (max|drho_B| is
        # |Tr drho_B|), so the trace floor, which guards a caller's drho,
        # rejects report()'s own pair; it reads as a typed internal failure
        # until the floors scale with the operands
        s = counterexample_scenario(0.4)
        k = HermitianOperator(1e8 * s.k_generator.matrix)
        with pytest.raises(ConsistencyError, match=r"mixed_state .*traceless.*floor") as info:
            report(Scenario(s.fiducial, k, s.g_generator, s.lam / 1e8))
        assert isinstance(info.value.__cause__, ValueError)

    def test_loss_outside_its_bounds_is_a_consistency_error(self):
        # K = 1e4 I has alice = bob = 0, but both cancel to rounding of size
        # eps c^2: loss = -5.96e-8 against the floor 1e-9 max(1, alice).  It
        # reads as a typed internal failure until the floors scale with K
        g = HermitianOperator(np.diag([0.0, 1.0, 1.0, 2.0, 3.0, 3.0]).astype(complex))
        k = HermitianOperator(1e4 * np.eye(6, dtype=complex))
        s = Scenario(haar_state(np.random.default_rng(6), 6), k, g, 0.5)
        with pytest.raises(ConsistencyError, match=r"loss_invariant: .*floor"):
            report(s)
        with pytest.raises(ValueError, match="violates 0 <= loss"):
            metrology.QfiReport(0.0, 6e-8, 0.0, 0j, 0.0, (0.0, 0.0))

    # (K scale, stages that must occur among seeds 0-9) for K = c I on
    # G = diag(0, 1, 1, 2, 3, 3) at lambda = 0.5: alice = bob = 0 in exact
    # arithmetic, each a cancellation of size eps c^2, so every internal
    # check trips somewhere until the floors scale with K
    SCALED_IDENTITY_STAGES = {
        1e3: {"clean"},
        1e4: {"dephased", "clean", "loss_invariant"},
        1e6: {"gate"},
        1e8: {"mixed_state", "gate"},
    }
    STAGE_MESSAGES = {
        "clean": "clean QFI came out negative",
        "dephased": "dephased QFI came out negative",
        "loss_invariant": "loss_invariant: ",
        "gate": "disagree beyond the gate",
        "mixed_state": "mixed_state check",
    }

    @pytest.mark.parametrize("c", sorted(SCALED_IDENTITY_STAGES))
    def test_scaled_identity_fails_only_as_consistency_errors(self, c):
        g = HermitianOperator(np.diag([0.0, 1.0, 1.0, 2.0, 3.0, 3.0]).astype(complex))
        k = HermitianOperator(c * np.eye(6, dtype=complex))
        stages = set()
        for seed in range(10):
            s = Scenario(haar_state(np.random.default_rng(seed), 6), k, g, 0.5)
            try:
                rep = report(s)
            except ConsistencyError as exc:
                found = [n for n, m in self.STAGE_MESSAGES.items() if m in str(exc)]
                assert len(found) == 1, str(exc)
                if found[0] in ("loss_invariant", "mixed_state"):
                    assert isinstance(exc.__cause__, ValueError)
                stages.update(found)
            else:
                assert rep.alice_qfi >= 0.0 and rep.bob_qfi >= 0.0
        assert self.SCALED_IDENTITY_STAGES[c] <= stages

    def test_report_derives_the_loss_and_both_verdicts(self):
        above = 2 * metrology.DEFAULT_CONDITION_TOL
        rep = metrology.QfiReport(2.0, 1.5, 0.1, 0j, above, (0.0, 1e-9))
        assert (rep.loss, rep.no_loss, rep.max_loss) == (0.5, False, True)
        assert repr(rep).startswith(
            "QfiReport(alice_qfi=2.0, bob_qfi=1.5, loss=0.5, no_loss=False, max_loss=True,"
        )
        rep = metrology.QfiReport(2.0, 2.0, 0.0, 0j, 0.0, (above, 0.0))
        assert (rep.loss, rep.no_loss, rep.max_loss) == (0.0, True, False)

    def test_rank_change_point_does_not_crash(self):
        # at lambda = 0 the dephased family of the direction indicator changes
        # rank; the report must stay internally consistent (mixed-state
        # cross-check skipped) and reproduce the closed form
        rep = report(example3(0.5, 0.0))
        assert rep.bob_qfi == pytest.approx(example3_bob_qfi(0.5, 0.0), abs=1e-10)


def clustered_dense_scenario(rng):
    """A dense K and a dense G whose eigenspaces have every size 1 to 7."""
    sizes = rng.permutation(np.concatenate([np.arange(1, 8), rng.integers(1, 8, size=10)]))
    g_vals = np.repeat(np.arange(sizes.size, dtype=float), sizes)
    u = random_unitary(rng, g_vals.size)
    g = HermitianOperator(u @ np.diag(g_vals) @ u.conj().T)
    return Scenario(haar_state(rng, g_vals.size), random_hermitian(rng, g_vals.size), g, 0.3)


def pair_scenarios():
    """Fresh rank-regular scenarios, by name, for report()'s dephased pair."""
    cases = {
        f"example1-alpha_sq-{alpha_sq}": example1_scenario(
            qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(alpha_sq))), 0.7)
        for alpha_sq in (4.1, 40.1)
    }
    cases["dense-clusters-1-to-7"] = clustered_dense_scenario(np.random.default_rng(311))
    cases["counterexample"] = counterexample_scenario(0.4)
    system = example2_system(n_total_max=6)
    cases["example2-sector"] = system.scenario(qrf_amplitudes(QrfStateSpec.uniform(5), 5), 0.7)
    return cases


PAIR_SCENARIO_NAMES = ["example1-alpha_sq-4.1", "example1-alpha_sq-40.1", "dense-clusters-1-to-7",
                       "counterexample", "example2-sector"]


class TestDephasedPair:
    """report() writes rho_B and drho_B cluster by cluster in G's eigenbasis."""

    @staticmethod
    def reported_pair(s, monkeypatch):
        seen = []

        def spy(rho, drho):
            seen.append((rho.matrix, drho.dense()))
            return qfi_mixed(rho, drho)

        monkeypatch.setattr(metrology, "qfi_mixed", spy)
        report(s)
        assert len(seen) == 1  # the mixed-state check ran
        return seen[0]

    @pytest.mark.parametrize("name", PAIR_SCENARIO_NAMES)
    def test_matches_the_masked_outer_products(self, name, monkeypatch):
        s = pair_scenarios()[name]
        rho_ref, drho_ref = eigenbasis_pair(s, s.generators.dephasing)
        rho_ref, inside = rho_ref.matrix, cluster_mask(s.generators.dephasing).astype(bool)
        rho, drho = self.reported_pair(s, monkeypatch)
        # rho_B goes to DensityMatrix exactly Hermitian, so its drift check is skipped
        rho_raw, _ = metrology._dephased_pair(
            s._clusters, s.generators.dephasing.layout)
        assert all(np.array_equal(x, _hermitian_part(x)) for x in rho_raw)
        parts = np.repeat(inside, 2, axis=1)  # the real and imaginary words of each entry
        for got, ref in ((rho, rho_ref), (drho, drho_ref)):
            assert np.array_equal(got, ref)
            # inside the clusters' blocks the bits agree; outside both are zeros,
            # +0 here where the mask product may leave -0
            assert np.array_equal(got.view(np.uint64)[parts], ref.view(np.uint64)[parts])
            assert not np.any(got[~inside].view(np.uint64))

    @pytest.mark.parametrize("name", PAIR_SCENARIO_NAMES)
    def test_blockwise_coordinates_match_the_dense_product(self, name):
        # report() forms a = V^dag psi and b = V^dag dpsi block by block; a
        # block's sums differ from the dense product's by rounding only
        s = pair_scenarios()[name]
        data, basis = s._clusters, s.generators.dephasing.basis
        for got, x in ((data.a, s.psi_lambda.amplitudes), (data.b, s.dpsi)):
            bound = 4.0 * np.finfo(float).eps * np.linalg.norm(x)
            assert np.max(np.abs(got - basis.conj().T @ x)) <= bound


REPORT_FIELDS = ("alice_qfi", "bob_qfi", "loss", "no_loss", "max_loss", "cov_gk",
                 "mean_commutator", "no_loss_residual", "max_loss_residuals")


def as_dense(s):
    """s with each diagonal generator rebuilt from np.diag of its diagonal."""
    def dense(op):
        diagonal = op.blocks.ends.size == op.dim
        return HermitianOperator(np.diag(op.blocks.diagonal_entries())) if diagonal else op
    return Scenario(s.fiducial, dense(s.k_generator), dense(s.g_generator), s.lam)


def block_form_scenarios():
    """Worked examples whose K (and for all but example 2, G) is built from its diagonal."""
    cases = {
        f"example1-alpha_sq-{alpha_sq}": example1_scenario(
            qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(alpha_sq))), 0.7)
        for alpha_sq in (4.1, 20.1, 40.1)
    }
    cases["counterexample"] = counterexample_scenario(0.4)
    system = example2_system(n_total_max=8)
    cases["example2"] = system.scenario(qrf_amplitudes(QrfStateSpec.uniform(6), 6), 0.7)
    return cases


class TestBlockForm:
    """Operators built from their diagonals keep them, and carry the dense bits."""

    def test_fresh_example1_point_groups_each_layout_once(self, monkeypatch):
        # the blocks K and G share (and the pair's products read), G's clusters
        # (read by the cluster sums, rho_B and drho_B) and the gate's own clusters
        calls, original = [], hilbert._blocks_by_size

        def counted(ends):
            calls.append(ends.size)
            return original(ends)

        monkeypatch.setattr(hilbert, "_blocks_by_size", counted)
        s = example1_scenario(qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(40.1))), 0.7)
        report(s)
        assert 1 <= len(calls) <= 3

    @staticmethod
    def assert_report_builds_no_d_by_d_array(s, monkeypatch):
        def refuse(self):
            raise AssertionError("built a d x d array")

        monkeypatch.setattr(hilbert._Blocks, "dense", refuse)
        monkeypatch.setattr(hilbert._EigenBasis, "dense", refuse)
        seen, original = [], metrology.qfi_mixed

        def spy(rho, drho):
            seen.append(rho)
            return original(rho, drho)

        monkeypatch.setattr(metrology, "qfi_mixed", spy)
        report(s)
        assert len(seen) == 1  # rho_B was built and checked
        for op in (s.k_generator, s.g_generator, seen[0]):
            assert "matrix" not in vars(op) and "eig" not in vars(op)
            with pytest.raises(AssertionError, match="d x d"):
                op.matrix  # the patch is live

    def test_report_builds_no_d_by_d_array_for_example1(self, monkeypatch):
        s = example1_scenario(qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(40.1))), 0.7)
        assert s.dim == 352
        self.assert_report_builds_no_d_by_d_array(s, monkeypatch)

    def test_report_builds_no_d_by_d_array_for_example2(self, monkeypatch):
        # G is built from its blocks of up to 31 rows: V and V^dag act block by
        # block, and diagonal K is relaid onto G's blocks for the products
        system = example2_system(n_total_max=30)
        s = system.scenario(qrf_amplitudes(QrfStateSpec.uniform(30), 30), 0.7)
        assert s.dim == 496 and s.g_generator.blocks.ends.size == 31
        self.assert_report_builds_no_d_by_d_array(s, monkeypatch)

    @pytest.mark.parametrize("name", ["example1-alpha_sq-4.1", "example1-alpha_sq-20.1",
                                      "example1-alpha_sq-40.1", "counterexample", "example2"])
    def test_diagonal_and_dense_constructions_agree_bit_for_bit(self, name):
        s = block_form_scenarios()[name]
        dense = as_dense(s)
        for ours, theirs in ((s.k_generator, dense.k_generator),
                             (s.g_generator, dense.g_generator)):
            assert ours.matrix.tobytes() == theirs.matrix.tobytes()
            for x, y in zip(ours.eig, theirs.eig):
                assert x.tobytes() == y.tobytes()
        ours, theirs = report(s), report(dense)
        for field in REPORT_FIELDS:
            x, y = getattr(ours, field), getattr(theirs, field)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field

    @pytest.mark.parametrize("c", [1.0, 1e4, 1e6, 1e8])
    def test_scaled_counterexample_never_returns_a_wrong_verdict(self, c):
        # with lambda / c the state is the unscaled one: Cov(G, K) = 0 and
        # total loss.  At c = 1e8 drho_B is rounding against max|drho_B|, and
        # report() raises at the mixed-state trace floor; a floor on another
        # scale let it return bob_qfi = 4 with max_loss False
        s = counterexample_scenario(0.4 / c)
        k = HermitianOperator.from_diagonal(c * s.k_generator.blocks.diagonal_entries())
        try:
            rep = report(Scenario(s.fiducial, k, s.g_generator, s.lam))
        except ConsistencyError as exc:
            stages = ("mixed_state check", "loss_invariant:", "QFI formulas disagree",
                      "dephased QFI", "clean QFI", "SLD defining equation")
            assert sum(str(exc).startswith(stage) for stage in stages) == 1, str(exc)
        else:
            assert not rep.no_loss and rep.max_loss


SCALAR_FORMS = (
    qfi_twirled_pure,
    qfi_anticommutator_form,
    qfi_covariance_form,
    qfi_loss,
    loss_covariance_form,
    no_loss_residual,
    max_loss_residuals,
    check_no_loss,
    check_max_loss,
)


def form_scenarios():
    """(scenario, K and G commute) over random and worked-example scenarios."""
    rng = np.random.default_rng(233)
    cases = [(random_scenario(rng, int(rng.integers(2, 17)), degenerate_g=bool(i % 2)), False)
             for i in range(10)]
    k, g = commuting_pair(rng, 8, n_clusters=3)
    cases.append((Scenario(haar_state(rng, 8), k, g, 0.4), True))
    for spec, lam in ((QrfStateSpec.uniform(6), 0.9), (QrfStateSpec.coherent(2.0), 0.5)):
        cases.append((example1_scenario(qrf_amplitudes(spec), lam), True))
    system = example2_system(n_total_max=4)
    cases.append((system.scenario(qrf_amplitudes(QrfStateSpec.uniform(4), 4), 0.7), False))
    cases.append((example3(0.5, np.pi / 3), False))
    cases.append((counterexample_scenario(0.7), True))
    return cases


class TestPairProjectors:
    def test_forms_on_a_used_pair_equal_the_explicit_projector_set(self):
        # on a pair that already served other probes and lambdas, every value
        # keeps the bits it has on spectral_projectors(G, cluster_tol) built
        # for this call alone
        rng = np.random.default_rng(239)
        for s, commuting in form_scenarios():
            pair = s.generators
            for lam in (s.lam + 0.5, s.lam - 1.0):
                report(pair.scenario(haar_state(rng, s.dim), lam))
            explicit = metrology.Generators(s.k_generator, s.g_generator, pair.cluster_tol)
            vars(explicit)["dephasing"] = spectral_projectors(s.g_generator, pair.cluster_tol)
            given = explicit.scenario(s.fiducial, s.lam)
            forms = SCALAR_FORMS + ((qfi_commuting_form,) if commuting else ())
            for form in forms:
                ours, theirs = form(s), form(given)
                assert np.asarray(ours, float).tobytes() == np.asarray(theirs, float).tobytes(), form
            assert sld_twirled(s).matrix.tobytes() == sld_twirled(given).matrix.tobytes()
            assert pair.dephasing is not explicit.dephasing


def rotate(s, u):
    """The scenario in the basis changed by the unitary u."""
    return Scenario(
        StateVector(u @ s.fiducial.amplitudes),
        HermitianOperator(u @ s.k_generator.matrix @ u.conj().T),
        HermitianOperator(u @ s.g_generator.matrix @ u.conj().T),
        s.lam,
    )


class TestMaxLossKernel:
    def test_kernel_residual_is_basis_independent(self):
        qrf = qrf_amplitudes(QrfStateSpec.uniform(6), 6)
        s = example1_scenario(qrf, 0.4)
        p = spectral_projectors(s.g_generator)
        real_res, kernel_res = max_loss_residuals(s)
        assert real_res >= 0 and kernel_res > 0.1
        assert not check_max_loss(s)
        assert kernel_res == pytest.approx(explicit_kernel_residual(s, p), rel=1e-12)
        rng = np.random.default_rng(173)
        for _ in range(3):
            r = rotate(s, random_unitary(rng, s.dim))
            _, rotated_res = max_loss_residuals(r)
            assert rotated_res == pytest.approx(kernel_res, rel=1e-12)

    def test_kernel_residual_matches_projector_matrices(self):
        rng = np.random.default_rng(179)
        for _ in range(20):
            dim = int(rng.integers(2, 13))
            s = random_scenario(rng, dim, degenerate_g=bool(rng.uniform() < 0.5))
            p = spectral_projectors(s.g_generator)
            _, kernel_res = max_loss_residuals(s)
            assert kernel_res == pytest.approx(
                explicit_kernel_residual(s, p), rel=1e-10, abs=1e-12
            )
