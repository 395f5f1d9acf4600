import math

import numpy as np
import pytest

from twirlqfi import models
from twirlqfi.channels import spectral_projectors, twirl
from twirlqfi.hilbert import HermitianOperator, StateVector, _block_ends
from twirlqfi.metrology import Scenario, qfi_twirled_pure, qfi_unitary, report
from twirlqfi.models import (
    QrfStateSpec,
    TruncationError,
    coherent_qfi_asymptote,
    coherent_qfi_hypergeometric,
    counterexample_scenario,
    example1_qfi_closed_form,
    example1_scenario,
    example2_qfi_closed_form,
    example2_system,
    example3_alice_qfi,
    example3_bob_qfi,
    example3_scenario,
    fock_ops,
    kummer_m,
    mean_occupation,
    qrf_amplitudes,
)


class TestFockOps:
    def test_two_level_lowering(self):
        lowering, raising, _ = fock_ops(2)
        assert np.max(np.abs(lowering - np.array([[0, 1], [0, 0]]))) == 0.0
        assert np.max(np.abs(raising - lowering.conj().T)) == 0.0

    def test_number_operator(self):
        _, _, number = fock_ops(4)
        assert np.max(np.abs(number - np.diag([0.0, 1, 2, 3]))) == 0.0

    def test_truncation_artifact_confined_to_corner(self):
        # oracle: enumerate; a^dag a + 1 equals a a^dag except the corner
        n = 6
        lowering, raising, number = fock_ops(n)
        left = raising @ lowering + np.eye(n)
        right = lowering @ raising
        diff = np.abs(left - right)
        assert diff[n - 1, n - 1] == pytest.approx(n, abs=1e-12)
        diff[n - 1, n - 1] = 0.0
        assert np.max(diff) < 1e-12


class TestQrfAmplitudes:
    def test_vacuum_coherent(self):
        state = qrf_amplitudes(QrfStateSpec.coherent(0.0), 8)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.max(np.abs(state.amplitudes - expected)) == 0.0

    @pytest.mark.parametrize("alpha_sq", [0.5, 20.0, 100.0])
    def test_coherent_amplitudes_match_the_recurrence(self, alpha_sq):
        # oracle: c_0 = exp(-alpha^2 / 2), c_n = c_{n-1} alpha / sqrt(n), with
        # no log factorial, on the automatic truncation
        alpha = math.sqrt(alpha_sq)
        truncation = qrf_amplitudes(QrfStateSpec.coherent(alpha)).dim
        expected = np.empty(truncation)
        expected[0] = math.exp(-0.5 * alpha_sq)
        for n in range(1, truncation):
            expected[n] = expected[n - 1] * alpha / math.sqrt(n)
        amps = models._coherent_amplitudes(alpha, truncation)
        kept = expected >= 1e-300
        rel = np.abs(amps[kept] - expected[kept]) / expected[kept]
        assert np.max(rel) <= 1e-12

    def test_squeezed_vacuum_even_support(self):
        state = qrf_amplitudes(QrfStateSpec.squeezed_displaced(0.0, 1.0), 80)
        assert np.max(np.abs(state.amplitudes[1::2])) == 0.0
        assert np.max(np.abs(state.amplitudes[0::2])) > 0.1

    def test_coherent_mean_occupation(self):
        # oracle: Poisson mean
        state = qrf_amplitudes(QrfStateSpec.coherent(2.0), 40)
        assert mean_occupation(state) == pytest.approx(4.0, abs=1e-8)

    def test_squeezed_displaced_mean_energy(self):
        for alpha, r in ((0.0, 1.0), (1.0, 0.5), (2.0, 0.8)):
            spec = QrfStateSpec.squeezed_displaced(alpha, r)
            state = qrf_amplitudes(spec, 160)
            expected = alpha**2 + math.sinh(r) ** 2
            assert mean_occupation(state) == pytest.approx(expected, abs=1e-7)

    def test_from_mean_energy_parameterization(self):
        spec = QrfStateSpec.from_mean_energy(3.0, 0.4)
        state = qrf_amplitudes(spec, 160)
        assert mean_occupation(state) == pytest.approx(3.0, abs=1e-7)
        assert spec.alpha**2 == pytest.approx(0.4 * 3.0, abs=1e-12)

    def test_alpha_x_fraction_resolves_squeezing(self):
        direct = QrfStateSpec.squeezed_displaced(1.0, 0.7)
        mean = 1.0 + math.sinh(0.7) ** 2
        via_x = QrfStateSpec(
            kind="squeezed_displaced", alpha=1.0, x_fraction=1.0 / mean
        )
        assert via_x.squeezing() == pytest.approx(0.7, abs=1e-12)

    def test_unrealizable_x_fraction_rejected_at_construction(self):
        # with alpha = 0 the displacement carries no energy, so no r gives
        # x_fraction < 1; x_fraction = 1 is the vacuum, r = 0
        with pytest.raises(ValueError, match="leaves r undetermined"):
            QrfStateSpec(kind="squeezed_displaced", alpha=0.0, x_fraction=0.5)
        vacuum = QrfStateSpec(kind="squeezed_displaced", alpha=0.0, x_fraction=1.0)
        assert vacuum.squeezing() == 0.0

    def test_insufficient_truncation_reports_estimate(self):
        with pytest.raises(TruncationError) as err:
            qrf_amplitudes(QrfStateSpec.coherent(3.0), 12)
        assert "tail probability" in str(err.value)
        # the hint is the automatic truncation: max(32, int(4 * 9 + 16))
        assert str(err.value).endswith("; 52 levels suffice")
        assert qrf_amplitudes(QrfStateSpec.coherent(3.0)).dim == 52

    def test_uniform_needs_room(self):
        with pytest.raises(TruncationError):
            qrf_amplitudes(QrfStateSpec.uniform(8), 4)

    def test_explicit_amplitudes(self):
        state = qrf_amplitudes(
            QrfStateSpec(kind="explicit", amplitudes=(1.0, 1.0j)), 4
        )
        assert abs(state.amplitudes[0] - 1 / math.sqrt(2)) < 1e-12
        assert abs(state.amplitudes[1] - 1j / math.sqrt(2)) < 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QrfStateSpec(kind="coherent", alpha=1.0, r=0.5)  # extra field
        with pytest.raises(ValueError):
            QrfStateSpec(kind="coherent", alpha=-1.0)
        with pytest.raises(ValueError):
            QrfStateSpec(kind="uniform_superposition", n_fock=0)
        with pytest.raises(ValueError):
            QrfStateSpec(kind="nonsense")


class TestClosedFormQubitQrf:
    def test_uniform_two_levels(self):
        assert example1_qfi_closed_form(np.array([1.0, 1.0]) / math.sqrt(2)) == (
            pytest.approx(0.5, abs=1e-12)
        )

    def test_single_fock_state(self):
        assert example1_qfi_closed_form(np.array([1.0])) == pytest.approx(0.0)

    def test_coherent_alpha_sq_six_near_asymptote(self):
        qrf = qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(6.0)), 60)
        value = example1_qfi_closed_form(qrf.amplitudes)
        assert value == pytest.approx(1.0 - 0.25 / 7.0, rel=0.01)

    def test_matches_pipeline_on_random_probes(self):
        rng = np.random.default_rng(211)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            amps = rng.normal(size=n) + 1j * rng.normal(size=n)
            qrf = StateVector(amps)
            closed = example1_qfi_closed_form(qrf.amplitudes)
            s = example1_scenario(qrf, lam=float(rng.uniform(-np.pi, np.pi)))
            pipe = qfi_twirled_pure(s)
            assert closed == pytest.approx(pipe, abs=1e-8)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            example1_qfi_closed_form(np.array([1.0, 1.0]))


class TestCoherentHypergeometric:
    def test_zero_displacement(self):
        assert coherent_qfi_hypergeometric(0.0) == 0.0

    def test_alpha_sq_six(self):
        assert coherent_qfi_hypergeometric(6.0) == pytest.approx(
            1.0 - 0.25 / 7.0, rel=0.01
        )

    def test_matches_truncated_pipeline(self):
        qrf = qrf_amplitudes(QrfStateSpec.coherent(math.sqrt(2.0)), 60)
        closed = example1_qfi_closed_form(qrf.amplitudes)
        assert coherent_qfi_hypergeometric(2.0) == pytest.approx(closed, abs=1e-6)

    def test_asymptotic_constant_brackets_one_quarter(self):
        c_eff = []
        for x in (50.0, 100.0, 200.0, 400.0):
            c_eff.append((1.0 - coherent_qfi_hypergeometric(x)) * (x + 1.0))
        assert all(a > b for a, b in zip(c_eff, c_eff[1:]))  # decreasing
        assert all(c >= 0.25 for c in c_eff)
        assert c_eff[-1] <= 0.2516

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            coherent_qfi_hypergeometric(-1.0)

    def test_asymptote_helper(self):
        assert coherent_qfi_asymptote(6.0) == pytest.approx(1.0 - 0.25 / 7.0, abs=1e-15)


class TestKummer:
    def test_at_zero(self):
        for b in (1.0, 2.5, 8.0):
            assert kummer_m(b, 0.0) == 1.0

    def test_identity_oracle(self):
        # M(1, 2, -x) = (1 - exp(-x)) / x
        for x in (0.5, 1.0, 3.0):
            assert kummer_m(2.0, -x) == pytest.approx(
                (1.0 - math.exp(-x)) / x, abs=1e-14
            )

    def test_brute_force_partial_sum(self):
        # oracle: 200-term direct evaluation of sum z^k / (b)_k
        b, z = 8.0, -6.0
        total, term = 0.0, 1.0
        for k in range(200):
            total += term
            term *= z / (b + k)
        assert kummer_m(b, z) == pytest.approx(total, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            kummer_m(0.0, 1.0)


def two_mode_reference(omega, kappa, labels):
    """H and K built on the full (n+1)^2-dimensional two-mode space by np.kron
    of fock_ops, then sliced to the sector's labels."""
    d = max(m + n for m, n in labels) + 1
    lowering, raising, number = fock_ops(d)
    eye = np.eye(d, dtype=complex)
    h_full = omega * (np.kron(number, eye) + np.kron(eye, number)) + kappa * (
        np.kron(raising, lowering) + np.kron(lowering, raising)
    )
    k_full = np.kron(number, eye)
    idx = [m * d + n for m, n in labels]
    return (HermitianOperator(h_full[np.ix_(idx, idx)]),
            HermitianOperator(k_full[np.ix_(idx, idx)]))


class TestExample2System:
    @pytest.mark.parametrize("n_total_max", [1, 5, 30])
    def test_hamiltonian_splits_into_one_block_per_total(self, n_total_max):
        system = example2_system(n_total_max=n_total_max)
        totals = np.arange(1, n_total_max + 2)
        assert np.array_equal(_block_ends(system.hamiltonian.matrix),
                              totals * (totals + 1) // 2)

    @pytest.mark.parametrize("omega, kappa", [(1.0, 1.0 / math.sqrt(2.0)), (1.3, 0.37)])
    @pytest.mark.parametrize("n_total_max", [1, 4, 12])
    def test_matches_the_two_mode_construction(self, omega, kappa, n_total_max):
        system = example2_system(omega, kappa, n_total_max)
        h, k = two_mode_reference(omega, kappa, system.labels)
        assert np.array_equal(system.hamiltonian.matrix, h.matrix)
        assert np.array_equal(system.k_generator.matrix, k.matrix)

    @pytest.mark.parametrize("n_total_max", [4, 12])
    def test_report_does_not_depend_on_the_label_order(self, n_total_max):
        # the same (psi0, K, G) in m-major label order, where G is not split
        system = example2_system(n_total_max=n_total_max)
        qrf = qrf_amplitudes(QrfStateSpec.uniform(n_total_max), n_total_max)
        base = system.scenario(qrf)
        order = sorted(range(system.dim), key=system.labels.__getitem__)
        grid = np.ix_(order, order)
        permuted = Scenario(
            fiducial=StateVector(base.fiducial.amplitudes[order]),
            k_generator=HermitianOperator(system.k_generator.matrix[grid]),
            g_generator=HermitianOperator(system.hamiltonian.matrix[grid]),
        )
        assert len(_block_ends(permuted.g_generator.matrix)) < n_total_max

        def values(r):
            return [r.alice_qfi, r.bob_qfi, r.loss, r.cov_gk, r.mean_commutator.real,
                    r.mean_commutator.imag, r.no_loss_residual, *r.max_loss_residuals]

        for lam in (0.0, 0.4, 0.9, math.pi / 2, 2.2, math.pi):
            ours, theirs = report(base.with_lambda(lam)), report(permuted.with_lambda(lam))
            assert (ours.no_loss, ours.max_loss) == (theirs.no_loss, theirs.max_loss)
            for got, want in zip(values(ours), values(theirs)):
                # relative, with the unit QFI scale as floor for values that are zero
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (lam, got, want)

    def test_single_excitation_eigenvalues(self):
        system = example2_system(n_total_max=3)
        w = np.linalg.eigvalsh(system.hamiltonian.matrix)
        for target in (system.omega - system.kappa, system.omega + system.kappa):
            assert np.min(np.abs(w - target)) <= 1e-12

    def test_spectrum_formula(self):
        system = example2_system(n_total_max=5)
        w = np.sort(np.linalg.eigvalsh(system.hamiltonian.matrix))
        expected = np.sort(
            [system.normal_mode_energy(m, n) for m, n in system.labels]
        )
        assert np.max(np.abs(w - expected)) <= 1e-9

    def test_normal_mode_vectors_are_eigenvectors(self):
        system = example2_system(n_total_max=4)
        h = system.hamiltonian.matrix
        for m, n in system.labels:
            vec = system.normal_mode_vector(m, n)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            energy = system.normal_mode_energy(m, n)
            assert np.max(np.abs(h @ vec - energy * vec)) <= 1e-10

    def test_commutation_structure(self):
        system = example2_system(n_total_max=4)
        h, k = system.hamiltonian.matrix, system.k_generator.matrix
        assert np.max(np.abs(k @ h - h @ k)) > 0.1  # [K, H] != 0
        total = np.diag([float(m + n) for m, n in system.labels])
        assert np.max(np.abs(k @ total - total @ k)) <= 1e-12  # [K, N_tot] = 0

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            example2_system(omega=1.0, kappa=0.5, n_total_max=4)  # 3k and k collide

    def test_embed_validates_support(self):
        system = example2_system(n_total_max=2)
        with pytest.raises(ValueError):
            system.embed_product_state(np.array([1.0, 1.0]), np.array([1.0, 0.0, 1.0]))


class TestExample2ClosedForm:
    def test_no_interference_at_lambda_zero_generic_pairs(self):
        from twirlqfi.models import _interference_fraction

        for m, n in ((2.0, 0.0), (2.0, 1.0), (3.0, 0.0), (5.0, 1.0)):
            assert _interference_fraction(np.array(m), np.array(n), 0.0) == 0.0

    def test_matches_pipeline(self):
        for n in (2, 3, 4, 5, 6):
            system = example2_system(n_total_max=n)
            qrf = qrf_amplitudes(QrfStateSpec.uniform(n), n)
            for lam in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi, 1.234):
                s = system.scenario(qrf, lam)
                pipe = qfi_twirled_pure(s)
                assert example2_qfi_closed_form(n, lam) == pytest.approx(
                    pipe, abs=1e-6
                )

    def test_extrema_locations(self):
        grid = np.linspace(-np.pi, np.pi, 81)
        values = [example2_qfi_closed_form(4, lam) for lam in grid]
        top = grid[int(np.argmax(values))]
        assert abs(abs(top) - np.pi / 2) <= 1e-12
        bottom = grid[int(np.argmin(values))]
        assert min(abs(bottom), abs(abs(bottom) - np.pi)) <= 1e-12

    def test_always_below_clean_value(self):
        for n in (2, 4, 8):
            for lam in np.linspace(-np.pi, np.pi, 17):
                assert example2_qfi_closed_form(n, lam) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            example2_qfi_closed_form(1, 0.5)


class TestExample3:
    def test_x_axis_rotation_lossless(self):
        system = example3_scenario((1.0, 0.0, 0.0))
        for lam in (0.4, 1.3, 2.9):
            s = system.with_lambda(lam)
            p = spectral_projectors(s.g_generator)
            assert qfi_twirled_pure(s) == pytest.approx(1.0, abs=1e-12)
            rho_b = twirl(s.rho_lambda, p).matrix
            expected = np.diag(
                [math.cos(lam / 2) ** 2, math.sin(lam / 2) ** 2]
            )
            assert np.max(np.abs(rho_b - expected)) <= 1e-12

    def test_tilted_axis_population(self):
        lam = 1.1
        s = example3_scenario((0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)), lam)
        rho_b = twirl(s.rho_lambda, spectral_projectors(s.g_generator)).matrix
        p1 = 0.5 * math.sin(lam / 2) ** 2
        assert np.max(np.abs(rho_b - np.diag([1 - p1, p1]))) <= 1e-12

    def test_z_axis_rotation_never_encodes(self):
        s = example3_scenario((0.0, 0.0, 1.0), 0.9)
        assert qfi_unitary(s.fiducial, s.k_generator) == pytest.approx(0.0, abs=1e-12)
        assert qfi_twirled_pure(s) == pytest.approx(0.0, abs=1e-12)

    def test_closed_forms_against_tan_expression(self):
        rng = np.random.default_rng(223)
        for _ in range(50):
            z = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(-3.0, 3.0))
            direct = (1 - z * z) / (1 + z * z * math.tan(lam / 2) ** 2)
            assert example3_bob_qfi(z, lam) == pytest.approx(direct, abs=1e-12)
        assert example3_alice_qfi(0.3) == pytest.approx(0.91, abs=1e-15)

    def test_boundary_lambda_limits(self):
        assert example3_bob_qfi(0.5, np.pi) == 0.0
        assert example3_bob_qfi(0.0, np.pi) == 1.0

    def test_dephasing_strict_unless_aligned_or_unrotated(self):
        # loss vanishes exactly when z = 0 or lambda = 0
        for z in np.linspace(0.0, 1.0, 9):
            for lam in np.linspace(-np.pi + 0.1, np.pi - 0.1, 9):
                alice = example3_alice_qfi(z)
                bob = example3_bob_qfi(z, lam)
                assert bob <= alice + 1e-12
                if z > 1e-9 and abs(lam) > 1e-9 and z < 1.0 - 1e-9:
                    assert bob < alice - 1e-12
                if z <= 1e-12 or abs(lam) <= 1e-12:
                    assert bob == pytest.approx(alice, abs=1e-9)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            example3_scenario((1.0, 1.0, 0.0))


class TestCounterexample:
    def test_construction(self):
        s = counterexample_scenario(0.3)
        assert s.dim == 3
        assert qfi_unitary(s.fiducial, s.k_generator) == pytest.approx(1.0, abs=1e-12)
