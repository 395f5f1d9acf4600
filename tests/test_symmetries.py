"""Symmetries of report() and of every dephased form as property tests.

A global phase on psi0, and one unitary change of basis applied to psi0, K
and G together, leave the problem unchanged: the verdicts must be equal and
every value must agree to 1e-10 max(1, alice_qfi); under the change of basis
the twirled SLD L comes back as U L U^dag.  The draws are random
(psi0, K, G, lambda) with G of 1 to d eigenspaces at least 1e-3 apart, d <= 16;
in half of them K and G commute, so qfi_commuting_form is checked there too.
"""

import math

import numpy as np
from conftest import (
    commuting_pair,
    haar_state,
    random_degenerate_hermitian,
    random_hermitian,
    random_unitary,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_metrology import SCALAR_FORMS

from twirlqfi.hilbert import HermitianOperator, StateVector
from twirlqfi.metrology import Generators, qfi_commuting_form, qfi_unitary, report, sld_twirled


@st.composite
def clustered_problems(draw):
    """(rng, psi0, Generators(K, G), lambda, commuting) with G of <= n_clusters eigenspaces."""
    dim = draw(st.integers(2, 16))
    n_clusters = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    commuting = draw(st.booleans())
    if commuting:
        pair = Generators(*commuting_pair(rng, dim, n_clusters))
        # G's distinct values as far apart as random_degenerate_hermitian draws
        # them: closer ones leave eigenspaces conditioned as 1 / gap
        assume(np.all(np.diff(pair.dephasing.eigenvalues) >= 1e-3))
    else:
        pair = Generators(random_hermitian(rng, dim), random_degenerate_hermitian(rng, dim, n_clusters))
    lam = draw(st.floats(-math.pi, math.pi))
    return rng, haar_state(rng, dim), pair, lam, commuting


def assert_same_report(ours, theirs):
    assert (ours.no_loss, ours.max_loss) == (theirs.no_loss, theirs.max_loss)
    tol = 1e-10 * max(1.0, ours.alice_qfi)
    for name in ("alice_qfi", "bob_qfi", "loss", "cov_gk", "mean_commutator",
                 "no_loss_residual"):
        assert abs(getattr(ours, name) - getattr(theirs, name)) <= tol, name
    assert np.allclose(ours.max_loss_residuals, theirs.max_loss_residuals, rtol=0.0, atol=tol)


def assert_same_forms(ours, theirs, commuting, u):
    """The ten scalar functions agree (verdicts exactly), and theirs has the SLD u L u^dag."""
    tol = 1e-10 * max(1.0, qfi_unitary(ours.fiducial, ours.k_generator))
    for form in SCALAR_FORMS + ((qfi_commuting_form,) if commuting else ()):
        assert np.allclose(form(ours), form(theirs), rtol=0.0, atol=tol), form.__name__
    sld = u @ sld_twirled(ours).matrix @ u.conj().T
    assert np.max(np.abs(sld_twirled(theirs).matrix - sld)) <= 1e-10 * max(1.0, np.max(np.abs(sld)))


@settings(max_examples=100, deadline=None)
@given(clustered_problems(), st.floats(0.0, 2.0 * math.pi))
def test_global_phase_changes_nothing(problem, phi):
    _, psi0, pair, lam, commuting = problem
    ours = pair.scenario(psi0, lam)
    theirs = pair.scenario(StateVector(np.exp(1j * phi) * psi0.amplitudes), lam)
    assert_same_report(report(ours), report(theirs))
    assert_same_forms(ours, theirs, commuting, np.eye(psi0.dim))


@settings(max_examples=100, deadline=None)
@given(clustered_problems())
def test_joint_unitary_changes_nothing(problem):
    rng, psi0, pair, lam, commuting = problem
    u = random_unitary(rng, psi0.dim)
    u_dag = u.conj().T
    moved = Generators(HermitianOperator(u @ pair.k.matrix @ u_dag),
                       HermitianOperator(u @ pair.g.matrix @ u_dag))
    ours, theirs = pair.scenario(psi0, lam), moved.scenario(StateVector(u @ psi0.amplitudes), lam)
    assert_same_report(report(ours), report(theirs))
    assert_same_forms(ours, theirs, commuting, u)
