"""Symmetries of report() as property tests.

A global phase on psi0, and one unitary change of basis applied to psi0, K
and G together, leave the problem unchanged: the verdicts must be equal and
every value must agree to 1e-10 max(1, alice_qfi).  The draws are random
(psi0, K, G, lambda) with G of 1 to d eigenspaces, d <= 16.
"""

import math

import numpy as np
from conftest import haar_state, random_degenerate_hermitian, random_hermitian, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from twirlqfi.hilbert import HermitianOperator, StateVector
from twirlqfi.metrology import Generators, report


@st.composite
def clustered_problems(draw):
    """(rng, psi0, Generators(K, G), lambda) with G of n_clusters eigenspaces."""
    dim = draw(st.integers(2, 16))
    n_clusters = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = Generators(random_hermitian(rng, dim), random_degenerate_hermitian(rng, dim, n_clusters))
    lam = draw(st.floats(-math.pi, math.pi))
    return rng, haar_state(rng, dim), pair, lam


def assert_same_report(ours, theirs):
    assert (ours.no_loss, ours.max_loss) == (theirs.no_loss, theirs.max_loss)
    tol = 1e-10 * max(1.0, ours.alice_qfi)
    for name in ("alice_qfi", "bob_qfi", "loss", "cov_gk", "mean_commutator",
                 "no_loss_residual"):
        assert abs(getattr(ours, name) - getattr(theirs, name)) <= tol, name
    assert np.allclose(ours.max_loss_residuals, theirs.max_loss_residuals, rtol=0.0, atol=tol)


@settings(max_examples=100, deadline=None)
@given(clustered_problems(), st.floats(0.0, 2.0 * math.pi))
def test_global_phase_changes_nothing(problem, phi):
    _, psi0, pair, lam = problem
    rotated = StateVector(np.exp(1j * phi) * psi0.amplitudes)
    assert_same_report(report(pair.scenario(psi0, lam)), report(pair.scenario(rotated, lam)))


@settings(max_examples=100, deadline=None)
@given(clustered_problems())
def test_joint_unitary_changes_nothing(problem):
    rng, psi0, pair, lam = problem
    u = random_unitary(rng, psi0.dim)
    u_dag = u.conj().T
    moved = Generators(HermitianOperator(u @ pair.k.matrix @ u_dag),
                       HermitianOperator(u @ pair.g.matrix @ u_dag))
    assert_same_report(report(pair.scenario(psi0, lam)),
                       report(moved.scenario(StateVector(u @ psi0.amplitudes), lam)))
