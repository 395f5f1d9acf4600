"""report() on diagonal and dense generator pairs against the 40-digit reference.

The bound 1e-12 max(1, alice_qfi) is about 1,000 times the largest error
seen on the diagonal cases (1.1e-15); it holds until report() carries error
bars.
"""

import math

import numpy as np
import pytest
from conftest import haar_state, random_hermitian, random_unitary
from reference import dense_pair, diagonal_pair

from twirlqfi.hilbert import HermitianOperator
from twirlqfi.metrology import Scenario, report
from twirlqfi.models import QrfStateSpec, counterexample_scenario, example1_scenario, qrf_amplitudes


def example1_case(spec, lam):
    """Example 1, whose G = n_qubit + n has eigenspaces {(0, n), (1, n - 1)} by construction."""
    qrf = qrf_amplitudes(spec)
    n = np.arange(qrf.dim)
    labels = np.concatenate([n, n + 1])
    return example1_scenario(qrf, lam), labels


def random_case(seed):
    """Random diagonal K and a diagonal G of a few eigenvalues, each label one eigenvalue."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 13))
    n_clusters = int(rng.integers(1, dim + 1))
    values = rng.permutation(np.linspace(-2.0, 2.0, n_clusters))
    labels = rng.integers(0, n_clusters, size=dim)
    k = HermitianOperator.from_diagonal(rng.normal(size=dim))
    g = HermitianOperator.from_diagonal(values[labels])
    lam = float(rng.uniform(-math.pi, math.pi))
    return Scenario(haar_state(rng, dim), k, g, lam), labels


def cases():
    out = {}
    for lam in (0.3, 1.1):
        out[f"example1-uniform5-{lam}"] = example1_case(QrfStateSpec.uniform(5), lam)
    out["example1-coherent-alpha_sq-2-0.7"] = example1_case(QrfStateSpec.coherent(math.sqrt(2.0)), 0.7)
    for lam in (0.0, 0.4, 2.1):
        out[f"counterexample-{lam}"] = counterexample_scenario(lam), [0, 1, 2]
    for seed in range(24):
        out[f"random-{seed}"] = random_case(seed)
    return out


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_the_reference(name):
    s, labels = CASES[name]
    k, g = s.k_generator.blocks.diagonal.real, s.g_generator.blocks.diagonal.real
    ref = diagonal_pair(s.fiducial.amplitudes, k, g, list(labels), s.lam)
    rep = report(s)
    bound = 1e-12 * max(1.0, float(ref.alice_qfi))
    for field in ("alice_qfi", "bob_qfi", "loss", "cov_gk"):
        assert abs(getattr(rep, field) - float(getattr(ref, field))) <= bound, field


def dense_case(seed):
    """Dense K, and G = U diag U^dag in a Haar basis U with 2- and 3-fold eigenspaces."""
    rng = np.random.default_rng(seed)
    ranks = [3, 3, 3]
    while sum(ranks) > 8:
        ranks = rng.integers(2, 4, size=int(rng.integers(2, 4))).tolist()
    values = np.linspace(-2.0, 2.0, len(ranks)) + rng.uniform(-0.5, 0.5)
    dim = sum(ranks)
    u = random_unitary(rng, dim)
    g = HermitianOperator((u * np.repeat(values, ranks)) @ u.conj().T)
    lam = (0.3, -1.1)[seed % 2]
    return Scenario(haar_state(rng, dim), random_hermitian(rng, dim), g, lam), ranks


DENSE_CASES = {f"dense-{seed}": dense_case(seed) for seed in range(8)}


@pytest.mark.parametrize("name", sorted(DENSE_CASES))
def test_dense_report_matches_the_reference(name):
    s, ranks = DENSE_CASES[name]
    assert s.dim <= 8 and set(ranks) <= {2, 3}
    ref = dense_pair(s.fiducial.amplitudes, s.k_generator.matrix, s.g_generator.matrix,
                     ranks, s.lam)
    rep = report(s)
    assert s.generators.dephasing.ranks() == tuple(ranks)
    bound = 1e-12 * max(1.0, float(ref.alice_qfi))
    for field in ("alice_qfi", "bob_qfi", "loss", "cov_gk"):
        assert abs(getattr(rep, field) - float(getattr(ref, field))) <= bound, field
