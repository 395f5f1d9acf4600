"""report() on diagonal, block-diagonal and dense generator pairs against the
40-digit reference.

The bound 1e-12 max(1, alice_qfi) is about 1,000 times the largest error
seen (7.2e-16 on the diagonal cases, 1.5e-15 on the dense ones); it holds
until report() carries error bars.  It bounds every field compared, <[G, K]>
included, and the loss theorem's residuals (no_loss_residual and both
max_loss_residuals) on the same cases.
"""

import math

import numpy as np
import pytest
from conftest import haar_state, random_hermitian, random_unitary
from reference import dense_pair, diagonal_pair

from twirlqfi.hilbert import HermitianOperator
from twirlqfi.metrology import Scenario, max_loss_residuals, no_loss_residual, report
from twirlqfi.models import (
    QrfStateSpec,
    counterexample_scenario,
    example1_scenario,
    example2_system,
    qrf_amplitudes,
)

FIELDS = ("alice_qfi", "bob_qfi", "loss", "cov_gk", "mean_commutator")


def assert_matches(s, ref):
    bound = 1e-12 * max(1.0, float(ref.alice_qfi))
    rep = report(s)
    for field in FIELDS:
        assert abs(getattr(rep, field) - complex(getattr(ref, field))) <= bound, field
    assert abs(no_loss_residual(s) - float(ref.no_loss_residual)) <= bound, "no_loss_residual"
    for name, ours, theirs in zip(("real", "kernel"), max_loss_residuals(s), ref.max_loss_residuals):
        assert abs(ours - float(theirs)) <= bound, f"max_loss_residuals {name}"


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
    k, g = (op.blocks.diagonal_entries().real for op in (s.k_generator, s.g_generator))
    ref = diagonal_pair(s.fiducial.amplitudes, k, g, list(labels), s.lam)
    assert_matches(s, ref)


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


def stacked(blocks):
    """Square blocks in row order as from_blocks takes them: one stack per size, ascending."""
    sizes = sorted({b.shape[0] for b in blocks})
    return [np.stack([b for b in blocks if b.shape[0] == r]) for r in sizes]


def block_sizes(rng, dim):
    """Random block sizes of 1 to 3 that add up to dim."""
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(rng.integers(1, min(3, dim - sum(sizes)) + 1)))
    return sizes


def block_case(seed):
    """K and G given by their blocks of sizes 1-3 (d = 10), with block ends
    that differ; G's blocks are U diag U^dag with eigenvalues from a pool of
    three, so its eigenspaces span blocks."""
    rng = np.random.default_rng(seed)
    pool = np.array([-1.0, 0.5, 2.0]) + rng.uniform(-0.25, 0.25)
    k_blocks = [random_hermitian(rng, r).matrix for r in block_sizes(rng, 10)]
    g_blocks, labels = [], []
    for r in block_sizes(rng, 10):
        picked = rng.integers(0, 3, size=r)
        labels.extend(picked.tolist())
        u = random_unitary(rng, r)
        g_blocks.append((u * pool[picked]) @ u.conj().T)
    k, g = (HermitianOperator.from_blocks(np.cumsum([b.shape[0] for b in blocks]), stacked(blocks))
            for blocks in (k_blocks, g_blocks))
    ranks = [labels.count(i) for i in range(3) if i in labels]
    lam = (0.3, -1.1)[seed % 2]
    return Scenario(haar_state(rng, 10), k, g, lam), ranks


def example2_case(lam):
    """Example 2 at n_total_max = 3 (d = 10): diagonal K, G in blocks of 1-4 rows,
    a spectrum without degeneracies."""
    system = example2_system(n_total_max=3)
    return system.scenario(qrf_amplitudes(QrfStateSpec.uniform(3), 3), lam), [1] * 10


DENSE_CASES = {f"dense-{seed}": dense_case(seed) for seed in range(8)}
DENSE_CASES.update({f"blocks-{seed}": block_case(seed) for seed in range(1, 5)})
DENSE_CASES.update({f"example2-n3-{lam}": example2_case(lam) for lam in (0.7, -1.9)})


@pytest.mark.parametrize("name", sorted(DENSE_CASES))
def test_dense_report_matches_the_reference(name):
    s, ranks = DENSE_CASES[name]
    assert s.dim <= 12
    ref = dense_pair(s.fiducial.amplitudes, s.k_generator.matrix, s.g_generator.matrix,
                     ranks, s.lam)
    assert s.generators.dephasing.ranks() == tuple(ranks)
    assert_matches(s, ref)


def test_block_cases_cross_their_block_ends():
    # K and G keep the blocks they were given, and neither's ends are all the
    # other's, so both are relaid onto the pair's joint layout
    for seed in range(1, 5):
        s, _ = DENSE_CASES[f"blocks-{seed}"]
        k, g = s.k_generator.blocks.ends, s.g_generator.blocks.ends
        joint = np.intersect1d(k, g)
        assert joint.size < min(k.size, g.size), (k, g)
