"""Shared random generators and subprocess helpers for the test suite.

Everything is driven by explicitly seeded numpy Generators so failures
reproduce exactly.
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from twirlqfi import hilbert
from twirlqfi.hilbert import DensityMatrix, HermitianOperator, StateVector
from twirlqfi.metrology import Scenario

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

ROOT = Path(__file__).resolve().parents[1]


def src_env():
    """The environment with the repo's src first on PYTHONPATH.

    pytest's `pythonpath` setting reaches only its own process, so a test
    that starts a fresh interpreter passes this to find twirlqfi.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


@pytest.fixture
def eigh_calls(monkeypatch):
    """List that grows by one entry (the dimension) per eigh_matrix call.

    Every twirlqfi module that bound the function is patched, so calls made
    inside the library are counted too.
    """
    calls = []
    original = hilbert.eigh_matrix

    def counted(matrix):
        calls.append(matrix.shape[0])
        return original(matrix)

    for name, module in list(sys.modules.items()):
        if name == "twirlqfi" or name.startswith("twirlqfi."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def random_hermitian(rng, dim, scale=None):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if scale is None:
        scale = 1.0 / np.sqrt(dim)
    return HermitianOperator(0.5 * (a + a.conj().T) * scale)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_degenerate_hermitian(rng, dim, n_clusters):
    """Hermitian matrix whose spectrum has exactly n_clusters distinct values."""
    values = np.sort(rng.uniform(-2.0, 2.0, size=n_clusters))
    while np.any(np.diff(values) < 1e-3):
        values = np.sort(rng.uniform(-2.0, 2.0, size=n_clusters))
    labels = np.concatenate(
        [np.arange(n_clusters), rng.integers(0, n_clusters, size=dim - n_clusters)]
    )
    spectrum = values[np.sort(labels)]
    u = random_unitary(rng, dim)
    return HermitianOperator(u @ np.diag(spectrum) @ u.conj().T)


def haar_state(rng, dim):
    return StateVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_density(rng, dim, rank=None):
    rank = rank or dim
    weights = rng.dirichlet(np.ones(rank))
    mat = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = haar_state(rng, dim).amplitudes
        mat += w * np.outer(v, v.conj())
    return DensityMatrix(mat)


def random_scenario(rng, dim, lam=None, degenerate_g=False):
    k = random_hermitian(rng, dim)
    if degenerate_g and dim >= 4:
        g = random_degenerate_hermitian(rng, dim, max(2, dim // 2))
    else:
        g = random_hermitian(rng, dim)
    if lam is None:
        lam = float(rng.uniform(-np.pi, np.pi))
    return Scenario(haar_state(rng, dim), k, g, lam)


def commuting_pair(rng, dim, n_clusters=None):
    """Random commuting (K, G) sharing an eigenbasis; G may be degenerate."""
    u = random_unitary(rng, dim)
    k_vals = rng.normal(size=dim)
    if n_clusters is None:
        g_vals = rng.normal(size=dim)
    else:
        distinct = np.sort(rng.uniform(-2.0, 2.0, size=n_clusters))
        g_vals = distinct[rng.integers(0, n_clusters, size=dim)]
    k = HermitianOperator(u @ np.diag(k_vals) @ u.conj().T)
    g = HermitianOperator(u @ np.diag(g_vals) @ u.conj().T)
    return k, g


def cluster_means(p):
    """The mean eigenvalue of each cluster of a ProjectorSet, in cluster order."""
    w = p.generator.eig[0]
    return np.array([w[b1:b2].mean() for b1, b2 in zip(p.bounds, p.bounds[1:])])
